"""Command-line interface.

One declarative INI config drives every experiment (sections per
subcommand).  `main` reads the subcommand's section, each value by the
kind of its key (`_typed`), runs its `cmd_*` function on it and, with --out, persists what the command returns under
one run layout, next to a manifest of the config, the code version, the
wall clock and the artifact paths.  Each `cmd_*` prints its report and
returns (exit code, artifacts).  Exit codes: 0 success, 2 failed-invariant
report, 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import rate_fit
from .constants import (coefficient_table, gn_constant, hls_constant, rayleigh_constants,
                        riesz_normalization, sobolev_constant)
from .errors import ChoquardLabError, InvalidConfiguration
from .functional import ProblemParams, fiber_profile
from .grid import RadialField, integrate, make_grid
from .lab import (MultiplicityRow, RunManifest, check_out_root, coupling_gap_scan,
                  frame_exponents, multiplicity_experiment, persist_run, scan_threshold)
from .profiles import talenti
from .riesz import _check_dimension
from .solver import ground_state, normalized_branches, shoot_local_ground_state
from .testfn import bubble_sweep


# how each config value is read: float, unless the key is listed here
_KINDS = {"n_dim": int, "nodes": int, "t_count": int, "count": int, "mode": str,
          "field": str, "kind": str, "which": str,
          "nus": lambda text: [float(x) for x in text.split(",")]}


def _typed(cfg):
    """The config section with every value read by the kind of its key; a
    value that does not read is an InvalidConfiguration naming the key."""
    out = {}
    for key, text in cfg.items():
        try:
            out[key] = _KINDS.get(key, float)(text)
        except ValueError as e:
            raise InvalidConfiguration(f"config key {key!r} = {text!r}: {e}") from None
    return out


def _grid_from(cfg, defaults=(3, 50.0, 1000, 2.0)):
    keys = ("n_dim", "r_max", "nodes", "grading")
    return make_grid(*(cfg.get(key, d) for key, d in zip(keys, defaults)))


def _params_from(cfg):
    return ProblemParams(
        N=cfg.get("n_dim", 3), alpha=cfg.get("alpha", 2.0), p=cfg.get("p", 2.0),
        q=cfg.get("q", 4.0), mode=cfg.get("mode", "general"), lam=cfg.get("lam", 0.0),
        mu=cfg.get("mu", 0.0), nu=cfg.get("nu", 0.0), a=cfg.get("a", 1.0),
        mass_coeff=cfg.get("mass_coeff", 1.0))


def _geomspace(cfg, lo, hi, count):
    """np.geomspace from the config: `lo`, `hi` and `count` are (key, default)
    pairs, and each value must be positive and finite, else an
    InvalidConfiguration naming its key."""
    values = [cfg.get(key, default) for key, default in (lo, hi, count)]
    for (key, _), value in zip((lo, hi, count), values):
        if not 0 < value < np.inf:
            raise InvalidConfiguration(f"config key {key!r} = {value!r}: "
                                       "must be positive and finite")
    return np.geomspace(*values)


def _cell(v):
    """repr of a value, a numpy scalar as the Python number it holds."""
    return repr(v.item() if isinstance(v, np.generic) else v)


def _csv(header, rows):
    """CSV text: the `header` line, then one line per row, each value by `_cell`."""
    return header + "\n" + "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def cmd_constants(cfg):
    N, alpha, q = cfg.get("n_dim", 3), cfg.get("alpha", 2.0), cfg.get("q", 3.0)
    _check_dimension(N)         # before the default p divides by N - 2
    p = cfg.get("p", (N + alpha) / (N - 2))
    grid = _grid_from(cfg, (N, 400.0, 2400, 3.0))
    q_ground = C_Nq = None
    if q < 2 * N / (N - 2):
        q_ground = shoot_local_ground_state(N, q)
        C_Nq = gn_constant(N, q, np.sqrt(integrate(q_ground.grid, q_ground.values ** 2)))
    ray = rayleigh_constants(grid, alpha, q=q, q_ground=q_ground)
    coeffs = coefficient_table(N, alpha, p, q, S_alpha=ray.S_alpha, S=ray.S, C_Nq=C_Nq)
    report = {**asdict(coeffs), **asdict(ray), "A_alpha": riesz_normalization(N, alpha),
              "C_alpha": hls_constant(N, alpha), "C_Nq": C_Nq,
              "S_analytic": sobolev_constant(N)}
    print(f"{'quantity':<16} value")
    for k, v in report.items():
        print(f"{k:<16} {v}")
    return 0, {"constants": report}


def cmd_solve(cfg):
    res = ground_state(_params_from(cfg), _grid_from(cfg))
    print(f"level = {res.level:.10g}")
    print(f"converged = {res.converged}  residual = {res.pde_residual_scaled:.3e}  "
          f"iterations = {res.iterations}  exit = {res.exit_reason}")
    print(f"defects: nehari = {res.nehari_defect:.3e}  pohozaev = {res.pohozaev_defect:.3e}")
    return (0 if res.converged else 2), {"solves": {
        "ground_state": {
            "level": res.level, "converged": res.converged,
            "residual_scaled": res.pde_residual_scaled, "residual_sup": res.pde_residual,
            "exit_reason": res.exit_reason, "nehari": res.nehari_defect,
            "pohozaev": res.pohozaev_defect},
        "profile": res.field.to_csv()}}


def cmd_fiber(cfg):
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    source = cfg.get("field", "talenti")
    try:
        field = (talenti(grid) if source == "talenti"
                 else RadialField.from_csv(grid, Path(source).read_text()))
    except OSError:
        raise InvalidConfiguration(f"cannot read field {source}") from None
    ts = _geomspace(cfg, ("t_min", 0.1), ("t_max", 10.0), ("t_count", 100))
    prof = fiber_profile(params, field, cfg.get("kind", "ray"), ts)
    table = _csv("t,energy", zip(prof.ts, prof.energies))
    print(table, end="")
    print(f"# critical points: {prof.critical_ts}", file=sys.stderr)
    return 0, {"tables": {"fiber": table}}


def cmd_scan_threshold(cfg):
    if "crit_level" not in cfg:
        raise InvalidConfiguration("config key 'crit_level' is required")
    lo, hi = cfg.get("coupling_lo", 0.5), cfg.get("coupling_hi", 64.0)
    res = scan_threshold(_params_from(cfg), (lo, hi), cfg["crit_level"], _grid_from(cfg),
                         delta_frac=cfg.get("delta_frac", 0.005),
                         rel_tol=cfg.get("rel_tol", 0.05))
    print(f"bracket = {res.bracket}")
    for c, lev, conv, xi in res.scan:
        print(f"  c={c:.6g} level={lev:.8g} converged={conv} xi={xi:.3g}")
    return 0, {"tables": {"threshold": _csv("coupling,level,converged,xi", res.scan)}}


def cmd_asymptotics(cfg):
    N, alpha = cfg.get("n_dim", 3), cfg.get("alpha", 2.0)
    p, q = cfg.get("p", 2.0), cfg.get("q", 4.0)
    which = cfg.get("which", "lambda")
    grid = _grid_from(cfg, (N, 30.0, 900, 2.0))
    couplings = _geomspace(cfg, ("coupling_lo", 10.0), ("coupling_hi", 1000.0), ("count", 7))
    _, points = coupling_gap_scan(N, alpha, p, q, couplings, grid, which=which)
    fit = rate_fit([pt.coupling for pt in points], [pt.gap for pt in points])
    expected = frame_exponents(which, p, q)[0]
    print(f"fitted slope = {fit.slope:.4f} (expected {expected:.4f}), R^2 = {fit.r_squared:.5f}")
    rows = _csv("coupling,frame_level,level,gap",
                ((pt.coupling, pt.frame_level, pt.level, pt.gap) for pt in points))
    return 0, {"fits": {"gap_fit": {"slope": fit.slope, "expected": expected,
                                    "r_squared": fit.r_squared}},
               "tables": {"gap_scan": rows}}


def cmd_normalized(cfg):
    out = normalized_branches(_params_from(cfg), _grid_from(cfg))
    solves = {}
    for tag, res, reason in (("P+", out.plus, out.plus_absent_reason),
                             ("P-", out.minus, out.minus_absent_reason)):
        if res is None:
            print(f"{tag}: absent ({reason})")
            solves[tag] = {"absent_reason": reason}
            continue
        print(f"{tag}: level={res.level:.8g} lambda={res.lambda_nu:.8g} exit={res.exit_reason} "
              f"converged={res.converged} defect={res.multiplier_identity_defect:.2e}")
        solves[tag] = {"level": res.level, "lambda": res.lambda_nu,
                       "converged": res.converged, "exit_reason": res.exit_reason,
                       "residual_scaled": res.pde_residual_scaled,
                       "identity_defect": res.multiplier_identity_defect}
        solves[f"{tag}_profile"] = res.field.to_csv()
    return 0, {"solves": solves}


def cmd_multiplicity(cfg):
    rows = multiplicity_experiment(_params_from(cfg), cfg.get("nus", [0.1, 0.2, 0.4]),
                                   _grid_from(cfg))
    for row in rows:
        print(f"nu={row.nu:.4g}  status={row.status}  two_solutions={row.two_solutions}  "
              f"E_branch={row.branch_level:.6g} E_ground={row.ground_level:.6g}")
    ok = all(row.status.startswith(("ok", "gated")) for row in rows)
    table = _csv(",".join(f.name for f in fields(MultiplicityRow)), map(astuple, rows))
    return (0 if ok else 2), {"tables": {"multiplicity": table}}


def cmd_testfn(cfg):
    N, a = cfg.get("n_dim", 3), cfg.get("a", 3.0)
    q, p, alpha = cfg.get("q"), cfg.get("p"), cfg.get("alpha")
    eps = _geomspace(cfg, ("eps_lo", 0.02), ("eps_hi", 0.2), ("count", 7))
    radii, reports = bubble_sweep(N, a, eps, q=q, p=p, alpha=alpha)
    # the q_power and riesz columns only when the config gives their exponents
    cols = ["kinetic", "sobolev_power", *(["q_power"] if q is not None else []),
            *(["riesz"] if None not in (p, alpha) else [])]
    table = _csv(",".join(["eps", "R", *cols]),
                 ((e, R, *(getattr(rep, c) for c in cols))
                  for e, R, rep in zip(eps, radii, reports)))
    print(table, end="")
    return 0, {"tables": {"bubbles": table}}


COMMANDS = {"constants": cmd_constants, "solve": cmd_solve, "fiber": cmd_fiber,
            "scan-threshold": cmd_scan_threshold, "asymptotics": cmd_asymptotics,
            "normalized": cmd_normalized, "multiplicity": cmd_multiplicity,
            "testfn": cmd_testfn}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="choquard-lab",
                                     description=__doc__)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=None, help="run output directory")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log solver progress (DEBUG) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("choquard_lab").setLevel(logging.DEBUG)
    started = time.perf_counter()
    cp = configparser.ConfigParser()
    try:
        # a config syntax error (a key given twice, no header, a bare %) is a configparser.Error
        if args.config and not cp.read(args.config):
            raise InvalidConfiguration(f"cannot read config {args.config}")
        cfg = dict(cp[args.command]) if cp.has_section(args.command) else {}
        if args.out:
            check_out_root(args.out)
        code, artifacts = COMMANDS[args.command](_typed(cfg))
        if args.out:
            manifest = RunManifest(config=cfg, code_version=__version__,
                                   wall_clock=time.perf_counter() - started)
            persist_run(manifest, artifacts, args.out)
    except (ChoquardLabError, configparser.Error) as e:
        print(f"error: {' '.join(str(e).splitlines())}", file=sys.stderr)
        return 1
    print(f"# wall clock: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
