"""Command-line interface.

One declarative INI config drives every experiment (sections per
subcommand).  Exit codes: 0 success, 2 failed-invariant report, 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import rate_fit
from .constants import (ConstantsReport, coefficient_table, gn_constant,
                        hls_constant, rayleigh_constants, riesz_normalization,
                        sobolev_constant)
from .errors import ChoquardLabError
from .functional import ProblemParams, fiber_profile
from .grid import RadialField, integrate, make_grid
from .lab import (RunManifest, coupling_gap_scan, frame_exponents, multiplicity_experiment,
                  persist_run, scan_threshold)
from .profiles import talenti
from .solver import ground_state, normalized_branches, shoot_local_ground_state
from .testfn import bubble_sweep


def _load_config(path, section):
    cp = configparser.ConfigParser()
    if path:
        cp.read(path)
    return dict(cp[section]) if path and cp.has_section(section) else {}


def _grid_from(cfg, defaults=(3, 50.0, 1000, 2.0)):
    N = int(cfg.get("n_dim", defaults[0]))
    r_max = float(cfg.get("r_max", defaults[1]))
    n = int(cfg.get("nodes", defaults[2]))
    grading = float(cfg.get("grading", defaults[3]))
    return make_grid(N, r_max, n, grading)


def _params_from(cfg):
    return ProblemParams(
        N=int(cfg.get("n_dim", 3)), alpha=float(cfg.get("alpha", 2.0)),
        p=float(cfg.get("p", 2.0)), q=float(cfg.get("q", 4.0)),
        mode=cfg.get("mode", "general"), lam=float(cfg.get("lam", 0.0)),
        mu=float(cfg.get("mu", 0.0)), nu=float(cfg.get("nu", 0.0)),
        a=float(cfg.get("a", 1.0)), mass_coeff=float(cfg.get("mass_coeff", 1.0)))


def _persist(args, cfg, artifacts):
    """Write `artifacts` under --out, with a manifest of the config and the
    command's elapsed time; no-op without --out."""
    if args.out:
        manifest = RunManifest(config=dict(cfg), code_version=__version__, seeds={},
                               wall_clock=time.perf_counter() - args.started)
        persist_run(manifest, artifacts, args.out)


def cmd_constants(args):
    cfg = _load_config(args.config, "constants")
    N = int(cfg.get("n_dim", 3))
    alpha = float(cfg.get("alpha", 2.0))
    p = float(cfg.get("p", (N + alpha) / (N - 2)))
    q = float(cfg.get("q", 3.0))
    grid = _grid_from(cfg, (N, 400.0, 2400, 3.0))
    w1 = talenti(grid)
    q_ground = None
    C_Nq = None
    if q < 2 * N / (N - 2):
        Qq = shoot_local_ground_state(N, q)
        C_Nq = gn_constant(N, q, np.sqrt(integrate(Qq.grid, Qq.values ** 2)))
        q_ground = Qq
    ray = rayleigh_constants(grid, alpha, w1, q=q if q_ground is not None else None,
                             q_ground=q_ground)
    coeffs = coefficient_table(N, alpha, p, q, S_alpha=ray.S_alpha, S=ray.S, C_Nq=C_Nq)
    report = ConstantsReport(
        N=N, alpha=alpha, p=p, q=q, A_alpha=riesz_normalization(N, alpha),
        C_alpha=hls_constant(N, alpha), C_Nq=C_Nq, S=ray.S,
        S_analytic=sobolev_constant(N), S_alpha=ray.S_alpha, S_q=ray.S_q, S_p=ray.S_p,
        gamma_q=coeffs.gamma_q, eta_p=coeffs.eta_p, K_q=coeffs.K_q, K_p=coeffs.K_p,
        crit_level_hls=coeffs.crit_level_hls, crit_level_sob=coeffs.crit_level_sob)
    print(report.table())
    _persist(args, cfg, {"constants": report.to_json()})
    return 0


def cmd_solve(args):
    cfg = _load_config(args.config, "solve")
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    res = ground_state(params, grid)
    print(f"level = {res.level:.10g}")
    print(f"converged = {res.converged}  residual = {res.pde_residual_scaled:.3e}  "
          f"iterations = {res.iterations}  exit = {res.exit_reason}")
    print(f"defects: nehari = {res.nehari_defect:.3e}  pohozaev = {res.pohozaev_defect:.3e}")
    _persist(args, cfg, {"solves": {"ground_state": {
        "level": res.level, "converged": res.converged,
        "residual_scaled": res.pde_residual_scaled, "residual_sup": res.pde_residual,
        "exit_reason": res.exit_reason, "nehari": res.nehari_defect,
        "pohozaev": res.pohozaev_defect},
        "profile": res.field.to_csv()}})
    return 0 if res.converged else 2


def cmd_fiber(args):
    cfg = _load_config(args.config, "fiber")
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    field = talenti(grid) if cfg.get("field", "talenti") == "talenti" else None
    if field is None:
        field = RadialField.from_csv(grid, Path(cfg["field"]).read_text())
    kind = cfg.get("kind", "ray")
    ts = np.geomspace(float(cfg.get("t_min", 0.1)), float(cfg.get("t_max", 10.0)),
                      int(cfg.get("t_count", 100)))
    prof = fiber_profile(params, field, kind, ts)
    print("t,energy")
    for t, e in zip(prof.ts, prof.energies):
        print(f"{t!r},{e!r}")
    print(f"# critical points: {prof.critical_ts}", file=sys.stderr)
    return 0


def cmd_scan_threshold(args):
    cfg = _load_config(args.config, "scan-threshold")
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    crit = float(cfg["crit_level"])
    lo, hi = float(cfg.get("coupling_lo", 0.5)), float(cfg.get("coupling_hi", 64.0))
    res = scan_threshold(params, (lo, hi), crit, grid,
                         delta_frac=float(cfg.get("delta_frac", 0.005)),
                         rel_tol=float(cfg.get("rel_tol", 0.05)))
    print(f"bracket = {res.bracket}")
    for c, lev, conv, xi in res.scan:
        print(f"  c={c:.6g} level={lev:.8g} converged={conv} xi={xi:.3g}")
    _persist(args, cfg, {"tables": {"threshold": asdict_rows(res.scan)}})
    return 0


def asdict_rows(rows):
    buf = ["coupling,level,converged,xi"]
    for c, lev, conv, xi in rows:
        buf.append(f"{c!r},{lev!r},{conv},{xi!r}")
    return "\n".join(buf) + "\n"


def cmd_asymptotics(args):
    cfg = _load_config(args.config, "asymptotics")
    N = int(cfg.get("n_dim", 3))
    alpha = float(cfg.get("alpha", 2.0))
    p = float(cfg.get("p", 2.0))
    q = float(cfg.get("q", 4.0))
    which = cfg.get("which", "lambda")
    grid = _grid_from(cfg, (N, 30.0, 900, 2.0))
    lo, hi = float(cfg.get("coupling_lo", 10.0)), float(cfg.get("coupling_hi", 1000.0))
    count = int(cfg.get("count", 7))
    couplings = np.geomspace(lo, hi, count)
    ref, points = coupling_gap_scan(N, alpha, p, q, couplings, grid, which=which)
    gaps = [pt.gap for pt in points]
    fit = rate_fit([pt.coupling for pt in points], gaps)
    expected = frame_exponents(which, p, q)[0]
    print(f"fitted slope = {fit.slope:.4f} (expected {expected:.4f}), R^2 = {fit.r_squared:.5f}")
    rows = "coupling,frame_level,level,gap\n" + "\n".join(
        f"{pt.coupling!r},{pt.frame_level!r},{pt.level!r},{pt.gap!r}" for pt in points) + "\n"
    _persist(args, cfg, {"fits": {"gap_fit": {"slope": fit.slope, "expected": expected,
                                              "r_squared": fit.r_squared}},
                         "tables": {"gap_scan": rows}})
    return 0


def cmd_normalized(args):
    cfg = _load_config(args.config, "normalized")
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    out = normalized_branches(params, grid)
    for tag, res, reason in (("P+", out.plus, out.plus_absent_reason),
                             ("P-", out.minus, out.minus_absent_reason)):
        if res is None:
            print(f"{tag}: absent ({reason})")
        else:
            print(f"{tag}: level={res.level:.8g} lambda={res.lambda_nu:.8g} exit={res.exit_reason} "
                  f"converged={res.converged} defect={res.multiplier_identity_defect:.2e}")
    return 0


def cmd_multiplicity(args):
    cfg = _load_config(args.config, "multiplicity")
    params = _params_from(cfg)
    grid = _grid_from(cfg)
    nus = [float(x) for x in cfg.get("nus", "0.1,0.2,0.4").split(",")]
    rows = multiplicity_experiment(params, nus, grid)
    ok = True
    for row in rows:
        print(f"nu={row.nu:.4g}  status={row.status}  two_solutions={row.two_solutions}  "
              f"E_branch={row.branch_level:.6g} E_ground={row.ground_level:.6g}")
        ok = ok and (row.status.startswith("ok") or row.status.startswith("gated"))
    return 0 if ok else 2


def cmd_testfn(args):
    cfg = _load_config(args.config, "testfn")
    N = int(cfg.get("n_dim", 3))
    a = float(cfg.get("a", 3.0))
    q = float(cfg.get("q", 4.0)) if "q" in cfg else None
    p = float(cfg["p"]) if "p" in cfg else None
    alpha = float(cfg["alpha"]) if "alpha" in cfg else None
    eps = np.geomspace(float(cfg.get("eps_lo", 0.02)), float(cfg.get("eps_hi", 0.2)),
                       int(cfg.get("count", 7)))
    radii, reports = bubble_sweep(N, a, eps, q=q, p=p, alpha=alpha)
    print("eps,R,kinetic,sobolev_power,q_power,riesz")
    for e, R, rep in zip(eps, radii, reports):
        print(f"{e!r},{R!r},{rep.kinetic!r},{rep.sobolev_power!r},{rep.q_power!r},{rep.riesz!r}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="choquard-lab",
                                     description=__doc__)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=None, help="run output directory")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log solver progress (DEBUG) to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("constants", cmd_constants), ("solve", cmd_solve),
                     ("fiber", cmd_fiber), ("scan-threshold", cmd_scan_threshold),
                     ("asymptotics", cmd_asymptotics), ("normalized", cmd_normalized),
                     ("multiplicity", cmd_multiplicity), ("testfn", cmd_testfn)]:
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("choquard_lab").setLevel(logging.DEBUG)
    args.started = time.perf_counter()
    try:
        code = args.func(args)
    except ChoquardLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"# wall clock: {time.perf_counter() - args.started:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
