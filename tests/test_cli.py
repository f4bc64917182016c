import configparser
import csv
import json
import logging
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from choquard_lab import __version__
from choquard_lab.cli import main
from choquard_lab.constants import (coefficient_table, hls_constant, rayleigh_constants,
                                    riesz_normalization, sobolev_constant)
from choquard_lab.grid import make_grid
from choquard_lab.lab import MultiplicityRow

SRC = Path(__file__).resolve().parent.parent / "src"

# one config per subcommand, and the files each one writes under --out
CONFIGS = {
    "constants": """
n_dim = 3
alpha = 2.0
q = 6.0
r_max = 200.0
nodes = 800
grading = 3.0
""",
    "solve": """
n_dim = 3
alpha = 2.0
p = 2.0
q = 4.0
mode = general
mu = 0.0
lam = 1.0
r_max = 20.0
nodes = 400
grading = 2.0
""",
    "fiber": """
n_dim = 3
alpha = 2.0
p = 2.0
q = 4.0
mode = general
mu = 1.0
lam = 1.0
r_max = 20.0
nodes = 300
kind = ray
t_count = 12
""",
    # test_08's problem on a coarse grid and a loose bracket
    "scan-threshold": """
n_dim = 3
alpha = 1.0
p = 4.0
q = 3.0
mode = lambda
lam = 1.0
r_max = 40.0
nodes = 300
grading = 2.5
crit_level = 5.04401
coupling_lo = 0.5
coupling_hi = 16.0
rel_tol = 0.5
""",
    "asymptotics": """
n_dim = 3
alpha = 2.0
p = 2.0
q = 4.0
which = lambda
r_max = 25.0
nodes = 300
grading = 2.0
coupling_lo = 10.0
coupling_hi = 1000.0
count = 4
""",
    "normalized": """
n_dim = 3
alpha = 2.0
p = 5.0
q = 3.0
mode = normalized-hls
nu = 6.0
a = 1.0
r_max = 50.0
nodes = 300
""",
    "multiplicity": """
n_dim = 3
alpha = 2.0
p = 5.0
q = 3.0
mode = normalized-hls
a = 1.0
r_max = 50.0
nodes = 500
grading = 2.0
nus = 1.0
""",
    "testfn": """
n_dim = 3
a = 3.0
q = 4.0
p = 3.0
alpha = 2.0
eps_lo = 0.05
eps_hi = 0.2
count = 4
""",
}
ARTIFACTS = {
    "constants": ["constants.json"],
    "solve": ["solves/ground_state.json", "solves/profile.csv"],
    "fiber": ["tables/fiber.csv"],
    "scan-threshold": ["tables/threshold.csv"],
    "asymptotics": ["fits/gap_fit.json", "tables/gap_scan.csv"],
    "normalized": ["solves/P+.json", "solves/P+_profile.csv",
                   "solves/P-.json", "solves/P-_profile.csv"],
    "multiplicity": ["tables/multiplicity.csv"],
    "testfn": ["tables/bubbles.csv"],
}


def run(tmp_path, name, *opts):
    """Run subcommand `name` on its config in CONFIGS; return the exit code."""
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[{name}]\n{CONFIGS[name]}")
    return main(["--config", str(cfg), *opts, name])


@pytest.mark.parametrize("name", list(CONFIGS))
def test_every_subcommand_persists_its_artifacts(tmp_path, capsys, name):
    root = tmp_path / "run"
    run(tmp_path, name, "--out", str(root))
    manifest = json.loads((root / "manifest.json").read_text())
    cp = configparser.ConfigParser()
    cp.read_string(f"[{name}]\n{CONFIGS[name]}")
    assert manifest["config"] == dict(cp[name])
    assert manifest["code_version"] == __version__
    assert manifest["wall_clock"] > 0
    paths = [p for entry in manifest["artifacts"].values()
             for p in ([entry] if isinstance(entry, str) else entry.values())]
    assert sorted(Path(p).relative_to(root).as_posix() for p in paths) == sorted(ARTIFACTS[name])
    assert all(Path(p).is_file() for p in paths)


def test_solve_subcommand(tmp_path, capsys):
    code = run(tmp_path, "solve", "--out", str(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert "level" in out
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["wall_clock"] > 0
    assert (tmp_path / "run" / "solves" / "profile.csv").exists()


def test_solve_reports_the_gated_residual(tmp_path, capsys):
    # the printed residual is the one `converged` is judged on; the persisted
    # record keeps it apart from the ungated sup residual, with the exit reason
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[solve]
n_dim = 3
alpha = 1.0
p = 4.0
q = 3.0
mode = lambda
lam = 4.0
r_max = 25.0
nodes = 900
""")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "solve"])
    out = capsys.readouterr().out
    assert code == 0
    saved = json.loads((tmp_path / "run" / "solves" / "ground_state.json").read_text())
    assert saved["converged"] and saved["exit_reason"] == "tol"
    assert saved["residual_scaled"] < 1e-6
    printed = float(out.split("residual = ")[1].split()[0])
    assert printed == float(f"{saved['residual_scaled']:.3e}")
    assert "exit = tol" in out


def test_verbose_logs_descent_progress(tmp_path, capsys, caplog):
    # -v raises the package logger to DEBUG; registering the logger with
    # caplog first restores its level when the test ends
    caplog.set_level(logging.NOTSET, logger="choquard_lab")
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[solve]
n_dim = 3
alpha = 2.0
p = 2.0
q = 4.0
mode = lambda
lam = 1.0
r_max = 20.0
nodes = 200
""")
    assert main(["--config", str(cfg), "solve"]) == 0
    quiet = capsys.readouterr().out
    assert not [r for r in caplog.records if r.levelno < logging.WARNING]
    assert main(["--config", str(cfg), "-v", "solve"]) == 0
    assert capsys.readouterr().out == quiet
    descents = [r.getMessage() for r in caplog.records
                if r.name == "choquard_lab.solver" and r.levelno == logging.DEBUG
                and r.getMessage().startswith("descent")]
    assert descents and all(m.startswith("descent tol after ") for m in descents)


def test_normalized_reports_an_absent_branch(tmp_path, capsys):
    # HLS-critical with q = 4 at nu = 1: the Gaussian's mass fiber has a
    # maximum and no local minimum, so there is no P+ seed
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[normalized]\nn_dim = 3\nalpha = 2.0\np = 5.0\nq = 4.0\n"
                   "mode = normalized-hls\nnu = 1.0\na = 1.0\nr_max = 20.0\nnodes = 200\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"), "normalized"]) == 0
    reason = "fiber admits no local minimum at this (nu, a)"
    assert capsys.readouterr().out.splitlines()[0] == f"P+: absent ({reason})"
    saved = json.loads((tmp_path / "run" / "solves" / "P+.json").read_text())
    assert saved == {"absent_reason": reason}
    assert not (tmp_path / "run" / "solves" / "P+_profile.csv").exists()


def test_normalized_reports_each_branchs_exit_reason(tmp_path, capsys):
    # on this coarse grid P+ converges in the polish, while the P- flow runs
    # out of iterations and its polish makes no step
    code = run(tmp_path, "normalized", "--out", str(tmp_path / "run"))
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("P+:") and " exit=tol converged=True " in lines[0]
    assert lines[1].startswith("P-:") and " exit=max-iters converged=False " in lines[1]
    for tag, line in zip(("P+", "P-"), lines):
        saved = json.loads((tmp_path / "run" / "solves" / f"{tag}.json").read_text())
        assert line == (f"{tag}: level={saved['level']:.8g} lambda={saved['lambda']:.8g} "
                        f"exit={saved['exit_reason']} converged={saved['converged']} "
                        f"defect={saved['identity_defect']:.2e}")


def assert_plain_numbers(table):
    """Every data field of a CSV table is a plain number, no numpy repr."""
    for line in table.strip().splitlines()[1:]:
        assert "np." not in line
        for value in line.split(","):
            float(value)


def test_fiber_subcommand(tmp_path, capsys):
    code = run(tmp_path, "fiber", "--out", str(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("t,energy")
    assert len(out.strip().splitlines()) == 13
    assert (tmp_path / "run" / "tables" / "fiber.csv").read_text() == out
    assert_plain_numbers(out)


def test_testfn_subcommand(tmp_path, capsys):
    code = run(tmp_path, "testfn", "--out", str(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("eps,R,")
    assert len(out.strip().splitlines()) == 5
    assert (tmp_path / "run" / "tables" / "bubbles.csv").read_text() == out
    assert_plain_numbers(out)


def test_testfn_leaves_out_the_columns_it_is_not_asked_for(tmp_path, capsys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("[testfn]\nn_dim = 3\na = 3.0\neps_lo = 0.05\neps_hi = 0.2\ncount = 3\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "testfn"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("eps,R,kinetic,sobolev_power\n")
    assert (tmp_path / "run" / "tables" / "bubbles.csv").read_text() == out
    assert_plain_numbers(out)


def test_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[solve]
nodes = 4
""")
    code = main(["--config", str(cfg), "solve"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("name, line, key", [
    ("solve", "nodes = abc", "nodes"),
    ("solve", "n_dim = 3.5", "n_dim"),
    ("scan-threshold", None, "crit_level"),
])
def test_bad_config_value_is_an_error(tmp_path, capsys, name, line, key):
    # a value int() or float() cannot read, or a required key left out, is
    # outside input: one error line naming the key, no traceback
    body = "\n".join(row for row in CONFIGS[name].splitlines()
                     if not row.startswith(f"{key} ="))
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[{name}]\n{body}\n{line or ''}\n")
    assert main(["--config", str(cfg), name]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: config key {key!r}") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[fiber]\nn_dim = 3\nn_dim = 4\n", "n_dim = 3\n",
                                  "[fiber]\nkind = 50%\n"],
                         ids=["duplicate-key", "no-section-header", "bad-interpolation"])
def test_a_config_syntax_error_is_an_error(tmp_path, capsys, text):
    # configparser's own errors end the run as one error line, not a traceback
    cfg = tmp_path / "lab.ini"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "fiber"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_config_is_an_error(tmp_path, capsys):
    # ConfigParser.read skips a file it cannot open; main does not run on defaults
    missing = tmp_path / "missing.ini"
    assert main(["--config", str(missing), "fiber"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: cannot read config {missing}\n"


def test_fiber_reports_a_malformed_field_file(tmp_path, capsys):
    field = tmp_path / "field.csv"
    field.write_text("r,u\n0.0,1.0\n0.5,1.0,2.0\n")
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[fiber]\n{CONFIGS['fiber']}field = {field}\n")
    assert main(["--config", str(cfg), "fiber"]) == 1
    assert capsys.readouterr().err.startswith("error: malformed field CSV: ")


def test_fiber_reports_a_missing_field_file(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[fiber]\n{CONFIGS['fiber']}field = {missing}\n")
    assert main(["--config", str(cfg), "fiber"]) == 1
    assert capsys.readouterr().err == f"error: cannot read field {missing}\n"


@pytest.mark.parametrize("name, key, value", [
    ("fiber", "t_min", "0"), ("fiber", "t_max", "nan"),
    ("asymptotics", "coupling_lo", "0"), ("testfn", "eps_lo", "0"), ("testfn", "count", "-2")])
def test_a_range_end_out_of_range_is_an_error(tmp_path, capsys, name, key, value):
    # np.geomspace cannot take a zero end or a negative count, and a NaN end
    # gives a table of NaNs
    body = "\n".join(row for row in CONFIGS[name].splitlines()
                     if not row.startswith(f"{key} ="))
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[{name}]\n{body}\n{key} = {value}\n")
    assert main(["--config", str(cfg), name]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: config key {key!r}") and err.count("\n") == 1


def test_a_nan_rel_tol_is_an_error(tmp_path, capsys):
    # scan_threshold took rel_tol = nan from the config and returned the
    # unrefined coupling range as its bracket
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[scan-threshold]\n{CONFIGS['scan-threshold']}".replace(
        "rel_tol = 0.5", "rel_tol = nan"))
    assert main(["--config", str(cfg), "scan-threshold"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: need finite rel_tol > 0")


def test_constants_in_two_dimensions_is_an_error(tmp_path, capsys):
    # the default p = (N + alpha) / (N - 2) divided by zero before any check
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[constants]\n{CONFIGS['constants'].replace('n_dim = 3', 'n_dim = 2')}")
    assert main(["--config", str(cfg), "constants"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: dimension N=2 must be an integer >= 3\n"


def test_a_nan_bubble_scale_ends_the_run(tmp_path):
    # a NaN eps made the mass calibration search for its bracket forever;
    # the timeout makes a hang a failure
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[testfn]\n{CONFIGS['testfn'].replace('eps_lo = 0.05', 'eps_lo = nan')}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "choquard_lab.cli", "--config", str(cfg),
                           "testfn"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("out", ["taken", "taken/run"])
def test_an_out_root_that_is_a_file_is_an_error(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("")
    assert run(tmp_path, "fiber", "--out", str(tmp_path / out)) == 1
    # the root is checked before the command runs: no fiber table, one error line
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: output root ") and err.count("\n") == 1


def test_constants_subcommand(tmp_path, capsys):
    # q = 2* = 6 skips the shooting of the local ground state
    code = run(tmp_path, "constants", "--out", str(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("quantity")
    saved = json.loads((tmp_path / "run" / "constants.json").read_text())
    printed = dict(line.split(None, 1) for line in out.splitlines()[1:])
    grid = make_grid(3, 200.0, 800, 3.0)
    ray = rayleigh_constants(grid, 2.0)
    coeffs = coefficient_table(3, 2.0, 5.0, 6.0, S_alpha=ray.S_alpha, S=ray.S)
    expected = {
        "N": 3, "alpha": 2.0, "p": 5.0, "q": 6.0, "A_alpha": riesz_normalization(3, 2.0),
        "C_alpha": hls_constant(3, 2.0), "C_Nq": None, "S": ray.S,
        "S_analytic": sobolev_constant(3), "S_alpha": ray.S_alpha, "S_q": ray.S_q,
        "gamma_q": coeffs.gamma_q, "eta_p": coeffs.eta_p, "K_q": coeffs.K_q,
        "K_p": coeffs.K_p, "crit_level_hls": coeffs.crit_level_hls,
        "crit_level_sob": coeffs.crit_level_sob}
    for key, value in expected.items():
        assert saved[key] == value, key
        assert printed[key] == str(value), key
    assert saved["C_Nq"] is None and saved["S_q"] is None
    # the bubble's Sobolev quotient, its r^-1 tail cut at r_max = 200: 0.85 % low
    assert abs(saved["S"] - saved["S_analytic"]) < 2e-2 * saved["S_analytic"]


def test_constants_subcommand_with_a_subcritical_q(tmp_path, capsys, monkeypatch, q3_ground):
    # S_q is the H1 quotient on the shot ground state's own grid, not on the
    # bubble's; the shot ground state is the session's q3_ground
    shots = []
    monkeypatch.setattr("choquard_lab.cli.shoot_local_ground_state",
                        lambda N, q: shots.append((N, q)) or q3_ground)
    cfg = tmp_path / "lab.ini"
    cfg.write_text(f"[constants]\n{CONFIGS['constants'].replace('q = 6.0', 'q = 3.0')}")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "constants"])
    capsys.readouterr()
    assert code == 0 and shots == [(3, 3.0)]
    saved = json.loads((tmp_path / "run" / "constants.json").read_text())
    assert all(saved[k] > 0 for k in ("C_Nq", "S_q", "K_q", "nu_bound_hls"))
    coeffs = coefficient_table(3, 2.0, 5.0, 3.0, S_alpha=saved["S_alpha"], S=saved["S"],
                               C_Nq=saved["C_Nq"])
    assert (saved["K_q"], saved["nu_bound_hls"]) == (coeffs.K_q, coeffs.nu_bound_hls)


def test_scan_threshold_subcommand(tmp_path, capsys):
    code = run(tmp_path, "scan-threshold", "--out", str(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("bracket = ")
    rows = (tmp_path / "run" / "tables" / "threshold.csv").read_text().splitlines()
    assert rows[0] == "coupling,level,converged,xi"
    assert len(rows) == len(out.splitlines())


def test_asymptotics_subcommand(tmp_path, capsys):
    code = run(tmp_path, "asymptotics", "--out", str(tmp_path / "run"))
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("fitted slope = ")
    fit = json.loads((tmp_path / "run" / "fits" / "gap_fit.json").read_text())
    assert set(fit) == {"slope", "expected", "r_squared"}
    rows = (tmp_path / "run" / "tables" / "gap_scan.csv").read_text().splitlines()
    assert rows[0] == "coupling,frame_level,level,gap" and len(rows) == 5


def test_multiplicity_subcommand(tmp_path, capsys):
    # on this grid the branch at nu = 1 stays incomplete: a failed-invariant
    # report, exit code 2; the persisted rows are the printed ones, every
    # field of MultiplicityRow written by repr
    code = run(tmp_path, "multiplicity", "--out", str(tmp_path / "run"))
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("nu=1  status=incomplete")
    with open(tmp_path / "run" / "tables" / "multiplicity.csv", newline="") as f:
        reader = csv.DictReader(f, quotechar="'")
        rows = list(reader)
    assert reader.fieldnames == [fd.name for fd in fields(MultiplicityRow)]
    assert [f"nu={float(r['nu']):.4g}  status={r['status']}  "
            f"two_solutions={r['two_solutions']}  E_branch={float(r['branch_level']):.6g} "
            f"E_ground={float(r['ground_level']):.6g}" for r in rows] == lines
