import json
import logging
from pathlib import Path

import pytest

from choquard_lab.cli import main


def test_solve_subcommand(tmp_path, capsys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[solve]
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
""")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "solve"])
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
    assert saved["residual_sup"] != saved["residual_scaled"]
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
                if r.name == "choquard_lab.solver" and r.levelno == logging.DEBUG]
    assert descents and all(m.startswith("descent tol after ") for m in descents)


def test_normalized_reports_each_branchs_exit_reason(tmp_path, capsys):
    # on this coarse grid P+ converges in the polish, while the P- flow runs
    # out of iterations and its polish makes no step
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[normalized]
n_dim = 3
alpha = 2.0
p = 5.0
q = 3.0
mode = normalized-hls
nu = 6.0
a = 1.0
r_max = 50.0
nodes = 300
""")
    code = main(["--config", str(cfg), "normalized"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("P+:") and " exit=tol converged=True " in lines[0]
    assert lines[1].startswith("P-:") and " exit=max-iters converged=False " in lines[1]


def test_fiber_subcommand(tmp_path, capsys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[fiber]
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
""")
    code = main(["--config", str(cfg), "fiber"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("t,energy")
    assert len(out.strip().splitlines()) == 13


def test_testfn_subcommand(tmp_path, capsys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[testfn]
n_dim = 3
a = 3.0
q = 4.0
eps_lo = 0.05
eps_hi = 0.2
count = 4
""")
    code = main(["--config", str(cfg), "testfn"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("eps,R,")
    assert len(out.strip().splitlines()) == 5


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


def test_constants_subcommand(tmp_path, capsys):
    # q = 2* = 6 skips the shooting of the local ground state
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[constants]
n_dim = 3
alpha = 2.0
q = 6.0
r_max = 200.0
nodes = 800
grading = 3.0
""")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "constants"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("quantity")
    saved = json.loads((tmp_path / "run" / "constants.json").read_text())
    assert saved["N"] == 3 and saved["C_Nq"] is None and saved["S_q"] is None
    # the bubble's Sobolev quotient, its r^-1 tail cut at r_max = 200: 0.85 % low
    assert abs(saved["S"] - saved["S_analytic"]) < 2e-2 * saved["S_analytic"]


def test_scan_threshold_subcommand(tmp_path, capsys):
    # test_08's problem on a coarse grid and a loose bracket
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[scan-threshold]
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
""")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "scan-threshold"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("bracket = ")
    rows = (tmp_path / "run" / "tables" / "threshold.csv").read_text().splitlines()
    assert rows[0] == "coupling,level,converged,xi"
    assert len(rows) == len(out.splitlines())


def test_asymptotics_subcommand(tmp_path, capsys):
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[asymptotics]
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
""")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "run"), "asymptotics"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("fitted slope = ")
    fit = json.loads((tmp_path / "run" / "fits" / "gap_fit.json").read_text())
    assert set(fit) == {"slope", "expected", "r_squared"}
    rows = (tmp_path / "run" / "tables" / "gap_scan.csv").read_text().splitlines()
    assert rows[0] == "coupling,frame_level,level,gap" and len(rows) == 5


def test_multiplicity_subcommand(tmp_path, capsys):
    # on this grid the branch at nu = 1 stays incomplete: a failed-invariant
    # report, exit code 2
    cfg = tmp_path / "lab.ini"
    cfg.write_text("""
[multiplicity]
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
""")
    code = main(["--config", str(cfg), "multiplicity"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("nu=1  status=incomplete")
