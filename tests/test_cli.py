import json
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
