import json
from types import SimpleNamespace

import numpy as np
import pytest

from choquard_lab import lab
from choquard_lab.errors import BracketFailure, InvalidConfiguration, InvalidParameter
from choquard_lab.functional import _MODES, Parts, ProblemParams, scaled_parts
from choquard_lab.grid import make_grid
from choquard_lab.lab import (MultiplicityRow, RunManifest, coupling_gap_scan,
                              frame_exponents, multiplicity_experiment, persist_run,
                              scan_threshold)
from choquard_lab.constants import (coefficient_table, interaction_bound_constant,
                                     sobolev_constant)


@pytest.fixture(scope="module")
def scan_grid():
    return make_grid(3, 25.0, 700, 2.0)


class TestGapScan:
    def test_mu_side_reference(self, scan_grid):
        mus = np.geomspace(20, 2000, 5)
        ref, pts = coupling_gap_scan(3, 2.0, 2.0, 4.0, mus, scan_grid, which="mu")
        assert ref > 0
        assert all(pt.converged for pt in pts)
        gaps = [pt.gap for pt in pts]
        assert all(g > 0 for g in gaps)
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))

    def test_bad_which(self, scan_grid):
        with pytest.raises(InvalidParameter):
            coupling_gap_scan(3, 2.0, 2.0, 4.0, [1, 2, 3, 4], scan_grid, which="nu")

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_couplings_guarded_before_any_solve(self, monkeypatch, scan_grid, bad):
        # 0 raised ZeroDivisionError (0.0 ** e_coeff), -1 a TypeError from a
        # complex power, and inf was scanned with a zero weak coefficient
        monkeypatch.setattr(lab, "ground_state", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(InvalidParameter, match="couplings must be finite and > 0"):
            coupling_gap_scan(3, 2.0, 2.5, 4.0, [1.0, bad, 4.0], scan_grid)

    @pytest.mark.parametrize("which", ["lambda", "mu"])
    def test_frame_exponents_are_the_scaling_laws(self, rng, which):
        # u = amp v with amp = c^(e_l/2) takes the `which`-mode energy at
        # coupling c to c^e_l times the frame's: the kinetic, mass and
        # coupled terms scale by c^e_l, the weak term by c^(e_l + e_c)
        k = _MODES[which].index(None)           # the uncoupled term: 0 Riesz, 1 power
        for _ in range(40):
            N = int(rng.integers(3, 6))
            alpha = float(rng.uniform(0.05, N - 0.05))
            p = float(rng.uniform((N + alpha) / N, (N + alpha) / (N - 2)))
            q = float(rng.uniform(2.0, 2.0 * N / (N - 2)))
            c = float(10.0 ** rng.uniform(-1.0, 2.0))
            orig = ProblemParams(N=N, alpha=alpha, p=p, q=q, mode=which,
                                 **{_MODES[which][1 - k]: c})
            e_c, e_l, _ = frame_exponents(which, p, q)
            f = scaled_parts(orig, Parts(1.0, 1.0, 1.0, 1.0), c ** (e_l / 2), 1.0)
            coupled, weak = (f.power, f.riesz) if k == 0 else (f.riesz, f.power)
            for got, want in ((f.kinetic, c ** e_l), (f.mass, c ** e_l),
                              (c * coupled, c ** e_l), (weak, c ** (e_l + e_c))):
                assert got == pytest.approx(want, rel=1e-13, abs=0), (N, alpha, p, q, c)


class TestThreshold:
    def test_degenerate_bracket_when_always_attained(self, scan_grid):
        # deep in the existence regime the lower endpoint already attains
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        crit = 5.0446  # HLS critical level for (N, alpha) = (3, 1)
        res = scan_threshold(base, (30.0, 60.0), crit, scan_grid, rel_tol=0.5)
        assert res.degenerate
        assert res.bracket[0] == res.bracket[1] == 30.0

    def test_warm_start_follows_the_attained_end(self, monkeypatch):
        # a step predicate with no real solves: attained from 2.45 up, pinned below
        crit, step = 5.0, 2.45
        calls = []

        def fake_ground_state(params, grid, seeds=("gaussian",)):
            c = params.lam
            calls.append((c, seeds))
            ok = c >= step
            return SimpleNamespace(converged=ok, level=crit - 1.0 if ok else crit + 0.01,
                                   field=("field", c), concentration_scale=1.0)

        monkeypatch.setattr(lab, "ground_state", fake_ground_state)
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        res = scan_threshold(base, (0.5, 16.0), crit, SimpleNamespace(key=("fake",)),
                             rel_tol=0.15)

        assert calls[0] == (16.0, ("gaussian", ("bubble", 0.5), ("bubble", 0.1)))
        warm = [(c, seeds[0]) for c, seeds in calls[1:] if seeds[0][0] == "field"]
        expected, smallest_attained = [], 16.0
        for c, _ in warm:
            expected.append((c, ("field", smallest_attained)))
            if c >= step:
                smallest_attained = c
        assert warm == expected
        # one fallback, the two bubble seeds, after each warm solve that is not attained
        fallbacks = [seeds for _, seeds in calls[1:] if seeds[0][0] != "field"]
        assert fallbacks == [(("bubble", 0.5), ("bubble", 0.1))] * sum(c < step for c, _ in warm)

        # a plain geometric bisection on the same predicate
        c_lo, c_hi, evals = 0.5, 16.0, 2
        while c_hi / c_lo > 1.15:
            mid = float(np.sqrt(c_lo * c_hi))
            c_lo, c_hi = (c_lo, mid) if mid >= step else (mid, c_hi)
            evals += 1
        assert res.bracket == (c_lo, c_hi)
        assert len(res.scan) == evals

    def test_fallback_keeps_a_converged_warm_result(self, monkeypatch):
        # below 16 every warm solve converges pinned, every fallback stalls
        # unconverged at a lower level: the solver's selection key keeps the
        # converged result, where "lower level" kept the stalled one
        crit = 5.0

        def fake_ground_state(params, grid, seeds=("gaussian",)):
            if params.lam == 16.0:
                return SimpleNamespace(converged=True, level=crit - 1.0, field="hi",
                                       concentration_scale=1.0)
            if seeds[0] == "hi":
                return SimpleNamespace(converged=True, level=crit + 0.01, field="warm",
                                       concentration_scale=1.0)
            return SimpleNamespace(converged=False, level=crit - 0.001, field="fallback",
                                   concentration_scale=0.01)

        monkeypatch.setattr(lab, "ground_state", fake_ground_state)
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        res = scan_threshold(base, (0.5, 16.0), crit, SimpleNamespace(key=("fake",)),
                             rel_tol=0.15)
        assert len(res.scan) > 2
        assert all(row[1:] == (crit + 0.01, True, 1.0) for row in res.scan[1:])

    def test_scan_at_a_non_integer_exponent(self):
        # alpha = 0.25, p = 3.25: a warm start read off a field at the nodes is
        # about -1e-36 at the Dirichlet node, where the last cubic ends, and a
        # negative base under u ** p is a NaN; the scan needs admissible seeds
        N, alpha = 3, 0.25
        S_alpha = (sobolev_constant(N)
                   * interaction_bound_constant(N, alpha) ** (-(N - 2) / (N + alpha)))
        crit = (2 + alpha) / (2 * (N + alpha)) * S_alpha ** ((N + alpha) / (2 + alpha))
        base = ProblemParams(N=N, alpha=alpha, p=N + alpha, q=3.0, mode="lambda", lam=1.0)
        res = scan_threshold(base, (0.5, 16.0), crit, make_grid(3, 40.0, 1000, 2.5),
                             rel_tol=0.15)
        assert not res.degenerate
        assert res.bracket == pytest.approx((2.5381019143834664, 2.8284271247461903),
                                            rel=1e-12)

    def test_unattained_upper_end_is_a_bracket_failure(self):
        # lam = 1 is deep in the non-attainment regime of test_08's problem:
        # the first solve, at the upper end, is pinned and the scan stops there
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        with pytest.raises(BracketFailure, match="upper endpoint 1.0 not attained") as info:
            scan_threshold(base, (0.5, 1.0), 5.04401, make_grid(3, 40.0, 300, 2.5))
        (row,) = info.value.scan_table
        assert row[0] == 1.0 and row[1] >= 5.04401 * (1 - 0.005)

    def test_mu_mode_scans_mu(self, monkeypatch):
        # in mu mode the scanned coupling is mu, and lam stays at the base's
        seen = []

        def fake_ground_state(params, grid, seeds=("gaussian",)):
            seen.append((params.mu, params.lam))
            return SimpleNamespace(converged=True, level=1.0, field="f",
                                   concentration_scale=1.0)

        monkeypatch.setattr(lab, "ground_state", fake_ground_state)
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="mu", mu=1.0, lam=2.0)
        res = scan_threshold(base, (0.5, 16.0), 5.0, SimpleNamespace(key=("fake",)))
        assert res.degenerate
        assert seen == [(16.0, 2.0), (0.5, 2.0)]

    @pytest.mark.parametrize("rel_tol, delta_frac", [
        (np.nan, 0.005), (0.0, 0.005), (-0.1, 0.005), (np.inf, 0.005),
        (0.05, np.nan), (0.05, -0.01), (0.05, np.inf)])
    def test_tolerances_guarded(self, monkeypatch, rel_tol, delta_frac):
        # rel_tol = nan returned the unrefined range (0.5, 16.0) as the bracket
        # after 2 solves, and a negative delta counted levels above crit as
        # attained; the scan now stops before its first solve
        monkeypatch.setattr(lab, "ground_state", lambda *a, **k: pytest.fail("solved"))
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        with pytest.raises(InvalidParameter, match="rel_tol"):
            scan_threshold(base, (0.5, 16.0), 5.0, SimpleNamespace(key=("fake",)),
                           delta_frac=delta_frac, rel_tol=rel_tol)

    @pytest.mark.parametrize("crit", [np.nan, np.inf, -np.inf])
    def test_crit_level_guarded(self, monkeypatch, crit):
        # crit = nan ran the three-seed cold solve at the upper end, then
        # raised BracketFailure("... vs crit nan")
        monkeypatch.setattr(lab, "ground_state", lambda *a, **k: pytest.fail("solved"))
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        with pytest.raises(InvalidParameter, match="crit_level"):
            scan_threshold(base, (0.5, 16.0), crit, SimpleNamespace(key=("fake",)))

    def test_zero_delta_is_a_valid_tolerance(self, monkeypatch):
        # delta_frac = 0: attained means strictly below crit
        monkeypatch.setattr(lab, "ground_state", lambda *a, **k: SimpleNamespace(
            converged=True, level=4.0, field="f", concentration_scale=1.0))
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0)
        res = scan_threshold(base, (0.5, 16.0), 5.0, SimpleNamespace(key=("fake",)),
                             delta_frac=0.0)
        assert res.degenerate and res.delta == 0.0

    def test_modes_guarded(self, scan_grid):
        base = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="general", mu=1, lam=1)
        with pytest.raises(InvalidParameter):
            scan_threshold(base, (1.0, 2.0), 7.0, scan_grid)


class TestMultiplicityGate:
    def test_smallness_gate_marks_rows(self, scan_grid):
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=1.0, a=1.0)
        coeffs = coefficient_table(3, 2.0, 5.0, 3.0, S_alpha=7.697, C_Nq=1.0)
        # absurdly large nu exceeds the bound: gated off without solving
        rows = multiplicity_experiment(params, [1e9], scan_grid, coeffs=coeffs)
        assert rows[0].status.startswith("gated-off")
        assert not rows[0].two_solutions

    def test_sobolev_smallness_gate_marks_rows(self, scan_grid):
        params = ProblemParams(N=4, alpha=1.0, p=1.4, q=4.0, mode="normalized-sobolev",
                               nu=1.0, a=1.0)
        coeffs = coefficient_table(4, 1.0, 1.4, 4.0, S_alpha=7.697, C_Np=1.0)
        assert coeffs.nu_bound_sob is not None
        rows = multiplicity_experiment(params, [1e9], scan_grid, coeffs=coeffs)
        assert rows[0].status.startswith("gated-off")
        assert not rows[0].two_solutions


class TestPersistRun:
    def _manifest(self):
        return RunManifest(config={"q": 3.0}, code_version="0.1.0")

    def test_layout_and_round_trip(self, tmp_path):
        art = {
            "constants": {"S": 5.478},
            "solves": {"gs": {"level": 1.0}, "profile": "r,u\n0.0,1.0\n"},
            "fits": {"gap": {"slope": -1.0}},
            "tables": {"scan": "c,level\n1.0,2.0\n"},
        }
        root = persist_run(self._manifest(), art, tmp_path / "run1")
        assert (root / "manifest.json").exists()
        assert (root / "constants.json").exists()
        assert (root / "solves" / "gs.json").exists()
        assert (root / "solves" / "profile.csv").exists()
        assert (root / "fits" / "gap.json").exists()
        assert (root / "tables" / "scan.csv").exists()
        m = RunManifest.from_json((root / "manifest.json").read_text())
        assert m.config == {"q": 3.0}

    def test_deterministic_bytes(self, tmp_path):
        art = {"fits": {"gap": {"slope": -1.0, "r2": 0.99}}}
        r1 = persist_run(self._manifest(), art, tmp_path / "a")
        r2 = persist_run(self._manifest(), art, tmp_path / "b")
        assert ((r1 / "fits" / "gap.json").read_bytes()
                == (r2 / "fits" / "gap.json").read_bytes())

    def test_missing_root_parent(self):
        with pytest.raises(InvalidConfiguration):
            persist_run(self._manifest(), {}, "/nonexistent_dir_xyz/run")
