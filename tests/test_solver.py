import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf
from scipy.sparse.linalg import LinearOperator, gmres

from choquard_lab.errors import (IncompatibleGrid, InvalidConfiguration, InvalidParameter,
                                 ShootingFailure)
from choquard_lab.functional import (Parts, ProblemParams, _ray_root, compute_parts,
                                     energy_from_parts, fiber_energy, fiber_profile,
                                     identity_prediction, multiplier_from_parts,
                                     scaled_parts)
from choquard_lab.grid import RadialField, gradient_seminorm, integrate, make_grid
from choquard_lab.profiles import cutoff_bubble, gaussian, talenti
from choquard_lab import solver as solver_module
from choquard_lab.solver import (NormalizedBranchResult, _FreeSolver, _MassSolver,
                                 _fiber_seeds, _initial_field, _polish_branch, ground_state,
                                 multiplier_check, normalized_branches,
                                 second_solution_via_rescale,
                                 shoot_local_ground_state)
from dense_oracle import dense_table


@pytest.fixture(scope="module")
def solve_grid():
    return make_grid(3, 25.0, 900, 2.0)


class TestShooting:
    @pytest.mark.parametrize("q,ratio", [(4.0, 0.75), (3.0, 0.5)])
    def test_kinetic_power_ratio(self, q, ratio, q4_ground, q3_ground):
        Q = q4_ground if q == 4.0 else q3_ground
        g = Q.grid
        K = gradient_seminorm(Q)
        M = integrate(g, Q.values ** 2)
        P = integrate(g, Q.values ** q)
        # Nehari identity
        assert abs(K + M - P) / (K + M) < 1e-6
        # Pohozaev/Nehari algebra: K / P = N(q-2)/(2q)
        assert abs(K / P - ratio) < 1e-4

    def test_critical_exponent_rejected(self):
        with pytest.raises(InvalidParameter):
            shoot_local_ground_state(3, 6.0)

    def test_non_integer_dimension_rejected_before_shooting(self):
        # N = 3.5 was shot for 2.9 s before the grid rejected it
        with pytest.raises(InvalidParameter):
            shoot_local_ground_state(3.5, 3.0)

    def test_positive_decaying(self, q4_ground):
        assert q4_ground.origin > 1
        assert np.all(q4_ground.values >= 0)
        assert q4_ground.values[-1] < 1e-8
        assert q4_ground.values[-1] <= 1e-10 * q4_ground.origin

    @pytest.mark.parametrize("N,q", [(4, 2.24), (3, 2.5)])
    def test_solves_the_ode_in_the_tail(self, N, q):
        # the central-difference residual of the stored (Q, Q') on r in (8, 20),
        # relative to |Q| + Q^(q-1); a linear tail splice, which drops
        # Q^(q-1), read 1.07 and 0.138 here
        Q = shoot_local_ground_state(N, q)
        r, u, du = Q.grid.r, Q.values, Q.deriv
        tail = (r > 8.0) & (r < 20.0)
        res = np.abs(np.gradient(du, r) + (N - 1) / r * du - u + u ** (q - 1))
        res = np.maximum(res, np.abs(np.gradient(u, r) - du))
        assert np.max(res[tail] / (u + u ** (q - 1))[tail]) < 1e-3

    @pytest.mark.parametrize("N,q,origin", [
        (3, 3.0, 4.191682954441612), (3, 4.0, 4.33738767997562),
        (4, 2.24, 7.446970839817096), (5, 2.8, 19.131017416480027)])
    def test_origin_pinned(self, N, q, origin):
        # Q(0) from a bisection on Q(0) between overshoot and undershoot,
        # each integration to r = 40 at rtol 1e-12
        assert abs(shoot_local_ground_state(N, q).origin - origin) < 1e-8 * origin

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("f", [0.03, 0.99])
    def test_positive_near_both_ends(self, N, f):
        # q at 3 % and 99 % of the way from 2 to 2*
        Q = shoot_local_ground_state(N, 2 + f * 4 / (N - 2))
        assert Q.origin > 0 and np.all(Q.values > 0)

    def test_failed_collocation_raises(self, monkeypatch):
        import scipy.integrate
        solve_bvp = scipy.integrate.solve_bvp

        def failing(*args, **kwargs):
            sol = solve_bvp(*args, **kwargs)
            sol.status, sol.message = 1, "The maximum number of mesh nodes is exceeded."
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_bvp", failing)
        with pytest.raises(ShootingFailure, match="mesh nodes"):
            shoot_local_ground_state(3, 3.0)


class TestGroundStateLocal:
    def test_level_matches_shooting_identity(self, q4_ground, solve_grid):
        # m = (q-2)/(2q) S_q^(q/(q-2)) with S_q from the shooting solution
        g = q4_ground.grid
        K = gradient_seminorm(q4_ground)
        M = integrate(g, q4_ground.values ** 2)
        P = integrate(g, q4_ground.values ** 4)
        Sq = (K + M) / P ** 0.5
        m_ref = (4 - 2) / (2 * 4) * Sq ** 2
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general",
                               mu=0.0, lam=1.0)
        res = ground_state(params, solve_grid)
        assert res.converged
        assert abs(res.level - m_ref) < 0.01 * m_ref

    def test_zero_init_rejected(self, solve_grid):
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general",
                               mu=0.0, lam=1.0)
        z = RadialField.from_values(solve_grid, np.zeros(solve_grid.n), origin=0.0)
        with pytest.raises(InvalidConfiguration):
            ground_state(params, solve_grid, seeds=(z,))

    def test_start_positive_nowhere_rejected(self):
        # its positive part is u = 0, a start the descent would keep
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="lambda", lam=1.0)
        neg = RadialField.from_values(grid, -gaussian(grid, width=1.5).values, origin=-1.0)
        with pytest.raises(InvalidConfiguration, match="positive nowhere"):
            ground_state(params, grid, seeds=(neg,))

    def test_starts_are_admissible(self):
        # every seed kind starts as a solver iterate: nonnegative, zero at the
        # Dirichlet node; gaussian(width=r_max/3) is 1.2e-4 there
        grid = make_grid(3, 20.0, 200, 2.0)
        wide = gaussian(grid, width=grid.r_max / 3)
        below = RadialField.from_values(grid, wide.values - 1e-3, origin=1.0)
        for tag in ("gaussian", ("bubble", 0.5), wide, below):
            u = _initial_field(tag, grid)[1]
            assert u[-1] == 0.0 and np.all(u >= 0.0) and np.any(u > 0.0)

    def test_normalized_mode_rejected(self, solve_grid):
        pp = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=0.1)
        with pytest.raises(InvalidParameter):
            ground_state(pp, solve_grid)

    def test_grid_in_another_dimension_rejected(self):
        # returned level 28.38 (exit xi-floor) for a hybrid N = 3 / N = 4 problem
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=1.0, lam=1.0)
        with pytest.raises(IncompatibleGrid):
            ground_state(params, make_grid(4, 20.0, 300, 2.0))


class TestGroundStateChoquard:
    def test_pure_choquard_self_consistency(self, solve_grid):
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="general",
                               mu=1.0, lam=0.0)
        res = ground_state(params, solve_grid)
        assert res.converged
        assert res.level > 0
        assert abs(res.nehari_defect) < 1e-8
        assert abs(res.pohozaev_defect) < 1e-3
        assert res.radially_nonincreasing
        # fiber sup along the ray equals the level at the ground state
        ts = np.unique(np.concatenate([np.geomspace(0.3, 3.0, 60), [1.0]]))
        prof = fiber_profile(params, res.field, "ray", ts)
        assert np.isclose(np.max(prof.energies), res.level, rtol=1e-6)
        assert np.isclose(prof.critical_ts[0], 1.0, atol=1e-7)

    def test_combined_problem(self, solve_grid):
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general",
                               mu=1.0, lam=1.0)
        res = ground_state(params, solve_grid)
        assert res.converged
        assert abs(res.pohozaev_defect) < 1e-3

    def test_init_schedule_level_spread(self, solve_grid):
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general",
                               mu=1.0, lam=1.0)
        levels = []
        for tag in ("gaussian", ("bubble", 0.5), ("bubble", 0.1)):
            res = ground_state(params, solve_grid, seeds=(tag,))
            levels.append(res.level)
        spread = (max(levels) - min(levels)) / abs(min(levels))
        assert spread < 0.01


def verdict_from_fields(res):
    """The four gates of `converged`, recomputed from a result's public fields."""
    floor = res.field.grid.r[solver_module._MIN_SCALE_NODES]
    return bool(res.pde_residual_scaled < solver_module._CONVERGED_TOL
                and abs(res.nehari_defect) < solver_module._IDENTITY_TOL
                and abs(res.pohozaev_defect) < solver_module._IDENTITY_TOL
                and floor <= res.concentration_scale < np.inf and res.params.mass_coeff > 0)


class TestVerdict:
    @pytest.mark.parametrize("params", [
        ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=0.0, lam=1.0),
        ProblemParams(N=3, alpha=2.0, p=2.0, q=3.0, mode="general", mu=1.0, lam=0.0),
        ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=1.0, lam=1.0),
        # HLS-critical lambda mode: pinned at the floor for lam = 1, attained for 4
        ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=1.0),
        ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=4.0)],
        ids=["local", "choquard", "combined", "pinned", "attained"])
    def test_free_flag_is_the_four_gates(self, params, solve_grid):
        res = ground_state(params, solve_grid)
        assert res.converged == verdict_from_fields(res)

    @pytest.mark.parametrize("lam, reason, converged", [(1.0, "xi-floor", False),
                                                        (4.0, "tol", True)],
                             ids=["pinned", "attained"])
    def test_exit_reason(self, lam, reason, converged, solve_grid):
        # the pinned state ends its descent at the floor and skips the polish
        params = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=lam)
        res = ground_state(params, solve_grid)
        assert res.exit_reason == reason
        assert res.converged is converged

    def test_zero_field_is_not_converged(self):
        # u = 0 has no residual and no defect, and its scale is infinite
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="lambda", lam=1.0)
        solver = _FreeSolver(params, grid)
        u = np.zeros(grid.n)
        res, defects, xi, converged = solver.verdict(u, params.mass_coeff, solver.parts(u))
        assert res == 0.0 and defects == (0.0, 0.0) and xi == np.inf
        assert not converged

    def test_normalized_branches_are_gated_on_their_defects(self, monkeypatch):
        # the P+ branch converges, and fails once no discrete state can meet
        # the defect gate: the normalized verdict reads the P_nu and Pohozaev
        # defects as the free one reads Nehari and Pohozaev
        grid = make_grid(3, 50.0, 300, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        assert normalized_branches(params, grid).plus.converged
        monkeypatch.setattr(solver_module, "_IDENTITY_TOL", 1e-12)
        plus = normalized_branches(params, grid).plus
        assert plus is not None
        assert not plus.converged


@pytest.fixture(scope="module")
def hls_norm_grid():
    return make_grid(3, 50.0, 1400, 2.0)


@pytest.fixture(scope="module")
def hls_branches(hls_norm_grid):
    # nu chosen inside the smallness window with both branches at O(1) scales
    params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                           nu=6.0, a=1.0)
    return params, normalized_branches(params, hls_norm_grid)


class TestNormalizedBranches:
    def test_grid_in_another_dimension_rejected(self):
        # solved a hybrid problem: N = 3 exponents on an N = 4 grid and table
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        with pytest.raises(IncompatibleGrid):
            normalized_branches(params, make_grid(4, 20.0, 300, 2.0))

    def test_plus_branch(self, hls_branches):
        params, out = hls_branches
        assert out.plus is not None, out.plus_absent_reason
        assert out.plus.converged
        assert out.plus.level < 0          # ground state at negative level
        assert out.plus.lambda_nu > 0

    def test_minus_branch(self, hls_branches):
        params, out = hls_branches
        assert out.minus is not None, out.minus_absent_reason
        assert out.minus.converged
        assert out.minus.level > 0          # mountain-pass level
        assert out.minus.lambda_nu > 0
        assert out.minus.level > out.plus.level

    def test_minus_is_on_minus_branch(self, hls_branches):
        params, out = hls_branches
        prof = fiber_profile(params, out.minus.field, "mass", [1e-6, 1e6])
        t, sign = min(zip(prof.critical_ts, prof.second_derivative_signs),
                      key=lambda pt: abs(np.log(pt[0])))
        assert sign == -1
        assert abs(t - 1) < 1e-4

    def test_multiplier_identity(self, hls_branches):
        params, out = hls_branches
        for res in (out.plus, out.minus):
            assert abs(multiplier_check(res)) < 1e-3

    def test_exit_reason_is_the_polishs(self, hls_branches):
        # both branches converge in the polish, which made steps after the flow
        params, out = hls_branches
        for res in (out.plus, out.minus):
            assert res.exit_reason == "tol"

    def test_mass_on_sphere(self, hls_branches):
        params, out = hls_branches
        for res in (out.plus, out.minus):
            m = integrate(res.field.grid, res.field.values ** 2)
            assert abs(m - params.a ** 2) < 1e-8 * params.a ** 2

    def test_minus_flow_relaxes_from_below_the_floor(self, hls_norm_grid, monkeypatch):
        # at nu = 1 a P- flow from a narrow cutoff bubble starts below the
        # resolvability floor and relaxes above it, so the mass fiber has no
        # floor exit: with one, this branch ended xi-floor after 0
        # iterations, unconverged
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=1.0, a=1.0)
        below, recording, flow, xi_of = [], [False], _MassSolver.flow, _MassSolver.xi_of

        def minus_flow(self, u0, which):
            recording[0] = which == -1
            try:
                return flow(self, u0, which)
            finally:
                recording[0] = False

        def recorded_xi(self, u):
            xi = xi_of(self, u)
            if recording[0]:
                below.append(xi < self.xi_floor())
            return xi

        monkeypatch.setattr(_MassSolver, "flow", minus_flow)
        monkeypatch.setattr(_MassSolver, "xi_of", recorded_xi)
        u0 = cutoff_bubble(hls_norm_grid, 0.05, hls_norm_grid.r_max / 4).values
        minus, reason = _polish_branch(_MassSolver(params, hls_norm_grid), u0, -1)
        assert reason is None
        assert minus is not None and minus.converged
        assert minus.exit_reason == "tol"
        assert any(below) and not below[-1]

    def test_plus_state_wider_than_the_window_is_reported_so(self, monkeypatch):
        # at nu = 1 the width-1.5 Gaussian's fiber minimum asks for a width
        # far past the r_max / 3 cap, and the capped seed's own minimum sits
        # at a dilation t < 0.07 that moves most of the mass past r_max: the
        # fiber point exists, landing on it leaves the window
        grid = make_grid(3, 50.0, 300, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=1.0, a=1.0)
        out = normalized_branches(params, grid)
        assert out.plus is None
        assert out.plus_absent_reason == "fiber-point-outside-window"
        # a start with no fiber point at all keeps its own reason
        solver = _MassSolver(params, grid)
        u0 = solver.normalize(gaussian(grid, width=1.5).values)
        assert solver.flow(u0, 1)[:3] == (None, 0, "fiber-point-outside-window")
        monkeypatch.setattr(_MassSolver, "fiber_level", lambda self, parts, which: (None, np.nan))
        assert solver.flow(u0, 1)[:3] == (None, 0, "no-fiber-point")

    def test_absent_reason_is_set_exactly_when_the_branch_is_absent(self, monkeypatch):
        # the P+ flow here ends unconverged; a later P+ flow that cannot start
        # once left a P+ result together with an absent reason
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        plus_calls, flow = [], _MassSolver.flow

        def failing_second(self, u0, which):
            if which == 1:
                plus_calls.append(u0)
                if len(plus_calls) == 2:
                    return None, 0, "no-fiber-point", None
            return flow(self, u0, which)

        monkeypatch.setattr(_MassSolver, "flow", failing_second)
        out = normalized_branches(params, grid)
        for branch, reason in ((out.plus, out.plus_absent_reason),
                               (out.minus, out.minus_absent_reason)):
            assert (branch is None) == (reason is not None)
        assert out.plus is not None and not out.plus.converged
        assert len(plus_calls) == 1

    def test_each_flow_logs_its_exit(self, caplog, monkeypatch):
        grid = make_grid(3, 50.0, 300, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        exits, flow = [], _MassSolver.flow

        def recorded(self, u0, which):
            out = flow(self, u0, which)
            exits.append(out[1:3])
            return out

        monkeypatch.setattr(_MassSolver, "flow", recorded)
        caplog.set_level("DEBUG", logger=solver_module.__name__)
        normalized_branches(params, grid)
        # one debug line per flow: its exit, iterations and fiber
        descents = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("descent")]
        assert len(exits) == 2 and len(descents) == len(exits)
        for message, (k, reason) in zip(descents, exits):
            assert message.startswith(f"descent {reason} after {k} iterations: mass fiber, ")


class TestFiberSeeds:
    @pytest.mark.parametrize("params,grid_args", [
        (ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=6.0, a=1.0),
         (3, 50.0, 1400, 2.0)),
        (ProblemParams(N=4, alpha=1.0, p=1.4, q=4.0, mode="normalized-sobolev", nu=40.0,
                       a=1.0), (4, 60.0, 1100, 3.0))])
    def test_gaussian_widths_share_one_mass_fiber(self, params, grid_args):
        # t^(N/2) g_w(t r) is the normalized Gaussian of width w / t, so every
        # width w predicts the same seed width w / t, and a seed at that
        # width is its own fiber point
        grid = make_grid(*grid_args)
        solver = _MassSolver(params, grid)
        for which in (1, -1):
            widths = []
            for w in np.geomspace(1.5, grid.r_max / 3.0, 6):
                u = solver.normalize(gaussian(grid, width=float(w)).values)
                widths.append(w / solver.fiber_level(solver.parts(u), which)[0])
            assert np.ptp(widths) < 1e-4 * np.mean(widths)
        seeds = _fiber_seeds(solver)
        for seed, which in zip(seeds, (1, -1)):
            assert abs(solver.fiber_level(solver.parts(seed), which)[0] - 1.0) < 1e-3

    def test_a_fiber_without_a_maximum_leaves_p_minus_absent(self, monkeypatch):
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        points = _MassSolver.fiber_points
        monkeypatch.setattr(_MassSolver, "fiber_points",
                            lambda self, parts: [pt for pt in points(self, parts) if pt[1] == 1])
        out = normalized_branches(params, grid)
        assert out.plus is not None and out.plus_absent_reason is None
        assert out.minus is None
        assert out.minus_absent_reason == "fiber admits no maximum at this (nu, a)"

    def test_one_parts_before_the_first_flow(self, monkeypatch):
        # both seeds come from the parts of one Gaussian
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        calls, at_flow = [0], []
        parts, flow = _MassSolver.parts, _MassSolver.flow

        def counted(self, u):
            calls[0] += 1
            return parts(self, u)

        def recorded(self, u0, which):
            at_flow.append(calls[0])
            return flow(self, u0, which)

        monkeypatch.setattr(_MassSolver, "parts", counted)
        monkeypatch.setattr(_MassSolver, "flow", recorded)
        normalized_branches(params, grid)
        assert at_flow[0] == 1


class TestNewtonFloor:
    def test_mass_newton_stops_below_resolvability_floor(self, monkeypatch):
        # the floor sits at the last node, so the first Newton candidate from
        # this Gaussian falls below it and the polish keeps its input, as the
        # free solver does
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        monkeypatch.setattr(solver_module, "_MIN_SCALE_NODES", 199)
        solver = _MassSolver(params, grid)
        u = solver.normalize(gaussian(grid).values)
        lam = multiplier_from_parts(params, solver.parts(u))
        u_out, lam_out, k, _, _ = solver.newton(u, lam)
        assert k == 0
        assert u_out is u and lam_out == lam

    def test_branch_reports_the_flows_status_when_the_polish_makes_no_step(self, monkeypatch):
        # with the floor at the last node the P- polish rejects its first step,
        # so the branch's reason is why its flow stopped
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=6.0, a=1.0)
        monkeypatch.setattr(solver_module, "_MIN_SCALE_NODES", 199)
        statuses, flow = [], _MassSolver.flow

        def recorded(self, u0, which):
            out = flow(self, u0, which)
            statuses.append(out[2])
            return out

        monkeypatch.setattr(_MassSolver, "flow", recorded)
        minus = normalized_branches(params, grid).minus
        assert minus.iterations == solver_module._FLOW_ITERS
        assert minus.exit_reason == statuses[-1] == "max-iters"


class TestNewtonStagnation:
    def test_stalled_polish_keeps_the_full_loops_state(self, monkeypatch):
        # with no reachable target the full loop runs all _NEWTON_ITERS steps;
        # the stagnation exit stops once the residual sits at roundoff and
        # returns the same state to roundoff (later roundoff-level iterates
        # can beat its residual by a few units, so not bit for bit)
        grid = make_grid(3, 20.0, 200, 2.0)
        params = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=4.0)
        monkeypatch.setattr(solver_module, "_RESIDUAL_TOL", 0.0)
        solver = solver_module._FreeSolver(params, grid)
        u, _, _ = solver.descend(gaussian(grid, width=1.5).values)
        u_stall, k_stall, res_stall, _ = solver.newton(u)
        monkeypatch.setattr(solver_module, "_STALL_STEPS", solver_module._NEWTON_ITERS,
                            raising=False)
        u_full, k_full, res_full, _ = solver.newton(u)
        assert k_full == solver_module._NEWTON_ITERS
        assert res_stall < 1e-12 and res_full < 1e-12
        assert np.max(np.abs(u_stall - u_full)) < 1e-12 * np.max(u_full)
        levels = [energy_from_parts(params, solver.parts(v))
                  for v in (u_stall, u_full)]
        assert levels[0] == pytest.approx(levels[1], rel=1e-12)
        assert k_stall < k_full


def test_each_polish_logs_its_exit(caplog, monkeypatch):
    # one debug line per polish, free and bordered: its exit, steps and residual
    polished, polish = [], solver_module._Discrete.polish

    def recorded(self, u, shift, bordered):
        out = polish(self, u, shift, bordered)
        polished.append(out[2:])
        return out

    monkeypatch.setattr(solver_module._Discrete, "polish", recorded)
    caplog.set_level("DEBUG", logger=solver_module.__name__)
    grid = make_grid(3, 20.0, 200, 2.0)
    ground_state(ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="lambda", lam=1.0), grid)
    normalized_branches(ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                                      nu=6.0, a=1.0), make_grid(3, 50.0, 300, 2.0))
    newtons = [r.getMessage() for r in caplog.records if r.getMessage().startswith("newton")]
    assert len(polished) == 3 and len(newtons) == len(polished)
    for message, (k, res, reason) in zip(newtons, polished):
        assert message == f"newton {reason} after {k} steps: residual {res:.3g}"


class TestMultiplierCoefficients:
    # the identity prediction keeps one nonlinear term per mode; the parts
    # below make the kinetic and the other term large, so a leftover shows
    PARTS = Parts(kinetic=3.7, mass=1.0, riesz=2.3, power=1.9)

    def test_hls_identity_coefficient(self):
        # N=3, q=4: 2(2*-q)/(q(2*-2)) nu P = 2(6-4)/(4(6-2)) nu P = 1/4 nu P
        pp = ProblemParams(N=3, alpha=2.0, p=5.0, q=4.0, mode="normalized-hls", nu=1.3)
        assert np.isclose(identity_prediction(pp, self.PARTS), 0.25 * 1.3 * 1.9,
                          rtol=1e-14)

    def test_sobolev_identity_coefficient(self):
        pp = ProblemParams(N=4, alpha=1.0, p=1.4, q=4.0, mode="normalized-sobolev",
                           nu=1.3)
        assert np.isclose(identity_prediction(pp, self.PARTS),
                          (4 + 1 - 1.4 * 2) / (2 * 1.4) * 1.3 * 2.3, rtol=1e-14)


class TestSecondSolutionRescale:
    def test_unit_multiplier_is_identity(self, hls_norm_grid, monkeypatch):
        # synthetic converged branch with lambda = 1: coupling = nu, field unchanged;
        # the bubble does not solve this problem, so the residual gate is lifted
        monkeypatch.setattr(solver_module, "_CONVERGED_TOL", np.inf)
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=0.7, a=1.0)
        w = talenti(hls_norm_grid)
        fake = NormalizedBranchResult(params=params, field=w, level=1.0,
                                      lambda_nu=1.0, multiplier_identity_defect=0.0,
                                      pde_residual_scaled=0.0, iterations=0,
                                      converged=True, exit_reason="tol")
        out = second_solution_via_rescale(fake)
        assert np.isclose(out.coupling, 0.7, rtol=1e-14)
        assert np.allclose(out.field.values[:-1], w.values[:-1], rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("lam", [0.3, 0.77, 1.9, 7.3])
    def test_sobolev_coupling_exponent(self, lam, monkeypatch):
        # synthetic converged Sobolev-critical branch (N=4, alpha=1, p=1.4):
        # mu = nu * lambda_nu^(-(N + alpha - p(N-2))/2); the gaussian solves
        # nothing, so the residual gate is lifted
        monkeypatch.setattr(solver_module, "_CONVERGED_TOL", np.inf)
        params = ProblemParams(N=4, alpha=1.0, p=1.4, q=4.0, mode="normalized-sobolev",
                               nu=0.5, a=1.0)
        fake = NormalizedBranchResult(params=params, field=gaussian(make_grid(4, 20.0, 200, 2.0)),
                                      level=1.0, lambda_nu=lam,
                                      multiplier_identity_defect=0.0,
                                      pde_residual_scaled=0.0, iterations=0,
                                      converged=True, exit_reason="tol")
        out = second_solution_via_rescale(fake)
        expect = 0.5 * lam ** (-(4 + 1.0 - 1.4 * (4 - 2)) / 2)
        assert out.params_effective.mode == "mu"
        assert out.params_effective.mu == out.coupling
        assert np.isclose(out.coupling, expect, rtol=1e-14, atol=0.0)

    def test_coupling_exponent_audit(self, hls_branches):
        # N=3, q=3: lam = nu * lambda_nu^(-(2N - q(N-2))/4) = nu lambda_nu^(-3/4)
        params, out = hls_branches
        resc = second_solution_via_rescale(out.minus)
        expect = params.nu * out.minus.lambda_nu ** (-0.75)
        assert np.isclose(resc.coupling, expect, rtol=1e-13)
        assert resc.pde_residual_scaled < solver_module._CONVERGED_TOL

    def test_values_are_the_branch_values_times_amp(self, hls_branches):
        # v = amp * u node for node on the rescaled grid, amp = lambda_nu^(-(N-2)/4)
        params, out = hls_branches
        resc = second_solution_via_rescale(out.minus)
        amp = out.minus.lambda_nu ** (-(params.N - 2) / 4.0)
        np.testing.assert_array_equal(resc.field.values[:-1],
                                      amp * out.minus.field.values[:-1])
        assert resc.field.values[-1] == 0.0

    def test_unconverged_rejected(self, hls_norm_grid):
        params = ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls",
                               nu=0.7, a=1.0)
        fake = NormalizedBranchResult(params=params, field=talenti(hls_norm_grid),
                                      level=1.0, lambda_nu=-0.1,
                                      multiplier_identity_defect=0.0,
                                      pde_residual_scaled=0.0, iterations=0,
                                      converged=True, exit_reason="tol")
        with pytest.raises(InvalidParameter):
            second_solution_via_rescale(fake)


def dense_jacobian(solver, u, shift, border, conv):
    """Dense Jacobian of W * grad(., shift) at u, Dirichlet at the last node:
    the oracle of `_Discrete.newton_system`.

    A `border` vector (or None) is appended as the last row and column:
    the constraint gradient of a bordered KKT system; `conv` is conv(u^p).
    """
    p = solver.params
    n, W = solver.n, solver.W
    J = np.zeros((n, n) if border is None else (n + 1, n + 1))
    Jn = J[:n, :n]
    idx = np.arange(n)
    Jn[idx, idx] = solver.Ad + shift * W
    Jn[idx[:-1], idx[1:]] = solver.Ao
    Jn[idx[1:], idx[:-1]] = solver.Ao
    mask = u > solver_module._POSITIVITY_FLOOR * max(u.max(), 1e-300)
    um = np.where(mask, u, 1.0)
    if conv is not None:
        D1 = np.where(mask, u ** (p.p - 1), 0.0)
        if p.p < 2:
            # u^(p-2) is unbounded at small u: regularize the diagonal
            ureg = u + 1e-8 * max(u.max(), 1e-300)
            diag_nl = (p.p - 1) * conv * ureg ** (p.p - 2)
        else:
            diag_nl = np.where(mask, (p.p - 1) * conv * um ** (p.p - 2), 0.0)
        # the nonlocal part of W * d[conv(u^p) u^(p-1)] is p D1 G D1, since
        # conv = (G @ u^p) / W: G carries the weights itself
        Jnl = D1[:, None] * dense_table(solver.grid, p.alpha)
        Jnl *= D1[None, :]
        Jnl *= p.p * p.riesz_coeff
        Jn -= Jnl
        Jn[idx, idx] -= p.riesz_coeff * (W * diag_nl)
    if p.power_coeff:
        Jq = np.where(mask, (p.q - 1) * um ** (p.q - 2), 0.0)
        Jn[idx, idx] -= p.power_coeff * (W * Jq)
    if border is not None:
        J[:n, n] = border
        J[n, :n] = border
    J[n - 1, :] = 0.0
    J[:, n - 1] = 0.0
    J[n - 1, n - 1] = 1.0
    return J


def banded_solve(solver, shift, rhs):
    """(A + shift W) x = rhs, Dirichlet at the last node, by a banded LU
    solve: the oracle of the factored `_Discrete.solve_shifted`."""
    n = solver.n
    ab = np.zeros((3, n))
    ab[1] = solver.Ad + shift * solver.W
    ab[1, -1] = 1.0
    ab[0, 1:-1] = ab[2, :-2] = solver.Ao[:-1]
    b = rhs.copy()
    b[-1] = 0.0
    return solve_banded((1, 1), ab, b)


def newton_state(params, grid):
    """(solver, u, shift, border, conv) at a Nehari-projected (free) or
    normalized (bordered) Gaussian: a state the polish can start from."""
    if params.normalized:
        solver = _MassSolver(params, grid)
        u = solver.normalize(gaussian(grid, width=1.5).values)
        shift, border = multiplier_from_parts(params, solver.parts(u)), solver.W * u
    else:
        solver = _FreeSolver(params, grid)
        u = gaussian(grid, width=1.5).values
        u = solver.nehari_t(solver.parts(u)) * u
        shift, border = params.mass_coeff, None
    u[-1] = 0.0
    return solver, u, shift, border, solver.conv_p(u)


def counting_gmres(monkeypatch):
    """Wrap the solver's `_gmres` to record the Krylov iterations of each
    call; returns the list of counts."""
    counts, gmres_cycle = [], solver_module._gmres

    def counted(A, b, M):
        x, k = gmres_cycle(A, b, M)
        counts.append(k)
        return x, k

    monkeypatch.setattr(solver_module, "_gmres", counted)
    return counts


LAMBDA16 = ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=16.0)
NEWTON_SETUPS = pytest.mark.parametrize("params", [
    LAMBDA16,
    # p < 2: the regularized u^(p-2) diagonal
    ProblemParams(N=3, alpha=2.0, p=1.8, q=4.0, mode="general", mu=1.0, lam=1.0),
    ProblemParams(N=3, alpha=2.0, p=5.0, q=3.0, mode="normalized-hls", nu=6.0, a=1.0)],
    ids=["free-p4", "free-p-below-2", "bordered"])


class TestNewtonKrylov:
    @NEWTON_SETUPS
    def test_product_matches_the_dense_jacobian(self, params, rng):
        solver, u, shift, border, conv = newton_state(params, make_grid(3, 40.0, 300, 2.5))
        J_dense = dense_jacobian(solver, u, shift, border, conv)
        J, _ = solver.newton_system(u, shift, border, conv)
        for _ in range(3):
            v = rng.standard_normal(J_dense.shape[0])
            ref = J_dense @ v
            assert np.max(np.abs(J(v) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @NEWTON_SETUPS
    def test_gmres_cycle_matches_scipys(self, params):
        # the Newton step of the polish, against scipy's restarted GMRES run
        # for one cycle with the same tolerance: the same iterations, the same
        # step to roundoff
        solver, u, shift, border, conv = newton_state(params, make_grid(3, 40.0, 300, 2.5))
        J, M = solver.newton_system(u, shift, border, conv)
        F, _ = solver.residual(u, shift, conv)
        tail = [0.0] if border is None else [0.0, -0.5 * (solver.mass(u) - params.a ** 2)]
        rhs = np.append(-(solver.W * F)[:-1], tail)
        step, k = solver_module._gmres(J, rhs, M)
        op = lambda f: LinearOperator((rhs.size, rhs.size), matvec=f, dtype=float)
        calls = []
        ref, _ = gmres(op(J), rhs, rtol=solver_module._KRYLOV_RTOL, maxiter=1,
                       restart=solver_module._KRYLOV_DIM, M=op(M), callback=calls.append,
                       callback_type="pr_norm")
        assert k == len(calls) > 1
        assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_factored_solve_matches_a_banded_solve(self, rng):
        # the first shift twice (the second call reuses its factors), then a
        # new shift and back; then large shifts on the threshold grid and one
        # on a wide N = 4 grid, where the running products of the multipliers
        # l fall below e^-300 at least twice, so that the sweeps restart in
        # several chunks and carry a value across each restart
        lambda16_n4 = ProblemParams(N=4, alpha=1.0, p=2.0, q=3.0, mode="lambda", lam=16.0)
        for params, grid_args, shifts in (
                (LAMBDA16, (3, 40.0, 300, 2.5), (1.0, 1.0, 0.37, 1.0)),
                (LAMBDA16, (3, 40.0, 1000, 2.5), (1e4, 1e6)),
                (lambda16_n4, (4, 240.0, 1400, 3.0), (16.0,))):
            solver = _FreeSolver(params, make_grid(*grid_args))
            for shift in shifts:
                if shift > 1.0:
                    _, l, _ = dpttrf(solver.Ad[:-1] + shift * solver.W[:-1], solver.Ao[:-1])
                    logs = np.log(np.abs(l))
                    assert logs.sum() < -2 * (300 + np.max(np.abs(logs)))
                rhs = rng.standard_normal(solver.n)
                ref = banded_solve(solver, shift, rhs)
                x = solver.solve_shifted(shift, rhs)
                assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
        # an indefinite A + shift W: each pivot is tested with `not d > 0`,
        # which a NaN pivot fails too
        for shift in (-1.0, -16.0, np.nan):
            with pytest.raises(np.linalg.LinAlgError):
                solver.solve_shifted(shift, np.ones(solver.n))

    def test_krylov_iterations_do_not_grow_with_n(self, monkeypatch):
        # the tridiagonal-preconditioned Jacobian is the identity minus a
        # compact operator: a Newton step needs as many GMRES iterations at
        # n = 2000 as at n = 250
        counts = counting_gmres(monkeypatch)
        per_n = {}
        for n in (250, 500, 1000, 2000):
            grid = make_grid(3, 40.0, n, 2.5)
            solver = _FreeSolver(LAMBDA16, grid)
            u, _, _ = solver.descend(gaussian(grid, width=1.5).values)
            counts.clear()
            _, k, _, _ = solver.newton(u * (1 + 0.05 * np.exp(-grid.r)))
            assert k == len(counts) > 0
            per_n[n] = max(counts)
        assert all(c <= per_n[250] + 2 for c in per_n.values()), per_n

    def test_one_newton_step_allocates_no_dense_matrix(self, monkeypatch):
        n = 1000
        solver, u, *_ = newton_state(LAMBDA16, make_grid(3, 40.0, n, 2.5))
        monkeypatch.setattr(solver_module, "_NEWTON_ITERS", 1)
        tracemalloc.start()
        try:
            _, k, _, reason = solver.newton(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 1 and reason == "max-iters"
        assert peak < n * n * 8 / 4


THRESHOLD_GRID = (3, 40.0, 1000, 2.5)       # test_08's n = 1000 grid
SEEDS = ("gaussian", ("bubble", 0.5), ("bubble", 0.1))


def threshold_params(lam):
    return ProblemParams(N=3, alpha=1.0, p=4.0, q=3.0, mode="lambda", lam=lam)


class TestSeedSelection:
    @pytest.mark.parametrize("scripted, kept", [
        (((False, 1.0), (True, 2.0)), 1),
        (((True, 2.0), (True, 1.0)), 1),
        (((False, 2.0), (False, 1.0)), 1),
        (((True, 1.0), (False, 0.5)), 0),
        (((True, 1.0), (True, 1.0)), 0),
        (((False, 1.0), (False, 1.0)), 0)],
        ids=["later-converged-beats-lower-unconverged", "lower-converged",
             "lower-unconverged", "converged-beats-lower-unconverged",
             "converged-tie-keeps-first", "unconverged-tie-keeps-first"])
    def test_converged_first_then_level_then_seed_order(self, monkeypatch, scripted, kept):
        # each seed's (converged, level) is scripted; the solves are skipped
        script, result = list(scripted), solver_module.GroundStateResult

        def scripted_result(**kw):
            converged, level = script.pop(0)
            return result(**{**kw, "converged": converged, "level": level})

        monkeypatch.setattr(solver_module, "GroundStateResult", scripted_result)
        monkeypatch.setattr(_FreeSolver, "descend", lambda self, u: (u, 0, "tol"))
        monkeypatch.setattr(_FreeSolver, "newton", lambda self, u: (u, 0, 0.0, "tol"))
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="lambda", lam=1.0)
        seeds = ("gaussian", ("bubble", 0.5))
        res = ground_state(params, make_grid(3, 20.0, 200, 2.0), seeds=seeds)
        assert not script
        assert res.init_tag == ("gaussian", "bubble(0.5)")[kept]
        assert (res.converged, res.level) == scripted[kept]


class TestScaleStep:
    def test_pinned_descents_reach_the_floor(self, caplog):
        # below the threshold each seed concentrates onto the floor by scale
        # steps; without them these three ran all 400 iterations and ended
        # max-iters at xi = 5.3e-3 to 6.9e-3 (the floor is 3.95e-3)
        grid = make_grid(*THRESHOLD_GRID)
        solver = _FreeSolver(threshold_params(2.277577269513383), grid)
        caplog.set_level("DEBUG", logger=solver_module.__name__)
        for tag in SEEDS:
            caplog.clear()
            _, k, reason = solver.descend(_initial_field(tag, grid)[1])
            assert reason == "xi-floor"
            assert k <= 60, (tag, k)
            # one debug line per descent: its exit, iterations and scale steps
            (record,) = caplog.records
            assert record.getMessage().startswith(
                f"descent xi-floor after {k} iterations: ray fiber, ")
            assert "scale steps taken" in record.getMessage()

    @pytest.mark.parametrize("grid_args, lam, init, level", [
        ((3, 40.0, 300, 2.5), 16.0, "gaussian", 0.17057103426012293),
        # a descent that takes 9 scale steps on its way to the ground state
        (THRESHOLD_GRID, 2.8284271247461903, ("bubble", 0.1), 4.552101150620114)],
        ids=["lam16", "lam2.83-bubble0.1"])
    def test_attained_levels_are_unchanged(self, grid_args, lam, init, level):
        # the levels the descent reached before it took scale steps
        res = ground_state(threshold_params(lam), make_grid(*grid_args), seeds=(init,))
        assert res.converged and res.exit_reason == "tol"
        assert abs(res.level - level) <= 1e-12 * level

    @pytest.mark.parametrize("lam, seeds", [(1.0, SEEDS),
                                               (4.0, ("gaussian", ("bubble", 0.1)))],
                             ids=["pinned", "attained"])
    def test_scale_arg_is_the_first_least_prediction(self, monkeypatch, lam, seeds):
        # the walk outward from arg = 1 stops at the first arg that does not
        # lower the prediction; it picks what a brute-force first argmin over
        # the whole drift side picks, or None when nothing falls below E0
        calls, scale_arg = [], _FreeSolver.scale_arg

        def recorded(self, pu, E0, xi, concentrating):
            got = scale_arg(self, pu, E0, xi, concentrating)
            calls.append((self, pu, E0, xi, concentrating, got))
            return got

        def predicted(solver, pu, arg):
            parts = scaled_parts(solver.params, pu, 1.0, arg)
            t = _ray_root(solver.params, parts)
            return np.inf if t is None else fiber_energy(solver.params, parts, "ray", t)

        monkeypatch.setattr(_FreeSolver, "scale_arg", recorded)
        ground_state(threshold_params(lam), make_grid(3, 40.0, 400, 2.5), seeds=seeds)
        args = np.array(solver_module._SCALE_ARGS)
        for solver, pu, E0, xi, concentrating, got in calls:
            cap = xi / (solver_module._SCALE_MARGIN * solver.xi_floor())
            if concentrating and cap <= 1.0:
                assert got is None
                continue
            side = np.minimum(args[args > 1], cap) if concentrating else args[args < 1][::-1]
            E = [predicted(solver, pu, arg) for arg in side]
            i = int(np.argmin(E))
            assert got == (side[i] if E[i] < E0 else None)
        # the pinned descents concentrate; the attained ones weigh both sides
        assert {bool(c) for *_, c, _ in calls} == ({True} if lam == 1.0 else {True, False})
        assert any(got is not None for *_, got in calls)


class TestHandOff:
    def test_free_descent_hands_off_at_the_flow_tolerance(self, monkeypatch):
        # the polish starts from the first descent iterate (after the
        # unjudged start) whose residual is below _FLOW_TOL, as the
        # normalized flow's does; the descent used to run on to 1e-6
        calls, handed = [], []
        residual, polish = solver_module._Discrete.residual, solver_module._Discrete.polish

        def recorded_residual(self, u, shift, conv):
            out = residual(self, u, shift, conv)
            if not handed:
                calls.append((u.copy(), out[1]))
            return out

        def recorded_polish(self, u, shift, bordered):
            handed.append(u.copy())
            return polish(self, u, shift, bordered)

        monkeypatch.setattr(solver_module._Discrete, "residual", recorded_residual)
        monkeypatch.setattr(solver_module._Discrete, "polish", recorded_polish)
        params = ProblemParams(N=3, alpha=2.0, p=2.0, q=4.0, mode="general", mu=1.0, lam=1.0)
        res = ground_state(params, make_grid(3, 25.0, 300, 2.0))
        first = next(i for i in range(1, len(calls)) if calls[i][1] < solver_module._FLOW_TOL)
        assert len(handed) == 1 and np.array_equal(handed[0], calls[first][0])
        # the level the descent to 1e-6 reached
        assert res.exit_reason == "tol" and res.converged
        assert abs(res.level - 10.801294002283367) <= 1e-12 * 10.801294002283367


def perturbed_verdict(params, res):
    """`converged` of a free result's field times 1 + 1e-14 N(0, 1), node by
    node, from a seeded draw; the Dirichlet node stays 0."""
    solver = _FreeSolver(params, res.field.grid)
    noise = np.random.default_rng(0).standard_normal(res.field.grid.n)
    u = res.field.values * (1.0 + 1e-14 * noise)
    return solver.verdict(u, params.mass_coeff, solver.parts(u))[-1]


class TestResidualFloor:
    # the residual's roundoff floor must not grow with n: the windowed
    # strong-form residual that the dual norm replaced read 1.1e-8, 1.0e-6,
    # 2.8e-5 and 6.8e-4 on the perturbed lam = 4 states below, so the
    # verdict flipped on roundoff from n = 2000 on
    @pytest.mark.parametrize("n", [1000, 2000, 4000, pytest.param(8001, marks=pytest.mark.slow)])
    def test_threshold_state_converges_at_every_n(self, n):
        params = threshold_params(4.0)
        res = ground_state(params, make_grid(3, 40.0, n, 2.5))
        assert res.exit_reason == "tol" and res.converged
        assert perturbed_verdict(params, res)

    @pytest.mark.parametrize("N,q", [(3, 3.0), (3, 4.0), (4, 2.06), (4, 2.24), (5, 2.8)])
    def test_grading_4_local_states_converge(self, N, q):
        # stage one of shoot_local_ground_state: these stalled at 4e-6 to
        # 6e-5 of the windowed residual, next to the origin of the grid
        grid = make_grid(N, 40.0, 1200, 4.0)
        gausson = RadialField.from_values(grid, np.exp(N / 2 - (q - 2) * grid.r ** 2 / 4))
        params = ProblemParams(N=N, alpha=2.0, p=(N + 2) / (N - 2), q=q, lam=1.0)
        res = ground_state(params, grid, seeds=(gausson,))
        assert res.exit_reason == "tol" and res.converged
        assert perturbed_verdict(params, res)
