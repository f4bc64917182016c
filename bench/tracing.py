"""Spans and counters at choquard_lab's layer boundaries, recorded from outside.

Nothing in the package changes.  `instrument` replaces module and class
attributes of an imported `choquard_lab` with wrappers for the life of one
benchmark child process, so a traced run measures the same code an
untraced run executes.

Each wrapper opens a frame on a stack.  A *span* boundary also appends a
record ``(name, start, end, parent)`` to an in-memory list, written out when
the run ends; a *counter* boundary only aggregates count and time, which
keeps fine-grained boundaries (one hyp2f1 call, one panel row, one mat-vec)
cheap.  Both kinds feed self time: a frame's duration minus the time its
child frames cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory span list plus aggregated counts, times and extracted values."""

    def __init__(self):
        self.spans = []                    # [name, start, end, parent span index]
        self.count = defaultdict(int)      # boundary name -> calls
        self.time = defaultdict(float)     # boundary name -> inclusive seconds
        self.self_time = defaultdict(float)
        self.value = defaultdict(float)    # extracted quantities: iterations, bytes, flops
        self._stack = []                   # open frames: [name, child seconds, span index]

    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _enclosing_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return -1

    def wrap(self, name, fn, span: bool, on_result=None, when=None):
        """Wrapper recording `name` around `fn`.

        `when(args, kwargs)` returning False calls `fn` unrecorded;
        `on_result(tracer, args, kwargs, result)` extracts values afterwards.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            idx = -1
            if span:
                idx = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, tracer._enclosing_span()])
            frame = [name, 0.0, idx]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if span:
                    tracer.spans[idx][1] = t0
                    tracer.spans[idx][2] = t1
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.count[name] += 1
                tracer.time[name] += dur
                tracer.self_time[name] += dur - frame[1]
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _replace_everywhere(old, new):
    """Rebind every `choquard_lab` module attribute that is `old` to `new`.

    Modules import functions by name (``from .grid import make_grid``), so
    patching only the defining module would miss most call sites.
    """
    for modname, mod in list(sys.modules.items()):
        if modname == "choquard_lab" or modname.startswith("choquard_lab."):
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)


def _add(key, amount):
    def hook(tracer, args, kwargs, result):
        tracer.value[key] += amount(args, kwargs, result)
    return hook


def instrument(tracer: Tracer):
    """Wrap the layer boundaries of the imported package; returns `tracer`."""
    import numpy as np

    from choquard_lab import grid, lab, riesz, solver, testfn

    def fn_span(mod, attr, name, on_result=None):
        old = getattr(mod, attr)
        _replace_everywhere(old, tracer.wrap(name, old, True, on_result))

    def method(cls, attr, name, span, on_result=None, when=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), span, on_result, when))

    # workload entry points
    fn_span(lab, "scan_threshold", "lab.scan_threshold")
    fn_span(lab, "multiplicity_experiment", "lab.multiplicity_experiment")
    fn_span(testfn, "bubble_sweep", "testfn.bubble_sweep")
    fn_span(riesz, "convolve", "riesz.convolve")

    # grid
    fn_span(grid, "make_grid", "grid.make_grid")

    # riesz: tables, kernel, near-diagonal rows, off-grid potential
    fn_span(riesz, "kernel_table", "riesz.kernel_table")
    fn_span(riesz, "_build_table", "riesz.build_table",
            _add("riesz.table_bytes", lambda a, k, r: 16.0 * r.grid.n ** 2))
    riesz.hyp2f1 = tracer.wrap("riesz.hyp2f1", riesz.hyp2f1, False,
                               _add("riesz.kernel_evals", lambda a, k, r: np.size(r)))
    riesz._panel_product_row = tracer.wrap("riesz.panel_row", riesz._panel_product_row, False)
    fn_span(riesz, "potential_at", "riesz.potential_at")

    # riesz: dense mat-vecs, counted where the solvers and the table do them
    matvec_bytes = lambda n: _add("riesz.matvec_bytes", lambda a, k, r: 8.0 * n(a) ** 2)
    method(solver._Discrete, "parts", "riesz.matvec.parts", False,
           matvec_bytes(lambda a: a[0].n), when=lambda a, k: a[0].tab is not None)
    method(solver._Discrete, "conv_p", "riesz.matvec.conv_p", False,
           matvec_bytes(lambda a: a[0].n))
    method(riesz.RieszKernelTable, "convolve_values", "riesz.matvec.convolve_values",
           False, matvec_bytes(lambda a: a[0].grid.n))
    method(riesz.RieszKernelTable, "bilinear", "riesz.matvec.bilinear", False,
           matvec_bytes(lambda a: a[0].grid.n))

    # solver: free descent and line search
    fn_span(solver, "ground_state", "solver.ground_state",
            _add("solver.converged", lambda a, k, r: float(r.converged)))
    method(solver._FreeSolver, "descend", "solver.descend", True,
           _add("solver.descent_iters", lambda a, k, r: r[1]))
    # one Nehari projection per line-search trial, plus one per descend call
    method(solver._FreeSolver, "nehari_t", "solver.nehari_t", False)

    # solver: Newton and its dense solves (make_grid's 3x3 moment solves excluded)
    method(solver._FreeSolver, "newton", "solver.newton", True,
           _add("solver.newton_iters", lambda a, k, r: r[1]))
    method(solver._MassSolver, "newton", "solver.newton", True,
           _add("solver.newton_iters", lambda a, k, r: r[2]))
    np.linalg.solve = tracer.wrap(
        "solver.dense_solve", np.linalg.solve, False,
        _add("solver.dense_solve_flop", lambda a, k, r: 2.0 * a[0].shape[0] ** 3 / 3.0),
        when=lambda a, k: np.ndim(a[0]) == 2 and a[0].shape[0] > 3)

    # solver: normalized branches
    fn_span(solver, "normalized_branches", "solver.normalized_branches")
    method(solver._MassSolver, "fiber_points", "solver.fiber_scan", True)
    solver.brentq = tracer.wrap("solver.fiber_root", solver.brentq, False,
                                when=lambda a, k: tracer.innermost() == "solver.fiber_scan")
    method(solver._MassSolver, "flow", "solver.flow", True,
           _add("solver.flow_iters", lambda a, k, r: r[1]))
    fn_span(solver, "second_solution_via_rescale", "solver.rescale")

    # testfn
    fn_span(testfn, "mass_radius", "testfn.mass_radius")
    fn_span(testfn, "bubble_report", "testfn.bubble_report")
    return tracer


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cached_table_bytes: float, predicate_evals: int) -> dict:
    """Per-layer metric values (without units) from one traced run.

    `riesz.cached_table_mb`, `riesz.matvec_gb` and `solver.dense_solve_gflop`
    are computed from array sizes, not read from hardware counters.
    """
    c, t, v = tracer.count, tracer.time, tracer.value
    matvec_names = [k for k in c if k.startswith("riesz.matvec.")]
    trials = c["solver.nehari_t"] - c["solver.descend"]
    gs_calls = c["solver.ground_state"]
    return {
        "grid.make_grid_calls": c["grid.make_grid"],
        "grid.make_grid_s": t["grid.make_grid"],
        "riesz.table_builds": c["riesz.build_table"],
        "riesz.table_build_s": t["riesz.build_table"],
        "riesz.cache_hit_ratio": _ratio(c["riesz.kernel_table"] - c["riesz.build_table"],
                                        c["riesz.kernel_table"]),
        "riesz.cached_table_mb": cached_table_bytes / 1e6,
        "riesz.kernel_evals": int(v["riesz.kernel_evals"]),
        "riesz.hyp2f1_s": t["riesz.hyp2f1"],
        "riesz.panel_rows": c["riesz.panel_row"],
        "riesz.panel_row_s": t["riesz.panel_row"],
        "riesz.matvecs": sum(c[k] for k in matvec_names),
        "riesz.matvec_s": sum(t[k] for k in matvec_names),
        "riesz.matvec_gb": v["riesz.matvec_bytes"] / 1e9,
        "riesz.potential_at_s": t["riesz.potential_at"],
        "solver.ground_state_calls": gs_calls,
        "solver.converged_ratio": _ratio(v["solver.converged"], gs_calls),
        "solver.descent_iters": int(v["solver.descent_iters"]),
        "solver.linesearch_trials": trials,
        "solver.linesearch_accept_ratio": _ratio(v["solver.descent_iters"], trials),
        "solver.descent_s": t["solver.descend"],
        "solver.newton_iters": int(v["solver.newton_iters"]),
        "solver.dense_solves": c["solver.dense_solve"],
        "solver.dense_solve_s": t["solver.dense_solve"],
        "solver.dense_solve_gflop": v["solver.dense_solve_flop"] / 1e9,
        "solver.fiber_scans": c["solver.fiber_scan"],
        "solver.fiber_roots": c["solver.fiber_root"],
        "solver.fiber_scan_s": t["solver.fiber_scan"],
        "solver.flow_iters": int(v["solver.flow_iters"]),
        "solver.flow_s": t["solver.flow"],
        "solver.rescale_s": t["solver.rescale"],
        "testfn.mass_radius_s": t["testfn.mass_radius"],
        "testfn.bubble_report_s": t["testfn.bubble_report"],
        "lab.predicate_evals": predicate_evals,
        "lab.solves_per_eval": _ratio(gs_calls, predicate_evals),
    }
