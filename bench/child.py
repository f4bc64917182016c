"""One repetition of one workload in a fresh process; prints one JSON line.

    python3 bench/child.py WORKLOAD SEED TRACE LAUNCH [setup-only]

LAUNCH is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so `setup_s`
covers interpreter start, imports and grid construction.  `run.py` starts
this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_package():
    """Import choquard_lab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import choquard_lab
    # every module is loaded before `instrument` rebinds names across them
    from choquard_lab import asymptotics, constants, grid, lab, riesz, solver, testfn  # noqa: F401
    if not os.path.abspath(choquard_lab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"choquard_lab imported from {choquard_lab.__file__}, not {SRC}")
    return riesz


def _cached_table_bytes(riesz, built_bytes):
    """16 n^2 bytes (M and G, float64) per table held by the kernel-table cache."""
    cache = getattr(riesz, "_TABLE_CACHE", None)
    try:
        return float(sum(16.0 * tab.grid.n ** 2 for tab in cache.values()))
    except AttributeError:
        return built_bytes


def _versions():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv):
    name, seed, trace, launch = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    setup_only = len(argv) > 4 and argv[4] == "setup-only"
    riesz = _import_package()
    import workloads
    from tracing import Tracer, instrument, layer_metrics

    tracer = instrument(Tracer()) if trace else None
    setup, run, check = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(name, seed)
    state = setup(inputs)
    setup_s = time.monotonic() - launch
    out = {"setup_s": setup_s}
    if not setup_only:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            chk = check(inputs, state, run(inputs, state))
        except Exception as exc:  # a failing workload call is a measured outcome
            units = workloads.planned_units(name, inputs)
            chk = workloads.Check(attempted=units, failed=units,
                                  details={"error": "".join(traceback.format_exception(exc))})
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        out.update(wall_s=wall_s, cpu_s=cpu_s,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   attempted=chk.attempted, failed=chk.failed, incorrect=chk.incorrect,
                   accuracy_err=chk.accuracy_err, details=chk.details, inputs=inputs,
                   versions=_versions())
        if tracer is not None:
            cached = _cached_table_bytes(riesz, tracer.value["riesz.table_bytes"])
            out["layers"] = layer_metrics(tracer, cached, chk.predicate_evals)
            out["counts"] = dict(tracer.count)
            out["self_s"] = dict(tracer.self_time)
            out["spans"] = tracer.spans
    print(json.dumps(out, default=float))


if __name__ == "__main__":
    main(sys.argv[1:])
