"""choquard-lab benchmark: four paper workloads, end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of threshold, multiplicity, bubbles, kernel_generic, or `all`
to run each in turn.  Run it from the root of a checkout; it imports
`choquard_lab` from that checkout's `src/` and exits with code 2 when the
package is not there.

Every repetition runs in a fresh child process (`child.py`), so each pays
its kernel-table builds, as a command-line user does.  Repetitions run
serially.  How many is fixed by the workload and `--seconds` alone (see
`repetitions`), so the same seed and `--seconds` always check the same
units.  With `--trace 0` the run reports the end-to-end metrics as medians
over repetitions; `setup_s` takes at least seven samples, adding set-up-only
processes, spread over the run, when fewer repetitions run.  With
`--trace 1` it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the full record, spans included, goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import NAMES as WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "accuracy_err": "1"}
LAYER_UNITS = {"_s": "s", "_ratio": "1", "_per_eval": "1", "_mb": "MB", "_gb": "GB",
               "_gflop": "GFLOP"}
# One BLAS thread: on a shared 2-core machine two threads ran threshold about
# 30 % faster but with three times the run-to-run spread (see README).
BLAS_THREADS = 1
MIN_SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0          # every run must end within 180 s
# Typical wall time of one untraced repetition, set-up included, on a
# 2-vCPU Xeon with one BLAS thread.  A traced repetition is up to 1.4 times
# slower.
NOMINAL_REP_S = {"threshold": 23.0, "multiplicity": 19.0, "bubbles": 7.0,
                 "kernel_generic": 12.0}
TRACE_SLOWDOWN = 1.4


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "blas_threads": BLAS_THREADS}


def code_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of the code."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    h = hashlib.sha256()
    for base in ("src", "bench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return {"git_commit": commit, "code_sha256": h.hexdigest()}


def child_env() -> dict:
    env = dict(os.environ)
    n = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = n
    env.pop("PYTHONPATH", None)
    return env


class ChildFailed(RuntimeError):
    pass


def spawn(name, seed, trace, deadline, setup_only=False) -> dict:
    args = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
            "1" if trace else "0"]
    launch = time.monotonic()
    args.append(repr(launch))
    if setup_only:
        args.append("setup-only")
    try:
        proc = subprocess.run(args, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired as exc:   # subprocess.run kills and reaps the child
        raise ChildFailed(f"{name} repetition exceeded the run time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{name} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["process_s"] = time.monotonic() - launch
    return rep


def _median(values):
    finite = [v for v in values if v == v and abs(v) != float("inf")]
    return statistics.median(finite) if finite else None


def repetitions(name, seconds, trace) -> int:
    """Repetitions (traced: untraced/traced pairs) that fill `seconds` at the
    nominal speed, at least one.

    The count does not depend on how fast the machine runs at the moment,
    so two runs with the same arguments check the same units and report the
    same `attempted` and `failed`.
    """
    per = NOMINAL_REP_S[name] * ((1.0 + TRACE_SLOWDOWN) if trace else 1.0)
    return max(1, int(seconds // per))


def measure(name, seed, seconds, trace, deadline) -> dict:
    """The fixed number of repetitions of one workload, then medians."""
    start = time.monotonic()
    reps, traced, setups = [], [], []
    n = repetitions(name, seconds, trace)

    for i in range(n):
        # a machine far slower than nominal: stop before the run time limit
        per = (time.monotonic() - start) / max(1, len(reps))
        if reps and time.monotonic() + 1.5 * per > deadline:
            break
        reps.append(spawn(name, seed, False, deadline))
        setups.append(reps[-1]["setup_s"])
        if trace:
            traced.append(spawn(name, seed, True, deadline))
            continue
        # set-up-only samples, spread over the run like the repetitions
        while (len(setups) < -(-MIN_SETUP_SAMPLES * (i + 1) // n)
               and time.monotonic() + 5.0 < deadline):
            setups.append(spawn(name, seed, False, deadline, setup_only=True)["setup_s"])
    checked = reps + traced
    result = {"workload": name, "seed": seed, "trace": int(trace), "repetitions": checked,
              "attempted": sum(r["attempted"] for r in checked),
              "failed": sum(r["failed"] for r in checked),
              "incorrect": sum(r["incorrect"] for r in checked)}
    if not trace:
        # every repetition failed before its check: report a 100 % error
        accuracy = _median([r["accuracy_err"] for r in reps])
        values = {"wall_s": _median([r["wall_s"] for r in reps]),
                  "cpu_s": _median([r["cpu_s"] for r in reps]),
                  "setup_s": _median(setups),
                  "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
                  "accuracy_err": 1.0 if accuracy is None else accuracy}
        result["setup_samples"] = setups
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        layers = {}
        for key in traced[0]["layers"]:
            vals = [t["layers"][key] for t in traced]
            layers[key] = _median(vals) if key.endswith("_s") else vals[0]
        result["counters_repeat"] = all(
            t["layers"][k] == traced[0]["layers"][k]
            for t in traced for k in traced[0]["layers"] if not k.endswith("_s"))
        layers["trace.overhead_s"] = (_median([t["wall_s"] for t in traced])
                                      - _median([r["wall_s"] for r in reps]))
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    return result


def write_record(result, info):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{result['workload']}-seed{result['seed']}"
                             f"-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump({**info, **result}, fh, default=float)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "choquard_lab", "__init__.py")):
        print(f"no choquard_lab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = {"machine": machine(), "code": code_identity(), "argv": sys.argv[1:]}
    print("# machine " + json.dumps(info["machine"]))
    print("# code " + json.dumps(info["code"]))
    results = []
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        info["versions"] = res["repetitions"][0]["versions"]
        path = write_record(res, info)
        results.append(res)
        print(f"# {name}: {len(res['repetitions'])} repetitions, "
              f"failed_frac {res['failed'] / res['attempted']:.4g} "
              f"({res['failed']}/{res['attempted']}), incorrect {res['incorrect']}, "
              f"counters_repeat {res.get('counters_repeat', '-')}, record {os.path.relpath(path, ROOT)}")
        for key, m in res["metrics"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print("# versions " + json.dumps(info["versions"]))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    correct = all(r["incorrect"] == 0 and r.get("counters_repeat", True) for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
