"""Tests of the benchmark itself: run with `python3 -m pytest bench -q` (~3 min).

The traced-run tests start real child processes, two per workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

_TRACED = {}


def traced(name, seed, attempt):
    key = (name, seed, attempt)
    if key not in _TRACED:
        _TRACED[key] = run.spawn(name, seed, True, time.monotonic() + run.RUN_LIMIT_S)
    return _TRACED[key]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counters_repeat_for_the_same_seed(name):
    first, second = traced(name, 0, 1), traced(name, 0, 2)
    counters = {k: v for k, v in first["layers"].items() if not k.endswith("_s")}
    assert counters == {k: second["layers"][k] for k in counters}
    assert first["counts"] == second["counts"]
    assert first["incorrect"] == 0


def test_threshold_counts_match_the_roadmap_baseline():
    rep = traced("threshold", 0, 1)
    counts, layers = rep["counts"], rep["layers"]
    assert counts["riesz.matvec.parts"] == 19882
    assert counts["riesz.matvec.conv_p"] == 14348
    assert layers["solver.ground_state_calls"] == 13
    assert round(layers["solver.converged_ratio"] * 13) == 3      # 10 unconverged
    assert layers["lab.predicate_evals"] == 7


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.NAMES:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    assert workloads.make_inputs("threshold", 0) == {"range": (0.5, 16.0)}
    assert workloads.make_inputs("bubbles", 0)["eps"][0] == 0.006
    assert workloads.make_inputs("threshold", 1) != workloads.make_inputs("threshold", 2)


def test_repetition_count_depends_only_on_the_arguments():
    assert run.repetitions("threshold", 48, False) == 2
    assert run.repetitions("kernel_generic", 48, False) == 4
    assert run.repetitions("kernel_generic", 48, True) == 1
    assert all(run.repetitions(name, 1, trace) == 1
               for name in workloads.NAMES for trace in (False, True))


def test_self_time_excludes_child_frames():
    tr = Tracer()
    leaf = tr.wrap("leaf", lambda: time.sleep(0.02), span=False)
    outer = tr.wrap("outer", lambda: (leaf(), time.sleep(0.01)), span=True)
    outer()
    assert tr.count == {"leaf": 1, "outer": 1}
    assert tr.self_time["outer"] == pytest.approx(tr.time["outer"] - tr.time["leaf"])
    assert 0.005 < tr.self_time["outer"] < 0.02
    assert [s[0] for s in tr.spans] == ["outer"] and tr.spans[0][3] == -1


def test_fails_without_the_package(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(root, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "threshold",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
