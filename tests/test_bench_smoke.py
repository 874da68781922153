"""The benchmark runs end to end on each workload and its answers check."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


WORKLOADS = ["recognize", "split-v2", "split-long"]


def run_bench(workload, trace):
    """One short seed-0 run; returns the JSON of its last stdout line.

    No bytecode is written under bench/, but the run leaves its instances,
    result.json and, traced, its spans in .bench_out/<workload>-seed0-trace<trace>,
    replacing what an earlier such run of the same workload left there.
    """
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = run_bench(workload, trace=0)
    assert result["attempted"] > 0
    assert len(END_TO_END) == 4
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    for name in END_TO_END:
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0, (name, value)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_bench_run_is_correct_and_reports_every_layer(workload):
    # The tracer wraps functions of the package by name, and the run fails
    # when one of them is gone or never fires.  It writes
    # .bench_out/<workload>-seed0-trace1.
    result = run_bench(workload, trace=1)
    assert sorted(result["metrics"]) == sorted(PER_LAYER)
    for name in PER_LAYER:
        value = result["metrics"][name]["value"]
        assert math.isfinite(value), (name, value)
