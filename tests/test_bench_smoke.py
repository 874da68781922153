"""The benchmark runs end to end on each workload and its answers check."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.mark.parametrize("workload", ["recognize", "split-v2", "split-long"])
def test_bench_run_is_correct_and_reports_every_end_to_end_metric(workload):
    # One short untraced run.  No bytecode is written under bench/, but the
    # run leaves its instances and result.json in .bench_out/<workload>-seed0-trace0,
    # replacing what an earlier seed-0 run of the same workload left there.
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
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
    assert result["attempted"] > 0
    assert len(END_TO_END) == 4
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    for name in END_TO_END:
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0, (name, value)
