"""Every partition answer of the benchmark's seed-1 split lists, pinned.

For each `partition` answer of seed 1 of the `split-v2` and `split-long`
workloads (bench/instances.py, loaded read-only), the solve's decision, its
stage_state_counts and a hash of its rep_assignment must match
fixtures/golden-bench-seed1.json.  A change to the DP that keeps its answers
keeps all three.  To rewrite the fixture from the current solver, run from
the repository root:

    PYTHONPATH=src python tests/test_golden_bench.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from clawsplit import IntervalFamily, solve, vertebrate_representation

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "golden-bench-seed1.json"
WORKLOADS = ("split-v2", "split-long")


def bench_instances():
    """bench/instances.py as a module, imported without writing bytecode
    under bench/."""
    spec = importlib.util.spec_from_file_location(
        "_bench_instances", ROOT / "bench" / "instances.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclass reads the module's namespace through sys.modules
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def records():
    """One record per partition answer: workload, name, v, the decision,
    stage_state_counts and the sha256 of rep_assignment's sides (one
    character per member, F or S), or None on a "no"."""
    instances = bench_instances()
    out = []
    for workload in WORKLOADS:
        for answer in instances.answers(workload, 1):
            if answer.argv[0] != "partition":
                continue
            v = int(answer.argv[answer.argv.index("--v") + 1])
            res = solve(vertebrate_representation(IntervalFamily.from_pairs(answer.pairs)), v)
            digest = None
            if res.rep_assignment is not None:
                sides = "".join(side.name[0] for side in res.rep_assignment.sides)
                digest = hashlib.sha256(sides.encode()).hexdigest()
            out.append(dict(
                workload=workload, name=answer.name, v=v, feasible=res.feasible,
                stage_state_counts=list(res.stage_state_counts), rep_assignment=digest,
            ))
    return out


def test_seed1_split_answers_match_the_pinned_solves():
    want = json.loads(FIXTURE.read_text())
    got = records()
    assert len(got) == len(want) == 60
    assert sum(not r["feasible"] for r in want) == 10
    for g, w in zip(got, want):
        assert g == w, (w["workload"], w["name"])


if __name__ == "__main__":
    FIXTURE.write_text("[\n" + ",\n".join(json.dumps(r) for r in records()) + "\n]\n")
