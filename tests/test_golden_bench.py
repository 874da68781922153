"""Every partition answer of the benchmark's seed-1 to seed-3 split lists,
pinned.

For each `partition` answer of seeds 1, 2 and 3 of the `split-v2` and
`split-long` workloads (bench/instances.py, loaded read-only), the solve's
decision, its stage_state_counts and a hash of its rep_assignment must match
fixtures/golden-bench-seed1.json (seed 1) and
fixtures/golden-bench-seeds2-3.json (seeds 2 and 3, each record naming its
seed).  A change to the DP that keeps its answers keeps all three.  To
rewrite both fixtures from the current solver, run from the repository root:

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
FIXTURE_SEEDS_2_3 = ROOT / "tests" / "fixtures" / "golden-bench-seeds2-3.json"
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


def records(seed=1):
    """One record per partition answer of seed: workload, name, v, the
    decision, stage_state_counts and the sha256 of rep_assignment's sides
    (one character per member, F or S), or None on a "no"."""
    instances = bench_instances()
    out = []
    for workload in WORKLOADS:
        for answer in instances.answers(workload, seed):
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


def seed_records():
    """records() of seeds 2 and 3, each with its seed first."""
    return [dict(seed=seed, **r) for seed in (2, 3) for r in records(seed)]


def test_seed2_and_seed3_split_answers_match_the_pinned_solves():
    want = json.loads(FIXTURE_SEEDS_2_3.read_text())
    got = seed_records()
    assert len(got) == len(want) == 120
    assert sum(not r["feasible"] for r in want) == 20
    for g, w in zip(got, want):
        assert g == w, (w["seed"], w["workload"], w["name"])


def write(path, rows):
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    write(FIXTURE, records())
    write(FIXTURE_SEEDS_2_3, seed_records())
