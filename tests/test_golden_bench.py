"""Every partition answer of the benchmark's seed-1 to seed-3 split lists,
three larger generated instances with long members, and a seeded grid of
small generated instances, pinned.

For each `partition` answer of seeds 1, 2 and 3 of the `split-v2` and
`split-long` workloads (bench/instances.py, loaded read-only), the solve's
decision, its stage_state_counts and a hash of its rep_assignment must match
fixtures/golden-bench-seed1.json (seed 1) and
fixtures/golden-bench-seeds2-3.json (seeds 2 and 3, each record naming its
seed).  The same three must match fixtures/golden-long-rows.json for the
instances of LONG_ROWS, where stages hold hundreds to thousands of states,
and fixtures/golden-gen-grid.json for the 200 instances of gen_grid().
A change to the DP that keeps its answers keeps all four.  To rewrite the
fixtures from the current solver, run from the repository root:

    PYTHONPATH=src python tests/test_golden_bench.py
"""

import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

from clawsplit import (
    GeneratorSpec,
    IntervalFamily,
    generate,
    solve,
    vertebrate_representation,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "golden-bench-seed1.json"
FIXTURE_SEEDS_2_3 = ROOT / "tests" / "fixtures" / "golden-bench-seeds2-3.json"
FIXTURE_LONG_ROWS = ROOT / "tests" / "fixtures" / "golden-long-rows.json"
FIXTURE_GEN_GRID = ROOT / "tests" / "fixtures" / "golden-gen-grid.json"
WORKLOADS = ("split-v2", "split-long")
# (v, m, density, max_len, seed) of vertebrate instances with members longer
# than v, from the baseline rows of ROADMAP.md
LONG_ROWS = ((3, 40, 2.0, 5, 6), (3, 26, 1.5, 6, 885354), (5, 20, 1.5, 8, 6))


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


def record(S, v):
    """The decision, stage_state_counts and the sha256 of rep_assignment's
    sides (one character per member, F or S, None on a "no") of the solve
    of the family S at v."""
    res = solve(vertebrate_representation(S), v)
    digest = None
    if res.rep_assignment is not None:
        sides = "".join(side.name[0] for side in res.rep_assignment.sides)
        digest = hashlib.sha256(sides.encode()).hexdigest()
    return dict(
        feasible=res.feasible, stage_state_counts=list(res.stage_state_counts),
        rep_assignment=digest,
    )


def partition_answers(seed=1):
    """(workload, name, family, v) of each partition answer of seed in the
    lists of WORKLOADS, in list order."""
    instances = bench_instances()
    for workload in WORKLOADS:
        for answer in instances.answers(workload, seed):
            if answer.argv[0] == "partition":
                v = int(answer.argv[answer.argv.index("--v") + 1])
                yield workload, answer.name, IntervalFamily.from_pairs(answer.pairs), v


def records(seed=1):
    """One record per partition answer of seed: workload, name, v, then
    record()."""
    return [
        dict(workload=workload, name=name, v=v, **record(S, v))
        for workload, name, S, v in partition_answers(seed)
    ]


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


def row_records(rows):
    """One record per (v, m, density, max_len, seed) row of generated
    vertebrate instances: its parameters, then record()."""
    out = []
    for v, m, density, max_len, seed in rows:
        S = generate(GeneratorSpec("vertebrate", m=m, density=density, max_len=max_len, seed=seed))
        out.append(dict(
            v=v, m=m, density=density, max_len=max_len, seed=seed,
            **record(S, v),
        ))
    return out


def test_long_member_rows_match_the_pinned_solves():
    want = json.loads(FIXTURE_LONG_ROWS.read_text())
    got = row_records(LONG_ROWS)
    assert len(got) == len(want) == 3
    # every row keeps a stage of over 500 states
    assert all(max(r["stage_state_counts"]) > 500 for r in want)
    for g, w in zip(got, want):
        assert g == w, (w["v"], w["m"], w["max_len"], w["seed"])


def gen_grid():
    """200 seeded (v, m, density, max_len, seed) rows of generated
    vertebrate instances: v 1-3 and max_len 2-6 in turn, m 10-40 at v = 1,
    10-30 at v = 2 and 10-20 at v = 3, so the grid solves in about 2 s."""
    rng = random.Random(97)
    rows = []
    for k in range(200):
        v, max_len = 1 + k % 3, 2 + k % 5
        m = rng.randint(10, (40, 30, 20)[v - 1])
        density = rng.choice([0.3, 0.6, 1.0, 1.5, 2.0])
        rows.append((v, m, density, max_len, rng.randint(0, 10 ** 6)))
    return rows


def test_generated_grid_matches_the_pinned_solves():
    want = json.loads(FIXTURE_GEN_GRID.read_text())
    got = row_records(gen_grid())
    assert len(got) == len(want) == 200
    assert sum(not r["feasible"] for r in want) == 33
    for g, w in zip(got, want):
        assert g == w, (w["v"], w["m"], w["density"], w["max_len"], w["seed"])


def write(path, rows):
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


if __name__ == "__main__":
    write(FIXTURE, records())
    write(FIXTURE_SEEDS_2_3, seed_records())
    write(FIXTURE_LONG_ROWS, row_records(LONG_ROWS))
    write(FIXTURE_GEN_GRID, row_records(gen_grid()))
