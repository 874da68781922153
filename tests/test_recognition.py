"""Sweepline, maximal cliques, vertebrate test, compact representation."""

import os
import random
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

from clawsplit import (
    GeneratorSpec,
    Interval,
    IntervalFamily,
    InvertebrateError,
    alpha_window,
    generate,
    graph_claw_number,
    intersects,
    is_vertebrate,
    maximal_cliques,
    oracle_alpha,
    oracle_claw,
    sweepline,
    vertebrate_representation,
)
from bruteforce import brute_maximal_cliques

SRC = Path(__file__).resolve().parents[1] / "src"

PATH3 = IntervalFamily.from_pairs([(0, 2), (1, 3), (2, 4)])
ZIGZAG = IntervalFamily.from_pairs([(0, 2), (1, 4), (3, 6), (5, 7)])  # alpha 2, three cliques
STAR = IntervalFamily.from_pairs([(0, 3), (0, 1), (1, 2), (2, 3)])


def random_family(rng, n_max=12):
    spec = GeneratorSpec(
        kind=rng.choice(["raw-random", "vertebrate", "trivially-perfect"]),
        n=rng.randint(1, n_max),
        m=rng.randint(1, max(1, n_max // 2)),
        density=rng.choice([0.0, 0.5, 1.0, 1.5]),
        max_len=rng.randint(1, 5),
        seed=rng.randint(0, 10 ** 6),
    )
    return generate(spec)


def test_sweepline_empty():
    assert sweepline(IntervalFamily.from_pairs([])) == 0


def test_sweepline_path3():
    assert sweepline(PATH3) == 2


def test_sweepline_zigzag():
    assert sweepline(ZIGZAG) == 2


def test_maximal_cliques_single():
    arr = maximal_cliques(IntervalFamily.from_pairs([(0, 5)]))
    assert arr.cliques == (frozenset({0}),)


def test_maximal_cliques_path3():
    arr = maximal_cliques(PATH3)
    assert arr.cliques == (frozenset({0, 1}), frozenset({1, 2}))
    assert arr.vertex_range == ((1, 1), (1, 2), (2, 2))


def test_maximal_cliques_zigzag():
    arr = maximal_cliques(ZIGZAG)
    assert arr.cliques == (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}))


def assert_cliques_match_bruteforce(S):
    arr = maximal_cliques(S)
    assert set(arr.cliques) == brute_maximal_cliques(S)
    # consecutive ranges, and each emitted exactly once
    assert len(set(arr.cliques)) == len(arr.cliques)
    for vtx, (a, b) in enumerate(arr.vertex_range):
        for i, clique in enumerate(arr.cliques, start=1):
            assert (vtx in clique) == (a <= i <= b)


def test_maximal_cliques_match_bruteforce():
    rng = random.Random(11)
    for _ in range(200):
        assert_cliques_match_bruteforce(random_family(rng, n_max=10))


def test_sweepline_and_cliques_on_tie_heavy_families(tie_heavy_families):
    # repeated members and shared or touching endpoints: every tie of the
    # shared endpoint orders
    for S in tie_heavy_families:
        if len(S):
            line = (min(iv.lo for iv in S), max(iv.hi for iv in S))
            assert sweepline(S) == alpha_window(S, *line)
        else:
            assert sweepline(S) == 0
        assert_cliques_match_bruteforce(S)


def test_is_vertebrate_examples():
    assert is_vertebrate(STAR)
    assert not is_vertebrate(ZIGZAG)
    assert is_vertebrate(IntervalFamily.from_pairs([(7, 9)]))


def test_is_vertebrate_equals_alpha_vs_clique_count():
    rng = random.Random(12)
    for _ in range(150):
        S = random_family(rng)
        alpha = oracle_alpha(S)
        m = len(maximal_cliques(S).cliques)
        assert sweepline(S) == alpha
        assert alpha <= m
        assert is_vertebrate(S) == (alpha == m)


def test_representation_path3():
    rep = vertebrate_representation(PATH3)
    assert rep.family.intervals == (Interval(0, 1), Interval(0, 2), Interval(1, 2))
    assert rep.m == 2
    assert rep.rep_of == (0, 1, 2)


def test_representation_single():
    rep = vertebrate_representation(IntervalFamily.from_pairs([(0, 5)]))
    assert rep.family.intervals == (Interval(0, 1),)


# Bad fields for a PATH3 representation, and what VertebrateRep says of each:
# members past either end, a backbone slot holding a member with the wrong
# hi, then one with the wrong lo, and a duplicate member.
BAD_REPRESENTATIONS = """
import dataclasses
from clawsplit import IntervalFamily, vertebrate_representation

rep = vertebrate_representation(IntervalFamily.from_pairs([(0, 2), (1, 3), (2, 4)]))
for change in (
    dict(family=IntervalFamily.from_pairs([(-1, 1), (0, 2), (1, 2)])),
    dict(family=IntervalFamily.from_pairs([(0, 1), (0, 3), (1, 2)])),
    dict(backbone=(1, 2)),
    dict(backbone=(0, 1)),
    dict(family=IntervalFamily.from_pairs([(0, 1), (0, 2), (1, 2), (0, 2)])),
):
    try:
        dataclasses.replace(rep, **change)
    except ValueError as exc:
        print("ValueError", exc)
    else:
        print("accepted", change)
"""
BAD_REPRESENTATION_ERRORS = [
    "ValueError interval Interval(lo=-1, hi=1) outside (0, 2)",
    "ValueError interval Interval(lo=0, hi=3) outside (0, 2)",
    "ValueError backbone slot 1 holds Interval(lo=0, hi=2)",
    "ValueError backbone slot 2 holds Interval(lo=0, hi=2)",
    "ValueError representation family contains duplicates",
]


@pytest.mark.parametrize("optimize", [False, True])
def test_representation_checks_reject_bad_members(optimize):
    # the checks raise rather than assert, so they hold under -O too
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", BAD_REPRESENTATIONS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == BAD_REPRESENTATION_ERRORS


def test_representation_rejects_invertebrate():
    with pytest.raises(InvertebrateError) as err:
        vertebrate_representation(ZIGZAG)
    assert err.value.alpha == 2
    assert err.value.m_cliques == 3


def adjacency(family, index_of):
    n = len(index_of)
    return {
        (i, j): intersects(family[index_of[i]], family[index_of[j]])
        for i in range(n)
        for j in range(i + 1, n)
    }


def test_representation_invariants_randomized():
    rng = random.Random(13)
    for _ in range(150):
        spec = GeneratorSpec(
            kind="vertebrate",
            m=rng.randint(1, 8),
            density=rng.choice([0.0, 0.5, 1.0, 2.0]),
            max_len=rng.randint(1, 6),
            seed=rng.randint(0, 10 ** 6),
        )
        S = generate(spec)
        rep = vertebrate_representation(S)
        m = rep.m
        assert all(0 <= iv.lo < iv.hi <= m for iv in rep.family)
        assert {rep.family[i] for i in rep.backbone} == {
            Interval(i - 1, i) for i in range(1, m + 1)
        }
        assert len(set(rep.family.intervals)) == len(rep.family)
        # rep_of gives each member the input vertices whose clique range maps
        # to it, and origin_map names the first of them
        ranges = Counter((a - 1, b) for a, b in maximal_cliques(S).vertex_range)
        assert {tuple(rep.family[k]): c for k, c in Counter(rep.rep_of).items()} == ranges
        assert rep.origin_map == tuple(rep.rep_of.index(k) for k in range(len(rep.family)))
        # same graph: adjacency under rep_of equals the input's adjacency
        got = adjacency(rep.family, rep.rep_of)
        want = adjacency(S, tuple(range(len(S))))
        assert got == want
        # and the representation is its own representation
        again = vertebrate_representation(rep.family)
        assert set(again.family.intervals) == set(rep.family.intervals)


def test_representation_max_length_is_graph_claw():
    # needs at least one edge; density >= 1 guarantees that
    rng = random.Random(14)
    for _ in range(120):
        spec = GeneratorSpec(
            kind="vertebrate",
            m=rng.randint(1, 8),
            density=rng.choice([1.0, 1.5, 2.0]),
            max_len=rng.randint(1, 6),
            seed=rng.randint(0, 10 ** 6),
        )
        S = generate(spec)
        rep = vertebrate_representation(S)
        psi = graph_claw_number(S)
        assert max(iv.length for iv in rep.family) == psi
        if len(S) <= 14:
            assert psi == oracle_claw(S)


def test_star_representation_idempotent():
    rep = vertebrate_representation(STAR)
    assert set(rep.family.intervals) == set(STAR.intervals)
