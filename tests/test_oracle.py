"""Exhaustive oracle and instance generator behaviour."""

import random

import pytest

from clawsplit import (
    GeneratorSpec,
    IntervalFamily,
    PartitionAssignment,
    Side,
    SizeGuardError,
    alpha_window,
    generate,
    is_vertebrate,
    oracle_alpha,
    oracle_claw,
    oracle_partition,
    verify_partition,
)
from clawsplit import oracle
from bruteforce import brute_claw, first_good_assignment


def fam(*pairs):
    return IntervalFamily.from_pairs(pairs)


DENSE = fam(
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
    (0, 2), (1, 3), (2, 4), (3, 5),
    (0, 3), (1, 4), (2, 5),
)


def random_family(rng, n, span=8, max_len=4):
    pairs = []
    for _ in range(n):
        length = rng.randint(1, max_len)
        a = rng.randint(0, span - length)
        pairs.append((a, a + length))
    return fam(*pairs)


# ---------------------------------------------------------------- oracle_alpha


def test_oracle_alpha_examples():
    assert oracle_alpha(fam()) == 0
    assert oracle_alpha(fam((0, 2), (1, 4), (3, 6), (5, 7))) == 2
    assert oracle_alpha(fam(*((i, i + 1) for i in range(6)))) == 6


def test_oracle_alpha_matches_greedy_on_random_families():
    rng = random.Random(401)
    for _ in range(200):
        S = random_family(rng, rng.randint(0, 10))
        assert oracle_alpha(S) == alpha_window(S, 0, 12)


def test_oracle_alpha_guard():
    big = fam(*((i, i + 1) for i in range(21)))
    with pytest.raises(SizeGuardError):
        oracle_alpha(big)
    assert oracle_alpha(big, limit=25) == 21


# ----------------------------------------------------------------- oracle_claw


def test_oracle_claw_examples():
    assert oracle_claw(fam()) == 0
    assert oracle_claw(fam((0, 5))) == 0
    assert oracle_claw(fam((0, 2), (2, 4))) == 0
    assert oracle_claw(fam((0, 2), (1, 3))) == 1
    # center (0, 3) with three pairwise disjoint units
    assert oracle_claw(fam((0, 3), (0, 1), (1, 2), (2, 3))) == 3


def test_oracle_claw_counts_duplicate_copies_as_leaves():
    # two copies of (1, 2) intersect each other, so only one can be a leaf,
    # but each copy still sees the other as a neighbor of the center
    assert oracle_claw(fam((0, 3), (1, 2), (1, 2))) == 1
    assert oracle_claw(fam((0, 3), (0, 1), (1, 2), (1, 2), (2, 3))) == 3


def test_oracle_claw_matches_bruteforce():
    rng = random.Random(402)
    for _ in range(150):
        S = random_family(rng, rng.randint(0, 9))
        assert oracle_claw(S) == brute_claw(S)


def test_oracle_claw_guard():
    big = fam(*((i, i + 1) for i in range(19)))
    with pytest.raises(SizeGuardError):
        oracle_claw(big)
    assert oracle_claw(big, limit=20) == 0


# ------------------------------------------------------------ oracle_partition


def test_oracle_partition_rejects_bad_v():
    with pytest.raises(ValueError):
        oracle_partition(fam((0, 1)), 0)


def test_oracle_partition_empty_family():
    report = oracle_partition(fam(), 1)
    assert report.decision is True
    assert len(report.witness) == 0
    full = oracle_partition(fam(), 1, report_properties=True)
    assert full.good_count == 1
    assert full.all_good_group_conforming is True
    assert full.any_good_basic is True


def test_oracle_partition_star_split():
    star = fam((0, 3), (0, 1), (1, 2), (2, 3))
    for v in (1, 2, 3):
        report = oracle_partition(star, v)
        assert report.decision is True
        assert verify_partition(star, report.witness, v)


def test_oracle_partition_dense_grid_pinned():
    assert oracle_partition(DENSE, 1).decision is False
    assert oracle_partition(DENSE, 1).witness is None
    yes = oracle_partition(DENSE, 2)
    assert yes.decision is True
    assert verify_partition(DENSE, yes.witness, 2)


def test_oracle_partition_witness_is_lexicographically_least():
    rng = random.Random(403)
    for _ in range(60):
        S = random_family(rng, rng.randint(1, 9))
        v = rng.randint(1, 3)
        report = oracle_partition(S, v)
        expected = first_good_assignment(S, v)
        if expected is None:
            assert report.decision is False
            assert report.witness is None
        else:
            assert report.decision is True
            assert report.witness.sides == expected.sides


def test_oracle_partition_fields_default_to_none_without_properties(monkeypatch):
    # only the properties read the duplicate map and the overlap groups
    grouped = []
    groups = oracle.compute_groups

    def counted(*args):
        grouped.append(args)
        return groups(*args)

    monkeypatch.setattr(oracle, "compute_groups", counted)
    report = oracle_partition(fam((0, 1), (1, 2)), 1)
    assert report.good_count is None
    assert report.all_good_group_conforming is None
    assert report.any_good_basic is None
    assert grouped == []
    assert oracle_partition(fam((0, 1), (1, 2)), 1, report_properties=True).good_count == 2
    assert len(grouped) == 1


def test_oracle_partition_good_count_matches_literal_scan():
    rng = random.Random(404)
    for _ in range(25):
        S = random_family(rng, rng.randint(1, 7))
        v = rng.randint(1, 2)
        report = oracle_partition(S, v, report_properties=True)
        # good_count fixes vertex 0 on the first side; mirror that here
        literal = 0
        for bits in range(2 ** (len(S) - 1)):
            sides = (Side.FIRST,) + tuple(
                Side.SECOND if (bits >> (len(S) - 2 - i)) & 1 else Side.FIRST
                for i in range(len(S) - 1)
            )
            if verify_partition(S, PartitionAssignment(sides), v):
                literal += 1
        assert report.good_count == literal
        assert report.decision is (literal > 0)


def test_oracle_partition_guard():
    big = fam(*((i, i + 1) for i in range(17)))
    with pytest.raises(SizeGuardError):
        oracle_partition(big, 1)
    assert oracle_partition(big, 1, limit=17).decision is True


# -------------------------------------------------------------------- generate


def test_generate_vertebrate_density_zero_is_exactly_the_backbone():
    S = generate(GeneratorSpec("vertebrate", m=3, density=0.0))
    assert [(iv.lo, iv.hi) for iv in S] == [(0, 1), (1, 2), (2, 3)]


def test_generate_is_deterministic_in_the_spec():
    spec = GeneratorSpec("vertebrate", m=7, density=1.5, max_len=4, seed=99)
    assert generate(spec) == generate(spec)
    again = GeneratorSpec("raw-random", n=11, max_len=3, seed=7)
    assert generate(again) == generate(again)


def test_generate_vertebrate_kind_is_always_vertebrate():
    for seed in range(30):
        spec = GeneratorSpec(
            "vertebrate", m=1 + seed % 8, density=(seed % 5) * 0.6, seed=seed
        )
        assert is_vertebrate(generate(spec))


def test_generate_trivially_perfect_is_laminar_and_vertebrate():
    for seed in range(30):
        S = generate(GeneratorSpec("trivially-perfect", n=12, seed=seed))
        assert len(S) == 12
        ivs = list(S)
        for i in range(len(ivs)):
            for j in range(i + 1, len(ivs)):
                a, b = ivs[i], ivs[j]
                overlap = max(a.lo, b.lo) < min(a.hi, b.hi)
                nested = (a.lo <= b.lo and b.hi <= a.hi) or (
                    b.lo <= a.lo and a.hi <= b.hi
                )
                assert not overlap or nested
        assert is_vertebrate(S)


def test_generate_invertebrate_kind_fails_recognition():
    for seed in range(10):
        S = generate(GeneratorSpec("invertebrate", n=8, seed=seed))
        assert not is_vertebrate(S)


def test_generate_raw_random_shape():
    for seed in range(10):
        S = generate(GeneratorSpec("raw-random", n=9, max_len=4, seed=seed))
        assert len(S) == 9
        for iv in S:
            assert 0 <= iv.lo < iv.hi <= 9 + 4


def test_generate_rejects_bad_specs():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("no-such-kind"))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("vertebrate", m=0))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("raw-random", n=0))
