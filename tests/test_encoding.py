"""Monotonic sequences: encoding, decoding, extension."""

import inspect
import random

import pytest

from clawsplit import (
    GeneratorSpec,
    Interval,
    IntervalFamily,
    MonotonicSeq,
    Side,
    alpha_seq,
    alpha_window,
    encode,
    extend,
    generate,
    vertebrate_representation,
    zero_seq,
)
from clawsplit.encoding import _profile, fd_head
from bruteforce import brute_alpha_window, brute_profile

UNITS3 = IntervalFamily.from_pairs([(0, 1), (1, 2), (2, 3)])
EMPTY = IntervalFamily.from_pairs([])


def test_zero_seq():
    z = zero_seq(1)
    assert z.r == (0, -1, -1, -1)
    assert z.s == 0


def test_monotonic_validation():
    MonotonicSeq((3, 2, 1, -1), 3, 1)
    MonotonicSeq((3, 2, -1, -1), 3, 1)
    with pytest.raises(ValueError):
        MonotonicSeq((3, 2, 2, -1), 3, 1)  # repeat above -1
    with pytest.raises(ValueError):
        MonotonicSeq((3, 2, 1, 0), 3, 1)  # must end at -1
    with pytest.raises(ValueError):
        MonotonicSeq((2, 1, 0, -1), 3, 1)  # r0 must equal s


def test_encode_empty_at_zero():
    assert encode(EMPTY, 0, 1) == zero_seq(1)


def test_encode_units():
    assert encode(UNITS3, 3, 1).r == (3, 2, 1, -1)


def test_encode_single_long():
    assert encode(IntervalFamily.from_pairs([(0, 3)]), 3, 1).r == (3, 2, -1, -1)


def test_profile_matches_window_scan():
    # F + D as fd_head sees it: members inside (s_prev, s) and members
    # crossing s_prev, with repeats, empty families and s = 0 among them
    assert _profile([], 0, 1) == brute_profile([], 0, 1) == [0, -1, -1, -1]
    rng = random.Random(47)
    for _ in range(3000):
        v = rng.randint(1, 4)
        s = rng.randint(0, 9)
        s_prev = rng.randint(0, s - 1) if s else 0
        D, F = [], []
        for _ in range(rng.randint(0, 5) if s else 0):
            lo = rng.randint(s_prev, s - 1)
            D.append(Interval(lo, rng.randint(lo + 1, s)))
        for _ in range(rng.randint(0, 3) if 0 < s_prev < s else 0):
            F.append(Interval(rng.randint(0, s_prev - 1), rng.randint(s_prev + 1, s)))
        if D and rng.random() < 0.3:
            D.append(rng.choice(D))
        want = brute_profile(F + D, s, v)
        assert _profile(F + D, s, v) == want
        if s:
            F_fam, D_fam = IntervalFamily(tuple(F)), IntervalFamily(tuple(D))
            prof, w, w_full = fd_head(F_fam, D_fam, s_prev, s, v)
            assert list(prof) == want[1:-1]
            assert w == brute_alpha_window(D, s_prev, s)
            assert w_full == brute_alpha_window(F + D, s_prev, s)


def test_encode_rejects_outside_members():
    with pytest.raises(ValueError):
        encode(IntervalFamily.from_pairs([(0, 4)]), 3, 1)


def test_alpha_seq_examples():
    assert alpha_seq(zero_seq(2), 0) == 0
    r = encode(UNITS3, 3, 1)
    assert alpha_seq(r, 2) == 1
    assert alpha_seq(r, 1) == 2  # v+1: saturated
    with pytest.raises(ValueError):
        alpha_seq(r, 4)


def test_decode_matches_alpha_window():
    # windowed counts are recoverable up to the v+1 ceiling
    rng = random.Random(20)
    for _ in range(250):
        s = rng.randint(0, 9)
        v = rng.choice([1, 2, 3])
        pairs = []
        for _ in range(rng.randint(0, 8)):
            lo = rng.randint(0, max(0, s - 1))
            hi = rng.randint(lo + 1, s) if lo < s else None
            if hi is not None:
                pairs.append((lo, hi))
        R = IntervalFamily.from_pairs(pairs)
        r = encode(R, s, v)
        for i in range(s + 1):
            truth = alpha_window(R, i, s)
            if truth <= v:
                assert alpha_seq(r, i) == truth
            else:
                assert alpha_seq(r, i) == v + 1


def test_encode_always_monotonic():
    rng = random.Random(21)
    for _ in range(200):
        s = rng.randint(0, 10)
        v = rng.choice([1, 2])
        pairs = []
        for _ in range(rng.randint(0, 10)):
            if s >= 1:
                lo = rng.randint(0, s - 1)
                pairs.append((lo, rng.randint(lo + 1, s)))
        r = encode(IntervalFamily.from_pairs(pairs), s, v)
        assert r.r[0] == s and r.r[-1] == -1
        for u in range(len(r.r) - 1):
            assert r.r[u + 1] < r.r[u] or r.r[u + 1] == r.r[u] == -1


def test_extend_two_backbone_units():
    z = zero_seq(1)
    p, q = extend(z, z, EMPTY, IntervalFamily.from_pairs([(0, 1), (1, 2)]), EMPTY, 0, 2, 1)
    assert p.r == (2, 1, 0, -1)
    assert q.r == (2, -1, -1, -1)


def test_extend_single_unit():
    z = zero_seq(1)
    p, q = extend(z, z, EMPTY, IntervalFamily.from_pairs([(0, 1)]), EMPTY, 0, 1, 1)
    assert p.r == (1, 0, -1, -1)
    assert q.r == (1, -1, -1, -1)


def test_extend_rejects_misplaced_lengths():
    z = zero_seq(1)
    long_in_c = IntervalFamily.from_pairs([(0, 3)])
    with pytest.raises(ValueError):
        extend(z, z, EMPTY, long_in_c, EMPTY, 0, 3, 1)
    short_in_d = IntervalFamily.from_pairs([(0, 1)])
    with pytest.raises(ValueError):
        extend(z, z, EMPTY, EMPTY, short_in_d, 0, 3, 1)


def test_extend_interns_profiles_in_a_table():
    z = zero_seq(1)
    units = IntervalFamily.from_pairs([(0, 1), (1, 2)])
    table = {}
    p, q = extend(z, z, EMPTY, units, EMPTY, 0, 2, 1, None, table)
    assert table == {p.r: p, q.r: q}
    again = extend(z, z, EMPTY, units, EMPTY, 0, 2, 1, None, table)
    assert again[0] is p and again[1] is q
    assert extend(z, z, EMPTY, units, EMPTY, 0, 2, 1) == (p, q)
    # the arguments are still checked when every result is in the table
    with pytest.raises(ValueError):
        extend(z, z, EMPTY, IntervalFamily.from_pairs([(0, 2)]), EMPTY, 0, 2, 1, None, table)


def test_extend_leading_parameters_are_pinned():
    # bench/tracer.py wraps extend and reads F, s_prev and s by position
    names = list(inspect.signature(extend).parameters)
    assert names[:8] == ["p_prev", "q_prev", "F", "C", "D", "s_prev", "s", "v"]


def test_extend_rejects_anchor_mismatch():
    with pytest.raises(ValueError):
        extend(zero_seq(1), zero_seq(1), EMPTY, EMPTY, EMPTY, 1, 3, 1)
    # a floor past s would clamp the anchor entry r_0 = s
    with pytest.raises(ValueError):
        extend(zero_seq(1), zero_seq(1), EMPTY, EMPTY, EMPTY, 0, 1, 1, floor=2)


def random_rep(rng, m_max=9):
    spec = GeneratorSpec(
        kind="vertebrate",
        m=rng.randint(1, m_max),
        density=rng.choice([0.5, 1.0, 1.5, 2.0]),
        max_len=rng.randint(1, 6),
        seed=rng.randint(0, 10 ** 6),
    )
    return vertebrate_representation(generate(spec))


def build_basic_partition(rng, rep, s, v):
    """A partition of the members inside (0, s) that is simple on every
    maximal unit run, with the rightmost run's short side FIRST.

    Returns (first, second, boundaries) as index lists plus the run cut
    points 0 = t_0 < ... < t_k = s.
    """
    cuts = sorted(rng.sample(range(1, s), rng.randint(0, min(3, s - 1))))
    bounds = [0] + cuts + [s]
    runs = list(zip(bounds[:-1], bounds[1:]))
    # alternate sides so each run is maximal; force the last run FIRST
    side_of_run = {}
    for j in range(len(runs) - 1, -1, -1):
        side_of_run[j] = Side.FIRST if (len(runs) - 1 - j) % 2 == 0 else Side.SECOND
    first, second = [], []
    for idx, iv in enumerate(rep.family):
        if not (0 <= iv.lo and iv.hi <= s):
            continue
        run = next(((l, r) for (l, r) in runs if l <= iv.lo and iv.hi <= r), None)
        if run is None:
            side = rng.choice([Side.FIRST, Side.SECOND])
        else:
            run_side = side_of_run[runs.index(run)]
            side = run_side if iv.length <= v else run_side.other()
        (first if side is Side.FIRST else second).append(idx)
    return first, second, bounds


def test_extension_equals_encoding_of_whole():
    # build a run-structured partition directly, encode its pieces, and
    # check the extension formulas reproduce the full encodings, and with a
    # floor, the full encodings with every entry below it set to -1
    rng = random.Random(22)
    floors = random.Random(23)
    done = 0
    while done < 150:
        v = rng.choice([1, 2])
        rep = random_rep(rng)
        if rep.m < 1:
            continue
        s = rng.randint(1, rep.m)
        first, second, bounds = build_basic_partition(rng, rep, s, v)
        s_prev = bounds[-2]
        fam = rep.family
        P = fam.subfamily(first)
        Q = fam.subfamily(second)
        p_full = encode(P, s, v)
        q_full = encode(Q, s, v)
        inside = lambda iv, l, r: l <= iv.lo and iv.hi <= r
        P_prev = fam.subfamily([i for i in first if inside(fam[i], 0, s_prev)])
        Q_prev = fam.subfamily([i for i in second if inside(fam[i], 0, s_prev)])
        C = fam.subfamily(
            [i for i in range(len(fam)) if inside(fam[i], s_prev, s) and fam[i].length <= v]
        )
        D = fam.subfamily(
            [i for i in range(len(fam)) if inside(fam[i], s_prev, s) and fam[i].length > v]
        )
        F = fam.subfamily(
            [
                i
                for i in second
                if fam[i].lo < s_prev < fam[i].hi and fam[i].hi <= s
            ]
        )
        p_prev, q_prev = encode(P_prev, s_prev, v), encode(Q_prev, s_prev, v)
        head = fd_head(F, D, s_prev, s, v)
        for args in ((), (head,)):
            p_got, q_got = extend(p_prev, q_prev, F, C, D, s_prev, s, v, *args)
            assert p_got == p_full
            assert q_got == q_full
        floor = floors.randint(0, s)
        p_cut, q_cut = extend(p_prev, q_prev, F, C, D, s_prev, s, v, floor=floor)
        for got, full in ((p_cut, p_full), (q_cut, q_full)):
            assert got.r == tuple(x if x >= floor else -1 for x in full.r)
        done += 1


def test_cut_identity_across_anchored_units():
    # with (s-1,s) and (s,s+1) in opposite parts, windowed counts split at s
    rng = random.Random(23)
    done = 0
    while done < 150:
        rep = random_rep(rng)
        m = rep.m
        if m < 2:
            continue
        s = rng.randint(1, m - 1)
        fam = rep.family
        left_unit = rep.backbone[s - 1]
        right_unit = rep.backbone[s]
        sides = {}
        for idx in range(len(fam)):
            sides[idx] = rng.choice([Side.FIRST, Side.SECOND])
        sides[left_unit] = Side.FIRST
        sides[right_unit] = Side.SECOND
        for part_side in (Side.FIRST, Side.SECOND):
            part = fam.subfamily([i for i in range(len(fam)) if sides[i] is part_side])
            left = IntervalFamily(tuple(iv for iv in part if iv.hi <= s))
            right = IntervalFamily(tuple(iv for iv in part if iv.lo >= s))
            for a in range(0, s):
                for b in range(s + 1, m + 1):
                    assert alpha_window(part, a, b) == alpha_window(
                        left, a, s
                    ) + alpha_window(right, s, b)
        done += 1
