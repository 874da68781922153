"""Core interval primitives against exhaustive references."""

import os
import random
from collections import Counter
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clawsplit import (
    GeneratorSpec,
    Interval,
    IntervalFamily,
    PartitionAssignment,
    Side,
    alpha_window,
    claw_number,
    dedup,
    expand_assignment,
    generate,
    graph_claw_number,
    intersects,
    mid_relation,
    verify_partition,
)
from clawsplit.cli import parse_instance_text
from bruteforce import brute_alpha_window, brute_claw


def fam(*pairs):
    return IntervalFamily.from_pairs(pairs)


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(3, 3)
    with pytest.raises(ValueError):
        Interval(4, 2)


def test_intersects_touching_endpoints_are_disjoint():
    assert not intersects(Interval(0, 2), Interval(2, 4))


def test_intersects_overlap_and_containment():
    assert intersects(Interval(0, 2), Interval(1, 3))
    assert intersects(Interval(1, 2), Interval(0, 5))


def test_intersects_symmetric_on_random_pairs():
    rng = random.Random(0)
    for _ in range(500):
        x = Interval(rng.randint(0, 8), rng.randint(9, 16))
        y = Interval(rng.randint(0, 8), rng.randint(9, 16))
        assert intersects(x, y) == intersects(y, x)


def test_alpha_window_empty_family():
    assert alpha_window(fam(), 0, 10) == 0


def test_alpha_window_units_inside_window():
    assert alpha_window(fam((0, 1), (1, 2), (2, 3)), 0, 3) == 3


def test_alpha_window_only_overlapping_members_count():
    # (0,2) and (5,7) miss the window (2,5); the two that meet it overlap
    assert alpha_window(fam((0, 2), (1, 4), (3, 6), (5, 7)), 2, 5) == 1


def test_alpha_window_empty_window_is_zero():
    assert alpha_window(fam((0, 2), (1, 4)), 3, 3) == 0


def test_alpha_window_rejects_inverted_window():
    with pytest.raises(ValueError):
        alpha_window(fam((0, 2)), 5, 3)


def test_alpha_window_matches_bruteforce():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(0, 9)
        S = fam(*(((lo := rng.randint(0, 10)), lo + rng.randint(1, 4)) for _ in range(n)))
        l = rng.randint(0, 12)
        r = rng.randint(l, 14)
        assert alpha_window(S, l, r) == brute_alpha_window(S, l, r)


def test_alpha_window_monotone_in_window():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 8)
        S = fam(*(((lo := rng.randint(0, 10)), lo + rng.randint(1, 4)) for _ in range(n)))
        l = rng.randint(1, 6)
        r = rng.randint(l, 12)
        assert alpha_window(S, l, r) <= alpha_window(S, l - 1, r)
        assert alpha_window(S, l, r) <= alpha_window(S, l, r + 1)


def test_claw_number_edgeless():
    assert claw_number(fam((0, 1))) == 0
    assert claw_number(fam()) == 0


def test_claw_number_star():
    assert claw_number(fam((0, 3), (0, 1), (1, 2), (2, 3))) == 3


def test_claw_number_single_edge():
    assert claw_number(fam((0, 2), (1, 3))) == 1


def test_claw_number_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 10)
        seen = set()
        pairs = []
        while len(pairs) < n:
            lo = rng.randint(0, 8)
            p = (lo, lo + rng.randint(1, 5))
            if p not in seen:  # repeated members: test_claw_number_counts_each_copy
                seen.add(p)
                pairs.append(p)
        S = fam(*pairs)
        assert claw_number(S) == brute_claw(S)


def test_claw_number_counts_each_copy(tie_heavy_families):
    # a repeated member is its own vertex: twins lift a count only from 0
    # to 1, so the raw family gives dedup's answer with graph_claw_number's
    # bump, and the vertex-wise brute force
    lifted = 0
    for S in tie_heavy_families:
        distinct, _ = dedup(S)
        base = claw_number(distinct)
        bumped = 1 if base == 0 and len(distinct) < len(S) else base
        lifted += bumped != base
        assert claw_number(S) == bumped == brute_claw(S)
        assert graph_claw_number(S) == bumped
    assert lifted > 20


def test_orders_are_the_index_tie_broken_sorts_computed_once(tie_heavy_families):
    for S in tie_heavy_families:
        by_hi, by_lo = S.orders
        assert list(by_hi) == sorted(range(len(S)), key=lambda i: (S[i].hi, i))
        assert list(by_lo) == sorted(range(len(S)), key=lambda i: (S[i].lo, i))
        assert S.orders is S.orders
    with pytest.raises(AttributeError):
        S.orders = ((), ())


def family_routes(pairs):
    """Makers of the same family by each route: from pairs, from Interval
    objects, parsed from a file's text with comments and blank lines, and
    as a subfamily."""
    text = "# members\n" + "".join(f"{lo} {hi}  # member\n\n" for lo, hi in pairs)
    return {
        "pairs": lambda: IntervalFamily.from_pairs(pairs),
        "intervals": lambda: IntervalFamily(tuple(Interval(lo, hi) for lo, hi in pairs)),
        "parsed": lambda: parse_instance_text(text),
        "subfamily": lambda: IntervalFamily.from_pairs([(0, 1), *pairs]).subfamily(
            range(1, len(pairs) + 1)
        ),
    }


def test_every_construction_route_gives_the_same_family(tie_heavy_families):
    for S in tie_heavy_families[:400]:
        pairs = list(zip(S.los, S.his))
        members = [Interval(lo, hi) for lo, hi in pairs]
        routes = family_routes(pairs)
        changed = [*pairs[:-1], (pairs[-1][0], pairs[-1][1] + 1)] if pairs else [(0, 1)]
        for make in routes.values():
            # each check on a fresh family, before any other form is derived
            assert len(make()) == len(pairs)
            assert list(make()) == members
            assert [make()[i] for i in range(-len(pairs), len(pairs))] == members * 2
            assert make().intervals == tuple(members)
            assert list(zip(make().los, make().his)) == pairs
            assert make().orders == S.orders
            assert repr(make()) == f"IntervalFamily(intervals={tuple(members)!r})"
            assert dedup(make()) == dedup(S)
            # rep_of counts the copies each distinct member stands for
            distinct, rep_of = dedup(make())
            assert {distinct[k]: c for k, c in Counter(rep_of).items()} == Counter(members)
            # equality and hash hold whichever forms either side holds
            for other in routes.values():
                assert make() == other()
                assert hash(make()) == hash(other())
                derived = other()
                derived.intervals, derived.los, derived.orders
                assert make() == derived and derived == make()
                assert hash(make()) == hash(derived)
                for unequal in family_routes(changed).values():
                    assert make() != unequal() and unequal() != make()


def test_families_stay_immutable_on_every_route(tie_heavy_families):
    for S in tie_heavy_families[:50]:
        for make in family_routes(list(zip(S.los, S.his))).values():
            fresh, derived = make(), make()
            derived.intervals, derived.los, derived.orders
            for fam in (fresh, derived):
                for name in ("intervals", "los", "his", "orders", "other"):
                    with pytest.raises(AttributeError):
                        setattr(fam, name, None)
                    with pytest.raises(AttributeError):
                        delattr(fam, name)
                assert fam == S


EMPTY_MEMBERS = """
from clawsplit import Interval, IntervalFamily
from clawsplit.cli import parse_instance_text
for make in (
    lambda: Interval(2, 2),
    lambda: IntervalFamily.from_pairs([(0, 1), (2, 2)]),
    lambda: IntervalFamily.from_pairs([(3, 1)]),
    lambda: parse_instance_text("0 1\\n2 2\\n"),
):
    try:
        make()
    except ValueError as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_empty_members_are_rejected_on_every_route(optimize):
    # the checks raise rather than assert, so they hold under -O too
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c", EMPTY_MEMBERS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError interval (2, 2) is empty: need lo < hi",
        "ValueError interval (2, 2) is empty: need lo < hi",
        "ValueError interval (3, 1) is empty: need lo < hi",
        "ParseError line 2: interval (2, 2) is empty: need lo < hi",
    ]


def test_claw_number_of_nested_family_is_fast():
    # every center is longer than the best claw, 1, so none is skipped
    S = fam(*((0, k) for k in range(1, 3001)))
    start = time.perf_counter()
    assert graph_claw_number(S) == 1
    assert time.perf_counter() - start < 1.0


def test_mid_relation_empty_left_side():
    assert mid_relation(fam(), fam((0, 2), (1, 3)), 1)


def test_mid_relation_star_bounds():
    star = fam((0, 3), (0, 1), (1, 2), (2, 3))
    assert not mid_relation(star, star, 2)
    assert mid_relation(star, star, 3)


def test_mid_relation_rejects_bad_bound():
    with pytest.raises(ValueError):
        mid_relation(fam((0, 2)), fam((0, 2)), 0)


def test_mid_relation_self_iff_claw_bounded():
    rng = random.Random(4)
    for _ in range(200):
        pairs = set()
        for _ in range(rng.randint(1, 9)):
            lo = rng.randint(0, 8)
            pairs.add((lo, lo + rng.randint(1, 5)))
        S = fam(*sorted(pairs))
        for v in (1, 2, 3):
            assert mid_relation(S, S, v) == (claw_number(S) <= v)


def test_mid_relation_passes_centers_no_longer_than_v():
    # the solver runs no star check on a hop's short members: a center of
    # length <= v meets at most v disjoint members, whatever surrounds it
    rng = random.Random(61)
    for _ in range(300):
        v = rng.randint(1, 4)
        R = [(lo, lo + rng.randint(1, v)) for lo in rng.sample(range(-4, 12), rng.randint(1, 5))]
        S = [(lo, lo + rng.randint(1, 7)) for lo in (rng.randint(-6, 14) for _ in range(12))]
        S += rng.sample(R, rng.randint(0, len(R)))
        assert mid_relation(fam(*R), fam(*S), v)
        for center in fam(*R):
            others = fam(*(iv for iv in S if iv != tuple(center)))
            assert brute_alpha_window(others, center.lo, center.hi) <= v


def test_dedup_counts_and_representatives():
    S = fam((0, 1), (0, 1), (1, 2))
    distinct, rep_of = dedup(S)
    assert list(distinct) == [Interval(0, 1), Interval(1, 2)]
    assert Counter(rep_of) == {0: 2, 1: 1}
    assert rep_of == (0, 0, 1)


def test_dedup_identity_when_distinct():
    S = fam((0, 2), (1, 3))
    distinct, rep_of = dedup(S)
    assert list(distinct) == list(S)
    assert rep_of == (0, 1)


def test_expanded_good_assignment_stays_good():
    # duplicates take their representative's side; goodness must survive
    rng = random.Random(5)
    for _ in range(150):
        pairs = [((lo := rng.randint(0, 6)), lo + rng.randint(1, 4)) for _ in range(rng.randint(1, 8))]
        pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3))]
        S = fam(*pairs)
        distinct, rep_of = dedup(S)
        v = rng.choice([1, 2])
        sides = tuple(rng.choice([Side.FIRST, Side.SECOND]) for _ in range(len(distinct)))
        small = PartitionAssignment(sides)
        if verify_partition(distinct, small, v):
            assert verify_partition(S, expand_assignment(rep_of, small), v)


def test_graph_claw_number_bumps_for_duplicates():
    assert graph_claw_number(fam((2, 4), (2, 4))) == 1
    assert graph_claw_number(fam((2, 4))) == 0
    assert graph_claw_number(fam((0, 3), (0, 1), (1, 2), (2, 3), (0, 1))) == 3


def test_graph_claw_number_matches_vertexwise_bruteforce():
    rng = random.Random(6)
    for _ in range(150):
        pairs = [((lo := rng.randint(0, 7)), lo + rng.randint(1, 4)) for _ in range(rng.randint(1, 8))]
        pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3))]
        S = fam(*pairs)
        assert graph_claw_number(S) == brute_claw(S)


def test_generated_families_roundtrip_subfamily():
    S = generate(GeneratorSpec(kind="vertebrate", m=5, density=1.0, max_len=3, seed=8))
    sub = S.subfamily([0, 2, 4])
    assert list(sub) == [S[0], S[2], S[4]]
