"""The dynamic program: groups, transitions, full decisions, witnesses."""

import random
import time
import tracemalloc
from bisect import bisect_left
from collections import Counter, namedtuple
from dataclasses import replace
from operator import le

import pytest

from clawsplit import (
    DPState,
    GeneratorSpec,
    Interval,
    IntervalFamily,
    MonotonicSeq,
    PartitionAssignment,
    Side,
    compute_groups,
    crossing_family,
    generate,
    mid_relation,
    oracle_claw,
    oracle_partition,
    solve,
    vertebrate_representation,
    verify_partition,
    zero_seq,
)
from clawsplit import encoding, intervals, solver
from clawsplit.encoding import fd_head
from clawsplit.solver import (
    _advance,
    _Bucket,
    _check_group_bound,
    _context,
    _cross,
    _finish,
    _movers,
    _plan,
    _segment,
    _side_assignments,
)
from bruteforce import brute_groups
from test_golden_bench import partition_answers

PATH3_REP = vertebrate_representation(IntervalFamily.from_pairs([(0, 2), (1, 3), (2, 4)]))
DENSE = IntervalFamily.from_pairs(
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
     (0, 2), (1, 3), (2, 4), (3, 5), (0, 3), (1, 4), (2, 5)]
)


def fam(*pairs):
    return IntervalFamily.from_pairs(pairs)


def random_rep(rng, m_max=8, n_max=14):
    while True:
        m = rng.randint(1, m_max)
        density = rng.choice([0.5, 1.0, 1.5, 2.0])
        if m + round(density * m) <= n_max:
            spec = GeneratorSpec(
                kind="vertebrate", m=m, density=density,
                max_len=rng.randint(1, 6), seed=rng.randint(0, 10 ** 6),
            )
            return generate(spec)


def test_compute_groups_significant_overlap():
    g = compute_groups(fam((0, 4), (1, 5), (2, 3)), 1)
    assert g.group_of[0] == g.group_of[1]  # intersection (1,4) has length 3 = 2v+1
    assert g.group_of[2] != g.group_of[0]


def test_compute_groups_units_separate():
    g = compute_groups(fam((0, 1), (1, 2), (2, 3)), 1)
    assert len(g.groups) == 3


def test_compute_groups_is_transitive_closure():
    # ends overlap by only 2 < 2v+1 but chain through the middle member
    g = compute_groups(fam((0, 4), (1, 5), (2, 6)), 1)
    assert len(g.groups) == 1


def test_compute_groups_time_does_not_grow_with_the_span():
    start = time.perf_counter()
    g = compute_groups(fam((0, 1), (0, 99999999999)), 1)
    assert time.perf_counter() - start < 0.5
    assert len(g.groups) == 2


def test_compute_groups_matches_pairwise_closure():
    rng = random.Random(41)
    for _ in range(300):
        v = rng.choice([1, 2, 3])
        pairs = {(lo, lo + rng.randint(1, 12)) for lo in
                 (rng.randint(-5, 30) for _ in range(rng.randint(0, 25)))}
        S = fam(*sorted(pairs, key=lambda p: rng.random()))
        g = compute_groups(S, v)
        assert g.group_of == brute_groups(S, v)
        assert g.groups == tuple(
            tuple(i for i in range(len(S)) if g.group_of[i] == gid)
            for gid in range(len(g.groups))
        )


def test_compute_groups_scales_to_nine_thousand_members():
    # 10,000 intervals with lengths up to 6, so some members link at v = 2
    spec = GeneratorSpec(kind="vertebrate", m=5000, density=1.0, max_len=6, seed=0)
    rep = vertebrate_representation(generate(spec))
    assert len(rep.family) > 8500
    start = time.perf_counter()
    g = compute_groups(rep.family, 2)
    assert time.perf_counter() - start < 2.0
    assert len(rep.family) > len(g.groups) > 8000


def test_group_bound_check_raises_when_exceeded():
    # at v = 1 a point may meet at most 3 groups; all 4 members contain 3
    ivs = fam((0, 4), (1, 5), (2, 6), (2, 4)).intervals
    _check_group_bound(ivs, (0, 0, 1, 2), 1)
    with pytest.raises(AssertionError, match="point 3 meets 4 overlap groups, bound is 3"):
        _check_group_bound(ivs, (0, 1, 2, 3), 1)


def test_compute_groups_rejects_duplicates():
    with pytest.raises(ValueError):
        compute_groups(fam((0, 3), (0, 3)), 1)


def crossings(rep):
    """crossing[t]: the members crossing anchor t, for every anchor of rep."""
    return [frozenset(crossing_family(rep, t)) for t in range(rep.m + 1)]


def crossings_and_floors(rep):
    """(crossing, floor) of the solve's context for every anchor of rep;
    neither depends on v."""
    ctx = _context(rep, 1)
    return ctx.crossing, ctx.floor


def second_crossing(crossing, st):
    """The members crossing st.s that st committed to its second side."""
    return crossing[st.s] - st.first_crossing


def segment_builder(ctx):
    """build(s_prev, s, before=None, after=None): the record of (s_prev, s]
    in the solve ctx that _segment brings from before, the record of s_prev
    at anchor after, or builds from nothing."""

    def build(s_prev, s, before=None, after=None):
        assert (before is None) == (after is None)
        after = s_prev if before is None else after
        return _segment(ctx, s_prev, after, s, before)

    return build


def live_from(rep, v):
    return _context(rep, v).live_from


def hop(rep, v, st, s):
    """Successors of st at anchor s, by committed first side, via the DP's
    step: the movers filter, which checks the first side's lower bounds,
    then the transition."""
    ctx, stage = _context(rep, v), {}
    _cross(ctx, segment_builder(ctx)(st.s, s), s, preds_of(st), stage)
    # one predecessor gives one state per first side
    return {A: bucket.states[0] for A, bucket in stage.items()}


def base_state(v):
    return DPState(0, zero_seq(v), zero_seq(v), frozenset())


def preds_of(st):
    """A finished stage holding st alone (see solver._finish)."""
    return {st.first_crossing: _Bucket(states=[st])}


def first_state(stage):
    """The first state of a finished stage in scan order, which solve
    accepts from at s = m."""
    return next(iter(stage.values())).states[0]


def test_crossing_family():
    rep = PATH3_REP
    assert crossing_family(rep, 0) == ()
    assert crossing_family(rep, rep.m) == ()
    assert crossing_family(rep, 1) == (1,)  # only (0,2) spans the point

def test_crossing_family_range_check():
    with pytest.raises(ValueError):
        crossing_family(PATH3_REP, 3)


def test_crossings_sweep_matches_crossing_family():
    rng = random.Random(101)
    anchors = 0
    for _ in range(100):
        rep = vertebrate_representation(random_rep(rng, m_max=12, n_max=30))
        crossing, floor = crossings_and_floors(rep)
        assert len(crossing) == len(floor) == rep.m + 1
        for s in range(rep.m + 1):
            assert crossing[s] == frozenset(crossing_family(rep, s))
            assert floor[s] == min((rep.family[i].lo for i in crossing[s]), default=s)
            anchors += 1
        assert floor == sorted(floor)
    assert anchors > 500


def test_check_transition_single_unit():
    # the raw first profile is the ramp (1, 0, -1, -1); nothing crosses
    # anchor 1, so its floor is 1 and the entry 0 below it is clamped
    rep = vertebrate_representation(fam((0, 5)))
    out = hop(rep, 1, base_state(1), 1)
    assert set(out) == {frozenset()}
    st = out[frozenset()]
    assert st.p.r == (1, -1, -1, -1)
    assert st.q.r == (1, -1, -1, -1)


def test_check_transition_rejects_side_disagreement():
    # a member crossing both anchors must keep its committed side
    rep = vertebrate_representation(
        fam((0, 1), (1, 2), (2, 3), (0, 3))  # member 3 spans everything
    )
    crossing = crossings(rep)
    first = hop(rep, 1, base_state(1), 1)
    assert frozenset({3}) in first
    st1 = first[frozenset({3})]
    assert second_crossing(crossing, st1) == frozenset()
    # crossing member 3 was committed to the first part; condition 2 under the
    # part swap forces it into the SECOND coordinate at the next anchor
    out = hop(rep, 1, st1, 2)
    keep, flip = frozenset(), frozenset({3})
    assert keep in out and second_crossing(crossing, out[keep]) == frozenset({3})
    assert flip not in out


def test_check_transition_rejects_overfull_star_side():
    # all four members on one side across (0,3): units + center has claw 3
    centered = fam((0, 1), (1, 2), (2, 3), (0, 3))
    assert not mid_relation(centered, centered, 1)
    rep = vertebrate_representation(centered)
    # at v = 2 the span (0,3) has length 3 > v, so it lands on the long side
    # alone and the transition passes
    assert frozenset() in hop(rep, 2, base_state(2), 3)
    # the same family at v = 3 puts the center among the short members; the
    # short side then carries the claw-3 star and must still pass v = 3
    assert frozenset() in hop(rep, 3, base_state(3), 3)


def test_check_transition_long_side_claw_violation(monkeypatch):
    # the long side of one segment can fail on its own: (0,4) meets the
    # disjoint pair (0,2),(2,4) and all three have length > 1
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4), (0, 4)]
    rep = vertebrate_representation(fam(*pairs))
    # the segment is dead, and solve never builds its record
    assert live_from(rep, 1)[4] > 0
    segment, built = solver._segment, []

    def kept(ctx, s_prev, after, s, before=None):
        built.append((s_prev, s))
        return segment(ctx, s_prev, after, s, before)

    monkeypatch.setattr(solver, "_segment", kept)
    solve(rep, 1)
    assert built and (0, 4) not in built
    # at v = 2 the same long side only needs claw 2: passes
    assert frozenset() in hop(rep, 2, base_state(2), 4)


def test_check_transition_star_completed_by_an_outside_member():
    # on the live segment (0, 3] the long members (0,2),(0,3) center no
    # overfull star among themselves, but (2,4), which crosses 3, completes
    # the star (0,3) -> (0,2),(2,4) when it joins the long side
    rep = vertebrate_representation(
        fam((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (0, 3), (2, 4))
    )
    x = rep.family.intervals.index(Interval(2, 4))
    assert live_from(rep, 1)[3] == 0
    ctx = _context(rep, 1)
    seg = segment_builder(ctx)(0, 3)
    long_fam = seg.long.fam
    assert mid_relation(long_fam, long_fam, 1)
    assert not solver._long_star_ok(ctx, seg, 3, frozenset({x}))
    assert not mid_relation(long_fam, IntervalFamily(long_fam.intervals + (Interval(2, 4),)), 1)
    # only the successor that puts (2,4) on the short side survives
    assert set(hop(rep, 1, base_state(1), 3)) == {frozenset({x})}


def test_grown_segments_match_a_fresh_build():
    # s_prev >= live_from[s] iff the long members of (s_prev, s) center no
    # overfull star among themselves; a live record brought from any earlier
    # record of its s_prev, the latest or one several anchors back (as after
    # skipped old pairs), holds the members a fresh scan finds.  It is that
    # record itself exactly when no member it reads arrived.  A record
    # holds its context's one _Long of its long members, whatever its
    # s_prev, and keeps its plans' long-free parts whenever only long
    # members arrived
    rng = random.Random(43)
    dead_pairs = skipped = carried = kept_longs = kept_bases = 0
    for _ in range(150):
        v = rng.choice([1, 1, 2, 3])
        rep = vertebrate_representation(random_rep(rng, m_max=10, n_max=24))
        ivs = rep.family.intervals
        crossing = crossings(rep)
        ctx = _context(rep, v)
        build, frontier = segment_builder(ctx), ctx.live_from
        for s_prev in range(rep.m):
            records = []
            for s in range(s_prev + 1, rep.m + 1):
                inside = [i for i, iv in enumerate(ivs) if iv.lo >= s_prev and iv.hi <= s]
                long_idx = tuple(i for i in inside if ivs[i].length > v)
                long_fam = IntervalFamily(tuple(ivs[i] for i in long_idx))
                live = mid_relation(long_fam, long_fam, v)
                assert (s_prev >= frontier[s]) == live
                if not live:
                    dead_pairs += 1
                    continue
                fresh = build(s_prev, s)
                grown = [build(s_prev, s, before, after) for before, after in records]
                skipped += len(grown[:-1])
                for seg in (fresh, *grown):
                    assert seg.long is ctx.longs[long_idx]
                    assert seg.long.idx == long_idx
                    assert seg.long.fam.intervals == long_fam.intervals
                    assert seg.shared == crossing[s_prev] & crossing[s]
                    assert seg.pool == crossing[s_prev] - crossing[s]
                for (before, _), seg in zip(records, grown):
                    same_long = seg.long is before.long
                    same_pool = seg.pool == before.pool
                    assert (seg is before) == (same_long and same_pool)
                    carried += seg is before
                    if seg is before:
                        continue
                    assert seg.plans == {} and seg.plans is not before.plans
                    assert (seg.bases is before.bases) == same_pool
                    if not same_pool:
                        assert seg.bases == {}
                    kept_longs += same_long
                    kept_bases += same_pool
                records.append((grown[-1] if grown else fresh, s))
    assert dead_pairs > 20
    assert skipped > 1000
    assert carried > 1000
    assert kept_longs > 100
    assert kept_bases > 100


def test_live_from_matches_mid_relation_where_the_windows_cut():
    # the same check on instances with members up to 8 long and m up to 60,
    # where _star_free's lo windows leave out most long members of (f, s)
    # and the frontier moves often.  Most draws are at v = 1, where segments
    # die most often; at v = 3 and 4 the generator's long members rarely
    # center an overfull star, and the check shows no segment dies there
    rng = random.Random(47)
    moves = dead_pairs = 0
    for k in range(24):
        v = 1 if k % 2 else 2 + k // 2 % 3
        rep = gen_rep(rng.randint(40, 60), rng.choice([0.6, 1.0, 1.5, 2.0]),
                      rng.randint(v + 2, 8), rng.randint(0, 10 ** 6))
        ivs = rep.family.intervals
        frontier = live_from(rep, v)
        for s in range(1, rep.m + 1):
            moves += frontier[s] > frontier[s - 1]
            inside = [iv for iv in ivs if iv.hi <= s and iv.length > v]
            for s_prev in range(s):
                long_fam = IntervalFamily(tuple(iv for iv in inside if iv.lo >= s_prev))
                live = mid_relation(long_fam, long_fam, v)
                assert (s_prev >= frontier[s]) == live, (k, s_prev, s)
                dead_pairs += not live
    # 155 frontier moves and 11,776 dead pairs
    assert moves > 100
    assert dead_pairs > 8000


def test_advance_keeps_one_antichain_per_bucket():
    # across the unit (1, 2] the new first profile is (2, 1, q_1, -1) and the
    # new second one (2, p_1, -1, -1), read off the swapped predecessor.
    # (0,3) crosses both anchors, so the floor at 2 is 0 and nothing is
    # clamped; committed to the second side at 1, it is forced to the first
    # one at 2
    rep = vertebrate_representation(fam((0, 1), (1, 2), (2, 3), (0, 3)))
    ctx = _context(rep, 1)
    seg = segment_builder(ctx)(1, 2)
    assert ctx.floor[2] == 0
    plan = _plan(ctx, seg, frozenset())
    sides = _side_assignments(ctx, 2, *plan.base.side_key)
    forced = frozenset({3})
    low, high = MonotonicSeq((1, -1, -1, -1), 1, 1), MonotonicSeq((1, 0, -1, -1), 1, 1)
    best = DPState(1, low, low, frozenset())
    worse_p = DPState(1, low, high, frozenset())
    worse_q = DPState(1, high, low, frozenset())

    def advance_all(order):
        stage = {}
        for st in order:
            _advance(ctx, st, seg, plan, 2, sides, stage)
        assert set(stage) == {forced}
        return stage[forced].states

    def kept(order):
        return [(st.prev, st.p.r, st.q.r) for st in advance_all(order)]

    best_succ = (best, (2, 1, -1, -1), (2, -1, -1, -1))
    # incomparable successors both stay
    assert kept([worse_p, worse_q]) == [
        (worse_p, (2, 1, 0, -1), (2, -1, -1, -1)),
        (worse_q, (2, 1, -1, -1), (2, 0, -1, -1)),
    ]
    # a dominated successor that comes second is dropped
    assert kept([best, worse_p, worse_q]) == [best_succ]
    # dominated successors that came first are evicted
    assert kept([worse_p, worse_q, best]) == [best_succ]
    # an equal key keeps the first state to reach it
    twin = DPState(1, low, low, frozenset())
    [only] = advance_all([best, twin])
    assert only.prev is best


def test_bucket_keeps_an_antichain_and_what_it_covers():
    bucket = _Bucket()
    bucket.add((1, 2), "x")
    # an equal vector is covered, and so is a larger one, not a smaller one
    assert bucket.covers((1, 2))
    assert bucket.covers((1, 3))
    assert not bucket.covers((0, 5))
    # incomparable vectors are all kept, in insertion order
    bucket.add((2, 1), "y")
    bucket.add((0, 5), "z")
    assert bucket.states == ["x", "y", "z"]
    # (1, 1) evicts the two it is <=; what they covered stays covered
    assert not bucket.covers((1, 1))
    bucket.add((1, 1), "w")
    assert bucket.vecs == [(0, 5), (1, 1)]
    assert bucket.states == ["z", "w"]
    assert bucket.covers((1, 2)) and bucket.covers((2, 1)) and bucket.covers((1, 3))
    assert not bucket.covers((0, 4))
    assert (0, 4) not in bucket.seen


def pass_first_bounds(states, first_bounds, v):
    """A stand-in for solver._movers that moves every state passing the
    first side's lower bounds, as the DP did before the movers filter."""
    return [st for st in states if solver._room(st.q, first_bounds, v) is not None]


def test_bucket_plans_match_fresh_records(monkeypatch):
    # solve shares one grown record, and with it one plan per bucket, among
    # all the states of a stage; a fresh record per state shares nothing.
    # Every state that passes the first side's lower bounds crosses here,
    # so each plan serves all of those in its bucket (the movers filter is
    # tested on its own).  The clamp leaves few states per bucket at v <= 2
    # (4,070 advanced for 3,041 plans on the first 60 instances), so 60
    # larger ones at v = 3 follow
    monkeypatch.setattr(solver, "_movers", pass_first_bounds)
    make_plan = solver._plan
    plans = 0

    def counted(*args):
        nonlocal plans
        plans += 1
        return make_plan(*args)

    monkeypatch.setattr(solver, "_plan", counted)
    rng = random.Random(47)
    advanced = 0
    for k in range(120):
        if k < 60:
            v, m_max, n_max = rng.choice([1, 2, 2]), 10, 24
        else:
            v, m_max, n_max = 3, 12, 30
        rep = vertebrate_representation(random_rep(rng, m_max=m_max, n_max=n_max))
        crossing = crossings(rep)
        ctx, own_ctx = _context(rep, v), _context(rep, v)
        build = segment_builder(own_ctx)

        def kept(stage):
            return [
                (A, [(id(st.prev), st.p.r, st.q.r, second_crossing(crossing, st),
                      solver._witness(ctx, st)) for st in bucket.states])
                for A, bucket in stage.items()
            ]

        def seen(stage):
            return {A: bucket.seen for A, bucket in stage.items()}

        for hops, shared in walk_stages(ctx, []):
            fresh = {}
            for step in hops:
                s_prev, s = step.seg.s_prev, step.s
                for first_crossing, bucket in step.preds.items():
                    for st in bucket.states:
                        own = build(s_prev, s)
                        plan = _plan(own_ctx, own, first_crossing)
                        if solver._room(st.q, plan.base.first_bounds, v) is None:
                            continue
                        sides = _side_assignments(own_ctx, s, *plan.base.side_key)
                        _advance(own_ctx, st, own, plan, s, sides, fresh)
                        advanced += 1
            assert kept(shared) == kept(fresh)
            assert seen(shared) == seen(fresh)
    assert advanced > 2 * plans > 0


def test_solve_builds_each_profile_once(monkeypatch):
    built = []
    post_init = MonotonicSeq.__post_init__

    def counted(seq):
        built.append(seq.r)
        post_init(seq)

    monkeypatch.setattr(MonotonicSeq, "__post_init__", counted)
    # at m = 20 the clamped DP builds only 64 distinct profiles
    S = generate(GeneratorSpec("vertebrate", m=60, density=2.0, max_len=3, seed=3))
    res = solve(vertebrate_representation(S), 2)
    assert res.feasible
    assert len(built) > 100
    assert len(built) == len(set(built))


def test_solve_greedy_calls_below_the_per_state_count(monkeypatch):
    # every _max_disjoint_meeting call of one solve, from the settled
    # counts, the lower bounds, fd_head and the star checks; computing the
    # settled counts once per state and candidate made 5,902 on this
    # instance, and the DP kept 582 states before the clamp.  Memos owned
    # by each record, not shared among records with the same long members,
    # made 1,056
    greedy = intervals._max_disjoint_meeting
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return greedy(*args)

    S = generate(GeneratorSpec("vertebrate", m=20, density=2.0, max_len=3, seed=3))
    rep = vertebrate_representation(S)
    for module in (intervals, encoding, solver):
        monkeypatch.setattr(module, "_max_disjoint_meeting", counted)
    res = solve(rep, 2)
    assert res.feasible
    assert sum(res.stage_state_counts) == 140
    assert 0 < calls <= 898


def test_new_first_side_members_meet_each_settled_window_b_minus_s_prev_times():
    # the first side's settled count, which _advance leaves to the lower
    # bound over plan.first_bounds: the short members plus any set of
    # new crossing members meet (s_prev, b) exactly b - s_prev times
    rng = random.Random(67)
    windows = 0
    for _ in range(64):
        v = rng.choice([1, 2, 3])
        rep = vertebrate_representation(random_rep(rng, m_max=10, n_max=24))
        ivs = rep.family.intervals
        crossing = crossings(rep)
        ctx = _context(rep, v)
        build, frontier = segment_builder(ctx), ctx.live_from
        for s_prev in range(rep.m):
            for s in range(s_prev + 1, rep.m + 1):
                if s_prev < frontier[s]:
                    continue
                seg = build(s_prev, s)
                short = [
                    iv for iv in ivs if iv.lo >= s_prev and iv.hi <= s and iv.length <= v
                ]
                new = sorted(crossing[s] - seg.shared)
                for _ in range(3):
                    X = [ivs[i] for i in new if rng.random() < 0.5]
                    for b in range(s_prev + 1, s + 1):
                        count = intervals._max_disjoint_meeting([*short, *X], s_prev, b)
                        assert count == b - s_prev
                        windows += 1
    assert windows > 5000


def test_solve_greedy_calls_on_a_split_v2_shape(monkeypatch):
    # counting the first side's settled members anew for every candidate,
    # as well as bounding them by b - s_prev, made 677 calls on this
    # instance, and the DP kept 301 states before the clamp; memos owned by
    # each record made 284
    greedy = intervals._max_disjoint_meeting
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return greedy(*args)

    S = generate(GeneratorSpec("vertebrate", m=14, density=2.0, max_len=3, seed=1))
    rep = vertebrate_representation(S)
    for module in (intervals, encoding, solver):
        monkeypatch.setattr(module, "_max_disjoint_meeting", counted)
    res = solve(rep, 2)
    assert res.feasible
    assert sum(res.stage_state_counts) == 62
    assert 0 < calls <= 192


# One hop of walk_stages: seg, the record of s_prev that _segment brought
# from before (None when built from nothing), crossed into the anchor s,
# with preds the finished stage at s_prev.
Hop = namedtuple("Hop", "before seg s preds")


def walk_stages(ctx, stages):
    """Run solve's loop over the solve ctx without skipping any live pair,
    yielding (hops, stage) once the stage at each s >= 1 is built, before
    it is finished, with ctx.sides holding the side assignments of s and
    ctx.longs the long families taken at s.  hops lists a Hop for every
    s_prev that solver._cross took into s.  stages receives every finished
    stage of this walk (see solver._finish)."""
    stages.append(preds_of(base_state(ctx.v)))
    grown = {}
    no_long = solver._Long((), solver._NO_MEMBERS)
    for s in range(1, ctx.m + 1):
        ctx.sides.clear()
        ctx.longs.clear()
        ctx.longs[()] = no_long
        stage, hops = {}, []
        if stages[s - 1]:
            grown[s - 1] = None
        for s_prev, before in list(grown.items()):
            if s_prev < ctx.live_from[s]:
                del grown[s_prev]
                continue
            after = s_prev if before is None else s - 1
            seg = grown[s_prev] = _segment(ctx, s_prev, after, s, before)
            hops.append(Hop(before, seg, s, stages[s_prev]))
            _cross(ctx, seg, s, stages[s_prev], stage)
        yield hops, stage
        stages.append(_finish(stage))


def states_of(preds):
    """Every state of preds, a finished stage, bucket by bucket."""
    return [st for bucket in preds.values() for st in bucket.states]


def walked_hops(ctx, stages=None):
    """Every Hop of walk_stages."""
    for hops, _ in walk_stages(ctx, [] if stages is None else stages):
        yield from hops


class ReadLog(dict):
    """A memo that logs each hit in reads as (name, the s_prev of the
    record that wrote the entry, the s_prev of the one that reads it);
    reader() gives the s_prev of the record being crossed."""

    def __init__(self, name, reader, reads):
        super().__init__()
        self.name, self.reader, self.reads, self.writers = name, reader, reads, {}

    def __setitem__(self, key, value):
        self.writers[key] = self.reader()
        super().__setitem__(key, value)

    def get(self, key, default=None):
        if key in self:
            self.reads.append((self.name, self.writers[key], self.reader()))
        return super().get(key, default)


def test_carried_and_shared_caches_match_fresh_values(monkeypatch):
    # every record with the same long members holds one _Long, so its memos
    # are written and read by records of several s_prev and anchors.  Every
    # entry, written by whichever record, is checked against a fresh
    # computation at each record that holds it and can read it: for a head,
    # one whose pool holds the settled members of its key
    cross, make_long = solver._cross, solver._Long
    visits, reads, crossing_now = [], [], [None]

    def kept(ctx, seg, s, *rest):
        crossing_now[0] = seg.s_prev
        visits.append((ctx.v, seg, s))
        return cross(ctx, seg, s, *rest)

    def logged_long(idx, fam):
        # the memos in _Long's field order
        names = ("meet", "head", "star")
        return make_long(idx, fam, *(ReadLog(name, lambda: crossing_now[0], reads) for name in names))

    monkeypatch.setattr(solver, "_cross", kept)
    monkeypatch.setattr(solver, "_Long", logged_long)
    rng = random.Random(53)
    checked = 0
    # the clamped-pair skip left 25,037 checks on the first 66 solves
    for k in range(110):
        v = rng.choice([1, 2, 3])
        if k % 2:
            rep = long_rep(rng, 30 if v == 1 else 18)
        else:
            rep = vertebrate_representation(random_rep(rng, m_max=10, n_max=24))
        ivs = rep.family.intervals
        solve(rep, v)
        # v_dp is the bound the DP ran at (see solve)
        for v_dp, seg, s in visits:
            long = seg.long
            for key, head in long.head_cache.items():
                if set(key) <= seg.pool:
                    F = IntervalFamily(tuple(ivs[i] for i in key))
                    assert head == fd_head(F, long.fam, seg.s_prev, s, v_dp)
                    checked += 1
            for b, count in long.long_meet_cache.items():
                assert count == intervals._max_disjoint_meeting(long.fam.intervals, seg.s_prev, b)
                checked += 1
            for outside, ok in long.long_star_cache.items():
                visible = IntervalFamily(tuple(ivs[i] for i in sorted(outside.union(long.idx))))
                assert ok == mid_relation(long.fam, visible, v_dp)
                checked += 1
        visits.clear()
    assert checked > 40000
    # hits on entries that a record of another s_prev wrote
    across = Counter(name for name, writer, reader in reads if writer != reader)
    assert all(across[name] > 2000 for name in ("meet", "head", "star")), across


def test_carried_plans_match_fresh_records(monkeypatch):
    # a record serves every anchor until a member it reads arrives, and
    # builds each bucket's plan once; at every anchor it served, each plan
    # it used, counts filled at any anchor included, is the one a record
    # built there from nothing, in a fresh context, gives.  When only long
    # members arrived, the next record's plan of a bucket keeps the old
    # plan's long-free part
    cross = solver._cross
    visits, last = [], {}
    hits = reused = 0

    def kept(ctx, seg, s, preds, *rest):
        nonlocal hits, reused
        hits += sum(first_crossing in seg.plans for first_crossing in preds)
        visits.append((ctx, seg, s, list(preds)))
        cross(ctx, seg, s, preds, *rest)
        before = last.get(seg.s_prev)
        if before is not None and before is not seg and before.pool == seg.pool:
            assert seg.long is not before.long
            for first_crossing in preds:
                if first_crossing in before.plans:
                    assert seg.plans[first_crossing].base is before.plans[first_crossing].base
                    reused += 1
        last[seg.s_prev] = seg

    monkeypatch.setattr(solver, "_cross", kept)
    rng = random.Random(61)
    plans = counts = 0
    for k in range(220):
        v = 1 + k % 3
        if k % 2:
            rep = long_rep(rng, 30 if v == 1 else 18)
        else:
            rep = vertebrate_representation(random_rep(rng, m_max=10, n_max=24))
        solve(rep, v)
        for ctx, seg, s, first_crossings in visits:
            own_ctx = replace(ctx)
            own = segment_builder(own_ctx)(seg.s_prev, s)
            for first_crossing in first_crossings:
                plan, fresh = seg.plans[first_crossing], _plan(own_ctx, own, first_crossing)
                base, fresh_base = plan.base, fresh.base
                assert base.settled_second == fresh_base.settled_second
                assert base.first_bounds == fresh_base.first_bounds
                assert base.F.intervals == fresh_base.F.intervals
                assert base.side_key == fresh_base.side_key
                assert plan.second_bounds == fresh.second_bounds
                for B, got in plan.second_counts.items():
                    assert got == solver._second_counts(own_ctx, own, fresh, B)
                    counts += 1
                plans += 1
        visits.clear()
        last.clear()
    # 5,112 of the 11,528 plans used on the first 120 solves were built at
    # an earlier anchor, by a record carried from there, before clamped
    # pairs were skipped by their bound; that skip leaves 2,524 of 6,361
    # there.  Before the far-pair skip, the first 60 solves alone used
    # 8,893 plans, 4,604 of them carried; that skip left 2,973 carried ones
    assert hits > 4000
    assert plans > hits
    assert counts > 4000
    assert reused > 1000


def test_anchor_side_lists_match_a_fresh_enumeration(monkeypatch):
    # the side assignments each advanced state reads from the context's
    # memo are those of a fresh context and record for its bucket
    advance, enumerate_sides = solver._advance, solver._side_assignments
    made = []
    enumerated = 0

    def kept(ctx, st, seg, plan, s, sides, *rest):
        made.append((st.first_crossing, seg.s_prev, s, sides))
        return advance(ctx, st, seg, plan, s, sides, *rest)

    def counted(*args):
        nonlocal enumerated
        enumerated += 1
        return enumerate_sides(*args)

    monkeypatch.setattr(solver, "_advance", kept)
    monkeypatch.setattr(solver, "_side_assignments", counted)
    rng = random.Random(59)
    lookups = 0
    for _ in range(60):
        v = rng.choice([1, 2, 3])
        rep = vertebrate_representation(random_rep(rng, m_max=10, n_max=24))
        for _ in walked_hops(_context(rep, v)):
            pass
        fresh_ctx = _context(rep, v)
        build = segment_builder(fresh_ctx)
        for first_crossing, s_prev, s, sides in made:
            fresh = build(s_prev, s)
            shared_first = fresh.shared - first_crossing
            assert sides == enumerate_sides(fresh_ctx, s, fresh.shared, shared_first)
            lookups += 1
        made.clear()
    # most lookups reuse a side list another record at their anchor built
    assert lookups > 2 * enumerated > 0


def long_rep(rng, m_max):
    """A seeded representation with members of length up to 2-7, long
    enough (m up to m_max) to hold old hops (see solver._far_vector)."""
    spec = GeneratorSpec(
        kind="vertebrate", m=rng.randint(10, m_max), density=rng.choice([0.3, 0.6, 1.0]),
        max_len=rng.randint(2, 7), seed=rng.randint(0, 10 ** 6),
    )
    return vertebrate_representation(generate(spec))


def old_hop(ctx):
    """The length from which a hop of the solve ctx is old, as solver._stages
    reads it: max(3L - 3, v + 1), with L the longest member (see
    solver._far_vector)."""
    return max(3 * ctx.longest - 3, ctx.v + 1)


def gen_rep(m, density, max_len, seed):
    """The representation of one generated vertebrate family."""
    spec = GeneratorSpec("vertebrate", m=m, density=density, max_len=max_len, seed=seed)
    return vertebrate_representation(generate(spec))


# Generated instances (m, density, max_len, seed) on which the looser rule
# "s - s_prev >= max(L - 1, v + 1) and s_prev <= g(s)", with g(s) the lo
# of the (v + 1)-th pick of a right-to-left greedy chain over the long
# members, gives two old states at one s different successor sets at
# v = 1.  Random instances show that in under 1% of draws.
LOOSER_RULE_FAILS = [(27, 1.5, 6, 494581), (19, 0.6, 7, 572387), (29, 1.0, 5, 641281)]

# Generated instances (v, m, density, max_len, seed) on which calling every
# far hop old, s - s_prev >= max(2L - 2, v + 1), gives two states at one s
# different successor sets, one of them at a hop of 2L - 2 to 3L - 4: the
# star check splits only from 3L - 3 on.  Random instances show that in
# about 1% of draws.
FAR_RULE_FAILS = [(1, 14, 0.3, 3, 458805), (1, 35, 1.0, 3, 283154), (2, 16, 1.5, 5, 844230)]


def successor_sets(ctx, shortest):
    """{s: the distinct non-empty successor sets}, where each state at an
    s_prev with s - s_prev >= shortest is advanced alone into a fresh stage
    in the solve ctx, and (states advanced, states that added some)."""
    crossing = ctx.crossing
    sets, advanced, adding = {}, 0, 0
    for _, seg, s, preds in walked_hops(ctx):
        if s - seg.s_prev < shortest:
            continue
        for X in states_of(preds):
            alone = {}
            _cross(ctx, seg, s, preds_of(X), alone)
            keys = frozenset(
                (st.p.r, st.q.r, st.first_crossing, second_crossing(crossing, st))
                for bucket in alone.values() for st in bucket.states
            )
            advanced += 1
            if keys:
                adding += 1
                sets.setdefault(s, set()).add(keys)
    return sets, (advanced, adding)


def test_old_pairs_add_nothing_or_one_common_successor_set():
    # each state at an old s_prev, advanced alone into a fresh stage, adds
    # no successor or the same ones as every other such state at that s
    # (see solver._far_vector); this is what lets solve skip old pairs.
    # Most random instances are at v = 1, where old pairs are most numerous
    # and most varied for their cost.
    rng = random.Random(71)
    cases = [(1, gen_rep(*row)) for row in LOOSER_RULE_FAILS]
    cases += [(v, gen_rep(*row)) for v, *row in FAR_RULE_FAILS]
    for k in range(120):
        v = 1 if k % 10 else 2 + k // 10 % 2
        cases.append((v, long_rep(rng, 36 if v == 1 else 26)))
    old_pairs = adding = 0
    for v, rep in cases:
        ctx = _context(rep, v)
        sets, (advanced, added) = successor_sets(ctx, old_hop(ctx))
        assert all(len(common) == 1 for common in sets.values())
        old_pairs += advanced
        adding += added
    assert old_pairs > adding > 3000
    # far hops shorter than 3L - 3 break the claim
    for v, *row in FAR_RULE_FAILS:
        ctx = _context(gen_rep(*row), v)
        far = max(2 * ctx.longest - 2, ctx.v + 1)
        assert far < old_hop(ctx)
        sets, _ = successor_sets(ctx, far)
        assert any(len(common) > 1 for common in sets.values())


def far_grid(rng, count):
    """count seeded (v, rep) pairs, v = 1-4 and max_len 2-6, with m large
    enough to hold far hops (see solver._far_vector)."""
    cases = []
    for k in range(count):
        v, max_len = 1 + k % 4, 2 + k % 5
        spec = GeneratorSpec(
            "vertebrate", m=rng.randint(12, 30) if v <= 2 else rng.randint(10, 16),
            density=rng.choice([0.3, 0.6, 1.0, 1.5, 2.0]), max_len=max_len,
            seed=rng.randint(0, 10 ** 6),
        )
        cases.append((v, vertebrate_representation(generate(spec))))
    return cases


def test_far_pairs_add_only_the_far_vector(monkeypatch):
    # every profile pair extend builds at a far hop (s - s_prev >=
    # max(2L - 2, v + 1)) of the unskipped walk, from every mover of every
    # bucket, is V(s) as _far_vector reads it from s alone, and every far
    # bucket reads the side list of shared = {}: this is what lets solve
    # skip the far pairs once V(s) is covered
    extend = solver.extend
    far_of = {}

    def checked(p_prev, q_prev, F, C, D, s_prev, s, *rest):
        p, q = extend(p_prev, q_prev, F, C, D, s_prev, s, *rest)
        ctx, far, vectors = far_of["ctx"], far_of["far"], far_of["vectors"]
        if s - s_prev >= far:
            # one vector for every far s_prev at s
            assert p.r + q.r == solver._far_vector(ctx, s_prev, s) == solver._far_vector(
                ctx, s - far, s
            ), (s_prev, s)
            vectors[ctx.longest * 2 - 2 > ctx.v + 1] += 1
        return p, q

    monkeypatch.setattr(solver, "extend", checked)
    rng = random.Random(83)
    far_hops = no = 0
    vectors = far_of["vectors"] = Counter()
    for v, rep in far_grid(rng, 200):
        ctx = far_of["ctx"] = _context(rep, v)
        far = far_of["far"] = max(2 * ctx.longest - 2, ctx.v + 1)
        stages = []
        for hop_ in walked_hops(ctx, stages):
            if hop_.s - hop_.seg.s_prev >= far:
                assert hop_.seg.shared == frozenset()
                assert all(
                    plan.base.side_key == (frozenset(), frozenset())
                    for plan in hop_.seg.plans.values()
                )
                far_hops += 1
        no += not stages[-1]
    # 15,369 far hops built 29,420 vectors, 31 of the 200 solves answer "no"
    assert far_hops > 10000
    # each term of max(2L - 2, v + 1) binds at some far hops: the ramp's
    # (v + 1 >= 2L - 2, as at L = 2) for 8,750 vectors and the long
    # members' (L >= 5) for 20,670
    assert vectors[False] > 5000 and vectors[True] > 10000, vectors
    assert no > 20


def skip_kind(ctx, s_prev, s):
    """The kind of the clamped pair (s_prev, s) in the solve ctx: the first
    of old, far and clamped that its hop is (see solver._far_vector)."""
    if s - s_prev >= old_hop(ctx):
        return "old"
    return "far" if s - s_prev >= max(2 * ctx.longest - 2, ctx.v + 1) else "clamped"


def test_clamped_pairs_build_no_successor_below_their_bound(monkeypatch):
    # at every clamped pair (s_prev <= floor(s)) of the unskipped walk, no
    # member crosses both anchors, so every bucket reads the side list of
    # shared = {}, and every profile pair extend builds, from every mover of
    # every bucket, is >= the bound _far_vector(ctx, s_prev, s) entrywise,
    # and equal to it from 2L - 2 on: this is what lets solve skip a clamped
    # pair once every bucket of that list covers its bound
    extend = solver.extend
    walk = {}

    def checked(p_prev, q_prev, F, C, D, s_prev, s, *rest):
        p, q = extend(p_prev, q_prev, F, C, D, s_prev, s, *rest)
        ctx = walk["ctx"]
        if s_prev <= ctx.floor[s]:
            vec, bound = p.r + q.r, solver._far_vector(ctx, s_prev, s)
            assert all(map(le, bound, vec)), (s_prev, s)
            if s - s_prev >= 2 * ctx.longest - 2:
                assert vec == bound, (s_prev, s)
            walk["vectors"] += 1
        return p, q

    monkeypatch.setattr(solver, "extend", checked)
    rng = random.Random(97)
    pairs, no = Counter(), 0
    walk["vectors"] = 0
    for k in range(120):
        # v = 3 and 4 on small, sparser families, whose stages grow fastest
        v, max_len = 1 + k % 4, 2 + k % 7
        rep = gen_rep(
            rng.randint(10, 30) if v <= 2 else rng.randint(8, 11),
            rng.choice([0.3, 0.6, 1.0, 1.5, 2.0][:5 if v <= 2 else 3]), max_len,
            rng.randint(0, 10 ** 6),
        )
        ctx = walk["ctx"] = _context(rep, v)
        stages = []
        for hop_ in walked_hops(ctx, stages):
            s_prev, s = hop_.seg.s_prev, hop_.s
            if s_prev <= ctx.floor[s]:
                assert hop_.seg.shared == frozenset()
                assert all(
                    plan.base.side_key == (frozenset(), frozenset())
                    for plan in hop_.seg.plans.values()
                )
                pairs[skip_kind(ctx, s_prev, s)] += 1
        no += not stages[-1]
    # 10,486 clamped pairs: 5,271 that are not far, 1,512 far ones that
    # are not old and 3,703 old ones; 28,736 vectors built there, and 24 of
    # the 120 solves answer "no"
    assert pairs["clamped"] > 4000, pairs
    assert pairs["far"] > 1000 and pairs["old"] > 2000, pairs
    assert walk["vectors"] > 20000
    assert no > 10


def test_solve_skips_far_pairs_on_the_split_v2_shape(monkeypatch):
    # on families shaped like the split-v2 workload's (v = 2, m = 14,
    # density 2, max_len 3), solve skips far pairs that are not old once
    # V(s) is covered, and clamped ones once their bound is covered; every
    # pair of the unskipped walk that it skips is old or clamped
    cross = solver._cross
    crossed = set()

    def kept(ctx, seg, s, *rest):
        crossed.add((seg.s_prev, s))
        return cross(ctx, seg, s, *rest)

    monkeypatch.setattr(solver, "_cross", kept)
    skipped = Counter()
    for seed in range(30):
        S = generate(GeneratorSpec("vertebrate", m=14, density=2.0, max_len=3, seed=seed))
        rep = vertebrate_representation(S)
        crossed.clear()
        solve(rep, 2)
        ctx = _context(rep, 2)
        for hop_ in walked_hops(ctx):
            s_prev, s = hop_.seg.s_prev, hop_.s
            if (s_prev, s) not in crossed:
                assert s - s_prev >= old_hop(ctx) or s_prev <= ctx.floor[s]
                skipped[skip_kind(ctx, s_prev, s)] += 1
    # 2,356 pairs skipped: 1,080 old ones, 570 far ones that are not old,
    # hops of 2L - 2 = 4 and 5, and 706 clamped ones that are not far.  When
    # only old and far pairs were skipped, the far check ran after the pair
    # was crossed and the same runs gave 1,650.  When a hop was old only if
    # it also lay left of the last v + 1 disjoint long members before s,
    # those 1,650 split as 1,589 far and 61 old
    assert sum(skipped.values()) == 2356
    assert skipped["far"] > 500 and skipped["clamped"] > 500, skipped


def test_clamped_bounds_are_built_once_per_window(monkeypatch):
    # over the partition answers of bench seeds 1-3, no solve builds the
    # bound of a clamped hop twice at one anchor s for one window start,
    # the index in ctx.long_los of the least lo >= max(s_prev, s - 2L + 2):
    # every s_prev with that start has the same bound, and _stages holds
    # the last one built (see solver._far_vector)
    far_vector = solver._far_vector
    built = []

    def logged(ctx, s_prev, s):
        built.append((s, bisect_left(ctx.long_los, max(s_prev, s - 2 * ctx.longest + 2))))
        return far_vector(ctx, s_prev, s)

    monkeypatch.setattr(solver, "_far_vector", logged)
    bounds, solves = Counter(), Counter()
    for seed in (1, 2, 3):
        for workload, name, S, v in partition_answers(seed):
            built.clear()
            solve(vertebrate_representation(S), v)
            assert len(set(built)) == len(built), (seed, workload, name)
            bounds[workload] += len(built)
            solves[workload] += 1
    # 5,145 bounds over the 90 split-long solves and 2,324 over the 90
    # split-v2 ones; when each clamped pair checked built its own, 13,040
    # and 3,434, of which 7,895 and 1,110 repeated a window
    assert solves["split-long"] == solves["split-v2"] == 90
    assert 1000 < bounds["split-long"] <= 60 * solves["split-long"], bounds


def unskipped_witness(ctx, stages):
    """The rep_assignment solve reads from the first accepting state of
    stages, the stages of the solve ctx, or None when the last stage is
    empty."""
    if not stages[-1]:
        return None
    return PartitionAssignment(tuple(solver._witness(ctx, first_state(stages[-1]))))


def test_solve_stages_match_the_unskipped_walk(monkeypatch):
    # every bucket of every stage, in order, with its states in scan order
    def kept(stages, crossing):
        def key(st):
            return (st.s, st.p.r, st.q.r, st.first_crossing, second_crossing(crossing, st))

        return [
            [(A, [(key(st), st.prev and key(st.prev)) for st in bucket.states])
             for A, bucket in stage.items()]
            for stage in stages
        ]

    stages, cross = solver._stages, solver._cross
    solved, crossed = [], set()

    def kept_stages(ctx):
        solved.append((ctx, stages(ctx)))
        return solved[-1][1]

    def logged(ctx, seg, s, *rest):
        crossed.add((seg.s_prev, s))
        return cross(ctx, seg, s, *rest)

    monkeypatch.setattr(solver, "_stages", kept_stages)
    monkeypatch.setattr(solver, "_cross", logged)
    rng = random.Random(73)
    walked, skipped = Counter(), Counter()
    for k in range(52):
        if k < 40:
            v = 1 + k % 2
            rep = long_rep(rng, 60 if v == 1 else 40)
        else:
            # v = 3 with members of length 5-6, where 2L - 2 > v + 1
            v = 3
            rep = vertebrate_representation(generate(GeneratorSpec(
                "vertebrate", m=rng.randint(14, 24), density=rng.choice([0.6, 1.0, 1.5]),
                max_len=rng.randint(5, 6), seed=rng.randint(0, 10 ** 6),
            )))
        crossed.clear()
        res = solve(rep, v)
        ctx, got = solved[-1]
        walk = []
        for hop_ in walked_hops(_context(rep, ctx.v), walk):
            s_prev, s = hop_.seg.s_prev, hop_.s
            walked[v] += 1
            if (s_prev, s) not in crossed:
                # a pair solve skipped is old or clamped
                assert s - s_prev >= old_hop(ctx) or s_prev <= ctx.floor[s]
                kind = skip_kind(ctx, s_prev, s)
                skipped[kind if kind == "old" else (kind, v)] += 1
                if kind != "old":
                    # the finished stage at s covers the pair's bound for
                    # every A of the clamped side list
                    bound = solver._far_vector(ctx, s_prev, s)
                    for A, _ in _side_assignments(ctx, s, frozenset(), frozenset()):
                        assert any(
                            all(map(le, st.p.r + st.q.r, bound))
                            for st in got[s].get(A, _Bucket()).states
                        ), (s_prev, s, A)
        crossing = crossings(rep)
        assert kept(got, crossing) == kept(walk, crossing)
        assert res.stage_state_counts == tuple(len(states_of(stage)) for stage in walk)
        assert res.rep_assignment == unskipped_witness(ctx, walk)
    assert walked[1] + walked[2] > 10000
    # solve skipped old pairs, far ones that are not old, and clamped ones
    # that are not far at every v: 8,738 old, 866, 961 and 526 far and
    # 1,783, 1,984 and 911 clamped at v = 1, 2 and 3.  When a hop was old
    # only if it also lay left of the last v + 1 disjoint long members
    # before s, the old and far ones split as 3,094 old and 2,630, 4,357
    # and 948 far, and 62 fewer pairs were skipped at v = 1
    assert skipped["old"] > 2000, skipped
    assert all(skipped["far", v] > 500 for v in (1, 2, 3)), skipped
    assert all(skipped["clamped", v] > 500 for v in (1, 2, 3)), skipped


def clamped(r, floor):
    """The profile entries r with every one below floor set to -1."""
    return tuple(x if x >= floor else -1 for x in r)


def minimal(vecs):
    """The vectors of vecs that no other one is <= entrywise."""
    return {x for x in vecs if not any(y != x and all(map(le, y, x)) for y in vecs)}


def test_clamped_stages_are_the_minimal_clamped_keys_of_an_unclamped_run():
    # with every floor 0, extend clamps nothing and the DP runs unclamped;
    # clamping is monotone and clamping at s then at t >= s is clamping at
    # t, so each clamped stage holds, per bucket, exactly the minimal keys
    # among the clamped keys of the unclamped stage
    rng = random.Random(89)
    stages_checked = merged = 0
    for k in range(150):
        v = 1 + k % 3
        if k % 2:
            rep = long_rep(rng, 30 if v == 1 else 16)
        else:
            rep = vertebrate_representation(random_rep(rng, m_max=10, n_max=24))
        ctx = _context(rep, v)
        floor = ctx.floor
        stages = solver._stages(ctx)
        raw_stages = solver._stages(replace(_context(rep, v), floor=[0] * (rep.m + 1)))
        for s, (stage, raw) in enumerate(zip(stages, raw_stages)):
            assert set(stage) == set(raw)
            for A, bucket in raw.items():
                keys = {clamped(st.p.r, floor[s]) + clamped(st.q.r, floor[s]) for st in bucket.states}
                kept = [st.p.r + st.q.r for st in stage[A].states]
                assert len(kept) == len(set(kept))
                assert set(kept) == minimal(keys)
                merged += len(bucket.states) - len(kept)
            stages_checked += 1
    assert stages_checked > 1500
    assert merged > 20000


def test_long_star_check_matches_mid_relation_on_live_records():
    # _long_star_ok checks only the centers meeting an outside member; on a
    # live segment that is the whole mid_relation(long, long + outside, v)
    rng = random.Random(97)
    checked = rejected = 0
    for k in range(80):
        v = 1 + k % 3
        rep = long_rep(rng, 20)
        ctx = _context(rep, v)
        ivs, crossing = ctx.ivs, ctx.crossing
        build, frontier = segment_builder(ctx), ctx.live_from
        for s in range(1, rep.m + 1):
            for s_prev in range(frontier[s], s):
                seg = build(s_prev, s)
                near = sorted(crossing[s_prev] | crossing[s])
                for _ in range(3):
                    outside = frozenset(i for i in near if rng.random() < 0.5)
                    visible = IntervalFamily(
                        tuple(ivs[i] for i in sorted(outside.union(seg.long.idx)))
                    )
                    want = mid_relation(seg.long.fam, visible, v)
                    assert solver._long_star_ok(ctx, seg, s, outside) == want
                    checked += 1
                    rejected += not want
    assert checked > 10000
    assert rejected > 300


def test_movers_filter_on_hand_built_states():
    # v = 1 profiles at s_prev = 3; the bound (1, 1) needs q.r[1] < 1
    low, mid, high = (MonotonicSeq((3, r1, -1, -1), 3, 1) for r1 in (0, 1, 2))

    def state(p, q):
        return DPState(3, p, q, frozenset())

    bound = ((1, 1),)
    # a dominator that fails the first-side bounds does not hide Y
    X, Y = state(low, mid), state(mid, low)
    assert _movers([X, Y], (), 1) == [X]
    assert _movers([X, Y], bound, 1) == [Y]
    # of two equal p, the first in scan order moves, whatever q is
    A, B = state(low, mid), state(low, high)
    assert _movers([A, B], (), 1) == [A]
    assert _movers([B, A], (), 1) == [B]
    # states with incomparable p all move, in scan order, and a later
    # state that is <= kept ones evicts them
    C, D = state(mid, low), state(high, low)
    E = state(MonotonicSeq((3, 1, 0, -1), 3, 1), low)
    assert _movers([E, D], (), 1) == [E, D]
    assert _movers([E, D, C], (), 1) == [C]


def test_short_hops_advance_every_state_that_passes_the_first_side_bounds(monkeypatch):
    # (2, 4) crosses anchor 3 on the second side of these v = 1 states, so
    # it settles on the first side of the hop into 4 or 5 with the bound
    # (2, 1): q.r[1] < 2
    rep = vertebrate_representation(fam((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4)))
    x = rep.family.intervals.index(Interval(2, 4))
    low, mid, high = (MonotonicSeq((3, r1, -1, -1), 3, 1) for r1 in (0, 1, 2))
    A, B, C = (DPState(3, low, q, frozenset()) for q in (low, mid, high))
    moved = []
    monkeypatch.setattr(solver, "_advance", lambda ctx, st, *rest: moved.append(st))

    def advanced(s):
        ctx = _context(rep, 1)
        assert ctx.crossing[3] == {x}
        seg = segment_builder(ctx)(3, s)
        assert seg.pool == {x}
        moved.clear()
        _cross(ctx, seg, s, {frozenset(): _Bucket(states=[A, B, C])}, {})
        return moved

    # the hop into 4 is shorter than v + 1 and reads q.r[1] into p_new:
    # every state that passes the bound crosses, though A's q is below B's
    assert advanced(4) == [A, B]
    # the hop into 5 reads q only in the bound: of A and B, whose p are
    # equal, the first moves
    assert advanced(5) == [A]


def test_movers_keep_every_stage_key_of_advancing_every_state(monkeypatch):
    # advancing every state of every bucket that passes the first side's
    # lower bounds, as the DP did before the movers filter, gives the same
    # keys in every stage, in scan order
    movers = solver._movers
    skipped = 0

    def counted(states, first_bounds, v):
        nonlocal skipped
        kept = movers(states, first_bounds, v)
        skipped += len(pass_first_bounds(states, first_bounds, v)) - len(kept)
        return kept

    def keys(stages):
        return [[(st.p.r, st.q.r, st.first_crossing) for st in states_of(stage)]
                for stage in stages]

    rng = random.Random(79)
    for n in range(96):
        v = 1 + n % 3 if n < 64 else 4
        if n >= 64:
            rep = long_rep(rng, 30)
        elif n % 2:
            rep = long_rep(rng, 30 if v == 1 else 18)
        else:
            rep = vertebrate_representation(random_rep(rng, m_max=10, n_max=24))
        filtered, unfiltered = [], []
        monkeypatch.setattr(solver, "_movers", counted)
        for _ in walk_stages(_context(rep, v), filtered):
            pass
        monkeypatch.setattr(solver, "_movers", pass_first_bounds)
        for _ in walk_stages(_context(rep, v), unfiltered):
            pass
        assert keys(filtered) == keys(unfiltered)
    # the filter skipped 27,776 passing states on the first 64 instances
    # before the clamp, and 4,149 with it (34,451 on all 96).  Since it
    # runs only on hops of v + 1 or more it skips 1,959 there, and 15,295
    # on all 96: the 32 at v = 4 with long members, where buckets stay
    # large, make up the rest
    assert skipped > 14000


def test_solve_v1_m400_skips_old_pairs(monkeypatch):
    # advancing every live pair made 21,447 _segment and 81,120 _advance
    # calls on this instance, and the DP kept 1,538 states before the clamp
    calls = {"_segment": 0, "_advance": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    S = generate(GeneratorSpec("vertebrate", m=400, density=0.3, max_len=3, seed=1))
    res = solve(vertebrate_representation(S), 1)
    assert res.feasible
    assert sum(res.stage_state_counts) == 619
    assert calls["_segment"] < 10000
    assert calls["_advance"] < 40000


@pytest.mark.parametrize(
    "m, density, seed, v, states, plans, records",
    [
        # building every record and plan afresh at each anchor made 9,342
        # plans and 6,235 records on this instance; before the far-pair
        # skip, the solve built 1,834 plans and 1,196 records, 1,257 and
        # 746 before old hops were decided by their length alone, and
        # 1,213 and 716 before clamped pairs were skipped by their bound
        (400, 0.3, 1, 1, 619, 627, 245),
        # and 1,391 plans and 431 records on this one; 886 and 267 before
        # the far-pair skip, 333 and 103 before the clamped-pair skip
        (40, 2.0, 6, 2, 232, 206, 62),
    ],
    ids=["v1-m400-sparse", "v2-m40-dense"],
)
def test_solve_plans_and_records_built(monkeypatch, m, density, seed, v, states, plans, records):
    # a plan is built once per record and bucket, and a record once per
    # arrival of a member it reads; records counts the distinct records
    # _cross took states across
    make_plan, cross = solver._plan, solver._cross
    built, crossed = [], {}

    def counted(*args):
        built.append(None)
        return make_plan(*args)

    def kept(ctx, seg, *rest):
        crossed[id(seg)] = seg
        return cross(ctx, seg, *rest)

    monkeypatch.setattr(solver, "_plan", counted)
    monkeypatch.setattr(solver, "_cross", kept)
    S = generate(GeneratorSpec("vertebrate", m=m, density=density, max_len=3, seed=seed))
    res = solve(vertebrate_representation(S), v)
    assert res.feasible
    assert sum(res.stage_state_counts) == states
    assert len(built) == plans
    assert len(crossed) == records


def test_every_record_stages_builds_is_live(monkeypatch):
    # deciding liveness inside _segment returned None for 260 of the
    # records asked for on the m = 400 instance; the frontier asks for none
    # of them.  The clamped-pair skip left 966 records asked for there, and
    # 1,467 on the m = 440 one
    segment = solver._segment
    records = []

    def kept(*args, **kwargs):
        records.append(segment(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(solver, "_segment", kept)
    for m in (400, 440):
        S = generate(GeneratorSpec("vertebrate", m=m, density=0.3, max_len=3, seed=1))
        assert solve(vertebrate_representation(S), 1).feasible
    assert len(records) > 1000
    assert all(seg is not None for seg in records)
    families = {seg.long.idx: seg.long.fam for seg in records}
    assert all(mid_relation(fam, fam, 1) for fam in families.values())


def test_solve_mid_relation_calls_on_a_dense_v2_instance(monkeypatch):
    # every mid_relation call of the solve: one per check of _live_from
    # where long members arrive, and one per miss of a record's star-check
    # memo that meets a long member (see solver._star_free), 81 in all here.
    # Rechecking each grown record's long family whenever long members
    # arrived once made 745
    check = intervals.mid_relation
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return check(*args)

    monkeypatch.setattr(solver, "mid_relation", counted)
    S = generate(GeneratorSpec("vertebrate", m=40, density=2.0, max_len=3, seed=6))
    res = solve(vertebrate_representation(S), 2)
    assert res.feasible
    assert 0 < calls < 745


def test_live_from_work_grows_linearly_in_m(monkeypatch):
    # _live_from hands mid_relation only the long members within L of the
    # arriving ones, so the members it hands over grow about 2x per
    # doubling of m (1,456, 2,845 and 5,569 here).  Checking each arrival
    # against every long member inside (f, s) handed over 51,674, 201,900
    # and 770,606, 3.9x per doubling
    check = intervals.mid_relation
    handed = 0

    def counted(R, S, v):
        nonlocal handed
        handed += len(R) + len(S)
        return check(R, S, v)

    monkeypatch.setattr(solver, "mid_relation", counted)
    work = []
    for m in (640, 1280, 2560):
        handed = 0
        _context(gen_rep(m, 2.0, 3, 6), 2)
        work.append(handed)
    assert work[0] > 1000
    assert all(later <= 2.2 * earlier for earlier, later in zip(work, work[1:])), work


def test_solve_advance_calls_on_a_dense_v2_instance(monkeypatch):
    # advancing every state of every bucket made 11,137 _advance calls on
    # this instance, and the DP kept 1,126 states before the clamp
    advance = solver._advance
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return advance(*args)

    monkeypatch.setattr(solver, "_advance", counted)
    S = generate(GeneratorSpec("vertebrate", m=40, density=2.0, max_len=3, seed=6))
    res = solve(vertebrate_representation(S), 2)
    assert res.feasible
    assert sum(res.stage_state_counts) == 232
    assert 0 < calls < 4000


def test_solve_movers_calls_on_a_dense_v2_instance(monkeypatch):
    # filtering each bucket afresh at every visit made 1,391 _movers calls
    # on this instance, one per bucket visit, and the DP kept 1,126 states
    # before the clamp
    movers = solver._movers
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return movers(*args)

    monkeypatch.setattr(solver, "_movers", counted)
    S = generate(GeneratorSpec("vertebrate", m=40, density=2.0, max_len=3, seed=6))
    res = solve(vertebrate_representation(S), 2)
    assert res.feasible
    assert sum(res.stage_state_counts) == 232
    assert 0 < calls < 700


def test_solve_fd_head_calls_below_the_per_segment_count(monkeypatch):
    # on a long sparse v = 1 backbone, computing every F+D head afresh in
    # each segment record made 673 fd_head calls on this instance, and the
    # DP kept 147 states before the clamp
    head = encoding.fd_head
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return head(*args)

    S = generate(GeneratorSpec("vertebrate", m=40, density=0.3, max_len=3, seed=1))
    rep = vertebrate_representation(S)
    for module in (encoding, solver):
        monkeypatch.setattr(module, "fd_head", counted)
    res = solve(rep, 1)
    assert res.feasible
    assert sum(res.stage_state_counts) == 64
    assert 0 < calls < 673


def test_solve_computes_each_fd_head_once(monkeypatch):
    # every record with the same long members reads one head memo, so a
    # solve calls fd_head at most once per distinct (F, long members), that
    # is per (settled_second, long_idx).  With a head memo per record, each
    # of these solves repeated some (F, D): on the m = 20, v = 2 one 409
    # calls were made for 344 distinct inputs.  The far-pair skip leaves
    # 106 of those 344 inputs read, and the clamped-pair skip 54
    head = encoding.fd_head
    calls = []

    def counted(F, D, *rest):
        calls.append((F.intervals, D.intervals))
        return head(F, D, *rest)

    monkeypatch.setattr(solver, "fd_head", counted)
    rng = random.Random(89)
    total = 0
    # the clamped-pair skip left 1,203 calls on the first 40 solves
    for k in range(80):
        v = 1 + k % 3
        S = generate(GeneratorSpec(
            "vertebrate", m=rng.randint(10, 40), density=rng.choice([0.3, 1.0, 2.0]),
            max_len=rng.randint(2, 5), seed=rng.randint(0, 10 ** 6),
        ))
        solve(vertebrate_representation(S), v)
        assert len(calls) == len(set(calls))
        total += len(calls)
        calls.clear()
    S = generate(GeneratorSpec("vertebrate", m=20, density=2.0, max_len=3, seed=3))
    solve(vertebrate_representation(S), 2)
    assert len(calls) == len(set(calls)) == 54
    assert total > 2000


def test_verify_partition_clique_one_side():
    clique = fam((0, 5), (1, 5), (2, 5), (3, 5))
    all_first = PartitionAssignment((Side.FIRST,) * 4)
    assert verify_partition(clique, all_first, 1)


def test_verify_partition_star_one_side():
    star = fam((0, 3), (0, 1), (1, 2), (2, 3))
    all_first = PartitionAssignment((Side.FIRST,) * 4)
    assert not verify_partition(star, all_first, 2)
    assert verify_partition(star, all_first, 3)


def test_verify_partition_path3_split():
    path = fam((0, 2), (1, 3), (2, 4))
    split = PartitionAssignment((Side.FIRST, Side.SECOND, Side.FIRST))
    assert verify_partition(path, split, 1)


def test_verify_partition_matches_the_oracle_claw_of_each_part():
    rng = random.Random(83)
    answers = set()
    for _ in range(300):
        v = rng.randint(1, 3)
        S = fam(*((lo, lo + rng.randint(1, 5)) for lo in
                  (rng.randint(0, 12) for _ in range(rng.randint(1, 14)))))
        split = PartitionAssignment(tuple(rng.choice(list(Side)) for _ in range(len(S))))
        want = all(
            oracle_claw(S.subfamily(split.part(side))) <= v for side in (Side.FIRST, Side.SECOND)
        )
        assert verify_partition(S, split, v) == want
        answers.add(want)
    assert answers == {True, False}


def test_verify_partition_checks_length():
    with pytest.raises(ValueError):
        verify_partition(fam((0, 2)), PartitionAssignment(()), 1)


def test_solve_trivial_cases():
    assert solve(vertebrate_representation(fam()), 1).feasible
    assert solve(vertebrate_representation(fam((0, 5))), 1).feasible


def test_solve_path3():
    res = solve(PATH3_REP, 1)
    assert res.feasible
    assert verify_partition(PATH3_REP.source, res.assignment, 1)


def test_solve_dense_instance():
    rep = vertebrate_representation(DENSE)
    assert not solve(rep, 1).feasible
    res = solve(rep, 2)
    assert res.feasible
    assert verify_partition(DENSE, res.assignment, 2)


def test_solve_rejects_bad_bound():
    with pytest.raises(ValueError):
        solve(PATH3_REP, 0)


def test_solve_deterministic():
    rng = random.Random(30)
    for _ in range(20):
        S = random_rep(rng)
        rep = vertebrate_representation(S)
        a = solve(rep, 2)
        b = solve(rep, 2)
        assert a.feasible == b.feasible
        if a.feasible:
            assert a.assignment == b.assignment
        assert a.stage_state_counts == b.stage_state_counts


def test_solve_witness_swap_stays_good():
    rng = random.Random(31)
    for _ in range(30):
        S = random_rep(rng)
        rep = vertebrate_representation(S)
        res = solve(rep, 1)
        if res.feasible:
            assert verify_partition(S, res.assignment.swapped(), 1)


def test_solve_witness_honours_every_commitment_on_the_accepting_chain(monkeypatch):
    # each state on the chain committed its crossing members to a side, and
    # each hop put the members inside it on a side by their length; the
    # witness must keep every one of those choices.  With the clamp, a key
    # at s is often reached first from the farthest live predecessor, so
    # the first 200 chains make about one hop each; 150 dense v = 1
    # backbones, whose segments die soon, add chains of many short hops.
    stages, solved = solver._stages, []

    def kept_stages(ctx):
        solved.append((ctx, stages(ctx)))
        return solved[-1][1]

    monkeypatch.setattr(solver, "_stages", kept_stages)
    rng = random.Random(79)
    hops = 0
    for k in range(350):
        if k < 200:
            v, m_max, densities, max_len = rng.randint(1, 3), 30, [0.3, 0.6, 1.0], 6
        else:
            v, m_max, densities, max_len = 1, 60, [1.5, 2.0], 3
        spec = GeneratorSpec(
            kind="vertebrate", m=rng.randint(6, m_max),
            density=rng.choice(densities), max_len=rng.randint(2, max_len),
            seed=rng.randint(0, 10 ** 6),
        )
        rep = vertebrate_representation(generate(spec))
        res = solve(rep, v)
        if not res.feasible:
            continue
        sides = res.rep_assignment.sides
        crossing = crossings(rep)
        ctx, got = solved[-1]
        st, label = first_state(got[-1]), Side.FIRST
        while st.prev is not None:
            prev, other = st.prev, label.other()
            assert all(sides[i] == label for i in st.first_crossing)
            assert all(sides[i] == other for i in second_crossing(crossing, st))
            for i, iv in enumerate(rep.family.intervals):
                if iv.lo >= prev.s and iv.hi <= st.s:
                    assert sides[i] == (label if iv.length <= ctx.v else other)
            hops += 1
            st, label = prev, other
    assert hops > 600


def test_solve_matches_oracle_small():
    rng = random.Random(32)
    for _ in range(40):
        S = random_rep(rng)
        v = rng.choice([1, 2])
        rep = vertebrate_representation(S)
        got = solve(rep, v)
        want = oracle_partition(S, v)
        assert got.feasible == want.decision
        if got.feasible:
            assert verify_partition(S, got.assignment, v)


def test_solve_handles_duplicates():
    S = fam((0, 2), (0, 2), (1, 3), (2, 4), (2, 4))
    rep = vertebrate_representation(S)
    res = solve(rep, 1)
    want = oracle_partition(S, 1)
    assert res.feasible == want.decision
    if res.feasible:
        assert len(res.assignment) == len(S)
        assert verify_partition(S, res.assignment, 1)


def test_solve_v3_m25_is_fast():
    # the unpruned DP holds 202,144 states in one stage here and takes minutes
    S = generate(GeneratorSpec("vertebrate", m=25, density=2.0, max_len=3, seed=6))
    start = time.perf_counter()
    res = solve(vertebrate_representation(S), 3)
    assert time.perf_counter() - start < 10.0
    assert res.feasible
    assert verify_partition(S, res.assignment, 3)


def test_solve_v1_m400_sparse_is_fast():
    # 80,200 segment pairs; the far ones are old and mostly skipped (see
    # test_solve_v1_m400_skips_old_pairs), and the rest grow one anchor at
    # a time
    S = generate(GeneratorSpec("vertebrate", m=400, density=0.3, max_len=3, seed=1))
    start = time.perf_counter()
    res = solve(vertebrate_representation(S), 1)
    assert time.perf_counter() - start < 10.0
    assert res.feasible
    assert verify_partition(S, res.assignment, 1)


def test_solve_at_a_huge_v_builds_no_cap_of_2v2_bits():
    # the stage cap (s + 2)^(2(v + 1)) * 2^(2v^2 + v) built at every stage
    # made a traced peak of about 206 MB here.  solve runs the DP at the
    # longest member, 2, so the DP at v = 16000 is run directly
    tracemalloc.start()
    try:
        stages = solver._stages(_context(PATH3_REP, 16000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stages[-1]
    assert peak < 10 * 2 ** 20


def test_solve_above_the_longest_member_runs_the_dp_at_its_length():
    # no member of length l meets more than l disjoint ones, so every v at
    # or above the longest member L answers "yes", and solve runs the DP at
    # L.  At v = 10^7 the DP at v held v + 3 entries per profile
    tracemalloc.start()
    try:
        res = solve(PATH3_REP, 10 ** 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert verify_partition(PATH3_REP.source, res.assignment, 10 ** 7)
    rng = random.Random(37)
    for _ in range(40):
        S = random_rep(rng)
        rep = vertebrate_representation(S)
        longest = max(iv.length for iv in rep.family)
        at_longest = solve(rep, longest)
        assert at_longest.feasible and oracle_partition(S, longest).decision
        for v in (longest + 1, longest + 7):
            res = solve(rep, v)
            assert res.rep_assignment == at_longest.rep_assignment
            assert res.stage_state_counts == at_longest.stage_state_counts
            assert verify_partition(S, res.assignment, v)


def test_solve_builds_its_tables_once(monkeypatch):
    # the witness walk reads the arriving lists of the solve's context; it
    # used to build them a second time
    rep = vertebrate_representation(
        generate(GeneratorSpec("vertebrate", m=40, density=2.0, max_len=3, seed=6))
    )
    calls = {"_arriving": 0, "compute_groups": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(solver, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, name, counted)
    assert solve(rep, 2).feasible
    assert calls == {"_arriving": 1, "compute_groups": 1}


def test_state_counts_within_cap():
    # every kept profile entry lies in [floor(s), s - 1] or is -1, at most
    # L values with L the longest member, so no stage reaches the cap
    # (L + 2)^(2(v + 1)) * 2^(2v^2 + v) that _stages checks, whatever s is
    rng = random.Random(33)
    stages_checked = 0
    for k in range(60):
        v = 1 + k % 3
        rep = long_rep(rng, 30 if v == 1 else 20)
        ctx = _context(rep, v)
        floor = ctx.floor
        longest = max(iv.length for iv in rep.family)
        cap = (longest + 2) ** (2 * (v + 1)) * 2 ** (2 * v * v + v)
        for s, stage in enumerate(solver._stages(ctx)):
            assert len(states_of(stage)) < cap
            for st in states_of(stage):
                for entry in st.p.r[1:] + st.q.r[1:]:
                    assert entry == -1 or floor[s] <= entry < s
            stages_checked += 1
    assert stages_checked > 1000
