"""Claw-bounded 2-partition of a vertebrate representation, with witness.

The decision runs as a forward dynamic program over backbone anchors
0 <= s <= m.  A state at anchor s describes everything later segments need
to know about a feasible split of the members inside (0, s): the two profiles
(MonotonicSeq) of its parts, plus which side each member crossing s has been
committed to.  The part holding the unit (s - 1, s) is always stored first;
because consecutive unit runs alternate sides, a transition reads its
predecessor with the coordinates swapped.

A transition from s_prev to s commits the segment members: the short ones
(length <= v, the backbone run included) join the first part, the long ones
join the second part, and predecessor-crossing members that stop before s are
settled on the side they were committed to.  The checks are exactly:

  * the candidate sides of the s-crossing members agree with the predecessor
    on members crossing both anchors,
  * the long members cannot center an induced star with v + 1 leaves among
    the members visible to the second side (a short member has length at
    most v and so meets at most v disjoint members; see _advance),
  * members settled this hop obey the split star count: leaves left of s_prev
    are counted through the predecessor profile, leaves right of it directly
    (on the first side their count is b - s_prev for every candidate; see
    _advance),

after which the profiles advance by extend.  The transition is written once,
in _advance, which takes one predecessor state across a segment and adds its
successors to the stage at s.  What every hop of a solve reads is built once
per solve, by _context, into one _Solve: the members, v, their groups, the
members crossing and arriving at each anchor, the floors, the long
members by lo, live_from, the profile intern table, and the side
assignments of the anchor being built.
What a hop reads of its segment, beside s_prev and s, is its long members
and pool, the members of crossing[s_prev] that end by s and so settle; the
rest of crossing[s_prev], shared, crosses s too.  _cross reads pool from
the context's crossings, and _stages carries, for each s_prev, the _Long
of the long members inside (s_prev, s) from anchor to anchor, replacing it
only when a long member with lo >= s_prev arrives (see _segment).  Each
memo belongs to what it reads: those that read the long members, alone or
with the members that settle, live in one _Long per long family, which
every s_prev with that family shares, and each bucket keeps the plan of
its pool, which reads no long member, until a member of crossing[s_prev]
ends (see _Plan and _Bucket).

A segment is dead when its long members center an overfull star among
themselves, and no state crosses it.  Deadness is decided once per solve:
_live_from gives, for each s, the least s_prev whose segment is live, and
_stages drops every smaller s_prev for good.  Every decision about stars
centered on long members is made in one place, _star_free: does a long
member inside (lo_min, s) that meets a member of a set near center an
overfull star among near and the long members inside (lo_min, s)?
_live_from asks it with the long members arriving at s, and the star
check of a hop (see _long_star_ok) with the crossing members visible to
the second side.  A leaf meets its center and no member is longer than
L, so it reads only the long members whose lo lies within L of the
members it looks at, by bisect in the solve's one table of long members
by lo, which the bound of a clamped hop reads too (see _far_vector).  So
the deadness sweep reads, per arriving long member, the long members near
it, not every one since the frontier.

_cross takes each predecessor bucket across a hop with the bucket's plan
(see _Plan): the first side's settled members as lower bounds, the second
side's settled members, sorted and as F, and the key of the candidate side
assignments.  A predecessor's other side is crossing[s_prev] minus its
first_crossing, so a plan is a pure function of s_prev, first_crossing
and pool, and every state of the bucket would compute the same values.
The bucket fixes the first two and keeps the plan of one pool, so a plan
is built once per bucket until a member of crossing[s_prev] ends, across
however many anchors and long arrivals; the candidate side assignments
(A, B) come from the context's memo for the anchor s, under a key the
plan holds (see _side_assignments).
What also reads the long members is memoised in their _Long, keyed by what
it reads and by no s_prev or bucket: the second side's lower bounds and
F's head per set of second-side settled members, and the second side's
counts per such set and set of new second-side members B - shared.  The
counts are filled when a successor first gets past its bucket's covers
with them, so none is computed that no state asked for (all of an
entry's counts come at once, where a state stops at the first failing
one).  _advance keeps only the per-state work:
the second side's lower bounds, one extend, then per candidate the
bucket's covers, the inequalities alpha_seq(q, a) + count <= v and the
star check, with the candidates in mask order.  Profiles are interned per
solve (see extend), so each distinct profile is one MonotonicSeq,
validated once.

A hop shorter than v + 1 advances every state that passes the first
side's lower bounds.  A longer one builds its first new profile as the
ramp s - u and reads the predecessor's q only in those bounds, so _cross
advances only the bucket's movers (see _movers): the passing states whose
p no sibling's is entrywise below.  The bucket keeps them beside its plan,
so one list serves every farther anchor once every member crossing s_prev
has ended.  The stage keeps the same keys as if every state had crossed.

Most hops no member spans cost next to nothing.  A hop (s_prev, s] is
clamped when s_prev <= floor(s) (see below), that is when no member crosses
both anchors: then every bucket reads one side list, and neither new
profile reads the predecessor state.  So every successor of a clamped hop
is (vector, A) with the vector at or above one bound B(s_prev, s) read
from s and a window of long members, those with lo >= max(s_prev, s - 2L
+ 2) that end by s, with L the longest member (see _far_vector).  Once
every A of that list has a bucket that covers B, the pair adds nothing,
and neither does any other clamped pair whose window starts at the same
long member: _stages builds B once per window start, and skips that whole
run of s_prev before it brings their long members to s.  A hop is far
when it is at least max(2L - 2, v + 1) long: it is clamped, its window
starts at s - 2L + 2 whatever s_prev is, and every successor has the
vector B = V(s), so the far pairs are one such run.  A hop is old when it
is at least max(3L - 3, v + 1) long: then the checks also split into a
part read from the predecessor alone and a part read from s alone (see
_far_vector), so
every state at an old s_prev adds either nothing or one common set of
successors, and once the stage holds a state, _stages skips every old
pair, also where candidates that fail the star check keep B from being
covered.  Either way the stage, its keys and every back-pointer are what
they would have been.

No check reads a profile entry below floor(s), the least lo among the
members crossing s (s when none does): profiles are read only as
alpha_seq(r, a), with a the lo of a member crossing the anchor the profile
is read at, and floor never decreases with s.  So extend sets every such
entry to -1 before it interns the profile, which merges states that differ
only there and changes no decision (the proof is in _advance).  Every kept
entry then lies in [floor(s), s - 1] or is -1, at most L values with L the
longest member.

Members are grouped by chains of significant overlap (intersection length
>= 2v + 1); a feasible split never separates a group, so crossing members are
assigned group-wise, which keeps every stage's state count within
(L + 2)^(2(v+1)) * 2^(2v^2+v), whatever s and m are.

A stage keeps only non-dominated states.  States with the same
first_crossing form a bucket; in a bucket, state X dominates state Y when
X.p.r <= Y.p.r and X.q.r <= Y.q.r entrywise (equal keys included), and a
stage keeps one antichain per bucket (see _Bucket).  This drops no
feasible split:

  * alpha_seq(r, i) is the largest u with i <= r_u, so it is monotone in the
    profile entries: smaller entries never give a larger count.
  * extend builds each new entry from the ramp s - u, from fd_head (which
    depends on the segment and the settled set only), or from a shifted
    predecessor entry, so entrywise <= predecessors give entrywise <=
    successors.  The clamp to floor(s) keeps that order: it maps an entry
    x to x or to -1 by whether x >= floor(s), which is monotone in x.
  * Every profile check, the two lower bounds (in _cross and _advance)
    and the split star counts in _advance, has the form
    alpha_seq(profile, a) + count <= v, where count does not depend on the
    profiles.
  * The forced sides, the star check, the settled sets and the candidate
    masks depend only on first_crossing and the other side, crossing[s]
    minus it, which are equal within a bucket.

So a dominating state passes every check that the dominated one passes, at
every later stage, and its successors dominate the dominated one's.  By
induction a stage reaches m whenever the unpruned DP does, and since only
real states are kept, every kept state still describes a feasible split of
the members inside (0, s).

The accepting condition is reaching any state at s = m.  The witness is read
back from the first accepting state in scan order through back-pointers
and committed sides alone (see _witness), expanded to the input vertices
through the representation's duplicity map, and re-verified before being
returned.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter, le
from typing import Collection, Optional, Sequence

from clawsplit.encoding import (
    MonotonicSeq,
    _check_segment_members,
    _profile,
    alpha_seq,
    extend,
    fd_head,
    zero_seq,
)
from clawsplit.intervals import (
    Interval,
    IntervalFamily,
    PartitionAssignment,
    Side,
    _max_disjoint_meeting,
    claw_number,
    mid_relation,
)
from clawsplit.recognition import VertebrateRep


@dataclass(frozen=True)
class GroupingInfo:
    """Connected components of the significant-overlap relation.

    Two members are linked when their intersection has length >= 2v + 1.
    group_of maps a member index to its group id; groups lists each group's
    member indices, ordered by first member.
    """

    v: int
    group_of: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DPState:
    """One reachable profile-and-commitment combination at anchor s.

    first_crossing holds the s-crossing member indices committed to the
    first side, the part that holds the unit (s - 1, s) when s > 0; the
    other s-crossing members are committed to the second side.  prev is the
    state the hop that built this one left from, for witness reconstruction
    (see _witness); it does not affect identity.
    """

    s: int
    p: MonotonicSeq
    q: MonotonicSeq
    first_crossing: frozenset[int]
    prev: Optional["DPState"] = field(default=None, compare=False, repr=False)


@dataclass
class SolveResult:
    """Decision plus witness and solver telemetry.

    assignment is over the input family's vertices (duplicates expanded);
    rep_assignment is over the representation's members.  Both are None for
    infeasible instances.  stage_state_counts[s] is the number of
    non-dominated states the DP kept at anchor s.
    """

    feasible: bool
    assignment: PartitionAssignment | None
    rep_assignment: PartitionAssignment | None
    stage_state_counts: tuple[int, ...]
    elapsed_s: float


def compute_groups(S: IntervalFamily, v: int) -> GroupingInfo:
    """Group a duplicate-free family by chains of significant overlap.

    One sweep over the members sorted by (lo, hi) links each member to the
    earlier one with the largest hi, reach, when their overlap is at least
    2v + 1.  That member overlaps it the most of all earlier ones, so if it
    falls short, so do they all.  Every earlier member that overlaps it by
    2v + 1 or more contains (lo, lo + 2v + 1), and so overlaps each other
    such member by as much: they are already pairwise linked, and one link
    joins the member to all of them.  So each member links only to an
    earlier one, whose group is final by then, and takes its root.

    Args:
        S: duplicate-free interval family.
        v: claw bound, v >= 1.

    Returns:
        GroupingInfo for the relation "intersection length >= 2v + 1".

    Raises:
        AssertionError: if some integer point meets members of more than
            2v^2 + v distinct groups, which is impossible for duplicate-free
            integer families and would signal a grouping bug.
    """
    if v < 1:
        raise ValueError(f"claw bound v={v}: need v >= 1")
    ivs = S.intervals
    n = len(ivs)
    if len(set(zip(S.los, S.his))) != n:
        raise ValueError("grouping needs a duplicate-free family (dedup first)")
    root = list(range(n))
    threshold = 2 * v + 1
    reach = None
    for i in sorted(range(n), key=lambda k: (ivs[k].lo, ivs[k].hi)):
        if reach is not None and min(ivs[reach].hi, ivs[i].hi) - ivs[i].lo >= threshold:
            root[i] = root[reach]
        if reach is None or ivs[i].hi > ivs[reach].hi:
            reach = i

    root_to_gid: dict[int, int] = {}
    group_of: list[int] = []
    members: list[list[int]] = []
    for i in range(n):
        gid = root_to_gid.get(root[i])
        if gid is None:
            gid = len(members)
            root_to_gid[root[i]] = gid
            members.append([])
        group_of.append(gid)
        members[gid].append(i)

    _check_group_bound(ivs, group_of, v)
    return GroupingInfo(v, tuple(group_of), tuple(tuple(g) for g in members))


def _check_group_bound(ivs: Sequence[Interval], group_of: Sequence[int], v: int) -> None:
    """Raise AssertionError if some integer point meets members of more than
    2v^2 + v distinct groups.

    A member contains the integer point x iff lo + 1 <= x < hi, so the
    members at x change only at those events; after the events at each
    coordinate, the count of groups with a member present is checked.
    """
    bound = 2 * v * v + v
    events = sorted(
        [(iv.lo + 1, 1, group_of[i]) for i, iv in enumerate(ivs)]
        + [(iv.hi, -1, group_of[i]) for i, iv in enumerate(ivs)]
    )
    present = [0] * (max(group_of, default=-1) + 1)
    distinct = 0
    for k, (x, step, gid) in enumerate(events):
        was_present = present[gid] > 0
        present[gid] += step
        distinct += (present[gid] > 0) - was_present
        if distinct > bound and (k + 1 == len(events) or events[k + 1][0] != x):
            raise AssertionError(
                f"point {x} meets {distinct} overlap groups, bound is {bound}"
            )


def crossing_family(rep: VertebrateRep, s: int) -> tuple[int, ...]:
    """Indices of the representation members properly containing the point s."""
    if not 0 <= s <= rep.m:
        raise ValueError(f"anchor {s} outside [0, {rep.m}]")
    return tuple(i for i, iv in enumerate(rep.family) if iv.lo < s < iv.hi)


def verify_partition(J: IntervalFamily, assignment: PartitionAssignment, v: int) -> bool:
    """True iff both parts of the assignment have claw number at most v.

    claw_number takes each part as it is, duplicates included, and counts
    each copy as its own vertex.  Duplicate intervals are adjacent twins:
    they can lift a part's claw number only from 0 to 1, so for v >= 1
    whether a part passes is the same as for its distinct members.
    """
    if len(assignment) != len(J):
        raise ValueError(
            f"assignment covers {len(assignment)} vertices, family has {len(J)}"
        )
    for side in (Side.FIRST, Side.SECOND):
        if claw_number(J.subfamily(assignment.part(side))) > v:
            return False
    return True


@dataclass(frozen=True)
class _Solve:
    """What every hop of one solve reads, built once by _context.

    ivs are the representation's members, longest the length of the
    longest of them (0 when there are none), v the claw bound the DP runs
    at and m the last anchor.  group_of maps each member to its overlap group
    (see compute_groups).  arriving[t] lists the members with hi = t (see
    _arriving); crossing[t] is the set of members crossing the anchor t,
    and floor[t] the least lo among them, or t when none does (see
    _crossings): extend sets every profile entry below floor(s) to -1 (see
    _advance).  long_by_lo lists the long members, those longer than v, by
    lo (ties by index), and long_los their lo values in that order: every
    star check over long members, and the bound of a clamped hop, read them
    from windows of lo found by bisect (see _star_free and _far_vector).
    live_from[s] is the least s_prev whose segment is live (see
    _live_from).

    profiles interns every profile the solve builds, by entries (see
    extend).  sides memoises the side assignments of the anchor s being
    built, as (first side, second side) pairs of the members crossing s,
    keyed by a plan's side_key, (shared, the shared members on the first
    side); _stages clears it at each s.  With group_of fixed per solve and
    crossing[s] per anchor, the forced sides, the free groups and both sides
    in mask order are a pure function of that key at s, whatever the
    hop's s_prev (see _side_assignments).  longs holds the _Long of each
    long family that _segment took at the anchor being built, by its
    indices, and the empty family's for the whole solve, so that every
    s_prev with that family shares its memos (see _Long): _stages clears
    the others at each s, so that a family lives only as long as the
    s_prev that carry it.  All three memos start empty, in a copy made by
    dataclasses.replace too.
    """

    ivs: Sequence[Interval]
    longest: int
    v: int
    m: int
    group_of: Sequence[int]
    arriving: Sequence[Sequence[int]]
    crossing: Sequence[frozenset[int]]
    floor: Sequence[int]
    long_by_lo: Sequence[int]
    long_los: Sequence[int]
    live_from: Sequence[int]
    profiles: dict[tuple[int, ...], MonotonicSeq] = field(default_factory=dict, init=False)
    sides: dict[
        tuple[frozenset[int], frozenset[int]], list[tuple[frozenset[int], frozenset[int]]]
    ] = field(default_factory=dict, init=False)
    longs: dict[tuple[int, ...], _Long] = field(default_factory=dict, init=False)


@dataclass(frozen=True)
class _Long:
    """The long members of a segment, and the memos that read them alone.

    idx are the indices of the members inside (s_prev, s) longer than v,
    in increasing order, and fam the same members as a family.  No hop
    reads the short ones: they enter no profile, count or check (see
    _advance), and _witness finds them by hi.  _stages carries one _Long
    per s_prev from anchor to anchor, and _segment replaces it only when a
    long member arrives; every s_prev with the same long members at the
    anchor being built holds the same object, taken from the context's
    longs (see _Solve).  Each memo value is a pure function of the long
    members, v and its key, so one object serves every hop with these long
    members, at every anchor and whatever its s_prev:

      * settled, per settled_second (the sorted indices of the members
        settled on the second side, which fix F; see _Plan): the pair
        (second_bounds, head).  second_bounds holds (a, floor) per member
        (a, b), with floor the number of disjoint long members meeting
        (s_prev, b), the candidate-independent part of its count on the
        second side; head is fd_head(F, fam, s_prev, s, v) (see _settled).
      * counts, per (settled_second, B - shared), with B a candidate second
        side: the number of disjoint new second-side members, the long ones
        and B - shared, meeting (s_prev, b) for each settled_second member
        (a, b) (see _second_counts).
      * long_star_cache, per set of crossing members visible to the second
        side: whether the long members center no overfull star among
        themselves and those (see _long_star_ok).

    The memos read neither s nor s_prev.  A hop (s_prev, s] reads an entry
    under settled_second only when those members are in its pool, so they
    cross s_prev and end by s; every long member lies inside (s_prev, s);
    and each member of B - shared crosses s but not s_prev, so it has lo >=
    s_prev:

      * A member with lo >= s_prev and hi > lo meets (s_prev, b), for b >
        s_prev, iff lo < b.  So the floors of second_bounds read b and the
        long members alone, and the counts read b, the long members and
        B - shared alone.
      * Every member of F + D, with D the long members, meets (s_prev, s):
        w and w_full are the disjoint counts of D and of F + D, which read
        the member sets alone.  The rest of fd_head reads no s (see
        fd_head), so the head reads F and D alone.
      * The star check reads the long members inside (s_prev, s), which
        are idx at every hop that holds this object, outside and v (see
        _long_star_ok).
    """

    idx: tuple[int, ...]
    fam: IntervalFamily
    settled: dict[
        tuple[int, ...], tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], int, int]]
    ] = field(default_factory=dict)
    counts: dict[tuple[tuple[int, ...], frozenset[int]], tuple[int, ...]] = field(
        default_factory=dict
    )
    long_star_cache: dict[frozenset[int], bool] = field(default_factory=dict)


@dataclass(frozen=True)
class _Plan:
    """What a hop out of s_prev does for one predecessor bucket, less what
    reads the long members (see _Long).

    A plan is built for one pool, the members of crossing[s_prev] that end
    by s and so settle at this hop; shared, the rest of crossing[s_prev],
    cross s too.  A state's second side is crossing[s_prev] minus its
    first_crossing, so the bucket fixes both committed sides.
    settled_second are the members settling at this hop on the (swapped)
    second side, sorted, and F the same members as a family.  first_bounds
    holds (a, b - s_prev) per member settling on the first side, a lower
    bound whose floor b - s_prev is the whole count there (see _movers).
    side_key, (shared, shared - first_crossing), is the key under which
    _cross reads the candidate side assignments (A, B) from the context's
    sides (see _Solve), the one part of a bucket's hop that depends on s.
    All of them read only s_prev, first_crossing and pool, and the bucket
    fixes the first two, so a bucket keeps its plan while pool stays (see
    _Bucket).
    """

    s_prev: int
    settled_second: tuple[int, ...]
    first_bounds: tuple[tuple[int, int], ...]
    F: IntervalFamily
    side_key: tuple[frozenset[int], frozenset[int]]


_NO_MEMBERS = IntervalFamily(())


def _crossings(
    ivs: Sequence[Interval], arriving: Sequence[Sequence[int]], m: int
) -> tuple[list[frozenset[int]], list[int]]:
    """(crossing, floor): crossing[s] is the set of members crossing the
    anchor s, as crossing_family gives it, and floor[s] the least lo among
    them, or s when none does; arriving[t] lists the members with hi = t.

    One sweep over the anchors: the members with lo < s < hi are those that
    started at an anchor before s and have not arrived by s.  floor never
    decreases: a member crossing s' > s with lo < s crosses s too.
    """
    starting: list[list[int]] = [[] for _ in range(m + 1)]
    for i, iv in enumerate(ivs):
        starting[iv.lo].append(i)
    crossing, floor = [], []
    active: set[int] = set()
    for s in range(m + 1):
        active.difference_update(arriving[s])
        crossing.append(frozenset(active))
        floor.append(min((ivs[i].lo for i in active), default=s))
        active.update(starting[s])
    return crossing, floor


def _segment(ctx: _Solve, s_prev: int, after: int, s: int, long: _Long) -> _Long:
    """The _Long of the live segment (s_prev, s] in the solve ctx, brought
    from long, that of (s_prev, after].

    The long members that arrived since after are those with hi in (after,
    s], lo >= s_prev and length > v.  With none, long serves s too and is
    returned.  Otherwise they are merged in index order, so that a family
    does not depend on how it was brought, and its _Long is taken from
    ctx.longs, or made there.  Each arriving long member is validated as a
    long member of the segment it joins when it is taken (see extend), and
    stays valid for every later s.
    """
    ivs, v = ctx.ivs, ctx.v
    new = [
        i for t in range(after + 1, s + 1) for i in ctx.arriving[t]
        if ivs[i].lo >= s_prev and ivs[i].length > v
    ]
    if not new:
        return long
    _check_segment_members((), (ivs[i] for i in new), s_prev, s, v)
    idx = tuple(sorted(long.idx + tuple(new)))
    if idx not in ctx.longs:
        ctx.longs[idx] = _Long(idx, IntervalFamily(tuple(ivs[i] for i in idx)))
    return ctx.longs[idx]


def _star_free(ctx: _Solve, lo_min: int, s: int, near: Collection[int]) -> bool:
    """False iff a long member inside (lo_min, s) that meets a member of
    near centers v + 1 disjoint leaves among near and the long members
    inside (lo_min, s); near holds member indices.

    The long members inside (lo_min, s) are those of ctx.long_by_lo with
    lo >= lo_min and hi <= s.  No member is longer than L = ctx.longest, so
    one that meets an interval (a, b) has a < hi <= lo + L and lo < b: its
    lo lies in [a - L + 1, b - 1].  So the centers meeting a member x of
    near are read by bisect from the lo window [x.lo - L + 1, x.hi), and
    every long leaf of a center c, which meets c, from [c.lo - L + 1,
    c.hi), each kept when its hi also exceeds the window's a.
    mid_relation(centers, near + those leaves, v) then decides: it counts
    for each center only the members that meet it, and leaves the center
    out by value, which is by index since the representation holds no two
    equal members.
    """
    ivs, order, los, L = ctx.ivs, ctx.long_by_lo, ctx.long_los, ctx.longest

    def meeting(members: Collection[int], into: set[int]) -> set[int]:
        # into, plus the long members inside (lo_min, s) meeting a member
        for x in members:
            a, b = ivs[x].lo, ivs[x].hi
            for i in order[bisect_left(los, max(a - L + 1, lo_min)):bisect_left(los, b)]:
                if a < ivs[i].hi <= s:
                    into.add(i)
        return into

    centers = meeting(near, set())
    if not centers:
        return True
    leaves = meeting(centers, set(near))
    return mid_relation(
        IntervalFamily([ivs[c] for c in centers]), IntervalFamily([ivs[i] for i in leaves]), ctx.v
    )


def _long_star_ok(ctx: _Solve, long: _Long, plan: _Plan, s: int, outside: frozenset[int]) -> bool:
    """mid_relation(long, long + outside, v) on the long members of the live
    segment (plan.s_prev, s], memoised in long.long_star_cache under
    outside.

    Only the centers that meet an outside member are checked (see
    _star_free).  _stages crosses only live segments (see _live_from), so
    no long member meets v + 1 disjoint other long members.  The leaves of
    an overfull star centered on a long member are then not all long: one
    is an outside member, and it meets the center.  The outside members
    cross s_prev or s, so none of them is a long member.  The memo reads
    neither s nor s_prev (see _Long).
    """
    cache = long.long_star_cache
    ok = cache.get(outside)
    if ok is None:
        ok = cache[outside] = not long.idx or _star_free(ctx, plan.s_prev, s, outside)
    return ok


def _plan(ctx: _Solve, s_prev: int, pool: frozenset[int], first_crossing: frozenset[int]) -> _Plan:
    """The plan out of s_prev, with pool settling, of the bucket of
    predecessors with this first_crossing (see _Plan), read with the
    predecessor's sides swapped as in _advance."""
    ivs, shared = ctx.ivs, ctx.crossing[s_prev] - pool
    settled_second = tuple(sorted(first_crossing & pool))
    first_bounds = tuple((ivs[i].lo, ivs[i].hi - s_prev) for i in sorted(pool - first_crossing))
    F = IntervalFamily(tuple(ivs[i] for i in settled_second))
    return _Plan(s_prev, settled_second, first_bounds, F, (shared, shared - first_crossing))


def _settled(
    ctx: _Solve, long: _Long, plan: _Plan, s: int
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], int, int]]:
    """The entry of long.settled for plan's settled_second (see _Long)."""
    ivs, s_prev = ctx.ivs, plan.s_prev
    second_bounds = tuple(
        (ivs[i].lo, _max_disjoint_meeting(long.fam.intervals, s_prev, ivs[i].hi))
        for i in plan.settled_second
    )
    return second_bounds, fd_head(plan.F, long.fam, s_prev, s, ctx.v)


def _side_assignments(
    ctx: _Solve, s: int, shared: frozenset[int], shared_first: frozenset[int]
) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The (first, second) sides of every assignment of the groups of the
    members crossing s, in mask order: the free groups by increasing id,
    the first of them in bit 0, a clear bit putting its group first.

    A group holding a shared member keeps that member's side, the first one
    iff the member is in shared_first; there are none when two shared
    members of one group were committed apart.
    """
    forced: dict[int, bool] = {}
    for i in shared:
        want_first = i in shared_first
        if forced.setdefault(ctx.group_of[i], want_first) != want_first:
            return []
    crossing = ctx.crossing[s]
    members_of: dict[int, list[int]] = {}
    for i in crossing:
        members_of.setdefault(ctx.group_of[i], []).append(i)
    free = sorted(g for g in members_of if g not in forced)
    forced_first = [i for g, to_first in forced.items() if to_first for i in members_of[g]]
    sides = []
    for mask in range(1 << len(free)):
        first_idx = list(forced_first)
        for bit, g in enumerate(free):
            if not (mask >> bit) & 1:
                first_idx.extend(members_of[g])
        first = frozenset(first_idx)
        sides.append((first, crossing - first))
    return sides


def _second_counts(ctx: _Solve, long: _Long, plan: _Plan, new: frozenset[int]) -> tuple[int, ...]:
    """The entry of long.counts for plan's settled_second and new = B -
    shared (see _Long)."""
    ivs = ctx.ivs
    second_new = [*long.fam.intervals, *(ivs[i] for i in sorted(new))]
    return tuple(
        _max_disjoint_meeting(second_new, plan.s_prev, ivs[i].hi) for i in plan.settled_second
    )


def _room(profile: MonotonicSeq, bounds: Sequence[tuple[int, int]], v: int) -> list[int] | None:
    """v - alpha_seq(profile, a) for each (a, floor) in bounds, or None as
    soon as some floor exceeds it."""
    room = []
    for a, floor in bounds:
        left = v - alpha_seq(profile, a)
        if floor > left:
            return None
        room.append(left)
    return room


@dataclass(slots=True)
class _Bucket:
    """An antichain of (vector, state) pairs under the entrywise order of
    the vectors, all of one length: no kept vector is <= another.

    covers(vec) is True when a kept vector is <= vec, equal ones included.
    add(vec, state) keeps a vector that nothing covers and evicts the kept
    ones it is <=, so the states stay in insertion order, less the evicted
    ones.  seen caches vectors known to be covered, and only covers reads
    it.  It holds only vectors that a kept one is <=, and a kept vector is
    evicted only by one that is <= it, so a vector stays covered once it is
    in seen.

    A stage lives in one bucket per first_crossing, of the vectors p.r +
    q.r of its states, from its first insertion (see _advance) to its last
    read.  _finish drops vecs and seen, which only the stage's building
    reads (_advance, and _stages' skip of clamped pairs), and puts the
    states in scan order.  Later anchors read the states, and _cross keeps
    one slot, (pool, plan, movers): the bucket's plan for the hops that
    settle pool (see _Plan), and its movers, filled on the first such hop
    of v + 1 anchors or more (see _movers).  _cross builds the slot again
    when pool changes.  For one s_prev, pool only grows with s, so a pool
    never comes back once it is replaced, and one slot is all a bucket
    needs.  _stages drops it when the bucket's s_prev leaves grown.
    """

    vecs: list[tuple[int, ...]] | None = field(default_factory=list)
    states: list[DPState] = field(default_factory=list)
    seen: set[tuple[int, ...]] | None = field(default_factory=set)
    slot: tuple[frozenset[int], _Plan, list[DPState] | None] | None = None

    def covers(self, vec: tuple[int, ...]) -> bool:
        """True iff some kept vector is <= vec entrywise."""
        if vec in self.seen:
            return True
        if any(all(map(le, kept, vec)) for kept in self.vecs):
            self.seen.add(vec)
            return True
        return False

    def add(self, vec: tuple[int, ...], state: DPState) -> None:
        """Keep state under vec, which the bucket does not cover, and evict
        every state whose vector vec is <=."""
        keep = [j for j, kept in enumerate(self.vecs) if not all(map(le, vec, kept))]
        if len(keep) < len(self.vecs):
            self.vecs = [self.vecs[j] for j in keep]
            self.states = [self.states[j] for j in keep]
        self.vecs.append(vec)
        self.states.append(state)
        self.seen.add(vec)


def _advance(
    ctx: _Solve,
    st: DPState,
    long: _Long,
    plan: _Plan,
    s: int,
    sides: Sequence[tuple[frozenset[int], frozenset[int]]],
    stage: dict[frozenset[int], _Bucket],
) -> None:
    """The DP transition of the solve ctx: take one state at plan.s_prev
    across the segment (s_prev, s], whose long members are long, into
    stage, the stage at s.

    The predecessor is read with its coordinates swapped, since the backbone
    run (s_prev, s] puts the unit (s - 1, s) on the opposite part from
    (s_prev - 1, s_prev).  Candidates give whole crossing groups to a side:
    a group holding a member that also crosses s_prev keeps that member's
    committed side, and the free groups try both.  plan is the bucket's
    plan (see _Plan) and sides are the candidate side assignments (A, B)
    of that bucket at s.  What else depends only on the segment and the
    bucket comes from the memos of long, keyed by what each reads (see
    _Long): the lower bounds and F's head under plan.settled_second, once
    per long family and settled set, and the counts of a candidate under
    that and B - shared, once per long family, settled set and new
    second-side members.  ctx.profiles interns the new profiles (see
    extend).

    The checks, in order: the lower bounds of the members settled on the
    second side, which need no candidate; then per candidate, after
    extend, the split star count alpha_seq(q, a) + count <= v of each of
    those members (a, b), where count is the number of disjoint new
    second-side members meeting (s_prev, b), and the star check of the long
    members.  The first side's settled members were checked before st was
    advanced (see _cross and _movers), and need no more.

    The short members need no star check.  Each has length at most v, and
    pairwise disjoint open integer intervals that meet a center (lo, hi)
    cover disjoint unit windows inside it, so a center of length at most v
    meets at most v of them, whatever the members around it.  The check
    of the short members against the first side's crossing members was
    mid_relation(short, short + crossing, v), which is True for that reason
    (mid_relation skips every center of length <= v).

    stage maps each first_crossing to its bucket (see _Bucket), an
    antichain of the vectors p.r + q.r of its kept states; every candidate
    has the vector of the one p_new and q_new.  A candidate that its bucket
    covers is dropped before the settled and star checks.  One that passes
    every check joins its bucket, which evicts the states it dominates.

    extend sets every entry of p_new and q_new below floor(s) =
    ctx.floor[s] to -1 before it interns them; call that c_s.  It
    changes no check, at this hop or any later one:

      * A check reads a profile only in _room, as alpha_seq(r, a): the
        lower bounds here and in _cross, and the split star counts here.
        There r is a profile at the hop's s_prev = t, and a is the lo of a
        settling member, which crosses t, so a >= floor(t) >= 0.
        alpha_seq(r, a) is the largest u with a <= r_u.  An entry below
        floor(t) fails that test, as -1 does, so alpha_seq(c_t(r), a) =
        alpha_seq(r, a).
      * floor never decreases (see _crossings), so for t >= s, c_s then c_t
        is c_t.  extend copies predecessor entries unchanged and builds the
        others without them, so c_t(extend(c_s(r))) = c_t(extend(r)): the
        entries extend carries forward differ only where c_t sets both to
        -1.  By induction over the hops, every profile the DP builds at t
        is c_t of the one the unclamped DP builds from the same choices,
        and so passes exactly the checks that one passes.

    c_s keeps MonotonicSeq's shape: r_0 = s >= floor(s) stays, and the
    entries below floor(s) are a suffix of the strictly decreasing ones.
    c_s is monotone, so entrywise <= profiles stay entrywise <=, and the
    dominance argument of the module docstring holds for the clamped
    vectors.  Each kept entry lies in [floor(s), s - 1] or is -1, and a
    member crossing s has lo >= s - L + 1, with L the longest member: so an
    entry takes at most L values, whatever s and m are.
    """
    v = ctx.v
    p_prime, q_prime = st.q, st.p

    settled = long.settled.get(plan.settled_second)
    if settled is None:
        settled = long.settled[plan.settled_second] = _settled(ctx, long, plan, s)
    second_bounds, head = settled
    # Candidate-independent lower bound: the long members give the second
    # side at least their own disjoint count right of s_prev.
    second_room = _room(q_prime, second_bounds, v)
    if second_room is None:
        return

    p_new, q_new = extend(
        p_prime, q_prime, plan.F, _NO_MEMBERS, long.fam, plan.s_prev, s, v,
        head, ctx.profiles, ctx.floor[s],
    )

    vec, shared = p_new.r + q_new.r, plan.side_key[0]
    for A, B in sides:
        bucket = stage.get(A)
        if bucket is not None and bucket.covers(vec):
            continue
        key = (plan.settled_second, B - shared)
        counts = long.counts.get(key)
        if counts is None:
            counts = long.counts[key] = _second_counts(ctx, long, plan, key[1])
        if not all(map(le, counts, second_room)):
            continue
        if not _long_star_ok(ctx, long, plan, s, st.first_crossing | B):
            continue
        if bucket is None:
            bucket = stage[A] = _Bucket()
        bucket.add(vec, DPState(s, p_new, q_new, A, prev=st))


def _movers(
    states: Sequence[DPState], first_bounds: Sequence[tuple[int, int]], v: int
) -> list[DPState]:
    """The states of one bucket that a hop of v + 1 or more anchors
    advances, in scan order.

    first_bounds are the (a, floor) pairs of the members that settle on
    the first side (see _Plan).  A state Y moves when it passes the
    first side's lower bounds and no other passing state X has X.p.r <=
    Y.p.r entrywise; of states with equal p.r, the first in scan order
    moves.  This is the maxima-of-vectors filter (Kung, Luccio and
    Preparata, "On Finding the Maxima of a Set of Vectors", JACM 1975), run
    as one scan that keeps an antichain of the vectors p.r in a _Bucket: a
    state that a kept one covers is dropped, and one that is kept evicts
    the kept ones it is <=.

    The lower bounds are the whole first-side check.  There the count of
    the split star check is b - s_prev for every candidate.  A new
    first-side member is short, or is in A - shared: it crosses s but not
    s_prev.  Either way it has an integer lo >= s_prev, and it meets
    (s_prev, b) only if lo < b.  Pairwise disjoint open intervals have
    distinct lo, so at most b - s_prev of them meet the window.  A settled
    member has b <= s, and the units (t - 1, t) of the backbone are members
    (see VertebrateRep), so the b - s_prev short units inside (s_prev, b)
    reach that bound.

    Dropping a state changes no key of the stage.  For one plan, what
    _advance adds from a passing state Y depends on Y only through
    second_room, v - alpha_seq(Y.p, a) per settled second-side member,
    which is antitone in Y.p, and q_new, the head of F then entries of Y.p,
    which is monotone in it (see the module docstring; the clamp to floor(s)
    reads s alone); p_new is the ramp s - u on a hop of v + 1 or more (see
    extend).  The candidates, their counts and the star check are the same
    for every state of the bucket.  So when X.p.r <= Y.p.r,
    every successor of Y that passes the counts and the star check has one
    of X that passes them too and is entrywise <= it.  Each dropped state
    has a mover <= it, so the stage keeps the minimal keys (p.r, q.r, A)
    among the valid successors, as the unfiltered DP does; each bucket's
    seen is a pure cache (see _Bucket).  The stage is empty after each
    s_prev exactly when it would have been, and its buckets cover the same
    vectors, so the old-pair and clamped-pair skips still hold (see
    _far_vector).  Back-pointers may differ only where a dropped Y was the
    first to reach a kept key; solve re-verifies every witness read from
    them.
    """
    movers = _Bucket()
    for st in states:
        if _room(st.q, first_bounds, v) is not None and not movers.covers(st.p.r):
            movers.add(st.p.r, st)
    return movers.states


def _cross(
    ctx: _Solve,
    s_prev: int,
    long: _Long,
    s: int,
    preds: dict[frozenset[int], _Bucket],
    stage: dict[frozenset[int], _Bucket],
) -> None:
    """Take the finished stage at s_prev (see _finish) across the segment
    (s_prev, s], whose long members are long, into stage, the stage at s.
    pool = crossing[s_prev] - crossing[s] settles at this hop.  Per bucket:
    its plan, kept in the bucket's slot while pool stays (see _Bucket), and
    its side assignments, memoised in ctx.sides (which holds those of s
    alone), then _advance on each state that passes the first side's lower
    bounds.  A hop shorter than v + 1 reads q.r[1..v + 1 - (s - s_prev)]
    into p_new, and advances every such state; a longer one advances only
    the movers (see _movers), kept in the slot beside the plan.  They read
    the states and first_bounds alone, so a new slot keeps them when
    first_bounds stays."""
    v, pool = ctx.v, ctx.crossing[s_prev] - ctx.crossing[s]
    for first_crossing, bucket in preds.items():
        slot = bucket.slot
        if slot is None or slot[0] != pool:
            plan = _plan(ctx, s_prev, pool, first_crossing)
            same = slot is not None and slot[1].first_bounds == plan.first_bounds
            slot = bucket.slot = (pool, plan, slot[2] if same else None)
        _, plan, movers = slot
        sides = ctx.sides.get(plan.side_key)
        if sides is None:
            sides = ctx.sides[plan.side_key] = _side_assignments(ctx, s, *plan.side_key)
        if s - s_prev <= v:
            movers = [st for st in bucket.states if _room(st.q, plan.first_bounds, v) is not None]
        elif movers is None:
            movers = _movers(bucket.states, plan.first_bounds, v)
            bucket.slot = (pool, plan, movers)
        for st in movers:
            _advance(ctx, st, long, plan, s, sides, stage)


def _scan_key(st: DPState) -> tuple:
    """Deterministic scan order: swapped profiles, then committed sides."""
    return (st.q.r, st.p.r, tuple(sorted(st.first_crossing)))


def _finish(stage: dict[frozenset[int], _Bucket]) -> dict[frozenset[int], _Bucket]:
    """stage made ready for the later anchors: each bucket's states in scan
    order and its vecs and seen dropped, the buckets in the order of their
    first states."""
    for bucket in stage.values():
        bucket.states.sort(key=_scan_key)
        bucket.vecs = bucket.seen = None
    return dict(sorted(stage.items(), key=lambda item: _scan_key(item[1].states[0])))


def _far_vector(ctx: _Solve, s_prev: int, s: int) -> tuple[int, ...]:
    """B(s_prev, s), a lower bound on the vector p.r + q.r of every
    successor that a clamped hop (s_prev, s] adds, with L = ctx.longest the
    longest member: p is the ramp s - u and q the chain of _profile over the
    long members W with lo >= max(s_prev, s - 2L + 2) and hi <= s, each
    with every entry below floor(s) set to -1.  W is read from
    ctx.long_by_lo: the members with lo in that window and below s that end
    by s, since a member inside (0, s) has lo < s.  A member crossing an
    anchor t starts at t - L + 1 or later and ends by t + L - 1, so
    floor(s) >= s - L + 1.

    A hop is clamped when s_prev <= floor(s): then no member crosses both
    anchors, since one crossing s has lo >= floor(s) >= s_prev.  Lemma:
    every successor of a clamped hop, from any state and for any candidate
    A, has p the clamped ramp and q the clamped chain of F + D at s, and A
    is in the one side list ctx.sides[(frozenset(), frozenset())] at s.

      * Candidates.  shared is empty, so every bucket's side_key is
        (frozenset(), frozenset()) (see _Plan).
      * p_new.  Its entries u <= d = s - s_prev are the ramp s - u (see
        extend).  Every other one copies p.r[j] with j >= 1, at most
        s_prev - 1 < floor(s), and the ramp is below s_prev there too, so
        the clamp sets both to -1.
      * q_new.  Its entries u <= w_full are those of the chain of F + D at
        s (see fd_head).  Every member of F + D meets (s_prev, s) and the
        chain's picks are disjoint, so w_full is the chain's length and its
        entries past w_full are -1.  Every other entry of q_new copies
        q.r[j] with j >= 1, which the clamp sets to -1 as above.

    So neither profile reads the state.  Bound: the chain of _profile is
    monotone in its member set.  By induction on u, a superset's frontier
    f_u and H_u are never smaller, since at each step it sees every member
    the subset sees.  The clamp is monotone too (see _advance).  Every
    member of W has lo >= s_prev, hi <= s and length > v, so W is part of
    D, and every successor's vector is >= B entrywise.  So once every A of
    the side list has a bucket that covers B, every successor of the pair
    is covered in its bucket, and _advance drops it at its first test,
    touching no bucket: a kept vector is evicted only by one <= it, so a
    bucket covers a vector for the rest of the stage once it does (see
    _Bucket).  _stages then skips the pair before it brings its long
    members to s, which leaves the stage, its keys and every back-pointer
    as they were.  The skipped s_prev's long family catches up later from
    the anchor it was last brought to (see _segment).

    Runs.  B reads s_prev only through start, the index in ctx.long_los of
    the least lo >= max(s_prev, s - 2L + 2), which never decreases with
    s_prev.  Every s_prev' with s_prev < s_prev' <= min(floor(s),
    long_los[start]), or floor(s) when start is past the last long member,
    is clamped and has the same start, so the same W and the same ramp:
    its bound is B.  So once one pair of that run is skipped, every later
    one is covered too, and _stages builds B once per start and jumps by
    bisect over the rest of the run.

    Far hops.  A hop is far when d >= max(2L - 2, v + 1), so d >= L - 1
    and s_prev <= s - L + 1 <= floor(s): it is clamped.  From d >= 2L - 2
    on, the window of W starts at s - 2L + 2 whatever s_prev is, and B is
    V(s), read from s alone.  The far s_prev are one run: each is at most
    s - 2L + 2 <= long_los[start] and s - L + 1 <= floor(s), with start
    the one of the first far s_prev.  Claim: every successor of a far hop is
    (V(s), A).  By the lemma only q_new, the clamped chain of F + D, needs
    a word.  An entry kept by the clamp is H_u - 1 >= s - L + 1, so the
    member ending at H_u starts at s - 2L + 2 or later: it is in W.
    d >= 2L - 2 puts every member of W inside (s_prev, s), in D; a member
    of F + D outside W starts before s - 2L + 2 and so ends by s - L + 1.
    While a member of W lies at or before the chain's frontier, the
    largest hi and the largest lo there both belong to members of W, or
    the entry is clamped in both chains; so the chain over W and the chain
    over F + D keep the same entries, and the first clamped entry ends
    both.

    Old hops.  A hop is old when d >= max(3L - 3, v + 1), so it is far.
    Claim: every state X at an old s_prev adds either nothing or the
    successors (V(s), A) for every A of one set read from s alone; which of
    the two hangs on checks that read X and s_prev but no candidate.

      * Profiles and candidates are those of every far hop.
      * Counts.  d >= 2L - 2, so a settled member (a, b) ends by
        s_prev + L - 1 <= s - L + 1, and every member of B crosses s and
        so starts there or later: none meets (s_prev, b), and each
        second-side count equals its floor, which the lower bound, read
        from X and the settled members, has checked.
      * Star check.  Its centers are long members inside (s_prev, s).  One
        meeting a member of X.first_crossing, which crosses s_prev, starts
        by s_prev + L - 2, and one meeting a member of B ends at s - L + 2
        or later; d >= 3L - 3 leaves no room for a center of length L or
        less to do both.  So the check passes iff (1) every center passes
        against the long members and X.first_crossing, and (2) every
        center meeting B passes against the long members and B.  (1) reads
        no candidate.  A center meeting B starts at s - 2L + 2 or later,
        so each of its leaves starts at s - 3L + 3 >= s_prev or later: (2)
        reads B and the long members with lo >= s - 3L + 3 and hi <= s.

    The old pairs come first, into an empty stage.  The first old state
    that adds a successor makes the bucket of each A that passes (2), with
    V(s) kept in it.  Every later one fails a check that reads no
    candidate, or finds V(s) covered in the bucket of each A that passes
    (2) and drops every other A at (2), before a bucket of it is made: it
    touches no bucket.  So once the stage holds a state, skipping every old
    pair leaves the stage, its keys and every back-pointer as they were,
    and the long families of the s_prev it passes over catch up later as
    above.
    """
    v, ivs, floor, los = ctx.v, ctx.ivs, ctx.floor[s], ctx.long_los
    start = bisect_left(los, max(s_prev, s - 2 * ctx.longest + 2))
    W = [ivs[i] for i in ctx.long_by_lo[start:bisect_left(los, s)] if ivs[i].hi <= s]
    p = [s - u if s - u >= floor else -1 for u in range(v + 2)]
    q = [x if x >= floor else -1 for x in _profile(W, s, v)]
    return (*p, -1, *q)


def _live_from(ctx: _Solve) -> list[int]:
    """live_from[s] is the least s_prev whose segment (s_prev, s] is live,
    in the solve ctx; ctx.live_from is not read.

    A segment is dead when its long members (inside (s_prev, s), longer
    than v) center an overfull star among themselves, that is when
    mid_relation(long, long, v) fails.  One sweep over s carries the
    frontier f = live_from[s - 1], and checks only where long members
    arrive, through _star_free(ctx, f, s, the arriving long members):

      * Deadness is monotone in both s_prev and s.  A smaller s_prev or a
        larger s only adds long members, and a center with v + 1 disjoint
        neighbours among a family keeps them in every superset.  So the
        dead s_prev at s are a prefix of the anchors, and live_from never
        decreases: every s_prev < live_from[s - 1] is dead at s too.
      * For every f' >= f, the long members of (f', s) are some of those of
        (f, s - 1), which center no overfull star, plus arriving ones.  A
        new overfull star has an arriving member as its center or as a
        leaf, and every leaf meets its center, so only the centers that
        meet an arriving member can fail: that is _star_free's question,
        with the arriving members, which are long members of (f, s)
        themselves, as near.  With no long member arriving, (f, s) is live.
      * Moving the frontier only removes members, the leftmost ones, so the
        same check over the remaining members decides the next s_prev.
        When the check fails, the frontier moves just past the least lo at
        or after f in ctx.long_los.  Every s_prev up to that lo has the
        same long members inside (s_prev, s) as f, so it is dead too.  A
        failed check leaves a long member inside (f, s), so there is such
        a lo; where it is the lo of a member that ends past s, the next
        check reads the same members and moves the frontier again.
      * The (s_prev, s) with s_prev < live_from[s] add no state: the long
        members of every successor's second side would center an overfull
        star among themselves.  _stages drops those s_prev for good and
        crosses none of their hops, and _long_star_ok, which checks only the
        centers meeting an outside member, relies on that.
    """
    ivs, v, los = ctx.ivs, ctx.v, ctx.long_los
    live_from = [0] * (ctx.m + 1)
    f = 0
    for s in range(1, ctx.m + 1):
        new = [i for i in ctx.arriving[s] if ivs[i].length > v and ivs[i].lo >= f]
        while new and not _star_free(ctx, f, s, new):
            f = los[bisect_left(los, f)] + 1
            new = [i for i in new if ivs[i].lo >= f]
        live_from[s] = f
    return live_from


def _arriving(ivs: Sequence[Interval], m: int) -> list[list[int]]:
    """arriving[t] lists the members with hi = t, in index order."""
    arriving: list[list[int]] = [[] for _ in range(m + 1)]
    for i, iv in enumerate(ivs):
        arriving[iv.hi].append(i)
    return arriving


def _context(rep: VertebrateRep, v: int) -> _Solve:
    """The context of a solve of rep at the claw bound v (see _Solve), each
    of its tables built once."""
    ivs = rep.family.intervals
    m = rep.m
    group_of = compute_groups(rep.family, v).group_of
    arriving = _arriving(ivs, m)
    crossing, floor = _crossings(ivs, arriving, m)
    longest = max((iv.length for iv in ivs), default=0)
    long_by_lo = sorted((i for i, iv in enumerate(ivs) if iv.length > v), key=lambda i: ivs[i].lo)
    ctx = _Solve(
        ivs, longest, v, m, group_of, arriving, crossing, floor,
        long_by_lo, [ivs[i].lo for i in long_by_lo], live_from=(),
    )
    return replace(ctx, live_from=_live_from(ctx))


def _stages(ctx: _Solve) -> list[dict[frozenset[int], _Bucket]]:
    """Every stage of the DP of ctx, from s = 0 to m, each by bucket (see
    _finish)."""
    v = ctx.v
    zero = zero_seq(v)
    stages: list[dict[frozenset[int], _Bucket]] = [
        {frozenset(): _Bucket(states=[DPState(0, zero, zero, frozenset())])}
    ]
    # The cap is (L + 2)^state_cap_exp * 2^group_cap_bits, with L the
    # longest member (see _advance); a count of at most group_cap_bits bits
    # lies below it, so the cap is built only for larger counts (at
    # v = 16000 the power of two alone has 512M bits).
    longest = ctx.longest
    state_cap_exp = 2 * (v + 1)
    group_cap_bits = 2 * v * v + v

    # (s_prev, the _Long of its segment at after, after) for each live
    # s_prev, in increasing order, with after the anchor it was last
    # brought to; an s_prev leaves for good once its segment dies (see
    # _live_from), a prefix of grown, and its stage's buckets drop their
    # slots then; one whose stage is empty never joins.  after is s - 1,
    # or an earlier one when pairs were skipped (see _far_vector);
    # _segment brings the long family to s from either by the long
    # members arrived since.
    no_long = _Long((), _NO_MEMBERS)
    grown: list[tuple[int, _Long, int]] = []
    s_prev_of = itemgetter(0)
    # Hops at least old long are old, the bound of a clamped hop reads the
    # long members from lo >= s - reach on (see _far_vector), and buckets
    # of clamped hops read the side list under clamped_sides.
    old, reach = max(3 * longest - 3, v + 1), 2 * longest - 2
    los, clamped_sides = ctx.long_los, (frozenset(), frozenset())

    for s in range(1, ctx.m + 1):
        stage: dict[frozenset[int], _Bucket] = {}
        if stages[s - 1]:
            grown.append((s - 1, no_long, s - 1))
        ctx.sides.clear()
        ctx.longs.clear()
        ctx.longs[()] = no_long
        dead = bisect_left(grown, ctx.live_from[s], key=s_prev_of)
        for s_prev, _, _ in grown[:dead]:
            for bucket in stages[s_prev].values():
                bucket.slot = None
        del grown[:dead]
        # A non-empty stage skips every s_prev <= skip_to, a run of grown:
        # the old ones, and with a clamped one whose bound it covers, every
        # clamped one up to los[start], the lo at which its bound's window
        # of long members starts, since they all have that bound (see
        # _far_vector).  start never decreases with s_prev, so the bound of
        # the start held is built again only when start moves.  The clamped
        # s_prev are a prefix of grown, so one of them was crossed before
        # the stage held a state, and clamped_sides is in ctx.sides.
        skip_to, floor = s - old, ctx.floor[s]
        j, held = 0, -1
        while j < len(grown):
            s_prev, long, after = grown[j]
            if stage and skip_to < s_prev <= floor:
                start = bisect_left(los, max(s_prev, s - reach))
                if start != held:
                    held, bound = start, _far_vector(ctx, s_prev, s)
                if all(A in stage and stage[A].covers(bound) for A, _ in ctx.sides[clamped_sides]):
                    skip_to = min(floor, los[start]) if start < len(los) else floor
            if stage and s_prev <= skip_to:
                j = bisect_right(grown, skip_to, j, key=s_prev_of)
                continue
            long = _segment(ctx, s_prev, after, s, long)
            grown[j] = (s_prev, long, s)
            _cross(ctx, s_prev, long, s, stages[s_prev], stage)
            j += 1
        count = sum(len(bucket.states) for bucket in stage.values())
        if count.bit_length() > group_cap_bits:
            cap = (longest + 2) ** state_cap_exp << group_cap_bits
            if count > cap:
                raise AssertionError(f"stage {s} holds {count} states, cap {cap}")
        stages.append(_finish(stage))
    return stages


def _witness(ctx: _Solve, accepting: DPState) -> list[Side | None]:
    """The member sides of the split on accepting's back-pointer chain,
    accepting's first side as Side.FIRST, in O(n + m).

    The hop from prev to st places the members with hi in (prev.s, st.s] as
    _advance committed them, with labels alternating along the chain: one
    with lo >= prev.s lies inside the segment, and takes the hop's label if
    its length is at most v and the other label if not; any other one
    crosses prev.s and settles on its committed side, read swapped: the
    other label iff it is in prev.first_crossing.  A chain runs from 0 to
    m, so each member's hi lies in exactly one hop: it lies inside exactly
    one segment or settles from exactly one pool, and gets that hop's side.
    """
    ivs, v, arriving = ctx.ivs, ctx.v, ctx.arriving
    sides: list[Side | None] = [None] * len(ivs)
    st, label = accepting, Side.FIRST
    while st.prev is not None:
        prev, other = st.prev, label.other()
        for t in range(prev.s + 1, st.s + 1):
            for i in arriving[t]:
                iv = ivs[i]
                if iv.lo >= prev.s:
                    sides[i] = label if iv.length <= v else other
                else:
                    sides[i] = other if i in prev.first_crossing else label
        st, label = prev, other
    return sides


def dp_bound(rep: VertebrateRep, v: int) -> int:
    """The claw bound solve's DP runs at for rep and v >= 1: min(v, L), with
    L the longest member of the compact family, or 1 when it is empty (see
    solve)."""
    return min(v, max((hi - lo for lo, hi in zip(rep.family.los, rep.family.his)), default=1))


def solve(rep: VertebrateRep, v: int) -> SolveResult:
    """Decide whether the represented graph splits into two claw-<= v parts.

    Args:
        rep: vertebrate representation of the input family.
        v: claw bound, v >= 1.

    Returns:
        SolveResult; on feasible instances the assignment covers the input
        family's vertices and has been re-verified with verify_partition.

    The DP runs at v' = dp_bound(rep, v) = min(v, max(L, 1)), with L the
    longest member of the compact family, so its work stops growing with v
    past L.  This changes no decision:

      * A member of length l meets at most l pairwise disjoint members (the
        unit-window argument in _advance), so no induced star of the
        compact family has more than L leaves.
      * The input family is the compact one with twins added: each input
        vertex has the closed neighbourhood of its compact member.  Two
        leaves of one star are not adjacent, so neither is a twin of the
        other, and when there are two or more, neither is a twin of the
        center.  Such a star maps to an induced star of the compact family
        with as many leaves.
      * A part's induced stars are induced stars of the whole graph.  So
        every part of every split has claw number at most max(L, 1), every
        v >= max(L, 1) answers "yes", and so does the exact DP at v'.

    The witness is verified at v.  For v > L, stage_state_counts are those
    of the DP at v'.
    """
    start = time.perf_counter()
    if v < 1:
        raise ValueError(f"claw bound v={v}: need v >= 1")
    ctx = _context(rep, dp_bound(rep, v))
    stages = _stages(ctx)
    counts = tuple(sum(len(bucket.states) for bucket in stage.values()) for stage in stages)
    if not stages[-1]:
        return SolveResult(False, None, None, counts, time.perf_counter() - start)
    accepting = next(iter(stages[-1].values())).states[0]

    sides = _witness(ctx, accepting)
    if not all(side is not None for side in sides):
        raise AssertionError("witness walk missed a member")

    rep_assignment = PartitionAssignment(tuple(sides))
    assignment = rep.expand(rep_assignment)
    if not verify_partition(rep.source, assignment, v):
        raise AssertionError("reconstructed witness failed re-verification")
    return SolveResult(True, assignment, rep_assignment, counts, time.perf_counter() - start)
