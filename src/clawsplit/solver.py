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
What a hop reads of its segment, beside s, is held in a record (see
_Segment): s_prev, the long members, the crossing members that settle
(pool) and those that do not (shared), and memos of work that predecessor
states repeat.  A record lives as long as what it reads:
_stages replaces s_prev's record only when a member it reads arrives, a
long member with lo >= s_prev or a member of crossing[s_prev] that ends,
and at every other anchor the same object serves again.  Each memo belongs
to what it reads, so a new record keeps the memos that the arrival leaves
valid: those that read the long members alone live in one _Long per long
family, which every record with that family holds, whatever its s_prev,
and each bucket's plan keeps the part that reads no long member (see
_PlanBase) until a member of crossing[s_prev] ends.

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

_cross takes each predecessor bucket across a record with the bucket's plan
(see _Plan): the settled members' lower-bound floors, the second side's
settled members as F, and the second side's settled counts per second side
B.  A predecessor's other side is crossing[s_prev] minus its
first_crossing, so a plan is a pure function of the record and
first_crossing, and every state of the bucket would compute the same
values.  The record memoises it, so a plan is built once per record and
bucket, however many anchors the record serves, and its long-free part
once per bucket until a member of crossing[s_prev] ends; the candidate
side assignments (A, B) come from the context's memo for the anchor s,
under a key the plan holds (see _side_assignments).  The counts of a B
are filled when a successor with that side assignment first gets past its
bucket's covers, so a plan holds no count a state of its bucket did not
ask for (all of a B's counts come at once, where a state stops at the
first failing one).  _advance keeps only the per-state work:
the second side's lower bounds, one extend, then per candidate the
bucket's covers, the inequalities alpha_seq(q, a) + count <= v and the
star check, with the candidates in mask order.  Profiles are interned per
solve (see extend), so each distinct profile is one MonotonicSeq,
validated once.

A hop shorter than v + 1 advances every state that passes the first
side's lower bounds.  A longer one builds its first new profile as the
ramp s - u and reads the predecessor's q only in those bounds, so _cross
advances only the bucket's movers (see _movers): the passing states whose
p no sibling's is entrywise below.  They are cached per bucket and
first_bounds, which stops changing once every member crossing s_prev has
ended, so one list serves every farther anchor.  The stage keeps the
same keys as if every state had crossed.

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
run of s_prev before it builds a record.  A hop is far when it is at least
max(2L - 2, v + 1) long: it is clamped, its window starts at s - 2L + 2
whatever s_prev is, and every successor has the vector B = V(s), so the
far pairs are one such run.  A hop is old when it is at least max(3L - 3,
v + 1) long: then the checks also split into a part read from the
predecessor alone and a part read from s alone (see _far_vector), so
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
    earlier one with the largest hi, when their overlap is at least 2v + 1.
    That member overlaps it the most of all earlier ones, so if it falls
    short, so do they all.  Every earlier member that overlaps it by 2v + 1
    or more contains (lo, lo + 2v + 1), and so overlaps each other such member
    by as much: they are already pairwise linked, and one link joins the
    member to all of them.

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
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    threshold = 2 * v + 1
    reach = None  # the earlier member with the largest hi
    for i in sorted(range(n), key=lambda k: (ivs[k].lo, ivs[k].hi)):
        if reach is not None and min(ivs[reach].hi, ivs[i].hi) - ivs[i].lo >= threshold:
            ri, rj = find(i), find(reach)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        if reach is None or ivs[i].hi > ivs[reach].hi:
            reach = i

    root_to_gid: dict[int, int] = {}
    group_of: list[int] = []
    members: list[list[int]] = []
    for i in range(n):
        root = find(i)
        gid = root_to_gid.get(root)
        if gid is None:
            gid = len(members)
            root_to_gid[root] = gid
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
    record's s_prev (see _side_assignments).  longs holds the _Long of
    each long family a record took at the anchor being built, by its
    indices, and the empty family's for the whole solve: _stages clears the
    others at each s, so that a family lives only as long as the records
    that hold it.  All three memos start empty, in a copy made by
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

    idx are the member indices, in increasing order, and fam the same
    members as a family.  Each memo value is a pure function of the long
    members, v and its key, and reads neither s nor s_prev (see _Segment),
    so one object serves every record with these long members:

      * long_meet_cache, per right end b: how many disjoint long members
        meet (s_prev, b).
      * head_cache, per settled_second (the sorted indices of the members
        settled on the second side, which fix F): fd_head(F, fam, s_prev,
        s, v).
      * long_star_cache, per set of crossing members visible to the second
        side: whether the long members center no overfull star among
        themselves and those (see _long_star_ok).
    """

    idx: tuple[int, ...]
    fam: IntervalFamily
    long_meet_cache: dict[int, int] = field(default_factory=dict)
    head_cache: dict[tuple[int, ...], tuple[tuple[int, ...], int, int]] = field(
        default_factory=dict
    )
    long_star_cache: dict[frozenset[int], bool] = field(default_factory=dict)


@dataclass(frozen=True)
class _Segment:
    """What a hop out of s_prev reads of its segment (s_prev, s], beside s.

    long holds the members inside (s_prev, s) longer than v (see _Long).  No
    record holds the short ones: they enter no profile, count or check (see
    _advance), and _witness finds them by hi.  shared holds the members
    crossing both s_prev and s; pool, those crossing s_prev that stop before
    s and so settle at this hop.  s, the members and v are read from the
    solve's context, passed beside the record (see _cross).  _stages builds
    records only for live segments (see _live_from).

    A record serves every anchor s at which these fields are what a fresh
    build for (s_prev, s] gives.  They change only when a member the record
    reads arrives, that is when s passes its hi: a long member with lo >=
    s_prev joins long, and a member of crossing[s_prev] moves from shared
    to pool.  _segment looks at the members arrived since the record's last
    anchor and returns the record itself when neither kind came; otherwise
    it builds the next record, with the arriving long members merged in
    index order, so that a record does not depend on how it was built.
    Each arriving long member is validated as a long member of the segment
    it joins when it is taken (see extend), and stays valid for every
    later s.

    The memos hold work that predecessor states repeat, each owned by what
    it reads, so that a value memoised at any anchor, by any record that
    holds the owner, is the one a fresh computation at s would give:

      * long, the _Long of the long members, whose memos read the long
        members alone.  Every record with the same long members holds the
        same object, taken from the context's longs (see _Solve), and the
        next record keeps it when only members of crossing[s_prev] end.
      * bases, per first_crossing: the bucket's _PlanBase, which reads
        pool, shared, s_prev and first_crossing.  When only long members
        arrive, the next record keeps the same dict.
      * plans, per first_crossing: the bucket's _Plan, which reads the
        long members too; each record starts with none.

    The memos of a _Long read neither s nor s_prev:

      * Every long member has lo >= s_prev and hi > lo, so it meets
        (s_prev, b) iff lo < b, and long_meet_cache[b] reads b alone.
      * The members of F cross s_prev and end by s, and those of D lie
        inside (s_prev, s), so every member of F + D meets (s_prev, s): w
        and w_full are the disjoint counts of D and of F + D, which read
        the member sets alone.  The rest of fd_head reads no s (see
        fd_head), so head_cache[settled_second] reads F and D alone.
      * The star check reads the long members inside (s_prev, s), which
        are the long members at every anchor a record with them serves,
        outside and v (see _long_star_ok).
    """

    s_prev: int
    long: _Long
    shared: frozenset[int]
    pool: frozenset[int]
    bases: dict[frozenset[int], _PlanBase] = field(default_factory=dict)
    plans: dict[frozenset[int], _Plan] = field(default_factory=dict)


@dataclass(frozen=True)
class _PlanBase:
    """The part of a bucket's plan that reads no long member (see _Plan).

    A state's second side is crossing[s_prev] minus its first_crossing, so
    the bucket fixes both committed sides.  settled_second are the members
    settling at this hop on the (swapped) second side, sorted, and F the
    same members as a family.  first_bounds holds (a, b - s_prev) per
    member settling on the first side, a lower bound whose floor b - s_prev
    is the whole count there (see _movers).  side_key is the key under
    which _cross reads the candidate side assignments (A, B) from the
    context's sides (see _Solve), the one part of a bucket's hop that
    depends on s.  All four read only pool, shared, s_prev and
    first_crossing, so a record that only long members made from another
    keeps them (see _Segment).
    """

    settled_second: tuple[int, ...]
    first_bounds: tuple[tuple[int, int], ...]
    F: IntervalFamily
    side_key: tuple[frozenset[int], frozenset[int]]


@dataclass(frozen=True)
class _Plan:
    """What a hop across one record does for one predecessor bucket.

    base is the bucket's long-free part (see _PlanBase).  second_bounds
    holds (a, floor) per settled_second member (a, b), with floor =
    long_meet_cache[b], the candidate-independent part of its right-hand
    count on the second side.  second_counts[B][j] is the number of
    disjoint new second-side members meeting (s_prev, b) for the j-th
    settled_second member (a, b), filled when a successor with that B
    first gets past its bucket's covers (see _second_counts); distinct A
    give distinct B.  The new members are the long ones and B - shared, so
    a B gives the same counts at every anchor the record serves.
    """

    base: _PlanBase
    second_bounds: tuple[tuple[int, int], ...]
    second_counts: dict[frozenset[int], tuple[int, ...]] = field(default_factory=dict)


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


def _segment(
    ctx: _Solve, s_prev: int, after: int, s: int, before: _Segment | None = None
) -> _Segment:
    """The record of the live segment (s_prev, s] in the solve ctx.

    before is the record of s_prev at anchor after, or None, with after =
    s_prev, to build from nothing.  Of the members with hi in (after, s],
    those with lo < s_prev end a member of crossing[s_prev], and those with
    lo >= s_prev and length > v are new long members.  With neither, before
    serves s too and is returned.  Otherwise the next record keeps before's
    _Long when no long member arrived, and takes the one of its long
    members from ctx.longs when one did; it keeps before's bases when no
    member ended (see _Segment).
    """
    ivs, v, crossing = ctx.ivs, ctx.v, ctx.crossing
    long_new, ended = [], before is None
    for t in range(after + 1, s + 1):
        for i in ctx.arriving[t]:
            if ivs[i].lo < s_prev:
                ended = True
            elif ivs[i].length > v:
                long_new.append(i)
    if not (ended or long_new):
        return before
    if ended:
        shared, pool = crossing[s_prev] & crossing[s], crossing[s_prev] - crossing[s]
        bases = {}
    else:
        shared, pool, bases = before.shared, before.pool, before.bases
    if before is not None and not long_new:
        return _Segment(s_prev, before.long, shared, pool, bases)
    _check_segment_members((), (ivs[i] for i in long_new), s_prev, s, v)
    long_idx = tuple(sorted((before.long.idx if before else ()) + tuple(long_new)))
    long = ctx.longs.get(long_idx)
    if long is None:
        long_fam = IntervalFamily(tuple(ivs[i] for i in long_idx))
        long = ctx.longs[long_idx] = _Long(long_idx, long_fam)
    return _Segment(s_prev, long, shared, pool, bases)


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


def _long_star_ok(ctx: _Solve, seg: _Segment, s: int, outside: frozenset[int]) -> bool:
    """mid_relation(long, long + outside, v) on the long members of the live
    segment seg at the anchor s, memoised in seg.long.long_star_cache under
    outside.

    Only the centers that meet an outside member are checked (see
    _star_free).  _stages builds records only for live segments (see
    _live_from), so no long member meets v + 1 disjoint other long members.
    The leaves of an overfull star centered on a long member are then not
    all long: one is an outside member, and it meets the center.  The
    outside members cross s_prev or s, so none of them is a long member.

    The memo is sound.  At every anchor s a record serves, the long members
    inside (s_prev, s) are exactly seg.long, since _segment replaces the
    record when a long member arrives; and every record that holds the same
    _Long has that same set of long members at each anchor it serves,
    whatever its s_prev.  So the value read from (seg.s_prev, s) is a
    function of seg.long and outside alone.
    """
    cache = seg.long.long_star_cache
    ok = cache.get(outside)
    if ok is None:
        ok = cache[outside] = not seg.long.idx or _star_free(ctx, seg.s_prev, s, outside)
    return ok


def _plan(ctx: _Solve, seg: _Segment, first_crossing: frozenset[int]) -> _Plan:
    """The plan across seg of the bucket of predecessors with this
    first_crossing (see _Plan), read with the predecessor's sides swapped
    as in _advance; its base is memoised in seg.bases."""
    ivs, s_prev, long = ctx.ivs, seg.s_prev, seg.long
    base = seg.bases.get(first_crossing)
    if base is None:
        settled_second = tuple(sorted(first_crossing & seg.pool))
        base = seg.bases[first_crossing] = _PlanBase(
            settled_second=settled_second,
            first_bounds=tuple(
                (ivs[i].lo, ivs[i].hi - s_prev) for i in sorted(seg.pool - first_crossing)
            ),
            F=IntervalFamily(tuple(ivs[i] for i in settled_second)),
            side_key=(seg.shared, seg.shared - first_crossing),
        )
    second_bounds = []
    for i in base.settled_second:
        a, b = ivs[i]
        floor = long.long_meet_cache.get(b)
        if floor is None:
            floor = long.long_meet_cache[b] = _max_disjoint_meeting(long.fam.intervals, s_prev, b)
        second_bounds.append((a, floor))
    return _Plan(base, tuple(second_bounds))


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


def _second_counts(ctx: _Solve, seg: _Segment, plan: _Plan, B: frozenset[int]) -> tuple[int, ...]:
    """The second_counts of plan for the second side B (see _Plan)."""
    ivs = ctx.ivs
    second_new = [*seg.long.fam.intervals, *(ivs[i] for i in sorted(B - seg.shared))]
    return tuple(
        _max_disjoint_meeting(second_new, seg.s_prev, ivs[i].hi)
        for i in plan.base.settled_second
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
    states in scan order.  Later anchors read the states, and
    cache the movers of hops of v + 1 or more per first_bounds (see
    _movers) until the bucket's s_prev leaves _stages' grown.
    """

    vecs: list[tuple[int, ...]] | None = field(default_factory=list)
    states: list[DPState] = field(default_factory=list)
    seen: set[tuple[int, ...]] | None = field(default_factory=set)
    movers: dict[tuple[tuple[int, int], ...], list[DPState]] = field(default_factory=dict)

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
    seg: _Segment,
    plan: _Plan,
    s: int,
    sides: Sequence[tuple[frozenset[int], frozenset[int]]],
    stage: dict[frozenset[int], _Bucket],
) -> None:
    """The DP transition of the solve ctx: take one state at seg.s_prev
    across seg into stage, the stage at s.

    The predecessor is read with its coordinates swapped, since the backbone
    run (s_prev, s] puts the unit (s - 1, s) on the opposite part from
    (s_prev - 1, s_prev).  Candidates give whole crossing groups to a side:
    a group holding a member that also crosses s_prev keeps that member's
    committed side, and the free groups try both.  What depends only on the
    segment and st's bucket comes from plan, the bucket's plan (see _Plan),
    sides are the candidate side assignments (A, B) of that bucket at s,
    and ctx.profiles interns the new profiles (see extend).

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

    # Candidate-independent lower bound: the long members give the second
    # side at least their own disjoint count right of s_prev.
    second_room = _room(q_prime, plan.second_bounds, v)
    if second_room is None:
        return

    long, base = seg.long, plan.base
    head = long.head_cache.get(base.settled_second)
    if head is None:
        head = long.head_cache[base.settled_second] = fd_head(base.F, long.fam, seg.s_prev, s, v)
    p_new, q_new = extend(
        p_prime, q_prime, base.F, _NO_MEMBERS, long.fam, seg.s_prev, s, v,
        head, ctx.profiles, ctx.floor[s],
    )

    vec = p_new.r + q_new.r
    for A, B in sides:
        bucket = stage.get(A)
        if bucket is not None and bucket.covers(vec):
            continue
        counts = plan.second_counts.get(B)
        if counts is None:
            counts = plan.second_counts[B] = _second_counts(ctx, seg, plan, B)
        if not all(map(le, counts, second_room)):
            continue
        if not _long_star_ok(ctx, seg, s, st.first_crossing | B):
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
    the first side (see _PlanBase).  A state Y moves when it passes the
    first side's lower bounds and no other passing state X has X.p.r <=
    Y.p.r entrywise; of states with equal p.r, the first in scan order
    moves.  This is the maxima-of-vectors filter (Kung, Luccio and
    Preparata, "On Finding the Maxima of a Set of Vectors", JACM 1975), run
    as one scan that keeps an antichain: a state that a kept one covers is
    dropped, and one that is kept evicts the kept ones it is <=.

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
    which is antitone in Y.p, and q_new, the plan's head then entries of
    Y.p, which is monotone in it (see the module docstring; the clamp to
    floor(s) reads s alone); p_new is the ramp s - u on a hop of v + 1 or
    more (see extend).  The candidates, their counts and the star check
    are the same for every state of the bucket.  So when X.p.r <= Y.p.r,
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
    movers: list[DPState] = []
    for st in states:
        if _room(st.q, first_bounds, v) is None:
            continue
        r = st.p.r
        if not any(all(map(le, kept.p.r, r)) for kept in movers):
            movers = [kept for kept in movers if not all(map(le, r, kept.p.r))]
            movers.append(st)
    return movers


def _cross(
    ctx: _Solve,
    seg: _Segment,
    s: int,
    preds: dict[frozenset[int], _Bucket],
    stage: dict[frozenset[int], _Bucket],
) -> None:
    """Take the finished stage at seg.s_prev (see _finish) across seg into
    stage, the stage at s: per bucket its plan, memoised in seg, and its
    side assignments, memoised in ctx.sides (which holds those of s alone),
    then _advance on each state that passes the first side's lower bounds.
    A hop shorter than v + 1 reads q.r[1..v + 1 - (s - s_prev)] into p_new,
    and advances every such state; a longer one advances only the movers
    (see _movers), each list built once per bucket and first_bounds."""
    v = ctx.v
    for first_crossing, bucket in preds.items():
        plan = seg.plans.get(first_crossing)
        if plan is None:
            plan = seg.plans[first_crossing] = _plan(ctx, seg, first_crossing)
        base = plan.base
        sides = ctx.sides.get(base.side_key)
        if sides is None:
            sides = ctx.sides[base.side_key] = _side_assignments(ctx, s, *base.side_key)
        bounds = base.first_bounds
        if s - seg.s_prev > v:
            movers = bucket.movers.get(bounds)
            if movers is None:
                movers = bucket.movers[bounds] = _movers(bucket.states, bounds, v)
        else:
            movers = [st for st in bucket.states if _room(st.q, bounds, v) is not None]
        for st in movers:
            _advance(ctx, st, seg, plan, s, sides, stage)


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
        (frozenset(), frozenset()) (see _PlanBase).
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
    _Bucket).  _stages then skips the pair before it builds its record,
    which leaves the stage, its keys and every back-pointer as they were.
    The skipped record catches up later from the anchor it was last
    brought to (see _segment).

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
    and the records it passes over catch up later as above.
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
        builds no record for them, and _long_star_ok, which checks only the
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

    # (s_prev, its latest record, the anchor it was last brought to) for
    # each live s_prev, in increasing order; an s_prev leaves for good once
    # its segment dies (see _live_from), a prefix of grown, and its stage's
    # buckets drop their movers then; one whose stage is empty never joins.
    # The anchor is s - 1, or an earlier one when pairs were skipped (see
    # _far_vector); _segment brings the record to s from either by the
    # members arrived since.
    grown: list[tuple[int, _Segment | None, int]] = []
    s_prev_of = itemgetter(0)
    no_long = _Long((), _NO_MEMBERS)
    # Hops at least old long are old, the bound of a clamped hop reads the
    # long members from lo >= s - reach on (see _far_vector), and buckets
    # of clamped hops read the side list under clamped_sides.
    old, reach = max(3 * longest - 3, v + 1), 2 * longest - 2
    los, clamped_sides = ctx.long_los, (frozenset(), frozenset())

    for s in range(1, ctx.m + 1):
        stage: dict[frozenset[int], _Bucket] = {}
        if stages[s - 1]:
            grown.append((s - 1, None, s - 1))
        ctx.sides.clear()
        ctx.longs.clear()
        ctx.longs[()] = no_long
        dead = bisect_left(grown, ctx.live_from[s], key=s_prev_of)
        for s_prev, _, _ in grown[:dead]:
            for bucket in stages[s_prev].values():
                bucket.movers.clear()
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
            s_prev, before, after = grown[j]
            if stage and skip_to < s_prev <= floor:
                start = bisect_left(los, max(s_prev, s - reach))
                if start != held:
                    held, bound = start, _far_vector(ctx, s_prev, s)
                if all(A in stage and stage[A].covers(bound) for A, _ in ctx.sides[clamped_sides]):
                    skip_to = min(floor, los[start]) if start < len(los) else floor
            if stage and s_prev <= skip_to:
                j = bisect_right(grown, skip_to, j, key=s_prev_of)
                continue
            seg = _segment(ctx, s_prev, after, s, before)
            grown[j] = (s_prev, seg, s)
            _cross(ctx, seg, s, stages[s_prev], stage)
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
