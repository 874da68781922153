"""Compressed profiles of windowed independence numbers.

For a family R of intervals inside (0, s), the solver never needs the whole
map i -> alpha_window(R, i, s); values above v + 1 are indistinguishable for
a claw bound of v.  The profile kept instead is, for each target value u, the
largest window start i at which alpha_window(R, i, s) equals u (it equals
rather than merely reaches u because shrinking the window by one integer step
drops the answer by at most one).  Written as a sequence r_0..r_{v+2} with
r_0 = s and r_{v+2} = -1, the entries strictly decrease until they bottom out
at -1, which is what MonotonicSeq enforces.

encode builds the profile of a family with _profile, one right-to-left
greedy chain of at most v + 1 picks, each a pass over the members, rather
than one greedy per window start.  alpha_seq reads the independence number
back off a profile (exactly when it is at most v, saturating above),
and extend advances the two profiles of a 2-partition across a segment
(s_prev, s] given only the new members, without revisiting the old ones.
fd_head is the part of extend that depends on s_prev and the new
second-part members alone: it leaves out the entry r_0 = s, and nothing
else in it reads s.  So a caller crossing one segment from many
predecessors, or growing it anchor by anchor without new second-part
members, can compute it once and pass it in; it then vouches for the
segment members (the solver validates its long ones and passes no short
one), which extend validates only when it computes the head itself.  Such
a caller can also pass extend a table that interns the profiles it
returns, so that each distinct profile is built, and validated, once, and a
floor below which it sets every entry to -1 before interning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from clawsplit.intervals import Interval, IntervalFamily, _max_disjoint_meeting


@dataclass(frozen=True)
class MonotonicSeq:
    """Profile sequence r_0..r_{v+2}: r_0 = s, r_{v+2} = -1, and each later
    entry is either strictly smaller or already bottomed out at -1."""

    r: tuple[int, ...]
    s: int
    v: int

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError(f"claw bound v={self.v}: need v >= 1")
        if self.s < 0:
            raise ValueError(f"anchor s={self.s}: need s >= 0")
        if len(self.r) != self.v + 3:
            raise ValueError(f"profile has {len(self.r)} entries, expected v+3={self.v + 3}")
        if self.r[0] != self.s:
            raise ValueError(f"profile starts at {self.r[0]}, expected s={self.s}")
        if self.r[-1] != -1:
            raise ValueError(f"profile ends at {self.r[-1]}, expected -1")
        for u in range(self.v + 2):
            nxt, cur = self.r[u + 1], self.r[u]
            if not (nxt == cur == -1 or -1 <= nxt < cur):
                raise ValueError(f"profile {self.r} not monotonic at position {u}")


def zero_seq(v: int) -> MonotonicSeq:
    """The unique profile at s = 0: <0, -1, ..., -1>."""
    return MonotonicSeq((0,) + (-1,) * (v + 2), 0, v)


def _profile(intervals: Sequence[Interval], s: int, v: int) -> list[int]:
    """Raw profile entries for a family inside (0, s), by one right-to-left
    greedy chain.

    Every member lies inside (0, s), so it meets the window (i, s) iff
    hi > i, and alpha_window(R, i, s) is the largest number of disjoint
    members that all end past i.  The chain starts at f_0 = s; its pick c_u
    is the member with the largest lo among those with hi <= f_{u-1}, and
    f_u = lo(c_u).  Entry u is H_u - 1, where H_u is the largest hi among
    the members with hi <= f_{u-1}, and -1 once no member is left.

    Proof, the last-pick existence argument of claw_number read from the
    right.  f_u is the largest possible left end of u disjoint members:
    order any u disjoint members right to left; the j-th of them ends by s
    or by the start of the one before it, which by induction on j is at or
    before f_{j-1}, so it starts at or before f_j.  Now the value at i is at
    least u iff some u disjoint members all end past i, that is, iff the
    leftmost of them does.  That member ends by the start of the other
    u - 1, so at or before f_{u-1}, and thus at or before H_u; so i < H_u
    is needed.  Conversely, the member ending at H_u and the picks
    c_1..c_{u-1} are u disjoint members that all end past any i < H_u.  So
    H_u - 1 is the largest i with value at least u, and, as the value grows
    by at most one per step (see the module docstring), the largest with
    value u.  H_u <= f_{u-1} = lo(c_{u-1}) < H_{u-1}, so the entries
    strictly decrease; that is checked as each is set.
    """
    r = [-1] * (v + 3)
    r[0] = frontier = s
    for u in range(1, v + 2):
        below = [iv for iv in intervals if iv.hi <= frontier]
        if not below:
            break
        r[u] = max(iv.hi for iv in below) - 1
        if not r[u] < r[u - 1]:
            raise AssertionError("windowed independence moved by more than one")
        frontier = max(iv.lo for iv in below)
    return r


def encode(R: IntervalFamily, s: int, v: int) -> MonotonicSeq:
    """Profile of a family whose members all lie inside (0, s).

    Args:
        R: family with every member satisfying 0 <= lo and hi <= s.
        s: right anchor, s >= 0.
        v: claw bound, v >= 1.

    Returns:
        The MonotonicSeq with entry u equal to the largest window start i such
        that u <= alpha_window(R, i, s) <= v + 1, or -1 if no such i exists.
    """
    for iv in R:
        if iv.lo < 0 or iv.hi > s:
            raise ValueError(f"interval {iv} not inside (0, {s})")
    return MonotonicSeq(tuple(_profile(R.intervals, s, v)), s, v)


def alpha_seq(r: MonotonicSeq, i: int) -> int:
    """Windowed independence number read off a profile, capped at v + 1.

    Args:
        r: a profile for some family R inside (0, r.s).
        i: window start, 0 <= i <= r.s.

    Returns:
        The largest u <= v + 1 with i <= r_u.  Equals alpha_window(R, i, r.s)
        whenever that is at most v; otherwise the true value is >= v + 1.
    """
    if not 0 <= i <= r.s:
        raise ValueError(f"window start {i} outside [0, {r.s}]")
    for u in range(r.v + 1, -1, -1):
        if r.r[u] >= i:
            return u
    raise AssertionError("profile lost its anchor entry")


def _check_segment_members(
    C: Iterable[Interval], D: Iterable[Interval], s_prev: int, s: int, v: int
) -> None:
    """Raise ValueError unless every member of C is a short, and every member
    of D a long, member of the segment (s_prev, s) (see extend)."""
    for iv in C:
        if iv.lo < s_prev or iv.hi > s or iv.length > v:
            raise ValueError(f"{iv} is not a short segment member of ({s_prev}, {s})")
    for iv in D:
        if iv.lo < s_prev or iv.hi > s or iv.length <= v:
            raise ValueError(f"{iv} is not a long segment member of ({s_prev}, {s})")


def fd_head(
    F: IntervalFamily, D: IntervalFamily, s_prev: int, s: int, v: int
) -> tuple[tuple[int, ...], int, int]:
    """The second part's new profile head across the segment (s_prev, s].

    Args:
        F, D, s_prev, s, v: as for extend.

    Returns:
        (head, w, w_full): the entries r_1..r_{v+1} of the raw profile of
        F + D at s, and how many disjoint members of D, and of F + D, meet
        (s_prev, s).  None of them depends on the predecessor profiles.
        Entry r_0 = s is left out, and the rest does not depend on s:
        every member of F + D ends by s and meets (s_prev, s), so the
        profile chain and both counts see the same members at every s.  A
        head computed at one s is thus the head at every later s for the
        same F, D and s_prev.
    """
    fd = F.intervals + D.intervals
    return (
        tuple(_profile(fd, s, v)[1:-1]),
        _max_disjoint_meeting(D.intervals, s_prev, s),
        _max_disjoint_meeting(fd, s_prev, s),
    )


def extend(
    p_prev: MonotonicSeq,
    q_prev: MonotonicSeq,
    F: IntervalFamily,
    C: IntervalFamily,
    D: IntervalFamily,
    s_prev: int,
    s: int,
    v: int,
    head: tuple[tuple[int, ...], int, int] | None = None,
    table: dict[tuple[int, ...], MonotonicSeq] | None = None,
    floor: int = 0,
) -> tuple[MonotonicSeq, MonotonicSeq]:
    """Advance a 2-partition's profiles across the segment (s_prev, s].

    The first part picks up C, the full set of segment members with length at
    most v (backbone units included); the second part picks up D, the segment
    members longer than v, together with F, the members that reach back across
    s_prev and were already committed to the second part.

    Args:
        p_prev: profile of the first part's predecessor at s_prev.
        q_prev: profile of the second part's predecessor at s_prev.
        F: second-part members with lo < s_prev < hi <= s.
        C: segment members inside (s_prev, s) with length <= v.  They
            enter neither profile, and extend reads them only to validate
            them when head is None, so a caller that passes head may pass
            an empty family.
        D: segment members inside (s_prev, s) with length > v.
        s_prev, s: segment anchors, 0 <= s_prev < s.
        v: claw bound, v >= 1.
        head: fd_head(F, D, s_prev, s, v), if the caller already has it;
            computed here when None.  The anchors, the predecessor profiles
            and F are validated either way, C and D only when head is None:
            a caller that passes head vouches for them.  solve's _segment
            validates each long member with _check_segment_members when it
            takes it, and one valid for (s_prev, s') is valid for every
            s > s', so D needs no check here; C it passes empty.
        table: profiles already built, by entries; when given, a returned
            profile is taken from it if present and added to it otherwise.
            Its keys are the entries, which fix s (entry 0) and v (their
            count less 3), so a hit is the profile a fresh build would give,
            and that build's validation already ran when it was added.
        floor: every entry of both new profiles below floor, 0 <= floor <= s,
            is set to -1 before the profile is interned (so r_0 = s stays).
            The default 0 changes no entry.  The solver passes the least lo
            of the members crossing s, below which no later check reads a
            profile (see solver._advance).

    Returns:
        The pair of profiles at s.  The first part's new profile starts with
        the unit-backbone ramp s - u and falls back to shifted p_prev entries;
        the second part's starts with the profile of F + D and falls back to
        q_prev entries shifted by the segment independence of D.
    """
    if not 0 <= s_prev < s:
        raise ValueError(f"segment ({s_prev}, {s}] is not ordered")
    if not 0 <= floor <= s:
        raise ValueError(f"floor {floor} outside [0, {s}]")
    if p_prev.s != s_prev or q_prev.s != s_prev:
        raise ValueError("predecessor profiles not anchored at s_prev")
    if p_prev.v != v or q_prev.v != v:
        raise ValueError("predecessor profiles built for a different claw bound")
    if head is None:
        _check_segment_members(C, D, s_prev, s, v)
    for iv in F:
        if not (0 <= iv.lo < s_prev < iv.hi <= s):
            raise ValueError(f"{iv} does not cross s_prev={s_prev} within (0, {s})")

    fd, w, w_full = fd_head(F, D, s_prev, s, v) if head is None else head

    # Both raw profiles strictly decrease until they bottom out at -1, and
    # -1 < floor, so the entries below floor are a suffix: each loop stops
    # at the first one and leaves the rest at -1.
    p = [-1] * (v + 3)
    p[0] = s
    for u in range(1, v + 2):
        x = s - u if u <= s - s_prev else p_prev.r[u - (s - s_prev)]
        if x < floor:
            break
        p[u] = x

    q = [-1] * (v + 3)
    q[0] = s
    for u in range(1, v + 2):
        x = fd[u - 1] if u <= w_full else q_prev.r[u - w]
        if x < floor:
            break
        q[u] = x

    return _interned(tuple(p), s, v, table), _interned(tuple(q), s, v, table)


def _interned(
    r: tuple[int, ...], s: int, v: int, table: dict[tuple[int, ...], MonotonicSeq] | None
) -> MonotonicSeq:
    """MonotonicSeq(r, s, v), taken from table when it holds r."""
    if table is None:
        return MonotonicSeq(r, s, v)
    seq = table.get(r)
    if seq is None:
        seq = table[r] = MonotonicSeq(r, s, v)
    return seq
