"""Open integer intervals and the claw machinery built on them.

Every interval in this package is an open interval (lo, hi) with integer
endpoints and positive length hi - lo.  Two open intervals intersect iff
max(lo1, lo2) < min(hi1, hi2); intervals that merely touch at an endpoint
are disjoint.

The workhorse quantity is alpha_window(S, l, r): the maximum number of
pairwise-disjoint members of S that each intersect the open window (l, r).
Members are not required to lie inside the window, only to meet it.  Since
endpoints are integers, each chosen member meets the window in a sub-window
of length at least 1, and those sub-windows are pairwise disjoint, so the
answer never exceeds r - l.  Induced stars reduce to the same quantity: a
family contains an induced star with t leaves iff some member intersects t
pairwise-disjoint members other than itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True, order=True)
class Interval:
    """Open interval (lo, hi) with integer endpoints, lo < hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"interval ({self.lo}, {self.hi}) is empty: need lo < hi")

    def __iter__(self) -> Iterator[int]:
        return iter((self.lo, self.hi))

    @property
    def length(self) -> int:
        return self.hi - self.lo


class Side(Enum):
    """Which part of a 2-partition a vertex belongs to."""

    FIRST = "FIRST"
    SECOND = "SECOND"

    def other(self) -> "Side":
        return Side.SECOND if self is Side.FIRST else Side.FIRST


@dataclass(frozen=True)
class PartitionAssignment:
    """A side per vertex index; the witness format for 2-partitions."""

    sides: tuple[Side, ...]

    def __len__(self) -> int:
        return len(self.sides)

    def side_of(self, index: int) -> Side:
        return self.sides[index]

    def part(self, side: Side) -> tuple[int, ...]:
        """Vertex indices assigned to the given side."""
        return tuple(i for i, s in enumerate(self.sides) if s is side)

    def swapped(self) -> "PartitionAssignment":
        return PartitionAssignment(tuple(s.other() for s in self.sides))


class IntervalFamily:
    """Indexed sequence of intervals; vertex i of the graph is member i.

    A family is held in one of two forms and derives the other on first
    read, keeping it for the family's life, as it does orders:

      * intervals, a tuple of Interval objects: what IntervalFamily(intervals)
        is given, and what the solver's many small families are read as;
      * los and his, two tuples of ints, member i being (los[i], his[i]):
        what from_pairs, the instance parser, subfamily, dedup and
        vertebrate_representation build, and what every recognition pass,
        claw count and dedup reads.

    So a parsed family builds its Interval objects only when a caller reads
    intervals, iterates or indexes, and a family built from intervals builds
    its columns only when a pass reads them.  Equality, hash, len and repr
    do not depend on the form a family was built in.  Families are
    immutable: assigning an attribute raises FrozenInstanceError, an
    AttributeError.

    orders is the family's one endpoint order, computed on first use and kept
    for the family's life; every recognition pass reads it instead of sorting.
    """

    def __init__(self, intervals: Iterable[Interval]) -> None:
        self.__dict__["intervals"] = tuple(intervals)

    @classmethod
    def _from_columns(cls, los: tuple[int, ...], his: tuple[int, ...]) -> "IntervalFamily":
        """A family on columns the caller has checked: lo < hi throughout."""
        family = cls.__new__(cls)
        known = family.__dict__
        known["los"] = los
        known["his"] = his
        return family

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "IntervalFamily":
        los: list[int] = []
        his: list[int] = []
        for lo, hi in pairs:
            if lo >= hi:
                raise ValueError(f"interval ({lo}, {hi}) is empty: need lo < hi")
            los.append(lo)
            his.append(hi)
        return cls._from_columns(tuple(los), tuple(his))

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.los, self.his))

    @cached_property
    def los(self) -> tuple[int, ...]:
        return tuple(iv.lo for iv in self.intervals)

    @cached_property
    def his(self) -> tuple[int, ...]:
        return tuple(iv.hi for iv in self.intervals)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        known = self.__dict__
        return len(known["his"] if "his" in known else known["intervals"])

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __getitem__(self, index: int) -> Interval:
        return self.intervals[index]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.los == other.los and self.his == other.his

    def __hash__(self) -> int:
        return hash((self.los, self.his))

    def __repr__(self) -> str:
        return f"IntervalFamily(intervals={self.intervals!r})"

    def subfamily(self, indices: Iterable[int]) -> "IntervalFamily":
        picked = tuple(indices)
        los, his = self.los, self.his
        return IntervalFamily._from_columns(
            tuple(los[i] for i in picked), tuple(his[i] for i in picked)
        )

    @cached_property
    def orders(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(by_hi, by_lo): the member indices sorted by (hi, index) and by
        (lo, index).  The sorts are stable, so equal keys keep index order."""
        los, his = self.los, self.his
        n = len(his)
        return (
            tuple(sorted(range(n), key=his.__getitem__)),
            tuple(sorted(range(n), key=los.__getitem__)),
        )


def intersects(x: Interval, y: Interval) -> bool:
    """True iff the two open intervals share a point."""
    return max(x.lo, y.lo) < min(x.hi, y.hi)


def _max_disjoint_meeting(intervals: Sequence[Interval], l: int, r: int) -> int:
    """Greedy maximum number of pairwise-disjoint intervals meeting open (l, r).

    Classic earliest-endpoint selection, which is optimal for maximum disjoint
    subfamilies of intervals; ties broken toward the lowest index.  Restricting
    to the members that meet the window first does not disturb optimality since
    any feasible subfamily consists of such members.
    """
    if l >= r:
        return 0
    candidates = [
        (iv.hi, idx) for idx, iv in enumerate(intervals) if max(iv.lo, l) < min(iv.hi, r)
    ]
    candidates.sort()
    count = 0
    frontier = None
    for hi, idx in candidates:
        lo = intervals[idx].lo
        if frontier is None or lo >= frontier:
            count += 1
            frontier = hi
    return count


def alpha_window(S: IntervalFamily, l: int, r: int) -> int:
    """Maximum size of a pairwise-disjoint subfamily of S meeting window (l, r).

    Args:
        S: interval family.
        l, r: window endpoints, l <= r.  An empty window (l == r) meets nothing.

    Returns:
        The independence number of S restricted to members intersecting (l, r).
    """
    if l > r:
        raise ValueError(f"window ({l}, {r}) reversed: need l <= r")
    return _max_disjoint_meeting(S.intervals, l, r)


def claw_number(S: IntervalFamily) -> int:
    """Largest t such that S contains an induced star with t leaves.

    Each member is its own vertex, so repeated members are allowed and the
    answer is the claw number of the graph S represents.  Equals the maximum,
    over centers c in S, of the number of pairwise-disjoint members of S
    other than c itself that intersect c.  0 for empty or edgeless families.

    Each center runs the earliest-endpoint greedy of _max_disjoint_meeting
    on the window (l, r) = c, with every pick found by bisection in the
    family's endpoint orders (S.orders), so nothing is sorted here:

      * the first pick is the member other than c (by index) with the
        smallest hi in (l, r]; if there is none, every other member meeting
        the window ends past r, and the count is 1 if some member crosses r;
      * each later pick, from frontier f, is the member with the smallest
        hi among those with lo >= f (a suffix minimum in lo order; c has
        lo = l < f and is never among them).  If that member starts at or
        past r, it does not meet the window, and its hi bounds the hi of
        every member with lo in [f, r); so one more pick exists iff some
        member has lo in [f, r), and it ends past r, which ends the scan.

    Ties: the lo order breaks equal lo by index, not by hi.  Every search
    in it is a bisect_left, which lands at the start of a group of equal lo,
    and suffix_min at a group's start and prefix_max_hi just before it are
    the minimum and maximum over whole groups, so neither depends on the
    order inside a group.

    Repeated members: a twin of c (same lo and hi) has lo = l, below every
    later frontier, so it can only be c's first pick; it is picked only when
    no member other than c ends in (l, r), and then the count is 1 with
    frontier r.  A copy of a pick has lo below the new frontier and is never
    picked again.  So, against the distinct members alone, twins lift a
    center's count only from 0 to 1: adjacent twins form an edge but never
    join a larger star, since a leaf set is pairwise disjoint.
    """
    lo_of, hi_of = S.los, S.his
    n = len(hi_of)
    by_hi, by_lo = S.orders
    his = list(map(hi_of.__getitem__, by_hi))
    los = list(map(lo_of.__getitem__, by_lo))
    ordered_his = list(map(hi_of.__getitem__, by_lo))
    # suffix_min[k]: (hi, lo) of the member with the smallest hi among the
    # members by_lo[k:]; prefix_max_hi[k]: the largest hi among by_lo[:k + 1].
    suffix_min = list(accumulate(zip(reversed(ordered_his), reversed(los)), min))[::-1]
    prefix_max_hi = list(accumulate(ordered_his, max))

    best = 0
    for idx, (l, r) in enumerate(zip(lo_of, hi_of)):
        if r - l <= best:
            continue  # a center meets at most r - l disjoint others
        j = bisect_right(his, l)
        if j < n and by_hi[j] == idx:
            j += 1
        if j == n or his[j] > r:
            below_r = bisect_left(los, r)
            count = 1 if below_r and prefix_max_hi[below_r - 1] > r else 0
        else:
            count, frontier = 1, his[j]
            while frontier < r:
                k = bisect_left(los, frontier)
                if k == n:
                    break
                hi, lo = suffix_min[k]
                if lo < r:
                    count += 1
                    frontier = hi
                else:
                    if k < bisect_left(los, r):
                        count += 1
                    break
        best = max(best, count)
    return best


def mid_relation(R: IntervalFamily, S: IntervalFamily, v: int) -> bool:
    """True iff every member of R meets at most v disjoint members of S.

    The member itself is excluded from its own neighbour count; families are
    expected duplicate-free so exclusion by value and by position coincide.

    Args:
        R: centers to check.
        S: family supplying the potential disjoint neighbours.
        v: the claw bound, v >= 1.

    Returns:
        False as soon as some center of R meets v + 1 pairwise-disjoint
        members of S other than itself, else True.
    """
    if v < 1:
        raise ValueError(f"claw bound v={v}: need v >= 1")
    for center in R.intervals:
        if center.length <= v:
            continue  # disjoint neighbours occupy disjoint unit sub-windows
        others = [iv for iv in S.intervals if iv != center]
        if _max_disjoint_meeting(others, center.lo, center.hi) > v:
            return False
    return True


def _number_pairs(
    pairs: Iterable[tuple[int, int]],
) -> tuple[dict[tuple[int, int], int], list[int], list[int]]:
    """Number the distinct (lo, hi) pairs in order of first occurrence.

    Returns:
        (index_of, first, rep_of): index_of maps each distinct pair to its
        number, in that order; first[k] is the position of pair k's first
        occurrence; rep_of maps each position to the number of its pair.
    """
    index_of: dict[tuple[int, int], int] = {}
    first: list[int] = []
    rep_of: list[int] = []
    for position, pair in enumerate(pairs):
        k = index_of.setdefault(pair, len(first))
        if k == len(first):
            first.append(position)
        rep_of.append(k)
    return index_of, first, rep_of


def dedup(S: IntervalFamily) -> tuple[IntervalFamily, tuple[int, ...]]:
    """Collapse duplicate intervals, keeping first occurrences.

    Members are keyed by their plain (lo, hi) pairs, read off the columns
    (_number_pairs), which hash far faster than Interval objects, and the
    distinct family is the subfamily of first occurrences, held as columns:
    dedup builds no Interval.

    Args:
        S: any interval family.

    Returns:
        (family, rep_of) where family holds the distinct intervals in order of
        first occurrence, and rep_of maps each original index to the index of
        its representative in family; how many copies a member stands for is
        how often its index occurs in rep_of.  Any PartitionAssignment on the
        dedup'd family expands to the original by giving every copy the side
        of its representative (expand_assignment).
    """
    _, first, rep_of = _number_pairs(zip(S.los, S.his))
    return S.subfamily(first), tuple(rep_of)


def expand_assignment(rep_of: Sequence[int], assignment: PartitionAssignment) -> PartitionAssignment:
    """Lift an assignment on a dedup'd family back to the original indices."""
    return PartitionAssignment(tuple(assignment.sides[j] for j in rep_of))


def graph_claw_number(S: IntervalFamily) -> int:
    """Claw number of the graph represented by S, duplicates included.

    claw_number counts each copy of a repeated interval as its own vertex,
    so this is claw_number(S); its docstring shows why that equals the claw
    number of the dedup'd family, bumped to 1 when that is 0 but some
    interval repeats.
    """
    return claw_number(S)
