"""Recognition of vertebrate interval families and their compact form.

An interval family is vertebrate when its independence number equals its
number of maximal cliques.  Both quantities, and the claw number that `check`
reports beside them, come from one left-to-right pass over the endpoints in
the family's one endpoint order, `IntervalFamily.orders`: the member indices
sorted by (hi, index) and by (lo, index), computed on first use and shared by
every pass over that family.  Every pass reads the family's lo and hi
columns (`IntervalFamily.los` and `.his`), plain ints, so a family read from
a file is recognized without building one Interval object.

The independence number is the earliest-endpoint greedy down the hi order
(see `_max_disjoint_meeting` in intervals.py for why that greedy is optimal).
The maximal cliques come from merging the two orders into one event sweep,
in the manner of Gupta, Lee and Leung (Networks 1982): the members alive
between a start and the end that follows it form a maximal clique.  The
sweep counts the cliques and records each member's first and last clique;
the cliques as vertex sets follow from those ranges, and are built only when
a caller reads them (`CliqueArrangement.cliques`).

For a vertebrate family the maximal cliques, ordered left to right, induce a
compact normalized family: a vertex lying in cliques a..b becomes the open
interval (a - 1, b).  That family represents the same graph on integer
endpoints in [0, m], contains the unit "backbone" (i - 1, i) for every i, and
its longest interval length equals the claw number of the graph whenever the
graph has at least one edge.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from clawsplit.intervals import (
    IntervalFamily,
    PartitionAssignment,
    _number_pairs,
    expand_assignment,
)


class InvertebrateError(ValueError):
    """Raised when a vertebrate-only operation receives an invertebrate family.

    Carries the two disagreeing quantities: alpha (the independence number,
    from sweepline) and m_cliques (the number of maximal cliques).
    """

    def __init__(self, alpha: int, m_cliques: int) -> None:
        super().__init__(
            f"family is invertebrate: independence number {alpha} "
            f"!= maximal clique count {m_cliques}"
        )
        self.alpha = alpha
        self.m_cliques = m_cliques


class CliqueSets(Sequence[frozenset[int]]):
    """The maximal cliques of a CliqueArrangement as vertex-index sets.

    len is the clique count, known without building any set; the sets are
    built, all at once, on first read of a member, and compare equal to the
    tuple of the same sets.
    """

    def __init__(self, count: int, vertex_range: tuple[tuple[int, int], ...]) -> None:
        self._count = count
        self._vertex_range = vertex_range

    @cached_property
    def _sets(self) -> tuple[frozenset[int], ...]:
        members: list[list[int]] = [[] for _ in range(self._count)]
        for vertex, (a, b) in enumerate(self._vertex_range):
            for clique in members[a - 1 : b]:
                clique.append(vertex)
        return tuple(map(frozenset, members))

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> frozenset[int]:
        return self._sets[index]

    def __eq__(self, other: object) -> bool:
        return self._sets == other

    def __repr__(self) -> str:
        return repr(self._sets)


@dataclass(frozen=True)
class CliqueArrangement:
    """Maximal cliques of an interval family in left-to-right order.

    count: the number of maximal cliques.
    vertex_range: per vertex, the 1-based pair (a, b) of the first and last
        clique containing it; membership is consecutive for interval families.
    cliques: the vertex-index sets, ordered by the position of the
        witnessing window on the line.  They follow from vertex_range (clique
        k holds the vertices with a <= k <= b) and are built only when a
        member is read; len(cliques) is count and builds none.
    """

    count: int
    vertex_range: tuple[tuple[int, int], ...]

    @cached_property
    def cliques(self) -> CliqueSets:
        return CliqueSets(self.count, self.vertex_range)


@dataclass(frozen=True)
class VertebrateRep:
    """Compact normalized form of a vertebrate family.

    family: duplicate-free intervals with endpoints in [0, m], held as lo
        and hi columns; vertex r of this family stands for every input vertex
        whose clique range maps to the same interval (the input vertices j
        with rep_of[j] == r).
    m: number of maximal cliques; the representation spans (0, m).
    backbone: backbone[i - 1] is the family index of the unit (i - 1, i),
        present for every 1 <= i <= m.
    origin_map: family index -> index of its first input vertex.
    rep_of: input vertex index -> family index standing for it.
    source: the input family the representation was built from.
    """

    family: IntervalFamily
    m: int
    backbone: tuple[int, ...]
    origin_map: tuple[int, ...]
    rep_of: tuple[int, ...]
    source: IntervalFamily = field(repr=False)

    def __post_init__(self) -> None:
        # The checks read the columns; a member is built as an Interval only
        # to name it in an error.
        family = self.family
        los, his = family.los, family.his
        if len(self.backbone) != self.m:
            raise ValueError(f"backbone has {len(self.backbone)} units, expected m={self.m}")
        for idx, (lo, hi) in enumerate(zip(los, his)):
            if lo < 0 or hi > self.m:
                raise ValueError(f"interval {family[idx]} outside (0, {self.m})")
        for i, idx in enumerate(self.backbone, start=1):
            if los[idx] != i - 1 or his[idx] != i:
                raise ValueError(f"backbone slot {i} holds {family[idx]}")
        if len(set(zip(los, his))) != len(los):
            raise ValueError("representation family contains duplicates")

    def expand(self, assignment: PartitionAssignment) -> PartitionAssignment:
        """Lift an assignment on the representation back to input vertices."""
        return expand_assignment(self.rep_of, assignment)


def sweepline(S: IntervalFamily) -> int:
    """Independence number of S: the earliest-endpoint greedy down S's hi order.

    The greedy of `_max_disjoint_meeting` with the window (min lo, max hi),
    which every member meets, so its window filter drops nothing and the
    greedy reads the hi order of S.orders directly: take each member that
    starts at or after the end of the last one taken.  Ties in hi go by
    index, as there.  0 for the empty family.
    """
    los, his = S.los, S.his
    count = 0
    frontier = None
    for i in S.orders[0]:
        if frontier is None or los[i] >= frontier:
            count += 1
            frontier = his[i]
    return count


def maximal_cliques(S: IntervalFamily) -> CliqueArrangement:
    """All maximal cliques of S, left to right, by one sweep over the endpoints.

    The sweep merges the two orders of S.orders: before each end, every
    start strictly below its hi is taken, so at a shared coordinate ends come
    before starts, since open intervals that touch are disjoint.  When an end
    follows a start, the members alive are those on the open segment between
    two consecutive endpoint values where some member starts and some member
    ends: a maximal clique, counted once.  A vertex's range runs from the
    clique after the count at its start to the count at its end; the first
    end after its start follows a start, so the range is never empty, and it
    is consecutive by construction.  The sweep keeps no set of the members
    alive: clique k holds exactly the vertices whose range contains k, which
    is how CliqueArrangement.cliques builds the sets when they are read.

    Ties: events of equal (coordinate, kind) come in index order, but their
    order never matters.  A run of ends changes no count until the next
    start, and a run of starts adds its members to the same clique and gives
    each the same first clique; so every clique and range is fixed by the
    coordinates alone.

    Args:
        S: any interval family.

    Returns:
        CliqueArrangement with 1-based consecutive vertex ranges.
    """
    los, his = S.los, S.his
    n = len(his)
    by_hi, by_lo = S.orders
    first = [0] * n
    last = [0] * n
    count = 0
    k = 0
    for i in by_hi:
        hi = his[i]
        if k < n and los[by_lo[k]] < hi:
            count += 1
            while k < n and los[by_lo[k]] < hi:
                first[by_lo[k]] = count
                k += 1
        last[i] = count
    return CliqueArrangement(count, tuple(zip(first, last)))


def is_vertebrate(S: IntervalFamily) -> bool:
    """True iff the independence number of S equals its maximal clique count.

    The empty family is vertebrate (both quantities are 0).
    """
    return sweepline(S) == maximal_cliques(S).count


def vertebrate_representation(S: IntervalFamily) -> VertebrateRep:
    """Build the compact normalized form of a vertebrate family.

    Each vertex with clique range (a, b) maps to the interval (a - 1, b);
    vertices whose ranges coincide (exact duplicates included) are merged into
    one representative, since equal clique ranges mean equal closed
    neighbourhoods.  The ranges are merged as plain pairs, in order of first
    occurrence, and the family is held as their lo and hi columns, so no
    Interval is built until a caller reads rep.family.intervals, as the
    solver does.  rep_of recovers the input graph exactly.

    Args:
        S: a vertebrate interval family.

    Returns:
        The VertebrateRep; endpoints lie in [0, m] and the full backbone of
        unit intervals is present.

    Raises:
        InvertebrateError: if S is not vertebrate.
    """
    alpha = sweepline(S)
    arrangement = maximal_cliques(S)
    m = arrangement.count
    if alpha != m:
        raise InvertebrateError(alpha, m)
    index_of, origin, rep_of = _number_pairs((a - 1, b) for a, b in arrangement.vertex_range)
    family = IntervalFamily._from_columns(
        tuple(lo for lo, _ in index_of), tuple(hi for _, hi in index_of)
    )
    backbone = []
    for i in range(1, m + 1):
        pos = index_of.get((i - 1, i))
        if pos is None:
            raise AssertionError(f"backbone unit ({i - 1}, {i}) missing from a vertebrate family")
        backbone.append(pos)
    return VertebrateRep(
        family=family,
        m=m,
        backbone=tuple(backbone),
        origin_map=tuple(origin),
        rep_of=tuple(rep_of),
        source=S,
    )
