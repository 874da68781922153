"""Recognition of vertebrate interval families and their compact form.

An interval family is vertebrate when its independence number equals its
number of maximal cliques.  Each quantity comes from one sort of the
endpoints.  The independence number is the earliest-endpoint greedy over the
whole line, `_max_disjoint_meeting` in intervals.py, whose docstring says
why that greedy is optimal.  The maximal cliques come from an event sweep
over the sorted endpoints: the members alive between a start and the end
that follows it form a maximal clique.

For a vertebrate family the maximal cliques, ordered left to right, induce a
compact normalized family: a vertex lying in cliques a..b becomes the open
interval (a - 1, b).  That family represents the same graph on integer
endpoints in [0, m], contains the unit "backbone" (i - 1, i) for every i, and
its longest interval length equals the claw number of the graph whenever the
graph has at least one edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from clawsplit.intervals import (
    Interval,
    IntervalFamily,
    PartitionAssignment,
    _max_disjoint_meeting,
    dedup,
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


@dataclass(frozen=True)
class CliqueArrangement:
    """Maximal cliques of an interval family in left-to-right order.

    cliques: vertex-index sets, ordered by the position of the witnessing
        window on the line.
    vertex_range: per vertex, the 1-based pair (a, b) of the first and last
        clique containing it; membership is consecutive for interval families.
    """

    cliques: tuple[frozenset[int], ...]
    vertex_range: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class VertebrateRep:
    """Compact normalized form of a vertebrate family.

    family: duplicate-free intervals with endpoints in [0, m]; vertex r of
        this family stands for every input vertex whose clique range maps to
        the same interval (multiplicity records how many).
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
        if len(self.backbone) != self.m:
            raise ValueError(f"backbone has {len(self.backbone)} units, expected m={self.m}")
        for iv in self.family:
            if iv.lo < 0 or iv.hi > self.m:
                raise ValueError(f"interval {iv} outside (0, {self.m})")
        for i, idx in enumerate(self.backbone, start=1):
            if self.family[idx] != Interval(i - 1, i):
                raise ValueError(f"backbone slot {i} holds {self.family[idx]}")
        if len(set(self.family.intervals)) != len(self.family):
            raise ValueError("representation family contains duplicates")

    def expand(self, assignment: PartitionAssignment) -> PartitionAssignment:
        """Lift an assignment on the representation back to input vertices."""
        return expand_assignment(self.rep_of, assignment)


def sweepline(S: IntervalFamily) -> int:
    """Independence number of S: the earliest-endpoint greedy over all of S.

    Every member meets the open window (min lo, max hi), so the greedy of
    `_max_disjoint_meeting` over that window counts a largest set of pairwise
    disjoint members.  0 for the empty family.
    """
    if not len(S):
        return 0
    return _max_disjoint_meeting(
        S.intervals, min(iv.lo for iv in S), max(iv.hi for iv in S)
    )


def maximal_cliques(S: IntervalFamily) -> CliqueArrangement:
    """All maximal cliques of S, left to right, by one sweep over the endpoints.

    At a shared coordinate ends sort before starts, since open intervals that
    touch are disjoint.  When an end follows a start, the members alive are
    those on the open segment between two consecutive endpoint values where
    some member starts and some member ends: a maximal clique, emitted once.
    A vertex's range runs from the clique after the count at its start to the
    count at its end; the first end after its start follows a start, so the
    range is never empty, and it is consecutive by construction.

    Args:
        S: any interval family.

    Returns:
        CliqueArrangement with 1-based consecutive vertex ranges.
    """
    # (coordinate, 0 for an end or 1 for a start, vertex)
    events = sorted(
        [(iv.hi, 0, i) for i, iv in enumerate(S)] + [(iv.lo, 1, i) for i, iv in enumerate(S)]
    )
    alive: set[int] = set()
    cliques: list[frozenset[int]] = []
    first = [0] * len(S)
    last = [0] * len(S)
    after_start = False
    for _, is_start, i in events:
        if is_start:
            alive.add(i)
            first[i] = len(cliques) + 1
        else:
            if after_start:
                cliques.append(frozenset(alive))
            alive.remove(i)
            last[i] = len(cliques)
        after_start = bool(is_start)
    return CliqueArrangement(tuple(cliques), tuple(zip(first, last)))


def is_vertebrate(S: IntervalFamily) -> bool:
    """True iff the independence number of S equals its maximal clique count.

    The empty family is vertebrate (both quantities are 0).
    """
    return sweepline(S) == len(maximal_cliques(S).cliques)


def vertebrate_representation(S: IntervalFamily) -> VertebrateRep:
    """Build the compact normalized form of a vertebrate family.

    Each vertex with clique range (a, b) maps to the interval (a - 1, b);
    vertices whose ranges coincide (exact duplicates included) are merged into
    one representative, since equal clique ranges mean equal closed
    neighbourhoods.  multiplicity and rep_of recover the input graph exactly.

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
    m = len(arrangement.cliques)
    if alpha != m:
        raise InvertebrateError(alpha, m)
    family, rep_of = dedup(
        IntervalFamily(tuple(Interval(a - 1, b) for a, b in arrangement.vertex_range))
    )
    # dedup numbers the distinct intervals in order of first occurrence.
    origin: list[int] = []
    for vertex, pos in enumerate(rep_of):
        if pos == len(origin):
            origin.append(vertex)
    index_of = {iv: pos for pos, iv in enumerate(family)}
    backbone = []
    for i in range(1, m + 1):
        unit = Interval(i - 1, i)
        pos = index_of.get(unit)
        if pos is None:
            raise AssertionError(f"backbone unit {unit} missing from a vertebrate family")
        backbone.append(pos)
    return VertebrateRep(
        family=family,
        m=m,
        backbone=tuple(backbone),
        origin_map=tuple(origin),
        rep_of=rep_of,
        source=S,
    )
