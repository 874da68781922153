"""Recognition of vertebrate interval families and their compact form.

An interval family is vertebrate when its independence number equals its
number of maximal cliques.  The sweepline below certifies the independence
number: it repeatedly takes a remaining interval with the smallest right
endpoint, carves out the unit window just left of that endpoint, and removes
everything containing the window.  Each round removes a clique (all removed
members share the window) and the chosen representatives are pairwise
disjoint, so the round count is simultaneously a clique-cover size and an
independent-set size.

For a vertebrate family the maximal cliques, ordered left to right, induce a
compact normalized family: a vertex lying in cliques a..b becomes the open
interval (a - 1, b).  That family represents the same graph on integer
endpoints in [0, m], contains the unit "backbone" (i - 1, i) for every i, and
its longest interval length equals the claw number of the graph whenever the
graph has at least one edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from clawsplit.intervals import (
    Interval,
    IntervalFamily,
    PartitionAssignment,
    dedup,
    expand_assignment,
)


class InvertebrateError(ValueError):
    """Raised when a vertebrate-only operation receives an invertebrate family.

    Carries the two disagreeing quantities: alpha (the sweepline round count,
    which equals the independence number) and m_cliques (the number of maximal
    cliques).
    """

    def __init__(self, alpha: int, m_cliques: int) -> None:
        super().__init__(
            f"family is invertebrate: independence number {alpha} "
            f"!= maximal clique count {m_cliques}"
        )
        self.alpha = alpha
        self.m_cliques = m_cliques


@dataclass(frozen=True)
class SweepResult:
    """Outcome of the minimum-right-endpoint sweep.

    m_sweep: number of rounds; equals both the independence number and the
        size of a clique partition of the family.
    reps: vertex index of the representative chosen in each round.
    windows: the unit window (r - 1, r) carved out in each round.
    clique_partition: per vertex, the 1-based round that removed it.
    """

    m_sweep: int
    reps: tuple[int, ...]
    windows: tuple[Interval, ...]
    clique_partition: tuple[int, ...]


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


def sweepline(S: IntervalFamily) -> SweepResult:
    """Partition S into cliques while certifying the independence number.

    Each round picks the remaining interval with the smallest right endpoint r
    (lowest vertex index on ties) and removes every remaining interval that
    contains the open unit window (r - 1, r).

    Args:
        S: any interval family.

    Returns:
        SweepResult; its representatives are pairwise disjoint, so m_sweep is
        both the independence number and the number of cliques in the
        partition it builds.
    """
    remaining = set(range(len(S)))
    reps: list[int] = []
    windows: list[Interval] = []
    clique_partition = [0] * len(S)
    round_no = 0
    while remaining:
        round_no += 1
        t = min(remaining, key=lambda i: (S[i].hi, i))
        window = Interval(S[t].hi - 1, S[t].hi)
        removed = {i for i in remaining if S[i].lo <= window.lo and S[i].hi >= window.hi}
        for i in removed:
            clique_partition[i] = round_no
        remaining -= removed
        reps.append(t)
        windows.append(window)
    return SweepResult(round_no, tuple(reps), tuple(windows), tuple(clique_partition))


def maximal_cliques(S: IntervalFamily) -> CliqueArrangement:
    """All maximal cliques of S, left to right.

    Sweeps the open segments between consecutive endpoint values.  The members
    alive on a segment form a clique; it is maximal exactly when some member
    starts at the segment's left end and some member ends at its right end,
    which is where the sweep emits it.

    Args:
        S: any interval family.

    Returns:
        CliqueArrangement with 1-based consecutive vertex ranges.
    """
    n = len(S)
    if n == 0:
        return CliqueArrangement((), ())
    values = sorted({e for iv in S for e in (iv.lo, iv.hi)})
    cliques: list[frozenset[int]] = []
    for left, right in zip(values, values[1:]):
        alive = [i for i in range(n) if S[i].lo <= left and S[i].hi >= right]
        if not alive:
            continue
        born = any(S[i].lo == left for i in alive)
        dies = any(S[i].hi == right for i in alive)
        if born and dies:
            cliques.append(frozenset(alive))
    first = [0] * n
    last = [0] * n
    for pos, clique in enumerate(cliques, start=1):
        for i in clique:
            if first[i] == 0:
                first[i] = pos
            last[i] = pos
    ranges = []
    for i in range(n):
        a, b = first[i], last[i]
        if a < 1:
            raise AssertionError(f"vertex {i} missed by every maximal clique")
        span = sum(1 for clique in cliques if i in clique)
        if span != b - a + 1:
            raise AssertionError(f"vertex {i} has non-consecutive clique membership")
        ranges.append((a, b))
    return CliqueArrangement(tuple(cliques), tuple(ranges))


def is_vertebrate(S: IntervalFamily) -> bool:
    """True iff the independence number of S equals its maximal clique count.

    The empty family is vertebrate (both quantities are 0).
    """
    return sweepline(S).m_sweep == len(maximal_cliques(S).cliques)


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
    sweep = sweepline(S)
    arrangement = maximal_cliques(S)
    m = len(arrangement.cliques)
    if sweep.m_sweep != m:
        raise InvertebrateError(sweep.m_sweep, m)
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
