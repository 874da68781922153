"""Brute-force reference answers and seeded instance generators.

Everything here trades speed for independence from the production code
paths: independence numbers and claw numbers come from exhaustive search
over vertex subsets, and the 2-partition oracle enumerates assignments in
lexicographic order (first side before second, vertex 0 pinned to the first
side, which loses nothing because the complement of a feasible assignment
is feasible).  Branches die as soon as the assigned vertices contain a
one-colored star with v + 1 independent leaves; such a star can never be
undone by later assignments, so the first surviving leaf is exactly the
lexicographically least feasible assignment.

Size guards raise rather than grind: these routines are for desk-size
cross-checks, not production use.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from clawsplit.intervals import (
    Interval,
    IntervalFamily,
    PartitionAssignment,
    Side,
    dedup,
    intersects,
)
from clawsplit.recognition import is_vertebrate
from clawsplit.solver import compute_groups, verify_partition

_ALPHA_CAP = 20
_CLAW_CAP = 18
_PARTITION_CAP = 16
_GEN_CAP = 1_000_000  # members one generate call may ask for


class SizeGuardError(RuntimeError):
    """Raised when an exhaustive routine is asked for more than it should chew.

    reason says what was too large; the message adds how a library caller
    overrides the guard.
    """

    def __init__(self, reason: str):
        super().__init__(f"{reason}; pass limit= to override deliberately")
        self.reason = reason


class GenerationError(RuntimeError):
    """Raised when generate finds no instance of the requested kind."""


def _guard(n: int, cap: int, limit: Optional[int], what: str) -> None:
    effective = cap if limit is None else limit
    if n > effective:
        raise SizeGuardError(f"{what}: {n} vertices exceeds the cap of {effective}")


def _max_disjoint_exact(ivs: Sequence[Interval], cap: int) -> int:
    """Exact maximum number of pairwise disjoint intervals, by recursion.

    Stops early once cap is reached.  Deliberately avoids the greedy
    argument the production code relies on.
    """
    best = 0
    n = len(ivs)

    def rec(i: int, chosen: list[Interval]) -> None:
        nonlocal best
        if best >= cap:
            return
        if len(chosen) + (n - i) <= best:
            return
        if i == n:
            if len(chosen) > best:
                best = len(chosen)
            return
        iv = ivs[i]
        if all(not intersects(iv, c) for c in chosen):
            chosen.append(iv)
            rec(i + 1, chosen)
            chosen.pop()
        rec(i + 1, chosen)

    rec(0, [])
    return best


def oracle_alpha(S: IntervalFamily, *, limit: Optional[int] = None) -> int:
    """Independence number by exhaustive search.  Guarded at 20 vertices."""
    _guard(len(S), _ALPHA_CAP, limit, "oracle_alpha")
    return _max_disjoint_exact(list(S), len(S) + 1)


def oracle_claw(S: IntervalFamily, *, limit: Optional[int] = None) -> int:
    """Largest v with an induced star K_{1,v}, vertices taken as given.

    Duplicated intervals count as distinct, mutually adjacent vertices.
    Guarded at 18 vertices.
    """
    _guard(len(S), _CLAW_CAP, limit, "oracle_claw")
    n = len(S)
    best = 0
    for c in range(n):
        neigh = [S[j] for j in range(n) if j != c and intersects(S[j], S[c])]
        if len(neigh) > best:
            best = max(best, _max_disjoint_exact(neigh, len(neigh) + 1))
    return best


@dataclass(frozen=True)
class OracleReport:
    """Outcome of the exhaustive 2-partition scan.

    witness is the lexicographically least feasible assignment (vertex 0 on
    the first side) or None.  The optional property fields are filled only
    when every feasible assignment was enumerated; good_count then counts
    the feasible assignments having vertex 0 on the first side.
    """

    decision: bool
    witness: PartitionAssignment | None
    good_count: int | None = None
    all_good_group_conforming: bool | None = None
    any_good_basic: bool | None = None


def _creates_claw(
    ivs: Sequence[Interval],
    adj: Sequence[tuple[int, ...]],
    sides: list,
    k: int,
    v: int,
) -> bool:
    """Does assigning vertex k complete a one-colored star with v+1 leaves?

    Only stars whose latest-assigned vertex is k need checking, so the
    candidate centers are k itself and its same-side assigned neighbors.
    """
    side = sides[k]
    for c in (k, *adj[k]):
        if sides[c] is not side:
            continue
        leaves = [ivs[j] for j in adj[c] if sides[j] is side]
        if len(leaves) > v and _max_disjoint_exact(leaves, v + 1) > v:
            return True
    return False


def _unit_positions(ivs: Sequence[Interval]) -> dict[int, list[int]]:
    """Map k to the vertex indices carrying the unit interval (k-1, k)."""
    units: dict[int, list[int]] = {}
    for i, iv in enumerate(ivs):
        if iv.length == 1:
            units.setdefault(iv.hi, []).append(i)
    return units


def _is_basic(S: IntervalFamily, assignment: PartitionAssignment, v: int) -> bool:
    """Check the run-structured shape of an assignment.

    Take the maximal runs of consecutive unit intervals lying on one side.
    The assignment is basic when every unit's copies agree on a side and,
    within each run's span, contained members of length <= v sit on the
    run's side while longer contained members sit on the other side.
    Members not contained in a single run's span are unconstrained.
    """
    ivs = S.intervals
    units = _unit_positions(ivs)
    side_of_unit: dict[int, Side] = {}
    for k, idxs in units.items():
        first = assignment.side_of(idxs[0])
        if any(assignment.side_of(i) is not first for i in idxs[1:]):
            return False
        side_of_unit[k] = first

    runs: list[tuple[int, int, Side]] = []
    for k in sorted(side_of_unit):
        side = side_of_unit[k]
        if runs and runs[-1][1] == k - 1 and runs[-1][2] is side:
            lo, _, _ = runs[-1]
            runs[-1] = (lo, k, side)
        else:
            runs.append((k - 1, k, side))

    for lo, hi, side in runs:
        for i, iv in enumerate(ivs):
            if iv.lo >= lo and iv.hi <= hi:
                want = side if iv.length <= v else side.other()
                if assignment.side_of(i) is not want:
                    return False
    return True


def _group_sides_consistent(
    assignment_sides: Sequence[Side],
    rep_of: Sequence[int],
    group_of: Sequence[int],
) -> bool:
    seen: dict[int, Side] = {}
    for i, side in enumerate(assignment_sides):
        g = group_of[rep_of[i]]
        if seen.setdefault(g, side) is not side:
            return False
    return True


def _scan(
    fam: IntervalFamily, v: int, collect: bool
) -> tuple[tuple[Side, ...] | None, int, bool, bool]:
    """DFS over assignments in vertex order, first side first, vertex 0 pinned.

    Returns (first feasible assignment or None, feasible count, all feasible
    ones group-conforming, any feasible one basic); the last three are only
    meaningful when collect is set, in which case the whole subtree is
    walked instead of stopping at the first hit.
    """
    ivs = fam.intervals
    n = len(ivs)
    adj = tuple(
        tuple(j for j in range(n) if j != i and intersects(ivs[i], ivs[j]))
        for i in range(n)
    )
    sides: list[Side | None] = [None] * n
    sides[0] = Side.FIRST

    if collect:
        distinct, rep_of = dedup(fam)
        group_of = compute_groups(distinct, v).group_of

    first_hit: tuple[Side, ...] | None = None
    good_count = 0
    all_conforming = True
    any_basic = False

    def on_leaf() -> bool:
        nonlocal first_hit, good_count, all_conforming, any_basic
        found = tuple(sides)  # type: ignore[arg-type]
        assignment = PartitionAssignment(found)
        if not verify_partition(fam, assignment, v):
            raise AssertionError(
                "scan pruning disagrees with the partition verifier"
            )
        if first_hit is None:
            first_hit = found
        if not collect:
            return True
        good_count += 1
        if all_conforming and not _group_sides_consistent(found, rep_of, group_of):
            all_conforming = False
        if not any_basic and _is_basic(fam, assignment, v):
            any_basic = True
        return False

    def rec(k: int) -> bool:
        if k == n:
            return on_leaf()
        for side in (Side.FIRST, Side.SECOND):
            sides[k] = side
            if not _creates_claw(ivs, adj, sides, k, v) and rec(k + 1):
                return True
        sides[k] = None
        return False

    rec(1)
    return first_hit, good_count, all_conforming, any_basic


def oracle_partition(
    S: IntervalFamily,
    v: int,
    *,
    report_properties: bool = False,
    limit: Optional[int] = None,
) -> OracleReport:
    """Exhaustively decide the claw-bounded 2-partition problem.

    Args:
        S: interval family; vertices as given, duplicates distinct.
        v: claw bound, v >= 1.
        report_properties: walk every feasible assignment and fill the
            conformance/basic fields instead of stopping at the first.
        limit: override the 16-vertex size guard.

    Returns:
        OracleReport with the lexicographically least witness, if any.
    """
    if v < 1:
        raise ValueError(f"claw bound v={v}: need v >= 1")
    _guard(len(S), _PARTITION_CAP, limit, "oracle_partition")
    if len(S) == 0:
        empty = PartitionAssignment(())
        if report_properties:
            return OracleReport(True, empty, 1, True, True)
        return OracleReport(True, empty)

    hit, count, conforming, basic = _scan(S, v, report_properties)
    witness = None if hit is None else PartitionAssignment(hit)
    if not report_properties:
        return OracleReport(witness is not None, witness)
    return OracleReport(witness is not None, witness, count, conforming, basic)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one seeded random instance.

    kind selects the construction:
      * "vertebrate": units (i-1, i) for i = 1..m plus round(density * m)
        extra members of length 1..max_len inside (0, m).
      * "trivially-perfect": n members forming a nested-or-disjoint family
        over (0, n), duplicates topped up to reach n exactly.
      * "raw-random": n members of length 1..max_len inside (0, n + max_len).
      * "invertebrate": raw-random draws rejected until one fails the
        backbone recognition (at most 1000 draws).
    """

    kind: str
    m: int = 6
    n: int = 8
    density: float = 1.0
    max_len: int = 3
    seed: int = 0


def _gen_vertebrate(rng, m: int, density: float, max_len: int) -> list[tuple[int, int]]:
    pairs = [(i - 1, i) for i in range(1, m + 1)]
    extras = round(density * m)
    top = min(max_len, m)
    for _ in range(extras):
        length = rng.randint(1, top)
        a = rng.randint(1, m - length + 1)
        pairs.append((a - 1, a - 1 + length))
    return pairs


def _gen_laminar(rng, n: int) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []

    def grow(lo: int, hi: int) -> None:
        if len(pairs) >= n or hi - lo < 1:
            return
        pairs.append((lo, hi))
        if hi - lo == 1:
            return
        cut = rng.randint(lo + 1, hi - 1)
        children = [(lo, cut), (cut, hi)]
        rng.shuffle(children)
        for a, b in children:
            if rng.random() < 0.85:
                grow(a, b)

    grow(0, n)
    while len(pairs) < n:
        pairs.append(rng.choice(pairs))
    return pairs[:n]


def _gen_raw(rng, n: int, max_len: int) -> list[tuple[int, int]]:
    span = n + max_len
    pairs = []
    for _ in range(n):
        length = rng.randint(1, max_len)
        lo = rng.randint(0, span - length)
        pairs.append((lo, lo + length))
    return pairs


def generate(spec: GeneratorSpec) -> IntervalFamily:
    """Build the instance described by spec, deterministically in its seed.

    Raises ValueError for an unknown kind, a density that is not a finite
    number >= 0, a max_len below 1, a size (m or n) below 1 that the kind
    reads, or a spec asking for more than _GEN_CAP members, before
    drawing anything.
    """
    if spec.kind not in ("vertebrate", "trivially-perfect", "raw-random", "invertebrate"):
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if not (math.isfinite(spec.density) and spec.density >= 0):
        raise ValueError(f"generation needs a finite density >= 0, got {spec.density!r}")
    if spec.kind == "vertebrate" and spec.m < 1:
        raise ValueError("vertebrate generation needs m >= 1")
    if spec.kind != "vertebrate" and (spec.n < 1 or spec.max_len < 1):
        raise ValueError(f"{spec.kind} generation needs n >= 1 and max_len >= 1")
    if spec.max_len < 1:
        raise ValueError("vertebrate generation needs max_len >= 1")
    # m + density * m stays a float, so a huge density compares as inf or
    # a large float here instead of overflowing in round().
    members = spec.m + spec.density * spec.m if spec.kind == "vertebrate" else spec.n
    if members > _GEN_CAP:
        raise ValueError(
            f"{spec.kind} generation asks for {members:.6g} members, at most {_GEN_CAP}"
        )
    rng = random.Random(spec.seed)
    if spec.kind == "vertebrate":
        return IntervalFamily.from_pairs(
            _gen_vertebrate(rng, spec.m, spec.density, spec.max_len)
        )
    if spec.kind == "trivially-perfect":
        return IntervalFamily.from_pairs(_gen_laminar(rng, spec.n))
    if spec.kind == "raw-random":
        return IntervalFamily.from_pairs(_gen_raw(rng, spec.n, spec.max_len))
    for _ in range(1000):
        fam = IntervalFamily.from_pairs(_gen_raw(rng, spec.n, spec.max_len))
        if not is_vertebrate(fam):
            return fam
    raise GenerationError(f"no invertebrate instance found in 1000 draws for {spec}")
