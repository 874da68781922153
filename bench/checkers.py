"""Answer checks computed apart from clawsplit.

Nothing here imports clawsplit: each quantity the program prints is worked
out again by a different method, on the pairs the benchmark generated.
Intervals are open, so (a, b) and (c, d) meet iff max(a, c) < min(b, d).

Each check_* function returns a list of problems, empty when the answer is
right.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


def alpha(pairs) -> int:
    """Independence number: greedy by earliest right endpoint."""
    count = 0
    frontier = None
    for lo, hi in sorted(pairs, key=lambda p: p[1]):
        if frontier is None or lo >= frontier:
            count += 1
            frontier = hi
    return count


def clique_ranges(pairs) -> tuple[int, list[int], list[int]]:
    """Maximal cliques by an endpoint event sweep.

    Returns (count, first, last) with first[j] and last[j] the 1-based
    positions of the first and last maximal clique holding vertex j.  At each
    coordinate the intervals ending there leave before the ones starting
    there arrive (open intervals); a maximal clique is the set alive just
    before an end that follows an arrival.
    """
    events = []
    for j, (lo, hi) in enumerate(pairs):
        events.append((lo, 1, j))
        events.append((hi, 0, j))
    events.sort()
    count = 0
    fresh = False
    first = [0] * len(pairs)
    last = [0] * len(pairs)
    for _, is_start, j in events:
        if is_start:
            fresh = True
            first[j] = count + 1
        else:
            if fresh:
                count += 1
                fresh = False
            last[j] = count
    return count, first, last


def claw(pairs) -> int:
    """Claw number: most pairwise-disjoint neighbours of a single vertex.

    Duplicate pairs are distinct, adjacent vertices.  For each centre c the
    greedy counts disjoint members meeting c by earliest right endpoint, using
    a sorted list of right endpoints for the first pick and a suffix minimum
    of right endpoints over left-endpoint order for the next ones.  The centre
    itself may be the greedy's only pick, so counts of 1 are settled apart:
    the claw number is 1 when some two vertices meet and 0 otherwise.
    """
    if not pairs:
        return 0
    his = sorted(hi for _, hi in pairs)
    by_lo = sorted(pairs)
    los = [lo for lo, _ in by_lo]
    suffix_min_hi = [0] * (len(by_lo) + 1)
    suffix_min_hi[-1] = float("inf")
    for k in range(len(by_lo) - 1, -1, -1):
        suffix_min_hi[k] = min(by_lo[k][1], suffix_min_hi[k + 1])

    best = 0
    for l, r in set(pairs):
        frontier = his[bisect_right(his, l)]  # the centre keeps this <= r
        count = 1
        while True:
            k = bisect_left(los, frontier)
            nxt = suffix_min_hi[k]
            if nxt <= r:
                count += 1
                frontier = nxt
                continue
            if k < len(los) and los[k] < r:
                count += 1  # a member starting before r but ending after it
            break
        best = max(best, count)
    if best >= 2:
        return best
    reach = None
    for lo, hi in by_lo:
        if reach is not None and lo < reach:
            return 1
        reach = hi if reach is None else max(reach, hi)
    return 0


def mirror(pairs) -> list[tuple[int, int]]:
    """The image of x -> M - x; it has the same intersection graph."""
    top = max(hi for _, hi in pairs)
    return [(top - hi, top - lo) for lo, hi in pairs]


def parse(output: str) -> tuple[dict[str, str], list[list[str]]]:
    """Split "key value" output into its single keys and its repeated rows."""
    keys: dict[str, str] = {}
    rows: list[list[str]] = []
    for line in output.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] in ("representation", "backbone", "witness"):
            rows.append(parts)
        else:
            keys[parts[0]] = " ".join(parts[1:])
    return keys, rows


def _expect(problems: list[str], keys: dict[str, str], key: str, want) -> None:
    got = keys.get(key)
    if got != str(want):
        problems.append(f"{key} printed {got!r}, expected {want!r}")


def check_check(pairs, code: int, output: str) -> list[str]:
    keys, _ = parse(output)
    problems: list[str] = []
    a = alpha(pairs)
    m, _, _ = clique_ranges(pairs)
    vertebrate = a == m
    _expect(problems, keys, "n", len(pairs))
    _expect(problems, keys, "m_sweep", a)
    _expect(problems, keys, "m_cliques", m)
    _expect(problems, keys, "vertebrate", "yes" if vertebrate else "no")
    _expect(problems, keys, "psi", claw(pairs))
    if code != (0 if vertebrate else 1):
        problems.append(f"exit code {code} disagrees with vertebrate={vertebrate}")
    return problems


def check_represent(pairs, code: int, output: str) -> list[str]:
    keys, rows = parse(output)
    problems: list[str] = []
    m, first, last = clique_ranges(pairs)
    if alpha(pairs) != m:
        return ["represent was run on an invertebrate family"]
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    _expect(problems, keys, "n", len(pairs))
    _expect(problems, keys, "m_cliques", m)
    got = {int(r[1]): (int(r[2]), int(r[3])) for r in rows if r[0] == "representation"}
    want = {j: (first[j] - 1, last[j]) for j in range(len(pairs))}
    wrong = sorted(j for j in want if got.get(j) != want[j])
    if wrong or len(got) != len(want):
        problems.append(f"{len(wrong)} of {len(want)} representation intervals wrong, "
                        f"first at vertices {wrong[:3]}")
    units = {int(r[1]): int(r[2]) for r in rows if r[0] == "backbone"}
    if sorted(units) != list(range(1, m + 1)):
        problems.append("backbone lines do not cover units 1..m")
    elif any(want[j] != (i - 1, i) for i, j in units.items()):
        problems.append("a backbone line names a vertex that is not its unit")
    return problems


def check_partition(pairs, v: int, code: int, output: str) -> list[str]:
    """Check a partition answer; a "no" is left to the mirror check."""
    keys, rows = parse(output)
    problems: list[str] = []
    m, _, _ = clique_ranges(pairs)
    _expect(problems, keys, "n", len(pairs))
    _expect(problems, keys, "m_cliques", m)
    _expect(problems, keys, "vertebrate", "yes")
    decision = keys.get("decision")
    if decision not in ("yes", "no"):
        return problems + [f"decision printed {decision!r}"]
    if code != (0 if decision == "yes" else 1):
        problems.append(f"exit code {code} disagrees with decision {decision}")
    if decision == "no":
        if rows:
            problems.append("a no answer printed witness lines")
        return problems
    sides = {int(r[1]): r[2] for r in rows if r[0] == "witness"}
    if sorted(sides) != list(range(len(pairs))) or set(sides.values()) - {"FIRST", "SECOND"}:
        return problems + ["witness does not give every vertex one side"]
    for side in ("FIRST", "SECOND"):
        part = [pairs[j] for j in range(len(pairs)) if sides[j] == side]
        c = claw(part)
        if c > v:
            problems.append(f"side {side} has claw number {c} > v={v}")
    return problems
