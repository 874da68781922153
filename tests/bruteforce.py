"""Exhaustive reference implementations used only by tests.

These deliberately share no reasoning with the package: straight subset
enumeration, no greedy arguments, no sweeps.
"""

import itertools

from clawsplit import IntervalFamily, PartitionAssignment, Side, intersects, verify_partition


def brute_alpha_window(S, l, r):
    """Max pairwise-disjoint members intersecting (l, r), over all subsets."""
    ivs = [iv for iv in S if max(iv.lo, l) < min(iv.hi, r)]
    best = 0
    for k in range(len(ivs), 0, -1):
        for combo in itertools.combinations(ivs, k):
            if all(not intersects(x, y) for x, y in itertools.combinations(combo, 2)):
                return k
    return best


def brute_profile(intervals, s, v):
    """Profile entries of a family inside (0, s) by a scan of every window
    start i = s - 1 down to 0: entry u is the first i where the windowed
    count reaches u, for u up to v + 1, and -1 where it never does."""
    r = [-1] * (v + 3)
    r[0] = s
    prev = 0
    for i in range(s - 1, -1, -1):
        alpha = brute_alpha_window(intervals, i, s)
        if not prev <= alpha <= prev + 1:
            raise AssertionError("windowed independence moved by more than one")
        if alpha > v + 1:
            break
        if alpha == prev + 1:
            r[alpha] = i
            prev = alpha
    return r


def brute_claw(S):
    """Max induced star size; vertices as given (duplicates distinct)."""
    n = len(S)
    best = 0
    for c in range(n):
        neigh = [S[j] for j in range(n) if j != c and intersects(S[j], S[c])]
        for k in range(len(neigh), best, -1):
            hit = False
            for combo in itertools.combinations(neigh, k):
                if all(not intersects(x, y) for x, y in itertools.combinations(combo, 2)):
                    best = k
                    hit = True
                    break
            if hit:
                break
    return best


def brute_maximal_cliques(S):
    """All maximal cliques of the intersection graph, as a set of frozensets."""
    n = len(S)
    out = set()
    for mask in range(1, 2 ** n):
        members = [i for i in range(n) if (mask >> i) & 1]
        if not all(
            intersects(S[i], S[j]) for i, j in itertools.combinations(members, 2)
        ):
            continue
        if any(
            all(intersects(S[u], S[i]) for i in members)
            for u in range(n)
            if u not in members
        ):
            continue
        out.add(frozenset(members))
    return out


def brute_groups(S, v):
    """Group ids of the closure of "intersection length >= 2v + 1" over all
    pairs, numbered in order of each group's first member."""
    n = len(S)
    group_of = list(range(n))
    for i, j in itertools.combinations(range(n), 2):
        if min(S[i].hi, S[j].hi) - max(S[i].lo, S[j].lo) >= 2 * v + 1:
            gi, gj = group_of[i], group_of[j]
            group_of = [min(gi, gj) if g in (gi, gj) else g for g in group_of]
    ids = {}
    return tuple(ids.setdefault(g, len(ids)) for g in group_of)


def first_good_assignment(S, v):
    """Lexicographically least feasible assignment by literal 2^n scan."""
    n = len(S)
    for bits in range(2 ** n):
        sides = tuple(
            Side.SECOND if (bits >> (n - 1 - i)) & 1 else Side.FIRST for i in range(n)
        )
        a = PartitionAssignment(sides)
        if verify_partition(S, a, v):
            return a
    return None
