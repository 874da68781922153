"""How fast the host runs Python right now, from a fixed piece of work.

The benchmark runs on a few cores of a host shared with other tenants.  The
same answer there takes up to half again as long in a slow phase of the
host as in a fast one, and the phases last from seconds to minutes, longer
than one run.  So every timing is taken between two timings of a fixed
reference task, and is scaled to a host on which the reference takes
NOMINAL_S: a time t measured between references that took r0 and r1 counts
as t * NOMINAL_S / ((r0 + r1) / 2).

The reference uses nothing from clawsplit, so a change to the program cannot
change it.  It does the kind of work the program does (tuple-keyed dict
inserts and lookups, small objects with slots, a frozenset) on about 1 MB of
data, and runs with the cyclic garbage collector off, so that a collection
of the program's objects never lands in it.
"""

from __future__ import annotations

import gc
import random
import time

# About the reference's median time on a 2-vCPU shared host with Python 3.11.
# Any fixed value would do: it only sets the scale of the reported seconds.
NOMINAL_S = 0.03

_ROUNDS = 15


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi


class Reference:
    """The reference task's data, built once per process."""

    def __init__(self) -> None:
        rng = random.Random(11)
        self.keys = [tuple(rng.randrange(1 << 20) for _ in range(3)) for _ in range(4096)]
        self.lookups = self.keys[:]
        rng.shuffle(self.lookups)

    def time_s(self) -> float:
        """Run the reference task once and return its wall time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            total = 0
            for _ in range(_ROUNDS):
                table = {}
                for key in self.keys:
                    table[key] = _Pair(key[0], key[1])
                for key in self.lookups:
                    pair = table[key]
                    if pair.lo < pair.hi:
                        total += 1
                total += len(frozenset(key for key in table if key[2] & 1))
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A time taken between two reference timings, scaled to NOMINAL_S."""
    return seconds * NOMINAL_S / ((before + after) / 2)
