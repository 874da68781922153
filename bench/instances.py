"""Seeded answer lists for the benchmark workloads.

The families are drawn here, not by clawsplit.generate, so that a change to
the program's generator cannot change what the benchmark measures.  The size
of every slot in a list is fixed; the seed only places the intervals.  That
keeps the work in a list nearly the same for every seed, which is what lets
runs with different seeds agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Extras have lengths 1..MAX_LEN in equal shares, so every family of a given
# size has the same number of members of each length.
MAX_LEN = 3

# recognize: each size n gives a vertebrate family of n intervals (check and
# represent) and a raw random one of n + 125 (check).  An answer's time jumps
# by about half somewhere between n = 1750 and n = 2125, at a point that moves
# from run to run, so few sizes lie below it.  Five families share the size
# 2500, so the median answer sits among ten vertebrate answers of the same
# size and cost, not between two sizes whose order the host's noise swaps.
RECOGNIZE_SIZES = (1000, 1500, 2500, 2500, 2500, 2500, 2500, 3000)
RAW_OFFSET = 125

# Each workload touches every layer, so that a traced run measures every
# per-layer metric on it.  recognize adds one small partition per round (the
# DP layers, about 1% of the round), and the split workloads one check (the
# claw count of check, well under 1%).
RECOGNIZE_PARTITION = dict(m=20, density=0.3, v=1)

# split-v2: partition --v 2 on dense backbones (density 2).
SPLIT_V2 = dict(count=30, m=14, density=2.0, v=2)

# split-long: partition --v 1 on long sparse backbones (density 0.3); every
# third family carries the no-gadget, so a third of the answers are "no" and
# the median answer is a "yes".
SPLIT_LONG = dict(count=30, m=40, density=0.3, v=1)

# Four extras on the units of (p, p + 5) that no split into two parts of claw
# number 1 survives (found by oracle_partition).  A family that holds them as
# an induced subgraph answers "no" for v = 1.
NO_GADGET_V1 = ((0, 2), (0, 3), (2, 5), (3, 5))


@dataclass(frozen=True)
class Answer:
    """One command on one instance file.

    argv is the clawsplit command line with the file name left as "{file}".
    """

    name: str
    pairs: tuple[tuple[int, int], ...]
    argv: tuple[str, ...]


def vertebrate(rng: random.Random, m: int, extras: int) -> list[tuple[int, int]]:
    """Backbone units (i - 1, i) for i = 1..m plus extras spread along (0, m).

    Extra j starts at a random point of the j-th of `extras` equal slots of
    the backbone.  Each run of MAX_LEN consecutive slots holds one extra of
    every length 1..MAX_LEN in random order, so long extras are spread evenly
    at large scale and placed at random at small scale; this halves the
    seed-to-seed spread of a solve's work against shuffling all lengths
    together.  A length-1 extra repeats a unit and makes a twin vertex.
    Every extra lies inside (0, m), so the m units witness the m maximal
    cliques and the family is vertebrate.  Lines are shuffled so that vertex
    order carries no structure.
    """
    pairs = [(i - 1, i) for i in range(1, m + 1)]
    lengths: list[int] = []
    while len(lengths) < extras:
        block = list(range(1, MAX_LEN + 1))
        rng.shuffle(block)
        lengths += block
    for j, length in enumerate(lengths[:extras]):
        length = min(length, m)
        a = j * m // extras
        b = max(a, (j + 1) * m // extras - 1)
        lo = min(rng.randint(a, b), m - length)
        pairs.append((lo, lo + length))
    rng.shuffle(pairs)
    return pairs


def raw(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """n intervals of length 1..MAX_LEN placed uniformly in (0, n + MAX_LEN)."""
    pairs = []
    for _ in range(n):
        length = rng.randint(1, MAX_LEN)
        lo = rng.randint(0, n + MAX_LEN - length)
        pairs.append((lo, lo + length))
    return pairs


def with_no_gadget(rng: random.Random, pairs: list[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    """Extend a backbone of length m by five units that carry NO_GADGET_V1.

    The solve does all the work of the first m units before it meets the
    stage it cannot pass, so a "no" costs about as much as a "yes" on the
    same backbone; the mirror image meets the gadget first and is cheap to
    re-check.
    """
    out = pairs + [(m + i - 1, m + i) for i in range(1, 6)]
    out += [(m + lo, m + hi) for lo, hi in NO_GADGET_V1]
    rng.shuffle(out)
    return out


def answers(workload: str, seed: int) -> list[Answer]:
    """The fixed answer list of a workload for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    out: list[Answer] = []
    if workload == "recognize":
        for k, n in enumerate(RECOGNIZE_SIZES):
            vert = tuple(vertebrate(rng, n // 2, n - n // 2))
            out.append(Answer(f"vert{k}-{n}", vert, ("check", "{file}")))
            out.append(Answer(f"vert{k}-{n}", vert, ("represent", "{file}")))
            n_raw = n + RAW_OFFSET
            out.append(Answer(f"raw{k}-{n_raw}", tuple(raw(rng, n_raw)), ("check", "{file}")))
        spec = RECOGNIZE_PARTITION
        small = vertebrate(rng, spec["m"], round(spec["density"] * spec["m"]))
        out.append(Answer(f"small{spec['m']}", tuple(small),
                          ("partition", "{file}", "--v", str(spec["v"]), "--witness")))
    elif workload in ("split-v2", "split-long"):
        spec = SPLIT_V2 if workload == "split-v2" else SPLIT_LONG
        m, v = spec["m"], spec["v"]
        argv = ("partition", "{file}", "--v", str(v), "--witness")
        for k in range(spec["count"]):
            if workload == "split-long" and k % 3 == 2:
                # The five gadget units end the backbone, so it spans m too.
                base = vertebrate(rng, m - 5, round(spec["density"] * (m - 5)))
                pairs = with_no_gadget(rng, base, m - 5)
            else:
                pairs = vertebrate(rng, m, round(spec["density"] * m))
            out.append(Answer(f"fam{k}", tuple(pairs), argv))
        out.append(Answer("fam0", out[0].pairs, ("check", "{file}")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def write(path: str, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{lo} {hi}\n" for lo, hi in pairs))
