"""The benchmark's answer checks against clawsplit's exhaustive oracle.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_checks.py
"""

import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checkers  # noqa: E402
import instances  # noqa: E402
from clawsplit import IntervalFamily, oracle_alpha, oracle_claw, oracle_partition  # noqa: E402
from clawsplit.cli import main  # noqa: E402


def small_families(seed, count, n_max=10):
    """Raw and vertebrate families small enough for the oracle, twins included."""
    rng = random.Random(seed)
    for k in range(count):
        if k % 2:
            yield instances.raw(rng, rng.randint(1, n_max))
        else:
            m = rng.randint(1, n_max // 2)
            yield instances.vertebrate(rng, m, rng.randint(0, n_max - m))


def brute_cliques(pairs):
    """Maximal cliques as the maximal sets alive at half-integer points."""
    lo, hi = min(p[0] for p in pairs), max(p[1] for p in pairs)
    alive = {frozenset(j for j, (a, b) in enumerate(pairs) if a < x + 0.5 < b)
             for x in range(lo, hi)}
    alive.discard(frozenset())
    return [c for c in alive if not any(c < d for d in alive)]


def run(argv, path, pairs):
    instances.write(path, pairs)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(path) if a == "{file}" else a for a in argv])
    return code, buf.getvalue()


def sides_output(pairs, sides):
    return "".join(f"witness {j} {s}\n" for j, s in enumerate(sides)) + (
        f"n {len(pairs)}\nm_cliques {checkers.clique_ranges(pairs)[0]}\n"
        f"vertebrate yes\ndecision yes\n"
    )


def test_alpha_and_claw_match_oracle():
    for pairs in small_families(1, 300):
        fam = IntervalFamily.from_pairs(pairs)
        assert checkers.alpha(pairs) == oracle_alpha(fam), pairs
        assert checkers.claw(pairs) == oracle_claw(fam), pairs


def test_clique_ranges_match_brute_force():
    for pairs in small_families(2, 300):
        count, first, last = checkers.clique_ranges(pairs)
        cliques = brute_cliques(pairs)
        assert count == len(cliques), pairs
        for j in range(len(pairs)):
            holding = [c for c in cliques if j in c]
            assert last[j] - first[j] + 1 == len(holding), (pairs, j)


def test_witness_check_matches_oracle_claw():
    rng = random.Random(3)
    for pairs in small_families(3, 150, n_max=8):
        v = rng.randint(1, 2)
        for _ in range(20):
            sides = [rng.choice(("FIRST", "SECOND")) for _ in pairs]
            good = all(
                oracle_claw(IntervalFamily.from_pairs(
                    [p for p, s in zip(pairs, sides) if s == side])) <= v
                for side in ("FIRST", "SECOND")
            )
            problems = checkers.check_partition(pairs, v, 0, sides_output(pairs, sides))
            assert (not problems) == good, (pairs, sides, problems)


def test_mirror_keeps_partition_decision():
    rng = random.Random(4)
    for pairs in small_families(4, 60, n_max=9):
        v = rng.randint(1, 2)
        fam = IntervalFamily.from_pairs(pairs)
        image = IntervalFamily.from_pairs(checkers.mirror(pairs))
        assert oracle_partition(fam, v).decision == oracle_partition(image, v).decision


def test_no_gadget_answers_no():
    units = [(i - 1, i) for i in range(1, 6)]
    fam = IntervalFamily.from_pairs(units + list(instances.NO_GADGET_V1))
    assert not oracle_partition(fam, 1).decision


def test_checks_accept_program_answers_and_flag_edits(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "f.txt"
    for pairs in small_families(5, 40, n_max=12):
        code, out = run(("check", "{file}"), path, pairs)
        assert checkers.check_check(pairs, code, out) == []
        psi = checkers.claw(pairs)
        assert checkers.check_check(pairs, code, out.replace(f"psi {psi}", f"psi {psi + 1}"))
        if checkers.alpha(pairs) != checkers.clique_ranges(pairs)[0]:
            continue
        code, out = run(("represent", "{file}"), path, pairs)
        assert checkers.check_represent(pairs, code, out) == []
        v = rng.randint(1, 2)
        code, out = run(("partition", "{file}", "--v", str(v), "--witness"), path, pairs)
        assert checkers.check_partition(pairs, v, code, out) == []
        assert (code == 0) == oracle_partition(IntervalFamily.from_pairs(pairs), v).decision
