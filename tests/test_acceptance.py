"""Acceptance gate: one test per numbered criterion.

Each test appends a single "criterion N: PASS/FAIL" line to the summary
section printed at the end of the run, then asserts.  Failures carry the
first few offending instances in the assertion message.
"""

import random
import time
from pathlib import Path

from clawsplit import (
    GeneratorSpec,
    Interval,
    IntervalFamily,
    Side,
    alpha_seq,
    alpha_window,
    compute_groups,
    dedup,
    encode,
    extend,
    generate,
    intersects,
    is_vertebrate,
    maximal_cliques,
    oracle_alpha,
    oracle_claw,
    oracle_partition,
    solve,
    sweepline,
    verify_partition,
    vertebrate_representation,
)
from clawsplit.cli import load_instance
from bruteforce import brute_maximal_cliques
from test_encoding import build_basic_partition, random_rep

FIXTURES = Path(__file__).parent / "fixtures"


def _finish(log, num, failures, detail):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num}: {status} - {detail}"
    log(line)
    assert not failures, f"{line}; first failures: {failures[:5]}"


def _seeded_vertebrate(seed_base, count, m_max, n_max, densities):
    """Deterministic stream of generated vertebrate families with n <= n_max."""
    out = []
    seed = seed_base
    while len(out) < count:
        seed += 1
        rng = random.Random(seed)
        spec = GeneratorSpec(
            "vertebrate",
            m=rng.randint(1, m_max),
            density=rng.choice(densities),
            max_len=rng.randint(1, 5),
            seed=seed,
        )
        fam = generate(spec)
        if len(fam) <= n_max:
            out.append((seed, fam))
    return out


def test_criterion_1_solver_matches_oracle(acceptance_log):
    t0 = time.perf_counter()
    failures = []
    total = 0
    for v in (1, 2):
        instances = _seeded_vertebrate(
            10_000 + 1_000 * v, 200, m_max=8, n_max=14,
            densities=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
        )
        for seed, fam in instances:
            rep = vertebrate_representation(fam)
            result = solve(rep, v)
            report = oracle_partition(fam, v)
            if result.feasible != report.decision:
                failures.append((v, seed, "decision", result.feasible, report.decision))
            elif result.feasible and not verify_partition(fam, result.assignment, v):
                failures.append((v, seed, "witness rejected"))
            total += 1
    detail = (
        f"solve == oracle on {total} vertebrate instances (v in {{1, 2}}), "
        f"all witnesses verified, {time.perf_counter() - t0:.1f}s"
    )
    _finish(acceptance_log, 1, failures, detail)


def test_criterion_2_recognition_matches_bruteforce(acceptance_log):
    t0 = time.perf_counter()
    rng = random.Random(20_000)
    failures = []
    fams = [IntervalFamily.from_pairs([])]
    while len(fams) < 500:
        kind = rng.choice(
            ("raw-random", "raw-random", "raw-random", "vertebrate", "trivially-perfect")
        )
        if kind == "vertebrate":
            spec = GeneratorSpec(
                kind, m=rng.randint(1, 5), density=rng.choice((0.0, 0.5, 1.0, 1.4)),
                max_len=rng.randint(1, 5), seed=rng.randint(0, 10 ** 6),
            )
        elif kind == "trivially-perfect":
            spec = GeneratorSpec(kind, n=rng.randint(1, 12), seed=rng.randint(0, 10 ** 6))
        else:
            spec = GeneratorSpec(
                kind, n=rng.randint(1, 12), max_len=rng.randint(1, 5),
                seed=rng.randint(0, 10 ** 6),
            )
        fam = generate(spec)
        if len(fam) <= 12:
            fams.append(fam)
    for k, fam in enumerate(fams):
        alpha = oracle_alpha(fam)
        cliques = maximal_cliques(fam).cliques
        if sweepline(fam) != alpha:
            failures.append((k, "m_sweep"))
        if set(cliques) != brute_maximal_cliques(fam):
            failures.append((k, "cliques"))
        if is_vertebrate(fam) != (alpha == len(cliques)):
            failures.append((k, "vertebrate flag"))
    detail = (
        f"sweep, cliques and flag match brute force on {len(fams)} families, "
        f"{time.perf_counter() - t0:.1f}s"
    )
    _finish(acceptance_log, 2, failures, detail)


def test_criterion_3_representation_properties(acceptance_log):
    t0 = time.perf_counter()
    failures = []
    instances = _seeded_vertebrate(
        30_000, 200, m_max=8, n_max=18, densities=(1.0, 1.25, 1.5, 2.0)
    )
    for seed, fam in instances:
        rep = vertebrate_representation(fam)
        m = rep.m
        if any(iv.lo < 0 or iv.hi > m for iv in rep.family):
            failures.append((seed, "endpoints"))
        if {rep.family[idx] for idx in rep.backbone} != {
            Interval(i - 1, i) for i in range(1, m + 1)
        }:
            failures.append((seed, "backbone"))
        if max(iv.length for iv in rep.family) != oracle_claw(fam):
            failures.append((seed, "claw length"))
        n = len(fam)
        same = all(
            intersects(fam[i], fam[j])
            == intersects(rep.family[rep.rep_of[i]], rep.family[rep.rep_of[j]])
            for i in range(n)
            for j in range(i + 1, n)
        )
        if not same:
            failures.append((seed, "adjacency"))
        if any(rep.rep_of[rep.origin_map[r]] != r for r in range(len(rep.family))):
            failures.append((seed, "origin map"))
    detail = (
        f"endpoints, backbone, max length = claw number and adjacency hold on "
        f"{len(instances)} instances, {time.perf_counter() - t0:.1f}s"
    )
    _finish(acceptance_log, 3, failures, detail)


def test_criterion_4_structural_invariants(acceptance_log):
    t0 = time.perf_counter()
    failures = []

    # basic shapes suffice, and every good split respects the overlap groups
    rng = random.Random(41_000)
    done = 0
    yes = 0
    while done < 110:
        spec = GeneratorSpec(
            "vertebrate", m=rng.randint(1, 5), density=rng.choice((0.5, 1.0, 1.5)),
            max_len=rng.randint(1, 5), seed=rng.randint(0, 10 ** 6),
        )
        rep = vertebrate_representation(generate(spec))
        if len(rep.family) > 13:
            continue
        v = rng.randint(1, 2)
        report = oracle_partition(rep.family, v, report_properties=True)
        if not report.all_good_group_conforming:
            failures.append(("group conformance", done))
        if report.decision:
            yes += 1
            if not report.any_good_basic:
                failures.append(("basic exists", done))
        done += 1
    n_conf = done

    # windowed counts of both parts split at an anchored unit boundary
    rng = random.Random(42_000)
    done = 0
    while done < 100:
        rep = random_rep(rng)
        m = rep.m
        if m < 2:
            continue
        s = rng.randint(1, m - 1)
        fam = rep.family
        sides = [rng.choice((Side.FIRST, Side.SECOND)) for _ in range(len(fam))]
        sides[rep.backbone[s - 1]] = Side.FIRST
        sides[rep.backbone[s]] = Side.SECOND
        for part_side in (Side.FIRST, Side.SECOND):
            part = fam.subfamily(
                [i for i in range(len(fam)) if sides[i] is part_side]
            )
            left = IntervalFamily(tuple(iv for iv in part if iv.hi <= s))
            right = IntervalFamily(tuple(iv for iv in part if iv.lo >= s))
            for a in range(0, s):
                for b in range(s + 1, m + 1):
                    if alpha_window(part, a, b) != alpha_window(left, a, s) + alpha_window(
                        right, s, b
                    ):
                        failures.append(("cut", done, part_side.name, a, b))
        done += 1
    n_cut = done

    # profile decode equals the capped windowed count at every index
    rng = random.Random(43_000)
    done = 0
    while done < 120:
        rep = random_rep(rng)
        m = rep.m
        v = rng.randint(1, 3)
        sub = rep.family.subfamily(
            [i for i in range(len(rep.family)) if rng.random() < 0.7]
        )
        seq = encode(sub, m, v)
        for i in range(m + 1):
            if alpha_seq(seq, i) != min(v + 1, alpha_window(sub, i, m)):
                failures.append(("decode", done, i))
        done += 1
    n_decode = done

    # extending prefix profiles reproduces the whole's profiles
    rng = random.Random(44_000)
    done = 0
    while done < 100:
        v = rng.choice([1, 2])
        rep = random_rep(rng)
        if rep.m < 1:
            continue
        s = rng.randint(1, rep.m)
        first, second, bounds = build_basic_partition(rng, rep, s, v)
        s_prev = bounds[-2]
        fam = rep.family

        def inside(iv, lo, hi):
            return lo <= iv.lo and iv.hi <= hi

        P = fam.subfamily(first)
        Q = fam.subfamily(second)
        P_prev = fam.subfamily([i for i in first if inside(fam[i], 0, s_prev)])
        Q_prev = fam.subfamily([i for i in second if inside(fam[i], 0, s_prev)])
        C = fam.subfamily(
            [
                i
                for i in range(len(fam))
                if inside(fam[i], s_prev, s) and fam[i].length <= v
            ]
        )
        D = fam.subfamily(
            [
                i
                for i in range(len(fam))
                if inside(fam[i], s_prev, s) and fam[i].length > v
            ]
        )
        F = fam.subfamily(
            [i for i in second if fam[i].lo < s_prev < fam[i].hi and fam[i].hi <= s]
        )
        p_new, q_new = extend(
            encode(P_prev, s_prev, v), encode(Q_prev, s_prev, v), F, C, D, s_prev, s, v
        )
        if (p_new, q_new) != (encode(P, s, v), encode(Q, s, v)):
            failures.append(("extension", done))
        done += 1
    n_ext = done

    # overlap-group count through any integer point stays under 2v^2 + v
    rng = random.Random(45_000)
    for k in range(140):
        v = rng.randint(1, 3)
        n = rng.randint(1, 14)
        pairs = set()
        while len(pairs) < n:
            length = rng.randint(1, 8)
            a = rng.randint(0, 12 - min(length, 12))
            pairs.add((a, a + length))
        distinct, _ = dedup(IntervalFamily.from_pairs(sorted(pairs)))
        info = compute_groups(distinct, v)
        bound = 2 * v * v + v
        if v == 2 and bound != 10:
            failures.append(("group bound", k, "v=2 bound"))
        lo = min(iv.lo for iv in distinct)
        hi = max(iv.hi for iv in distinct)
        for x in range(lo, hi + 1):
            pierced = {
                info.group_of[i]
                for i, iv in enumerate(distinct)
                if iv.lo < x < iv.hi
            }
            if len(pierced) > bound:
                failures.append(("group bound", k, x))
    n_groups = 140

    detail = (
        f"basic/conforming on {n_conf} ({yes} feasible), cut identity on {n_cut}, "
        f"decode on {n_decode}, extension on {n_ext}, group bound on {n_groups} instances, "
        f"{time.perf_counter() - t0:.1f}s"
    )
    _finish(acceptance_log, 4, failures, detail)


def test_criterion_5_scaling_smoke(acceptance_log):
    failures = []
    times = []
    for seed in (2, 6, 11):
        fam = generate(GeneratorSpec("vertebrate", m=40, density=2.0, max_len=3, seed=seed))
        t0 = time.perf_counter()
        rep = vertebrate_representation(fam)
        result = solve(rep, 2)
        dt = time.perf_counter() - t0
        times.append(dt)
        if dt >= 60.0:
            failures.append((seed, f"{dt:.1f}s"))
        # (L + 2)^(2(v+1)) * 2^(2v^2+v) at v = 2, with L the longest member
        longest = max(iv.length for iv in rep.family.intervals)
        cap = (longest + 2) ** (2 * (2 + 1)) * 2 ** (2 * 2 * 2 + 2)
        for s, count in enumerate(result.stage_state_counts):
            if count > cap:
                failures.append((seed, "state cap", s, count))
        if result.feasible and not verify_partition(
            fam, result.assignment, 2
        ):
            failures.append((seed, "witness rejected"))
    detail = (
        "m=40 density=2 v=2 instances solved in "
        + "/".join(f"{t:.1f}s" for t in times)
        + " (cap respected at every stage)"
    )
    _finish(acceptance_log, 5, failures, detail)


def test_criterion_6_fixture_replay(acceptance_log):
    failures = []
    rows = []
    for line in (FIXTURES / "manifest.tsv").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, v, expected = line.split()
        rows.append((name, int(v), expected == "yes"))
    assert len(rows) >= 10
    assert any(v == 1 and not expected for _, v, expected in rows)
    for name, v, expected in rows:
        fam = load_instance(str(FIXTURES / name))
        rep = vertebrate_representation(fam)
        result = solve(rep, v)
        if result.feasible != expected:
            failures.append((name, v, "solve", result.feasible))
        if oracle_partition(fam, v).decision != expected:
            failures.append((name, v, "oracle"))
        if result.feasible and not verify_partition(fam, result.assignment, v):
            failures.append((name, v, "witness rejected"))
    detail = f"{len(rows)} pinned decisions replayed by both solver and oracle"
    _finish(acceptance_log, 6, failures, detail)
