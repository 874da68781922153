"""Command-line front end.

Instance files are plain text: one "lo hi" integer pair per line, '#' starts
a comment, blank lines are skipped, and the vertex index is the occurrence
order.  Results come out as machine-readable "key value" lines on stdout.
Exit codes track decisions: 0 for yes (or plain success), 1 for no, 2 for
errors such as an unreadable or unparseable file, an invertebrate instance
handed to represent/partition, a violated oracle size guard, bad gen
parameters, or a failed internal check.

The empty family is reported vertebrate: zero independent vertices, zero
maximal cliques, a degenerate case the definitions leave open and this tool
resolves as yes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
import traceback
from typing import Sequence

from clawsplit.intervals import (
    IntervalFamily,
    PartitionAssignment,
    Side,
    graph_claw_number,
)
from clawsplit.oracle import (
    GenerationError,
    GeneratorSpec,
    SizeGuardError,
    generate,
    oracle_partition,
)
from clawsplit.recognition import (
    InvertebrateError,
    maximal_cliques,
    sweepline,
    vertebrate_representation,
)
from clawsplit.solver import dp_bound, solve, verify_partition

_V_CAP = 4
# The most characters an instance file may hold: over 4x the largest file
# gen writes (1,000,000 members, about 15 MB), so a file past it, or an
# endless one such as /dev/zero, fails cleanly before it fills memory.
_MAX_INPUT_CHARS = 64 << 20
_LIMIT_ENV = "CLAWSPLIT_ORACLE_LIMIT"


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_instance_text(text: str) -> IntervalFamily:
    """Parse instance text; raises ParseError with a 1-based line number.

    The members go straight into the family's lo and hi columns; no Interval
    object is built (see IntervalFamily).
    """
    los: list[int] = []
    his: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0] if "#" in raw else raw
        parts = line.split()
        try:
            lo_text, hi_text = parts
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            if not parts:
                continue
            if len(parts) != 2:
                raise ParseError(line_no, f"expected two integers, got {len(parts)} fields")
            raise ParseError(line_no, f"expected two integers, got {line.strip()!r}") from None
        if lo >= hi:
            raise ParseError(line_no, f"interval ({lo}, {hi}) is empty: need lo < hi")
        los.append(lo)
        his.append(hi)
    return IntervalFamily._from_columns(tuple(los), tuple(his))


class _ReadError(Exception):
    """The instance file could not be opened or decoded as UTF-8, or holds
    more than _MAX_INPUT_CHARS characters."""


def load_instance(path: str) -> IntervalFamily:
    """Parse the instance file at path, reading at most _MAX_INPUT_CHARS + 1
    characters of it.

    A file holds no more characters than bytes, so a first read of one
    character past its size reaches the end, unless that size is stale or
    is not a file's (a device or a pipe reports 0); only then is the rest
    read, up to the cap.  Asked for the whole cap at once, the text reader
    would allocate a buffer that large for every file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = min(os.fstat(fh.fileno()).st_size, _MAX_INPUT_CHARS) + 1
            text = fh.read(first)
            if len(text) == first:
                text += fh.read(_MAX_INPUT_CHARS + 1 - first)
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise _ReadError(f"cannot read {path}: {reason}") from exc
    if len(text) > _MAX_INPUT_CHARS:
        raise _ReadError(f"cannot read {path}: more than {_MAX_INPUT_CHARS} characters")
    return parse_instance_text(text)


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _error_doc(command: str, message: str, extra: list[str] | None = None) -> int:
    lines = [f"command {command}", f"error {message}"]
    if extra:
        lines.extend(extra)
    _emit(lines)
    return 2


def _witness_lines(assignment: PartitionAssignment) -> list[str]:
    return [f"witness {i} {assignment.side_of(i).name}" for i in range(len(assignment))]


def cmd_check(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    fam = load_instance(args.file)
    alpha = sweepline(fam)
    m_cliques = maximal_cliques(fam).count
    vertebrate = alpha == m_cliques
    psi = graph_claw_number(fam)
    _emit(
        [
            "command check",
            f"n {len(fam)}",
            f"m_sweep {alpha}",
            f"m_cliques {m_cliques}",
            f"vertebrate {'yes' if vertebrate else 'no'}",
            f"psi {psi}",
            f"timing_total_s {time.perf_counter() - t0:.6f}",
        ]
    )
    return 0 if vertebrate else 1


def cmd_represent(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    fam = load_instance(args.file)
    try:
        rep = vertebrate_representation(fam)
    except InvertebrateError as exc:
        return _error_doc(
            "represent",
            str(exc),
            [f"alpha {exc.alpha}", f"m_cliques {exc.m_cliques}"],
        )
    lines = [
        "command represent",
        f"n {len(fam)}",
        f"m_sweep {rep.m}",
        f"m_cliques {rep.m}",
        "vertebrate yes",
    ]
    los, his = rep.family.los, rep.family.his
    for j, r in enumerate(rep.rep_of):
        lines.append(f"representation {j} {los[r]} {his[r]}")
    for i in range(1, rep.m + 1):
        member = rep.backbone[i - 1]
        lines.append(f"backbone {i} {rep.origin_map[member]}")
    lines.append(f"timing_total_s {time.perf_counter() - t0:.6f}")
    _emit(lines)
    return 0


def _check_v(command: str, v: int, allow_large: bool, run_at: int | None = None) -> int | None:
    """An error document for a bound below 1, or for run_at, the bound the
    work runs at (v unless given), above the cap without allow_large."""
    if v < 1:
        return _error_doc(command, f"v must be at least 1, got {v}")
    if run_at is None:
        run_at = v
    if run_at > _V_CAP and not allow_large:
        at = "" if run_at == v else f" (the solver would run at {run_at})"
        return _error_doc(
            command,
            f"v = {v}{at} exceeds the practical cap of {_V_CAP}; "
            "state counts grow as 2^(2v^2+v), pass --allow-large-v to proceed",
        )
    return None


def cmd_partition(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    fam = load_instance(args.file)
    # only v >= 1 here: the cap waits for the bound the DP runs at (see solve)
    bad = _check_v("partition", args.v, allow_large=True)
    if bad is not None:
        return bad
    t1 = time.perf_counter()
    try:
        rep = vertebrate_representation(fam)
    except InvertebrateError as exc:
        return _error_doc(
            "partition",
            str(exc),
            [f"alpha {exc.alpha}", f"m_cliques {exc.m_cliques}"],
        )
    t2 = time.perf_counter()
    bad = _check_v("partition", args.v, args.allow_large_v, run_at=dp_bound(rep, args.v))
    if bad is not None:
        return bad
    result = solve(rep, args.v)
    t3 = time.perf_counter()
    lines = [
        "command partition",
        f"n {len(fam)}",
        f"m_sweep {rep.m}",
        f"m_cliques {rep.m}",
        "vertebrate yes",
        f"v {args.v}",
        f"decision {'yes' if result.feasible else 'no'}",
    ]
    if result.feasible and args.witness:
        lines.extend(_witness_lines(result.assignment))
    lines.append(f"timing_recognition_s {t2 - t1:.6f}")
    lines.append(f"timing_solve_s {t3 - t2:.6f}")
    lines.append(f"timing_total_s {time.perf_counter() - t0:.6f}")
    _emit(lines)
    return 0 if result.feasible else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    fam = load_instance(args.file)
    bad = _check_v("oracle", args.v, args.allow_large_v)
    if bad is not None:
        return bad
    limit = None
    env = os.environ.get(_LIMIT_ENV)
    if env is not None:
        try:
            limit = int(env)
        except ValueError:
            return _error_doc("oracle", f"{_LIMIT_ENV}={env!r} is not an integer")
    try:
        report = oracle_partition(fam, args.v, limit=limit)
    except SizeGuardError as exc:
        return _error_doc("oracle", f"{exc.reason}; set {_LIMIT_ENV} to override deliberately")
    lines = [
        "command oracle",
        f"n {len(fam)}",
        f"v {args.v}",
        f"decision {'yes' if report.decision else 'no'}",
    ]
    if report.decision and args.witness:
        if not verify_partition(fam, report.witness, args.v):
            raise AssertionError("witness failed final verification before emission")
        lines.extend(_witness_lines(report.witness))
    lines.append(f"timing_total_s {time.perf_counter() - t0:.6f}")
    _emit(lines)
    return 0 if report.decision else 1


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        m=args.m,
        n=args.n,
        density=args.density,
        max_len=args.max_len,
        seed=args.seed,
    )
    try:
        fam = generate(spec)
    except ValueError as exc:
        return _error_doc("gen", str(exc))
    lines = [
        f"# kind {spec.kind} m {spec.m} n {spec.n} density {spec.density!r} "
        f"max_len {spec.max_len} seed {spec.seed}",
    ]
    lines.extend(f"{lo} {hi}" for lo, hi in zip(fam.los, fam.his))
    _emit(lines)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="clawsplit",
        description=(
            "Recognize vertebrate interval graphs (independence number equal to "
            "the number of maximal cliques), build their compact integer "
            "representation, and split them into two parts of bounded claw "
            "number. Empty input counts as vertebrate (0 = 0)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="recognition quantities and vertebrate flag")
    p.add_argument("file")

    p = sub.add_parser("represent", help="compact representation of a vertebrate family")
    p.add_argument("file")

    p = sub.add_parser("partition", help="decide the claw-bounded 2-partition")
    p.add_argument("file")
    p.add_argument("--v", type=int, required=True, help="claw bound, >= 1")
    p.add_argument("--witness", action="store_true", help="print the verified witness")
    p.add_argument(
        "--allow-large-v", action="store_true",
        help="lift the cap of 4 on min(v, longest compact member)",
    )

    p = sub.add_parser("oracle", help="exhaustive 2-partition scan (size-guarded)")
    p.add_argument("file")
    p.add_argument("--v", type=int, required=True, help="claw bound, 1..4")
    p.add_argument("--witness", action="store_true", help="print the verified witness")
    p.add_argument("--allow-large-v", action="store_true", help="lift the v cap of 4")

    p = sub.add_parser("gen", help="write a seeded instance to stdout")
    p.add_argument(
        "--kind",
        required=True,
        choices=["vertebrate", "trivially-perfect", "invertebrate", "raw-random"],
    )
    p.add_argument("--m", type=int, default=6, help="backbone length (vertebrate)")
    p.add_argument("--n", type=int, default=8, help="vertex count (other kinds)")
    p.add_argument("--density", type=float, default=1.0, help="extras per clique")
    p.add_argument("--max-len", type=int, default=3, help="largest member length")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up on every call, so a replaced cmd_* function takes effect.
    commands = {
        "check": cmd_check,
        "represent": cmd_represent,
        "partition": cmd_partition,
        "oracle": cmd_oracle,
        "gen": cmd_gen,
    }
    try:
        return commands[args.command](args)
    except (ParseError, _ReadError, GenerationError) as exc:
        return _error_doc(args.command, str(exc))
    except Exception as exc:
        # A failed internal check is an error, never a "no".
        traceback.print_exc()
        return _error_doc(args.command, f"internal {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
