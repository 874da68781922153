"""Command-line front end: output documents, exit codes, round trips."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clawsplit import (
    Interval,
    IntervalFamily,
    PartitionAssignment,
    Side,
    cli,
    encoding,
    intervals,
    recognition,
    solver,
    verify_partition,
)
from clawsplit.cli import ParseError, main, parse_instance_text

FIXTURES = Path(__file__).parent / "fixtures"

ZIGZAG_TEXT = "0 2\n1 4\n3 6\n5 7\n"


def run(capsys, *argv):
    """Invoke the CLI in-process; return (exit_code, list of line-token lists)."""
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [line.split() for line in out.strip().splitlines() if line]
    return code, lines


def field(lines, key):
    hits = [line[1:] for line in lines if line and line[0] == key]
    assert len(hits) == 1, f"expected exactly one {key} line, got {hits}"
    return hits[0]


def fields(lines, key):
    return [line[1:] for line in lines if line and line[0] == key]


# -------------------------------------------------------------------- parsing


def test_parse_errors_carry_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 2 3\n")
    code, lines = run(capsys, "check", str(bad))
    assert code == 2
    assert field(lines, "command") == ["check"]
    err = " ".join(field(lines, "error"))
    assert err.startswith("line 2:")


def test_parse_rejects_non_integers_and_empty_intervals(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\n")
    code, _ = run(capsys, "check", str(bad))
    assert code == 2
    bad.write_text("3 3\n")
    code, lines = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 1" in " ".join(field(lines, "error"))


def test_missing_file_is_a_structured_error(tmp_path, capsys):
    code, lines = run(capsys, "check", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "cannot read" in " ".join(field(lines, "error"))


def test_directory_is_a_structured_error(tmp_path, capsys):
    code, lines = run(capsys, "check", str(tmp_path))
    assert code == 2
    assert " ".join(field(lines, "error")).startswith(f"cannot read {tmp_path}:")


def test_non_utf8_file_is_a_structured_error(tmp_path, capsys):
    f = tmp_path / "bytes.txt"
    f.write_bytes(b"\xff 0 1\n")
    code, lines = run(capsys, "check", str(f))
    assert code == 2
    assert " ".join(field(lines, "error")).startswith(f"cannot read {f}:")


def test_internal_failure_is_an_error_not_a_no(capsys, monkeypatch):
    def broken(rep, v):
        raise KeyError("lost state")

    monkeypatch.setattr(cli, "solve", broken)
    code, lines = run(capsys, "partition", str(FIXTURES / "dense-grid.txt"), "--v", "1")
    assert code == 2
    assert field(lines, "error")[:2] == ["internal", "KeyError:"]
    assert fields(lines, "decision") == []


def test_internal_runtime_error_reads_as_internal(capsys, monkeypatch):
    def too_deep(rep, v):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "solve", too_deep)
    code = main(["partition", str(FIXTURES / "dense-grid.txt"), "--v", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error internal RecursionError: maximum recursion depth exceeded\n" in captured.out
    assert "decision" not in captured.out
    assert "Traceback" in captured.err


def test_comments_and_blank_lines_are_ignored():
    fam = parse_instance_text("# header\n\n0 2  # trailing\n1 3\n")
    assert [(iv.lo, iv.hi) for iv in fam] == [(0, 2), (1, 3)]


def reference_parse(text):
    """The parser as it read a file into Interval objects, one per line, kept
    as the reference for the column parser."""
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, f"expected two integers, got {len(parts)} fields")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"expected two integers, got {line!r}") from None
        if lo >= hi:
            raise ParseError(line_no, f"interval ({lo}, {hi}) is empty: need lo < hi")
        pairs.append((lo, hi))
    return IntervalFamily(tuple(Interval(lo, hi) for lo, hi in pairs))


# Whitespace that str.split separates on, line breaks that str.splitlines
# breaks on (form feed is both), and integer spellings int accepts.
PARSE_SPACES = (" ", "  ", "\t", " \t ", "\x0c", "\u3000", "\x1f")
PARSE_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028")
PARSE_NUMBERS = {7: ("7", "+7", "07", "\u0667", "\uff17"), 10: ("10", "1_0", "+1_0", "\u0661\u0660")}
PARSE_NOISE = (
    "", "   ", "\t", "#", "# a comment", "   # indented", "#1 2", "1 2 3", "5", "a b",
    "1.5 2", "1__0 12", "_1 2", "0x1 2", "1 2#", "3 3", "4 2", "7 +7", "-1 -1", "1 2 # 3 4 5",
    " a b\t", "1.5 2 # x",
)


def random_instance_text(rng):
    """A text of up to 12 lines: members spelled in many ways, some with
    comments, among blank lines, comments and malformed lines."""
    lines = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.1:
            lines.append(rng.choice(PARSE_NOISE))
            continue
        lo = rng.randint(-3, 12)
        hi = lo + rng.randint(1, 4)
        lo_text = rng.choice(PARSE_NUMBERS.get(lo, (str(lo),)))
        hi_text = rng.choice(PARSE_NUMBERS.get(hi, (str(hi),)))
        line = rng.choice(("", " ", "\t")) + lo_text + rng.choice(PARSE_SPACES) + hi_text
        if rng.random() < 0.2:
            line += rng.choice(("#", " # note", "\t#", "# 1 2"))
        lines.append(line + rng.choice(("", " ", "\t")))
    return "".join(line + rng.choice(PARSE_BREAKS) for line in lines)


def test_parser_matches_the_interval_parser_on_seeded_texts():
    rng = random.Random(19)
    parsed = failed = 0
    for _ in range(3000):
        text = random_instance_text(rng)
        try:
            expected = reference_parse(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_instance_text(text)
            assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc)), repr(text)
            failed += 1
            continue
        fam = parse_instance_text(text)
        assert fam == expected, repr(text)
        assert list(zip(fam.los, fam.his)) == [(iv.lo, iv.hi) for iv in expected]
        parsed += 1
    # both outcomes are well covered
    assert parsed >= 1000 and failed >= 800, (parsed, failed)


# ---------------------------------------------------------------------- check


def test_check_three_path(capsys):
    code, lines = run(capsys, "check", str(FIXTURES / "path3.txt"))
    assert code == 0
    assert field(lines, "n") == ["3"]
    assert field(lines, "m_sweep") == ["2"]
    assert field(lines, "m_cliques") == ["2"]
    assert field(lines, "vertebrate") == ["yes"]
    assert field(lines, "psi") == ["2"]
    assert float(field(lines, "timing_total_s")[0]) >= 0


def test_check_invertebrate_zigzag(tmp_path, capsys):
    f = tmp_path / "zigzag.txt"
    f.write_text(ZIGZAG_TEXT)
    code, lines = run(capsys, "check", str(f))
    assert code == 1
    assert field(lines, "m_sweep") == ["2"]
    assert field(lines, "m_cliques") == ["3"]
    assert field(lines, "vertebrate") == ["no"]


def test_check_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("# nothing\n")
    code, lines = run(capsys, "check", str(f))
    assert code == 0
    assert field(lines, "n") == ["0"]
    assert field(lines, "vertebrate") == ["yes"]
    assert field(lines, "psi") == ["0"]
    # the compact family of no members is two empty columns
    code, lines = run(capsys, "represent", str(f))
    assert code == 0
    assert field(lines, "n") == ["0"]
    assert field(lines, "m_cliques") == ["0"]
    assert fields(lines, "representation") == []
    assert fields(lines, "backbone") == []


# ------------------------------------------------------------------ represent


def test_represent_three_path_exact(capsys):
    code, lines = run(capsys, "represent", str(FIXTURES / "path3.txt"))
    assert code == 0
    assert fields(lines, "representation") == [
        ["0", "0", "1"],
        ["1", "0", "2"],
        ["2", "1", "2"],
    ]
    backbone = fields(lines, "backbone")
    assert [row[0] for row in backbone] == ["1", "2"]


def test_represent_star_is_itself_up_to_leaf_order(capsys):
    code, lines = run(capsys, "represent", str(FIXTURES / "star4.txt"))
    assert code == 0
    rows = fields(lines, "representation")
    assert rows[0] == ["0", "0", "3"]
    leaves = sorted((int(a), int(b)) for _, a, b in rows[1:])
    assert leaves == [(0, 1), (1, 2), (2, 3)]


def test_represent_single_interval(capsys):
    code, lines = run(capsys, "represent", str(FIXTURES / "single.txt"))
    assert code == 0
    assert fields(lines, "representation") == [["0", "0", "1"]]


def test_represent_invertebrate_reports_alpha_and_cliques(tmp_path, capsys):
    f = tmp_path / "zigzag.txt"
    f.write_text(ZIGZAG_TEXT)
    code, lines = run(capsys, "represent", str(f))
    assert code == 2
    assert field(lines, "command") == ["represent"]
    assert field(lines, "alpha") == ["2"]
    assert field(lines, "m_cliques") == ["3"]


def test_represent_round_trip_is_a_fixed_point(tmp_path, capsys):
    _, lines = run(capsys, "represent", str(FIXTURES / "gen-10021.txt"))
    pairs = sorted((int(a), int(b)) for _, a, b in fields(lines, "representation"))
    echo = tmp_path / "rep.txt"
    echo.write_text("".join(f"{a} {b}\n" for a, b in pairs))
    code, again = run(capsys, "represent", str(echo))
    assert code == 0
    assert sorted(
        (int(a), int(b)) for _, a, b in fields(again, "representation")
    ) == pairs


def test_check_and_represent_scale_to_ten_thousand_intervals(tmp_path, capsys):
    # 5,000 units and 5,000 extras: a quadratic scan in recognition takes
    # several times the bound on this size, a sort-based one well under it
    assert main(["gen", "--kind", "vertebrate", "--m", "5000", "--seed", "0"]) == 0
    f = tmp_path / "big.txt"
    f.write_text(capsys.readouterr().out)
    for command in ("check", "represent"):
        start = time.perf_counter()
        code, lines = run(capsys, command, str(f))
        assert time.perf_counter() - start < 5.0, command
        assert code == 0
        assert field(lines, "n") == ["10000"]
        assert field(lines, "m_cliques") == ["5000"]


def test_check_and_represent_build_no_interval_and_partition_one_per_member(
    tmp_path, capsys, monkeypatch
):
    # a parsed family and a representation are two integer columns, and the
    # sweep counts cliques: check and represent build neither an Interval nor
    # a clique set, and partition builds one Interval per member of the
    # representation, when the solver first reads rep.family.intervals
    assert main(["gen", "--kind", "vertebrate", "--m", "5000", "--seed", "3"]) == 0
    f = tmp_path / "big.txt"
    f.write_text(capsys.readouterr().out)
    built = {"intervals": 0, "sets": 0}
    post_init = Interval.__post_init__

    def counted_post_init(self):
        built["intervals"] += 1
        post_init(self)

    def counted_frozenset(members):
        built["sets"] += 1
        return frozenset(members)

    monkeypatch.setattr(Interval, "__post_init__", counted_post_init)
    monkeypatch.setattr(recognition, "frozenset", counted_frozenset, raising=False)
    code, lines = run(capsys, "check", str(f))
    assert code == 0
    assert field(lines, "n") == ["10000"]
    assert field(lines, "m_cliques") == ["5000"]
    assert built == {"intervals": 0, "sets": 0}

    code, lines = run(capsys, "represent", str(f))
    assert code == 0
    distinct_ranges = {(lo, hi) for _, lo, hi in fields(lines, "representation")}
    assert 5000 < len(distinct_ranges) < 10000
    assert built == {"intervals": 0, "sets": 0}

    for seed in (1, 2, 3):
        assert main(["gen", "--kind", "vertebrate", "--m", "40", "--density", "2",
                     "--seed", str(seed)]) == 0
        f.write_text(capsys.readouterr().out)
        members = len(recognition.vertebrate_representation(cli.load_instance(str(f))).family)
        assert built["intervals"] == 0
        code, lines = run(capsys, "partition", str(f), "--v", "2", "--witness")
        assert code in (0, 1)
        assert int(field(lines, "n")[0]) > members > 40
        assert built["intervals"] == members
        built["intervals"] = 0

    # the clique sets follow from the ranges, all at once when first read
    arrangement = recognition.maximal_cliques(cli.load_instance(str(f)))
    assert len(arrangement.cliques) == arrangement.count == 40
    assert built == {"intervals": 0, "sets": 0}
    assert arrangement.cliques[0] == frozenset(
        vertex for vertex, (a, _) in enumerate(arrangement.vertex_range) if a == 1
    )
    assert built == {"intervals": 0, "sets": 40}


# ------------------------------------------------------------------ partition


def witness_assignment(lines, n):
    rows = fields(lines, "witness")
    assert [int(r[0]) for r in rows] == list(range(n))
    return PartitionAssignment(tuple(Side[r[1]] for r in rows))


def test_partition_three_path_yes_with_witness(capsys):
    from clawsplit.cli import load_instance

    fam = load_instance(str(FIXTURES / "path3.txt"))
    for v in (1, 2):
        code, lines = run(
            capsys, "partition", str(FIXTURES / "path3.txt"), "--v", str(v), "--witness"
        )
        assert code == 0
        assert field(lines, "decision") == ["yes"]
        assert verify_partition(fam, witness_assignment(lines, 3), v)


def test_partition_omits_witness_without_the_flag(capsys):
    code, lines = run(capsys, "partition", str(FIXTURES / "path3.txt"), "--v", "1")
    assert code == 0
    assert fields(lines, "witness") == []
    assert float(field(lines, "timing_solve_s")[0]) >= 0
    assert float(field(lines, "timing_recognition_s")[0]) >= 0


def test_partition_unverified_witness_is_never_printed(capsys, monkeypatch):
    monkeypatch.setattr(solver, "verify_partition", lambda J, assignment, v: False)
    code, lines = run(
        capsys, "partition", str(FIXTURES / "path3.txt"), "--v", "1", "--witness"
    )
    assert code == 2
    assert field(lines, "error")[:2] == ["internal", "AssertionError:"]
    assert fields(lines, "witness") == []


def test_partition_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", str(FIXTURES / "path3.txt"), "--v", "1", "--workers", "2"])
    assert exc.value.code == 2


def test_partition_dense_grid_no(capsys):
    code, lines = run(
        capsys, "partition", str(FIXTURES / "dense-grid.txt"), "--v", "1", "--witness"
    )
    assert code == 1
    assert field(lines, "decision") == ["no"]
    assert fields(lines, "witness") == []


def test_partition_empty_family(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("")
    code, lines = run(capsys, "partition", str(f), "--v", "1")
    assert code == 0
    assert field(lines, "decision") == ["yes"]


def test_partition_invertebrate_is_an_error(tmp_path, capsys):
    f = tmp_path / "zigzag.txt"
    f.write_text(ZIGZAG_TEXT)
    code, lines = run(capsys, "partition", str(f), "--v", "1")
    assert code == 2
    assert field(lines, "alpha") == ["2"]


def test_partition_v_cap(capsys):
    code, lines = run(capsys, "partition", str(FIXTURES / "path3.txt"), "--v", "0")
    assert code == 2
    # the cap reads the bound the DP runs at, min(v, L) with L the longest
    # compact member (see solve): path3's is 2, so v = 5 needs no flag
    code, lines = run(capsys, "partition", str(FIXTURES / "path3.txt"), "--v", "5")
    assert code == 0
    assert field(lines, "decision") == ["yes"]
    # triple-long's longest compact member is (0, 9), so v = 5 would run at 5
    # and v = 100 at 9: both need the flag
    for v in ("5", "100"):
        code, lines = run(capsys, "partition", str(FIXTURES / "triple-long.txt"), "--v", v)
        assert code == 2
        assert "allow-large-v" in " ".join(field(lines, "error"))
    code, lines = run(
        capsys, "partition", str(FIXTURES / "triple-long.txt"), "--v", "5", "--allow-large-v",
    )
    assert code == 0
    assert field(lines, "decision") == ["yes"]
    code, lines = run(
        capsys,
        "partition",
        str(FIXTURES / "path3.txt"),
        "--v",
        "5",
        "--allow-large-v",
    )
    assert code == 0
    assert field(lines, "decision") == ["yes"]
    # past the longest member every split passes, and solve's work does not
    # grow with v (see solve)
    code, lines = run(
        capsys, "partition", str(FIXTURES / "path3.txt"), "--v", "100000000",
        "--allow-large-v", "--witness",
    )
    assert code == 0
    assert field(lines, "decision") == ["yes"]
    fam = IntervalFamily.from_pairs([(0, 2), (1, 3), (2, 4)])
    assert verify_partition(fam, witness_assignment(lines, 3), 100000000)
    # oracle keeps its cap on v itself
    code, lines = run(capsys, "oracle", str(FIXTURES / "path3.txt"), "--v", "5")
    assert code == 2
    assert "allow-large-v" in " ".join(field(lines, "error"))


# --------------------------------------------------------------------- oracle


def test_oracle_agrees_with_partition_on_three_path(capsys):
    code, lines = run(
        capsys, "oracle", str(FIXTURES / "path3.txt"), "--v", "1", "--witness"
    )
    assert code == 0
    assert field(lines, "decision") == ["yes"]
    from clawsplit.cli import load_instance

    fam = load_instance(str(FIXTURES / "path3.txt"))
    assert verify_partition(fam, witness_assignment(lines, 3), 1)


def test_oracle_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", str(FIXTURES / "star4.txt"), "--v", "1", "--workers", "2"])
    assert exc.value.code == 2


def test_oracle_answers_a_huge_span_quickly(tmp_path, capsys):
    f = tmp_path / "wide.txt"
    f.write_text("0 1\n0 99999999999\n")
    start = time.perf_counter()
    code, lines = run(capsys, "oracle", str(f), "--v", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert field(lines, "decision") == ["yes"]


def test_oracle_size_guard_and_env_override(tmp_path, capsys, monkeypatch):
    f = tmp_path / "big.txt"
    f.write_text("".join(f"{i} {i + 1}\n" for i in range(17)))
    monkeypatch.delenv("CLAWSPLIT_ORACLE_LIMIT", raising=False)
    code, lines = run(capsys, "oracle", str(f), "--v", "1")
    assert code == 2
    error = " ".join(field(lines, "error"))
    # a CLI user overrides the guard by the environment, not by limit=
    assert "oracle_partition" in error and "CLAWSPLIT_ORACLE_LIMIT" in error
    assert "limit=" not in error

    monkeypatch.setenv("CLAWSPLIT_ORACLE_LIMIT", "17")
    code, lines = run(capsys, "oracle", str(f), "--v", "1")
    assert code == 0
    assert field(lines, "decision") == ["yes"]

    monkeypatch.setenv("CLAWSPLIT_ORACLE_LIMIT", "lots")
    code, lines = run(capsys, "oracle", str(f), "--v", "1")
    assert code == 2


# ------------------------------------------------------------------------ gen


def test_gen_zero_density_emits_exactly_the_backbone(capsys):
    code, lines = run(
        capsys, "gen", "--kind", "vertebrate", "--m", "3", "--density", "0", "--seed", "7"
    )
    assert code == 0
    assert lines[0][0] == "#"
    assert lines[1:] == [["0", "1"], ["1", "2"], ["2", "3"]]


def test_gen_is_byte_identical_across_runs(capsys):
    argv = ["gen", "--kind", "raw-random", "--n", "9", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_gen_output_parses_and_check_accepts_vertebrate(tmp_path, capsys):
    code = main(["gen", "--kind", "vertebrate", "--m", "5", "--seed", "11"])
    assert code == 0
    text = capsys.readouterr().out
    fam = parse_instance_text(text)
    assert len(fam) >= 5
    f = tmp_path / "gen.txt"
    f.write_text(text)
    code, lines = run(capsys, "check", str(f))
    assert code == 0
    assert field(lines, "vertebrate") == ["yes"]


def test_gen_invertebrate_kind_fails_check(tmp_path, capsys):
    code = main(["gen", "--kind", "invertebrate", "--n", "8", "--seed", "0"])
    assert code == 0
    f = tmp_path / "gen.txt"
    f.write_text(capsys.readouterr().out)
    code, lines = run(capsys, "check", str(f))
    assert code == 1
    assert field(lines, "vertebrate") == ["no"]


def test_gen_bad_parameters_are_errors_not_internal_failures(capsys):
    needs = "generation needs n >= 1 and max_len >= 1"
    cases = [
        (["--kind", "vertebrate", "--m", "0"], "vertebrate generation needs m >= 1"),
        (["--kind", "raw-random", "--n", "0"], f"raw-random {needs}"),
        (["--kind", "raw-random", "--max-len", "0"], f"raw-random {needs}"),
        (["--kind", "invertebrate", "--max-len", "0"], f"invertebrate {needs}"),
        (["--kind", "vertebrate", "--m", "6", "--density", "1e300"],
         "vertebrate generation asks for 6e+300 members, at most 1000000"),
        (["--kind", "vertebrate", "--m", "10", "--density", "1e308"],
         "vertebrate generation asks for inf members, at most 1000000"),
        (["--kind", "raw-random", "--n", "1000001"],
         "raw-random generation asks for 1e+06 members, at most 1000000"),
    ]
    for argv, message in cases:
        assert main(["gen", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"command gen\nerror {message}\n"
        assert captured.err == ""


def test_gen_rejects_bad_density_and_max_len_for_every_kind(capsys):
    kinds = ["vertebrate", "trivially-perfect", "raw-random", "invertebrate"]
    density = "generation needs a finite density >= 0, got"
    cases = [
        (["--kind", kind, "--density", value], f"{density} {shown}")
        for value, shown in [("inf", "inf"), ("nan", "nan"), ("-1", "-1.0")]
        for kind in kinds
    ] + [
        (["--kind", "vertebrate", "--max-len", "0"], "vertebrate generation needs max_len >= 1"),
        (["--kind", "trivially-perfect", "--max-len", "0"],
         "trivially-perfect generation needs n >= 1 and max_len >= 1"),
    ]
    for argv, message in cases:
        assert main(["gen", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"command gen\nerror {message}\n"
        assert captured.err == ""


def test_gen_without_an_invertebrate_draw_is_a_plain_error(capsys):
    assert main(["gen", "--kind", "invertebrate", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith(
        "command gen\nerror no invertebrate instance found in 1000 draws "
    )
    assert "internal" not in captured.out
    assert captured.err == ""


# ------------------------------------------------------------------- plumbing


def test_module_entry_point_runs():
    # the child process finds the package in the repository's src, installed
    # or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "clawsplit", "check", str(FIXTURES / "path3.txt")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "vertebrate yes" in proc.stdout


# gen-10021.txt opens with a comment line and repeats two members.
CHECK_AND_REPRESENT = (
    ("check", str(FIXTURES / "gen-10021.txt")),
    ("represent", str(FIXTURES / "gen-10021.txt")),
)


def test_partition_under_python_O_prints_the_same_lines(tmp_path):
    # the invariant checks raise rather than assert, so -O changes nothing a
    # run prints; the generated v = 1 instance has long hops (max_len 4)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def lines(*argv, optimize=False):
        proc = subprocess.run(
            [sys.executable, *(["-O"] if optimize else []), "-m", "clawsplit", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        out = [line for line in proc.stdout.splitlines() if not line.startswith("timing_")]
        return proc.returncode, out

    gen_code, gen_out = lines(
        "gen", "--kind", "vertebrate", "--m", "40", "--density", "0.3", "--max-len", "4",
        "--seed", "1",
    )
    assert gen_code == 0
    long_hops = tmp_path / "long-hops.txt"
    long_hops.write_text("\n".join(gen_out) + "\n")
    for instance, v in ((FIXTURES / "gen-10021.txt", "2"), (long_hops, "1")):
        argv = ("partition", str(instance), "--v", v, "--witness")
        plain = lines(*argv)
        assert plain[0] == 0
        assert "decision yes" in plain[1]
        assert sum(line.startswith("witness ") for line in plain[1]) > 10
        assert lines(*argv, optimize=True) == plain
    # check and represent on a file with a comment and repeated members
    for argv in CHECK_AND_REPRESENT:
        plain = lines(*argv)
        assert plain[0] == 0
        assert "vertebrate yes" in plain[1]
        assert lines(*argv, optimize=True) == plain


def test_partition_output_does_not_depend_on_the_hash_seed():
    # the solver keeps its memos in dicts and sets, whose iteration order
    # may follow the hash seed; no such order may reach the output
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    partition = ("partition", str(FIXTURES / "gen-10021.txt"), "--v", "2", "--witness")

    def lines(argv, hash_seed):
        proc = subprocess.run(
            [sys.executable, "-m", "clawsplit", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        )
        out = [line for line in proc.stdout.splitlines() if not line.startswith("timing_")]
        return proc.returncode, out

    code, out = lines(partition, "0")
    assert code == 0
    assert "decision yes" in out
    assert sum(line.startswith("witness ") for line in out) > 10
    assert lines(partition, "1") == (code, out)
    for argv in CHECK_AND_REPRESENT:
        code, out = lines(argv, "0")
        assert code == 0
        assert "vertebrate yes" in out
        assert lines(argv, "1") == (code, out)


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0


def test_main_twice_in_a_row_prints_identical_lines(capsys):
    for argv in (
        ["partition", str(FIXTURES / "path3.txt"), "--v", "1", "--witness"],
        ["check", str(FIXTURES / "dense-grid.txt")],
        ["partition", str(FIXTURES / "path3.txt"), "--v", "9"],
    ):
        runs = [run(capsys, *argv) for _ in range(2)]
        untimed = [
            (code, [line for line in lines if not line[0].startswith("timing_")])
            for code, lines in runs
        ]
        assert untimed[0] == untimed[1]


def test_traced_layers_fire_through_their_module_attributes(capsys, monkeypatch):
    # bench/tracer.py wraps these by name at every clawsplit module attribute
    # that holds them, and a traced bench run fails if a wrapper never fires;
    # so each command must still reach them through those attributes
    originals = {
        "sweepline": recognition.sweepline,
        "maximal_cliques": recognition.maximal_cliques,
        "vertebrate_representation": recognition.vertebrate_representation,
        "graph_claw_number": intervals.graph_claw_number,
        "mid_relation": intervals.mid_relation,
        "extend": encoding.extend,
        "compute_groups": solver.compute_groups,
        "verify_partition": solver.verify_partition,
        "solve": solver.solve,
    }
    fired = set()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            fired.add(name)
            return fn(*args, **kwargs)

        return wrapper

    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "clawsplit" or name.startswith("clawsplit."))]
    for name, fn in originals.items():
        wrapper = wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    path3 = str(FIXTURES / "path3.txt")
    for argv, want in (
        (["check", path3], {"sweepline", "maximal_cliques", "graph_claw_number"}),
        (["represent", path3], {"sweepline", "maximal_cliques", "vertebrate_representation"}),
        (["partition", path3, "--v", "1"],
         {"sweepline", "maximal_cliques", "vertebrate_representation", "mid_relation",
          "extend", "compute_groups", "verify_partition", "solve"}),
    ):
        fired.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert want <= fired, (argv[0], fired)


def test_main_dispatches_to_the_current_command_functions(capsys, monkeypatch):
    main(["check", str(FIXTURES / "path3.txt")])
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.file) or 7)
    assert main(["check", "some-file"]) == 7
    assert seen == ["some-file"]
