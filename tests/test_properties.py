"""Property-based checks: the solver against the exhaustive oracle,
recognition and claw numbers against brute force, and the command line on
malformed input and on a gen, check, represent, partition round trip."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from clawsplit import (
    IntervalFamily,
    claw_number,
    cli,
    dedup,
    graph_claw_number,
    maximal_cliques,
    oracle_partition,
    solve,
    sweepline,
    vertebrate_representation,
    verify_partition,
)
from bruteforce import brute_alpha_window, brute_claw, brute_maximal_cliques

# oracle_partition refuses families of more than 16 vertices
MAX_VERTICES = 16

# Four extras on the units of (p, p + 5) that no split into two parts of
# claw number 1 survives.  Both parts of a split restrict to a split of any
# induced subgraph, so every family holding these answers "no" for v = 1.
NO_GADGET_V1 = ((0, 2), (0, 3), (2, 5), (3, 5))


@st.composite
def vertebrate_families(draw):
    """Units (i - 1, i) of a backbone of length m, plus extras inside (0, m),
    shuffled and shifted.

    The m units are m disjoint members and every maximal clique holds one of
    them, so the family is vertebrate.  About half the draws put
    NO_GADGET_V1 on the units of (p, p + 5) before the extras.  Extras may
    repeat a unit or each other, which makes duplicate vertices.
    """
    gadget = draw(st.booleans())
    m = draw(st.integers(5 if gadget else 1, 10))
    pairs = [(i - 1, i) for i in range(1, m + 1)]
    if gadget:
        p = draw(st.integers(0, m - 5))
        pairs += [(p + lo, p + hi) for lo, hi in NO_GADGET_V1]
    extras = draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(1, 6)),
            max_size=MAX_VERTICES - len(pairs),
        )
    )
    pairs += [(lo, min(lo + length, m)) for lo, length in extras]
    shift = draw(st.integers(-3, 3))
    order = draw(st.permutations(range(len(pairs))))
    return IntervalFamily.from_pairs([(pairs[k][0] + shift, pairs[k][1] + shift) for k in order])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(S=vertebrate_families(), v=st.integers(1, 3))
def test_solve_agrees_with_oracle(S, v):
    got = solve(vertebrate_representation(S), v)
    assert got.feasible == oracle_partition(S, v).decision
    if got.feasible:
        assert verify_partition(S, got.assignment, v)


@st.composite
def families_with_twins(draw):
    """Up to 9 members with endpoints in [-8, 14], some of them repeated."""
    pairs = draw(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 6)), max_size=7)
    )
    pairs = [(lo, lo + length) for lo, length in pairs]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
    return IntervalFamily.from_pairs(draw(st.permutations(pairs)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(S=families_with_twins())
def test_recognition_and_claw_numbers_agree_with_bruteforce(S):
    lo = min((iv.lo for iv in S), default=0)
    hi = max((iv.hi for iv in S), default=0)
    assert sweepline(S) == brute_alpha_window(S, lo, hi)
    assert set(maximal_cliques(S).cliques) == brute_maximal_cliques(S)
    distinct, _ = dedup(S)
    assert claw_number(distinct) == brute_claw(distinct)
    assert graph_claw_number(S) == brute_claw(S)


def _run(argv):
    """(exit code, output lines as token lists) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, [line.split() for line in out.getvalue().splitlines() if line]


def _values(lines, key):
    return [line[1:] for line in lines if line[0] == key]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(["vertebrate", "trivially-perfect", "raw-random", "invertebrate"]),
    size=st.integers(1, 12),
    density=st.sampled_from(["0", "0.5", "1", "2", "3"]),
    max_len=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    v=st.integers(1, 2),
)
def test_gen_check_represent_partition_round_trip(kind, size, density, max_len, seed, v):
    code, gen_lines = _run(
        ["gen", "--kind", kind, "--m", str(size), "--n", str(size + 3), "--density", density,
         "--max-len", str(max_len), "--seed", str(seed)]
    )
    if code == 2:
        # the only gen failure left for valid parameters: no invertebrate draw
        assert kind == "invertebrate" and len(_values(gen_lines, "error")) == 1
        return
    assert code == 0
    n = len(gen_lines) - 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gen.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(" ".join(line) for line in gen_lines) + "\n")
        code, lines = _run(["check", path])
        [[vertebrate]] = _values(lines, "vertebrate")
        assert code == {"yes": 0, "no": 1}[vertebrate]
        assert vertebrate == "yes" or kind in ("raw-random", "invertebrate")

        code, lines = _run(["represent", path])
        assert code == (0 if vertebrate == "yes" else 2)
        assert len(_values(lines, "representation")) == (n if code == 0 else 0)

        code, lines = _run(["partition", path, "--v", str(v), "--witness"])
        if vertebrate == "no":
            assert code == 2 and not _values(lines, "decision")
            return
        [[decision]] = _values(lines, "decision")
        assert code == {"yes": 0, "no": 1}[decision]
        witness = _values(lines, "witness")
        if decision == "yes":
            assert sorted(int(i) for i, _ in witness) == list(range(n))
        else:
            assert witness == []


# Tokens never hold whitespace or "#", so each line keeps its fields.
TOKEN = st.text(alphabet="0123456789-+_.abxyz", min_size=1, max_size=5)
NUMBER = st.integers(-50, 50).map(str)


@st.composite
def bad_lines(draw):
    """A line no parser may accept: a wrong field count, a field that is not
    an integer, or an empty interval."""
    kind = draw(st.sampled_from(["count", "token", "empty"]))
    if kind == "count":
        fields = draw(
            st.lists(TOKEN | NUMBER, min_size=1, max_size=5).filter(lambda f: len(f) != 2)
        )
    elif kind == "token":
        fields = [draw(NUMBER), draw(TOKEN) + "x"]
        if draw(st.booleans()):
            fields.reverse()
    else:
        lo = draw(st.integers(-50, 50))
        fields = [str(lo), str(lo - draw(st.integers(0, 5)))]
    return " ".join(fields)


@st.composite
def malformed_files(draw):
    """File bytes that must be refused: text with at least one bad line among
    good lines, comments and blanks, or bytes that are not UTF-8."""
    if draw(st.booleans()):
        raw = draw(st.binary(max_size=40))
        cut = draw(st.integers(0, len(raw)))
        return raw[:cut] + b"\xff" + raw[cut:]
    good = st.tuples(st.integers(-50, 50), st.integers(1, 9)).map(
        lambda p: f"{p[0]} {p[0] + p[1]}"
    )
    lines = draw(st.lists(good | st.sampled_from(["", "# note", "  "]), max_size=6))
    lines.insert(draw(st.integers(0, len(lines))), draw(bad_lines()))
    return "\n".join(lines).encode()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=malformed_files())
def test_malformed_input_always_exits_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (["check", path], ["represent", path], ["partition", path, "--v", "1"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            assert code == 2, (argv, data, out.getvalue())
            assert any(line.startswith("error ") for line in out.getvalue().splitlines())
