"""Property-based checks of the solver against the exhaustive oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from clawsplit import (
    IntervalFamily,
    oracle_partition,
    solve,
    vertebrate_representation,
    verify_partition,
)

# oracle_partition refuses families of more than 16 vertices
MAX_VERTICES = 16


@st.composite
def vertebrate_families(draw):
    """Units (i - 1, i) of a backbone of length m, plus extras inside (0, m),
    shuffled and shifted.

    The m units are m disjoint members and every maximal clique holds one of
    them, so the family is vertebrate.  Extras may repeat a unit or each
    other, which makes duplicate vertices.
    """
    m = draw(st.integers(1, 10))
    extras = draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(1, 6)),
            max_size=MAX_VERTICES - m,
        )
    )
    pairs = [(i - 1, i) for i in range(1, m + 1)]
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
