"""The sparse exact kernel of `dgres.linalg` against the dense Gauss-Jordan
oracle (`dense_linalg`), on small random systems over Q: consistent,
inconsistent and rank-deficient ones, zero columns, and empty systems.
`solve` must return the oracle's particular solution (free variables 0)
value for value, and `rank` the oracle's pivot count."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dgres import linalg

from dense_linalg import rref, solve as dense_solve

# mostly small integers and zeros, some proper fractions
entries = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@st.composite
def systems(draw):
    """(dense matrix, rhs, number of columns) of one of the kinds above."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    mat = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    kind = draw(st.sampled_from(["random", "consistent", "deficient", "zero-column"]))
    if kind == "deficient" and cols >= 2:
        # the last column is a combination of the others
        f = [draw(entries) for _ in range(cols - 1)]
        for row in mat:
            row[-1] = sum(c * x for c, x in zip(f, row))
    if kind == "zero-column" and cols:
        k = draw(st.integers(0, cols - 1))
        for row in mat:
            row[k] = 0
    if kind == "random":
        rhs = [draw(entries) for _ in range(rows)]
    else:  # rhs = A x0
        x0 = [draw(entries) for _ in range(cols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in mat]
    return mat, rhs, cols


def sparse(mat, rhs, cols):
    columns = [{r: row[j] for r, row in enumerate(mat) if row[j]} for j in range(cols)]
    return columns, {r: v for r, v in enumerate(rhs) if v}


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_matches_dense_oracle(system):
    mat, rhs, cols = system
    columns, b = sparse(mat, rhs, cols)
    got = linalg.solve(columns, b)
    # a matrix without rows has no row list to carry its width
    want = dense_solve(mat, rhs) if mat else [0] * cols
    assert got == want
    if got is not None:
        for row, v in zip(mat, rhs):
            assert sum(a * x for a, x in zip(row, got)) == v


@settings(max_examples=200, deadline=None)
@given(systems())
def test_rank_matches_dense_oracle(system):
    mat, _, cols = system
    columns, _ = sparse(mat, [], cols)
    r = len(rref(mat)[1])
    assert linalg.rank(columns) == r
    # neither the pivot row nor the value type changes a rank: reversing the
    # rows makes the highest row the lowest, and Fractions replace ints
    assert linalg.rank({-k: v for k, v in c.items()} for c in columns) == r
    assert linalg.rank({k: Fraction(v) for k, v in c.items()} for c in columns) == r

