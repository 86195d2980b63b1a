"""Sparse exact linear algebra, checked against a dense Fraction oracle.

The oracle is the textbook reduced row echelon form over the rationals; the
library's one-pass sparse Gauss–Jordan kernel must agree with it exactly on
ranks, canonical column-space bases and coordinates.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_rook.algebra import truncation_idempotent
from planar_rook.linalg import apply, column_space_basis, coordinates_in_basis
from planar_rook.modules import regular_module


def F(x):
    return Fraction(x)


# ------------------------------------------------------------ dense oracle


def rref(rows):
    """Reduced row echelon form, returned with the pivot column indices.

    Pivoting is deterministic: scan columns left to right, take the topmost
    unused row with a nonzero entry.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, nrows) if work[k][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        if pv != 1:
            work[r] = [x / pv for x in work[r]]
        for k in range(nrows):
            if k != r and work[k][c]:
                f = work[k][c]
                work[k] = [a - f * b for a, b in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


def mat_vec(rows, vec):
    return [sum((F(a) * x for a, x in zip(row, vec)), F(0)) for row in rows]


def identity_matrix(k: int):
    return [[F(1) if i == j else F(0) for j in range(k)] for i in range(k)]


def mat_mul(a, b):
    return transpose([mat_vec(a, col) for col in transpose(b)])


def columns(rows):
    """The sparse columns of a dense matrix given by rows."""
    return [{r: x for r, x in enumerate(col) if x} for col in transpose(rows)]


def dense(vec: dict, length: int):
    return [F(vec.get(r, 0)) for r in range(length)]


# ------------------------------------------------------------ oracle itself


def test_rref_simple():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]
    assert reduced[1] == [F(0), F(0)]


def test_rref_identity():
    reduced, pivots = rref(identity_matrix(3))
    assert reduced == identity_matrix(3)
    assert pivots == [0, 1, 2]


def test_rref_fractional_pivot_normalized():
    reduced, pivots = rref([[Fraction(1, 2), 1], [1, 3]])
    assert pivots == [0, 1]
    assert reduced == identity_matrix(2)


# ------------------------------------------------------------ sparse kernel


def rank(cols) -> int:
    """The number of pivots of the column space basis."""
    return len(column_space_basis(cols)[1])


def test_rank():
    assert rank(columns([[1, 2], [2, 4]])) == 1
    assert rank(columns([[1, 0], [0, 1]])) == 2
    assert rank(columns([[0, 0], [0, 0]])) == 0
    assert rank([]) == 0
    assert rank(columns([[Fraction(1, 3), 1], [1, 3]])) == 1


def test_transpose_and_products():
    a = [[1, 2, 3], [4, 5, 6]]
    assert transpose(a) == [[1, 4], [2, 5], [3, 6]]
    assert transpose([]) == []
    assert mat_vec(a, [1, 0, -1]) == [F(-2), F(-2)]
    assert mat_mul(a, transpose(a)) == [[F(14), F(32)], [F(32), F(77)]]
    # the sparse product agrees with the dense one and drops zeros
    assert apply(columns(a), {0: 1, 2: -1}) == {0: -2, 1: -2}
    assert apply(columns(a), {0: 1, 1: -2, 2: 1}) == {}
    assert apply(columns(a), {}) == {}


def test_column_space_basis_and_coordinates():
    mat = [[1, 1, 2], [0, 1, 1], [1, 0, 1]]  # rank 2, third col = first + second
    basis, pivots = column_space_basis(columns(mat))
    assert len(basis) == 2 and pivots == [0, 1]
    # every column of mat must have coordinates in the extracted basis
    for col in columns(mat):
        coords = coordinates_in_basis(col, basis, pivots)
        assert set(coords) <= {0, 1}
        assert apply(basis, coords) == col
    with pytest.raises(ValueError):
        coordinates_in_basis({2: 1}, basis, pivots)


def test_rank_via_product_identity():
    # rank(A^T A) == rank(A) over the rationals
    a = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    assert rank(columns(mat_mul(transpose(a), a))) == rank(columns(a)) == 2


def test_zero_columns_and_empty_matrix():
    assert column_space_basis([]) == ([], [])
    assert column_space_basis([{}, {}]) == ([], [])
    assert coordinates_in_basis({}, [], []) == {}
    with pytest.raises(ValueError):
        coordinates_in_basis({0: 1}, [], [])


def test_sparse_kernel_stays_exact():
    # integral entries stay ints; a genuinely fractional entry is a Fraction
    basis, pivots = column_space_basis([{0: 2, 1: 1}, {0: 4, 1: 2}])
    assert pivots == [0]
    assert basis == [{0: 1, 1: Fraction(1, 2)}]
    assert all(type(x) in (int, Fraction) for v in basis for x in v.values())


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (2, 3)])
def test_column_space_basis_of_truncation_projectors_matches_oracle(m, n):
    # the generic restriction's input beyond simples: the truncation
    # idempotent acting on a regular module is no 0/1 diagonal
    mod = regular_module(m, n)
    for i in range(n + 1):
        cols = mod.matrix_of(truncation_idempotent(m, n, i))
        basis, pivots = column_space_basis(cols)
        reduced, oracle_pivots = rref([dense(c, mod.dimension) for c in cols])
        assert pivots == oracle_pivots
        assert [dense(v, mod.dimension) for v in basis] == reduced[: len(pivots)]
        assert all(type(x) is int for v in basis for x in v.values())


# ------------------------------------------------------------ properties

_entries = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


@st.composite
def matrices(draw):
    """Small dense rational matrices, often rank deficient: some columns are
    combinations of earlier ones and some are zero."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    cols: list[list[Fraction]] = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero" or nrows == 0:
            col = [F(0)] * nrows
        elif kind == "combination" and cols:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            u = draw(st.sampled_from(cols))
            v = draw(st.sampled_from(cols))
            col = [a * x + b * y for x, y in zip(u, v)]
        else:
            col = [F(draw(_entries)) for _ in range(nrows)]
        cols.append(col)
    rows = transpose(cols) if ncols else [[] for _ in range(nrows)]
    return rows, nrows


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_matches_oracle(case):
    rows, nrows = case
    assert rank(columns(rows)) == len(rref(rows)[1])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_column_space_basis_matches_oracle(case):
    rows, nrows = case
    basis, pivots = column_space_basis(columns(rows))
    reduced, oracle_pivots = rref(transpose(rows))
    assert pivots == oracle_pivots
    assert [dense(v, nrows) for v in basis] == reduced[: len(oracle_pivots)]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_coordinates_round_trip(case, data):
    rows, nrows = case
    cols = columns(rows)
    basis, pivots = column_space_basis(cols)
    for col in cols:
        coords = coordinates_in_basis(col, basis, pivots)
        assert apply(basis, coords) == col
        assert all(0 <= k < len(basis) for k in coords)
    # a unit vector at a non-pivot row never lies in the span: every basis
    # vector is zero at the other pivots, so its coordinates would all be 0
    outside = [r for r in range(nrows) if r not in pivots]
    if outside:
        r = data.draw(st.sampled_from(outside))
        with pytest.raises(ValueError):
            coordinates_in_basis({r: 1}, basis, pivots)
