from __future__ import annotations

from fractions import Fraction

import pytest

from planar_rook.linalg import (
    column_space_basis,
    coordinates_in_basis,
    mat_vec,
    rank,
    rref,
    transpose,
)


def F(x):
    return Fraction(x)


def identity_matrix(k: int) -> list[list[Fraction]]:
    return [[F(1) if i == j else F(0) for j in range(k)] for i in range(k)]


def mat_mul(a, b) -> list[list[Fraction]]:
    return transpose([mat_vec(a, col) for col in transpose(b)])


def test_rref_simple():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert pivots == [0]
    assert reduced[0] == [F(1), F(2)]
    assert reduced[1] == [F(0), F(0)]


def test_rref_identity():
    reduced, pivots = rref(identity_matrix(3))
    assert reduced == identity_matrix(3)
    assert pivots == [0, 1, 2]


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0
    assert rank([[Fraction(1, 3), 1], [1, 3]]) == 1


def test_rref_fractional_pivot_normalized():
    reduced, pivots = rref([[Fraction(1, 2), 1], [1, 3]])
    assert pivots == [0, 1]
    assert reduced == identity_matrix(2)


def test_transpose_and_products():
    a = [[1, 2, 3], [4, 5, 6]]
    assert transpose(a) == [[1, 4], [2, 5], [3, 6]]
    assert transpose([]) == []
    assert mat_vec(a, [1, 0, -1]) == [F(-2), F(-2)]
    assert mat_mul(a, transpose(a)) == [[F(14), F(32)], [F(32), F(77)]]


def test_column_space_basis_and_coordinates():
    mat = [[1, 1, 2], [0, 1, 1], [1, 0, 1]]  # rank 2, third col = first + second
    basis, pivots = column_space_basis(mat)
    assert len(basis) == 2 and pivots == [0, 1]
    # every column of mat must have coordinates in the extracted basis
    for col in transpose(mat):
        coords = coordinates_in_basis(col, basis, pivots)
        assert len(coords) == 2
    with pytest.raises(ValueError):
        coordinates_in_basis([0, 0, 1], basis, pivots)


def test_rank_via_product_identity():
    # rank(A^T A) == rank(A) over the rationals
    a = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    assert rank(mat_mul(transpose(a), a)) == rank(a) == 2
