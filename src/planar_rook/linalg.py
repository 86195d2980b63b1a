"""Small dense exact linear algebra over the rationals.

Everything here is deterministic: pivots are chosen as the first nonzero
column and the topmost available row, so reduced forms, ranks and extracted
bases never depend on dict ordering or floating point.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]


def zeros(nrows: int, ncols: int) -> list[Row]:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def transpose(rows) -> list[Row]:
    return [list(col) for col in zip(*rows)] if rows else []


def mat_vec(rows, vec) -> list[Fraction]:
    out = []
    for row in rows:
        acc = Fraction(0)
        for a, x in zip(row, vec):
            if a and x:
                acc += a * x
        out.append(acc)
    return out


def rref(rows) -> tuple[list[Row], list[int]]:
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


def rank(rows) -> int:
    return len(rref(rows)[1])


def column_space_basis(rows) -> tuple[list[Row], list[int]]:
    """A canonical basis of the column space, as rows, plus coordinate columns.

    Returns (basis, pivots) where basis[k] has a 1 in position pivots[k] and
    zeros in the other pivot positions, so the coordinates of any vector v in
    the span are simply (v[p] for p in pivots).
    """
    reduced, pivots = rref(transpose(rows))
    return reduced[: len(pivots)], pivots


def coordinates_in_basis(vec, basis, pivots) -> list[Fraction]:
    """Coordinates of vec in a column_space_basis, verifying membership."""
    coords = [Fraction(vec[p]) for p in pivots]
    recombined = [Fraction(0)] * len(vec)
    for coeff, row in zip(coords, basis):
        if coeff:
            for j, x in enumerate(row):
                if x:
                    recombined[j] += coeff * x
    if recombined != [Fraction(x) for x in vec]:
        raise ValueError("vector does not lie in the span of the basis")
    return coords
