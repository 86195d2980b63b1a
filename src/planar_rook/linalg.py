"""Sparse exact linear algebra on columns.

A column is a dict from row index to a nonzero exact coefficient (an int or
a Fraction); a matrix is a sequence of columns.  Column spaces, which the
generic restriction of a module needs, come from one Gauss–Jordan pass over
the rationals: each column is cleared of the pivots found so far, its own
pivot is scaled to 1, and that pivot is cleared from the earlier vectors.

Everything here is deterministic: a pivot vector is keyed by its lowest row
index and the column space gets its reduced echelon basis, which is unique,
so extracted bases and their pivots never depend on dict ordering or
floating point.
"""

from __future__ import annotations

from fractions import Fraction


def _subtract(v: dict, c, u: dict) -> None:
    """v <- v - c*u in place, dropping the entries that cancel."""
    for r, x in u.items():
        y = v.get(r, 0) - c * x
        if y:
            v[r] = y
        else:
            del v[r]


def column_space_basis(columns) -> tuple[list[dict], list[int]]:
    """The reduced echelon basis of the column space, plus its pivots.

    Returns (basis, pivots) with pivots ascending, where basis[k] has a 1 at
    pivots[k], zeros at the other pivots and nothing above pivots[k], so the
    coordinates of any vector v in the span are simply (v[p] for p in
    pivots).  Every integral entry is an int.
    """
    reduced: dict[int, dict] = {}
    for col in columns:
        v = {r: x for r, x in col.items() if x}
        # each reduced vector is zero at the other pivots, so one subtraction
        # per pivot clears them all
        for p in [r for r in v if r in reduced]:
            _subtract(v, v[p], reduced[p])
        if not v:
            continue
        q = min(v)
        if v[q] != 1:
            lead = Fraction(v[q])
            v = {r: x / lead for r, x in v.items()}
        for u in reduced.values():
            if q in u:
                _subtract(u, u[q], v)
        reduced[q] = v
    pivots = sorted(reduced)
    basis = [
        {r: x.numerator if x.denominator == 1 else x for r, x in reduced[p].items()}
        for p in pivots
    ]
    return basis, pivots


def apply(columns, vec: dict) -> dict:
    """The matrix with the given columns times a sparse vector."""
    out: dict = {}
    for j, x in vec.items():
        for r, a in columns[j].items():
            out[r] = out.get(r, 0) + a * x
    return {r: x for r, x in out.items() if x}


def coordinates_in_basis(vec: dict, basis, pivots) -> dict:
    """Sparse coordinates of vec in a column_space_basis, keyed by position in
    the basis; raises unless vec lies in the span."""
    coords = {k: vec[p] for k, p in enumerate(pivots) if p in vec}
    if apply(basis, coords) != {r: x for r, x in vec.items() if x}:
        raise ValueError("vector does not lie in the span of the basis")
    return coords
