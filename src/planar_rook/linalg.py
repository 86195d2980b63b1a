"""Sparse exact linear algebra on columns.

A column is a dict from row index to a nonzero exact coefficient (an int or
a Fraction); a matrix is a sequence of columns.  Column spaces, which the
generic restriction of a module needs, come from fraction-free elimination
over the integers: each column is scaled to coprime integers, and a pivot is
removed with v <- a*v - b*u followed by division by the gcd of the result,
so no Fraction is built while eliminating.

Everything here is deterministic: a pivot vector is keyed by its lowest row
index and the column space gets its reduced echelon basis, which is unique,
so extracted bases and their pivots never depend on dict ordering or
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(vec: dict) -> dict:
    """An integer vector with the same span as vec: cleared of denominators
    by their lcm and divided by the gcd of its entries."""
    den = lcm(*(x.denominator for x in vec.values()))
    out = {r: int(x * den) for r, x in vec.items() if x}
    g = gcd(*out.values())
    if g > 1:
        out = {r: x // g for r, x in out.items()}
    return out


def _eliminate(v: dict, u: dict, p: int) -> dict:
    """a*v - b*u with the entry at p cancelled, divided by its content."""
    a, b = u[p], v[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    w = {r: a * x for r, x in v.items()}
    for r, x in u.items():
        y = w.get(r, 0) - b * x
        if y:
            w[r] = y
        else:
            del w[r]
    g = gcd(*w.values())
    return {r: x // g for r, x in w.items()} if g > 1 else w


def _echelon(columns) -> dict[int, dict]:
    """Integer pivot vectors spanning the columns, keyed by lowest row index."""
    pivots: dict[int, dict] = {}
    for col in columns:
        v = _primitive(col)
        while v:
            p = min(v)
            u = pivots.get(p)
            if u is None:
                pivots[p] = v
                break
            v = _eliminate(v, u, p)
    return pivots


def _exact(num: int, den: int):
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def column_space_basis(columns) -> tuple[list[dict], list[int]]:
    """The reduced echelon basis of the column space, plus its pivots.

    Returns (basis, pivots) with pivots ascending, where basis[k] has a 1 at
    pivots[k], zeros at the other pivots and nothing above pivots[k], so the
    coordinates of any vector v in the span are simply (v[p] for p in
    pivots).
    """
    echelon = _echelon(columns)
    pivots = sorted(echelon)
    reduced: dict[int, dict] = {}
    for p in reversed(pivots):
        v = echelon[p]
        # clear the later pivots, which are already reduced, staying integral
        for q in sorted(r for r in v if r in reduced):
            v = _eliminate(v, reduced[q], q)
        reduced[p] = v
    basis = []
    for p in pivots:
        v = reduced[p]
        lead = v[p]
        basis.append({r: _exact(x, lead) for r, x in v.items()})
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
