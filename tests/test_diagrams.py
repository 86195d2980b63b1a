"""Diagram-level tests.

The enumeration and product tests check the implementation against independent
oracles: a filtered brute-force generator for enumeration, and matrix
multiplication over (Z_2)^n for the product.
"""

from __future__ import annotations

import itertools
import json

import pytest

from planar_rook.diagrams import (
    Boundary,
    Diagram,
    EnumerationCapError,
    count_diagrams,
    empty_diagram,
    enumerate_diagrams,
    flip,
    juxtapose,
    multiply,
    partial_identity,
    unique_planar_match,
    unit_diagram,
    weak_compositions,
    words_with_counts,
)

# ---------------------------------------------------------------- oracles


def oracle_is_valid(m, n, edges):
    """Validity check written independently of Diagram._validate."""
    tops = [t for t, _, _ in edges]
    bottoms = [b for _, b, _ in edges]
    if len(set(tops)) != len(edges) or len(set(bottoms)) != len(edges):
        return False
    for t, b, c in edges:
        if not (1 <= t <= m and 1 <= b <= m and 1 <= c <= n):
            return False
    for (t1, b1, c1), (t2, b2, c2) in itertools.combinations(edges, 2):
        if c1 == c2 and (t1 - t2) * (b1 - b2) < 0:
            return False
    return True


def oracle_all_diagrams(m, n):
    """Every valid edge set, built with no reference to boundaries."""
    found = set()
    verts = range(1, m + 1)
    for k in range(m + 1):
        for tops in itertools.combinations(verts, k):
            for bottoms in itertools.permutations(verts, k):
                for colors in itertools.product(range(1, n + 1), repeat=k):
                    edges = tuple(zip(tops, bottoms, colors))
                    if oracle_is_valid(m, n, edges):
                        found.add(frozenset(edges))
    return found


def oracle_matrix_product(m, n, rows1, rows2):
    """Matrix product where entries are 0 or units u_1..u_n of (Z_2)^n."""

    def unit_mul(a, b):
        return a if a == b else 0

    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            acc = 0
            for k in range(m):
                term = unit_mul(rows1[i][k], rows2[k][j])
                if term:
                    assert acc == 0, "two nonzero summands cannot happen"
                    acc = term
            out[i][j] = acc
    return tuple(tuple(r) for r in out)


def to_matrix(d: Diagram) -> tuple[tuple[int, ...], ...]:
    """m x m matrix with entry c at (top, bottom) per edge, 0 elsewhere."""
    rows = [[0] * d.m for _ in range(d.m)]
    for t, b, c in d.edges:
        rows[t - 1][b - 1] = c
    return tuple(tuple(r) for r in rows)


def from_matrix(m: int, n: int, rows) -> Diagram:
    edges = []
    for t, row in enumerate(rows, start=1):
        for b, c in enumerate(row, start=1):
            if c:
                edges.append((t, b, int(c)))
    return Diagram(m, n, tuple(edges))


def identity_diagram(m: int, n: int, color: int = 1) -> Diagram:
    """All m vertical strands in one color (the identity matrix over a unit)."""
    return partial_identity(Boundary(m, n, (color,) * m))


def boundaries(d: Diagram) -> tuple[Boundary, Boundary]:
    """(top boundary, bottom boundary) of d."""
    return d.top_boundary(), d.bottom_boundary()


# ---------------------------------------------------------------- construction


def test_example_diagram_accepted():
    d = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    assert len(d.edges) == 4
    assert d.edges == ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2))


def test_edges_sorted_canonically():
    a = Diagram(3, 1, ((3, 3, 1), (1, 1, 1)))
    b = Diagram(3, 1, ((1, 1, 1), (3, 3, 1)))
    assert a == b and hash(a) == hash(b)


def test_same_color_crossing_rejected():
    with pytest.raises(ValueError):
        Diagram(2, 1, ((1, 2, 1), (2, 1, 1)))


def test_different_color_crossing_allowed():
    d = Diagram(2, 2, ((1, 2, 1), (2, 1, 2)))
    assert len(d.edges) == 2


def test_duplicate_vertex_rejected():
    with pytest.raises(ValueError):
        Diagram(2, 1, ((1, 1, 1), (1, 2, 1)))
    with pytest.raises(ValueError):
        Diagram(2, 1, ((1, 1, 1), (2, 1, 1)))


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Diagram(2, 1, ((1, 3, 1),))
    with pytest.raises(ValueError):
        Diagram(2, 1, ((1, 1, 2),))
    with pytest.raises(ValueError):
        Diagram(2, 1, ((1, 1, 0),))
    with pytest.raises(ValueError):
        Diagram(-1, 1, ())
    with pytest.raises(ValueError):
        Diagram(2, 0, ())


def test_size_zero_allowed():
    assert empty_diagram(0, 3).edges == ()


# ---------------------------------------------------------------- boundaries


def test_boundaries_of_example():
    d = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    top, bottom = boundaries(d)
    assert top.colors == (1, 2, 1, 2, 0)
    assert bottom.colors == (2, 1, 1, 0, 2)
    assert top.positions(0) == (5,)
    assert top.positions(1) == (1, 3)
    assert top.positions(2) == (2, 4)
    assert bottom.positions(0) == (4,)
    assert bottom.positions(1) == (2, 3)
    assert bottom.positions(2) == (1, 5)


def test_boundary_counts():
    b = Boundary(5, 2, (2, 1, 1, 0, 2))
    assert b.counts() == (1, 2, 2)


def test_covers_ignores_isolated_positions():
    big = Boundary(3, 2, (1, 2, 0))
    assert big.covers(Boundary(3, 2, (1, 0, 0)))
    assert big.covers(Boundary(3, 2, (0, 2, 0)))
    assert big.covers(Boundary(3, 2, (1, 2, 0)))
    assert not big.covers(Boundary(3, 2, (2, 0, 0)))
    # position 3 is isolated in big, so color there is not covered
    assert not big.covers(Boundary(3, 2, (0, 0, 1)))
    # the smaller word may have fewer colored positions but never different ones
    assert Boundary(1, 1, (1,)).covers(Boundary(1, 1, (0,)))
    assert not Boundary(1, 1, (0,)).covers(Boundary(1, 1, (1,)))


def test_covers_against_setwise_oracle():
    # covers == containment of the colored position sets, color by color
    m, n = 3, 2
    all_words = list(itertools.product(range(n + 1), repeat=m))
    for w1 in all_words:
        for w2 in all_words:
            b1, b2 = Boundary(m, n, w1), Boundary(m, n, w2)
            expected = all(
                set(b2.positions(i)) <= set(b1.positions(i)) for i in range(1, n + 1)
            )
            assert b1.covers(b2) == expected


def test_boundary_validation():
    with pytest.raises(ValueError):
        Boundary(2, 1, (1,))
    with pytest.raises(ValueError):
        Boundary(2, 1, (1, 2))
    with pytest.raises(ValueError):
        Boundary(2, 1, (1, -1))


# ---------------------------------------------------------------- product


def test_product_composes_color_matched_edges():
    d1 = Diagram(2, 1, ((1, 2, 1),))
    d2 = Diagram(2, 1, ((2, 1, 1),))
    assert multiply(d1, d2) == Diagram(2, 1, ((1, 1, 1),))


def test_product_color_mismatch_gives_empty():
    assert multiply(unit_diagram(2, 1), unit_diagram(2, 2)) == empty_diagram(1, 2)


def test_product_size_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(empty_diagram(2, 1), empty_diagram(3, 1))
    with pytest.raises(ValueError):
        multiply(empty_diagram(2, 1), empty_diagram(2, 2))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_product_matches_matrix_oracle_exhaustively(m, n):
    diagrams = enumerate_diagrams(m, n)
    for d1 in diagrams:
        for d2 in diagrams:
            prod = multiply(d1, d2)
            expected = oracle_matrix_product(m, n, to_matrix(d1), to_matrix(d2))
            assert to_matrix(prod) == expected


def test_product_associative():
    for m, n in [(2, 1), (2, 2)]:
        diagrams = enumerate_diagrams(m, n)
        for d1, d2, d3 in itertools.product(diagrams, repeat=3):
            assert multiply(multiply(d1, d2), d3) == multiply(d1, multiply(d2, d3))


def test_identity_diagram_is_neutral():
    one = identity_diagram(3, 1)
    for d in enumerate_diagrams(3, 1):
        assert multiply(one, d) == d
        assert multiply(d, one) == d


# ---------------------------------------------------------------- flip


def test_flip_example():
    assert flip(Diagram(2, 1, ((1, 2, 1),))) == Diagram(2, 1, ((2, 1, 1),))


def test_flip_is_an_anti_involution():
    diagrams = enumerate_diagrams(2, 2)
    for d in diagrams:
        assert flip(flip(d)) == d
    for d1 in diagrams:
        for d2 in diagrams:
            assert flip(multiply(d1, d2)) == multiply(flip(d2), flip(d1))


def test_flip_swaps_boundaries():
    d = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    top, bottom = boundaries(d)
    ftop, fbottom = boundaries(flip(d))
    assert (ftop, fbottom) == (bottom, top)


# ---------------------------------------------------------------- juxtapose


def test_juxtapose_example():
    d = juxtapose(unit_diagram(2, 1), unit_diagram(2, 0))
    assert d == Diagram(2, 2, ((1, 1, 1),))
    top, bottom = boundaries(d)
    assert top.colors == (1, 0) and bottom.colors == (1, 0)


def test_juxtapose_associative_and_unital():
    a = unit_diagram(1, 1)
    b = Diagram(2, 1, ((1, 2, 1),))
    c = empty_diagram(1, 1)
    assert juxtapose(juxtapose(a, b), c) == juxtapose(a, juxtapose(b, c))
    e = empty_diagram(0, 1)
    assert juxtapose(e, b) == b
    assert juxtapose(b, e) == b


def test_juxtapose_commutes_with_flip():
    d1 = Diagram(2, 2, ((1, 2, 1),))
    d2 = Diagram(1, 2, ((1, 1, 2),))
    assert flip(juxtapose(d1, d2)) == juxtapose(flip(d1), flip(d2))


def test_juxtapose_respects_products():
    # (a x b)(c x d) = ac x bd on a sweep of small diagrams
    small = enumerate_diagrams(1, 2)
    bigger = enumerate_diagrams(2, 2)
    for a, c in itertools.product(small, repeat=2):
        for b, d in itertools.product(bigger, repeat=2):
            lhs = multiply(juxtapose(a, b), juxtapose(c, d))
            rhs = juxtapose(multiply(a, c), multiply(b, d))
            assert lhs == rhs


def test_juxtapose_color_mismatch_rejected():
    with pytest.raises(ValueError):
        juxtapose(empty_diagram(1, 1), empty_diagram(1, 2))


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize(
    "m,n,expected",
    [(2, 1, 6), (3, 1, 20), (1, 2, 3), (2, 2, 15), (0, 1, 1), (0, 3, 1), (1, 1, 2)],
)
def test_enumeration_counts(m, n, expected):
    diagrams = enumerate_diagrams(m, n)
    assert len(diagrams) == expected
    assert len(set(diagrams)) == expected
    assert count_diagrams(m, n) == expected


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (2, 3)])
def test_enumeration_matches_brute_force_oracle(m, n):
    ours = {frozenset(d.edges) for d in enumerate_diagrams(m, n)}
    assert ours == oracle_all_diagrams(m, n)


def test_enumeration_order_is_by_bottom_then_top_word():
    diagrams = enumerate_diagrams(2, 2)
    keys = [(d.bottom_boundary().colors, d.top_boundary().colors) for d in diagrams]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_diagrams(9, 1)
    with pytest.raises(EnumerationCapError):
        enumerate_diagrams(7, 2)
    # within cap is fine, and force overrides
    assert len(enumerate_diagrams(7, 1)) == count_diagrams(7, 1)
    assert len(enumerate_diagrams(7, 2, force=True)) == count_diagrams(7, 2)


def test_count_closed_form_one_color():
    # central Delannoy-like identity: sum_k C(m,k)^2
    for m in range(6):
        assert count_diagrams(m, 1) == sum(
            __import__("math").comb(m, k) ** 2 for k in range(m + 1)
        )


# ---------------------------------------------------------------- matching


def test_unique_planar_match_examples():
    b110 = Boundary(3, 1, (1, 1, 0))
    assert unique_planar_match(b110, b110) == Diagram(3, 1, ((1, 1, 1), (2, 2, 1)))
    d = unique_planar_match(Boundary(2, 1, (1, 0)), Boundary(2, 1, (0, 1)))
    assert d == Diagram(2, 1, ((1, 2, 1),))
    d2 = unique_planar_match(Boundary(2, 2, (1, 2)), Boundary(2, 2, (2, 1)))
    assert d2 == Diagram(2, 2, ((1, 2, 1), (2, 1, 2)))


def test_unique_planar_match_count_mismatch():
    with pytest.raises(ValueError):
        unique_planar_match(Boundary(2, 1, (1, 1)), Boundary(2, 1, (1, 0)))
    with pytest.raises(ValueError):
        unique_planar_match(Boundary(2, 2, (1, 0)), Boundary(2, 2, (2, 0)))


def test_match_reconstructs_every_diagram():
    # a diagram is determined by its boundaries
    for m, n in [(3, 1), (2, 2), (3, 2)]:
        for d in enumerate_diagrams(m, n):
            top, bottom = boundaries(d)
            assert unique_planar_match(top, bottom) == d


def test_partial_identity():
    t = Boundary(3, 2, (0, 1, 2))
    d = partial_identity(t)
    assert d == Diagram(3, 2, ((2, 2, 1), (3, 3, 2)))
    assert boundaries(d) == (t, t)
    assert multiply(d, d) == d


# ---------------------------------------------------------------- helpers


def test_weak_compositions():
    assert list(weak_compositions(2, 3)) == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]
    assert list(weak_compositions(0, 0)) == [()]


def test_words_with_counts():
    words = list(words_with_counts((1, 2)))
    assert words == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert list(words_with_counts((0, 0))) == [()]


def test_matrix_round_trip():
    for d in enumerate_diagrams(2, 2):
        assert from_matrix(2, 2, to_matrix(d)) == d


# ---------------------------------------------------------------- json


def test_diagram_json_round_trip():
    d = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    blob = json.dumps(d.to_json_dict())
    assert Diagram.from_json_dict(json.loads(blob)) == d
    assert Diagram.from_json_dict(json.loads(blob)).edges == d.edges


def test_boundary_json_round_trip():
    b = Boundary(3, 2, (0, 1, 2))
    assert Boundary.from_json_dict(b.to_json_dict()) == b


def test_diagram_json_rejects_garbage():
    with pytest.raises(ValueError):
        Diagram.from_json_dict({"m": 2})
