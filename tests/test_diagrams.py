"""Diagram-level tests.

The enumeration and product tests check the implementation against independent
oracles: a filtered brute-force generator and a recursive word generator for
enumeration, matrix multiplication over (Z_2)^n and edge stacking for the
product, and an edge-building matcher for the edges derived from the words.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_rook.algebra import subdiagrams
from planar_rook.diagrams import (
    Diagram,
    EnumerationCapError,
    brief,
    count_diagrams,
    count_enumerated,
    covers,
    empty_diagram,
    enumerate_diagrams,
    flip,
    juxtapose,
    min_digits,
    multinomial,
    multiply,
    partial_identity,
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


def oracle_multiply(d1: Diagram, d2: Diagram) -> Diagram:
    """Edge stacking: (t, b, c) when d1 has (t, k, c) and d2 has (k, b, c)."""
    lower = {t: (b, c) for t, b, c in d2.edges}
    edges = [
        (t, lower[k][0], c) for t, k, c in d1.edges if lower.get(k, (0, 0))[1] == c
    ]
    return Diagram(d1.m, d1.n, tuple(edges))


def oracle_words_with_counts(counts):
    """All words with counts[c] letters c, in lexicographic order, by
    recursion on the first letter."""
    if sum(counts) == 0:
        yield ()
        return
    for letter, remaining in enumerate(counts):
        if remaining:
            shrunk = counts[:letter] + (remaining - 1,) + counts[letter + 1 :]
            for rest in oracle_words_with_counts(shrunk):
                yield (letter,) + rest


def oracle_match(top, bottom):
    """Edges joining, color by color, the k-th colored top vertex to the k-th
    colored bottom vertex, sorted by top vertex."""
    bottoms: dict[int, list[int]] = {}
    for p, c in enumerate(bottom, start=1):
        bottoms.setdefault(c, []).append(p)
    taken: dict[int, int] = {}
    edges = []
    for t, c in enumerate(top, start=1):
        if c:
            edges.append((t, bottoms[c][taken.get(c, 0)], c))
            taken[c] = taken.get(c, 0) + 1
    return tuple(edges)


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
    return partial_identity(n, (color,) * m)


def positions(word: tuple, i: int) -> tuple[int, ...]:
    """Vertices of a word carrying color i (i=0 gives the isolated vertices)."""
    return tuple(p for p, c in enumerate(word, start=1) if c == i)


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
    with pytest.raises(ValueError, match="m <= 4096"):
        Diagram(4097, 1, ())
    assert Diagram(4096, 1, ((4096, 1, 1),)).edges == ((4096, 1, 1),)
    # an integer too long for repr is worded by a lower bound on its digits
    for m, digits in ((10**5000, 5000), (-(10**5000), 5000), (2**256, 78)):
        with pytest.raises(ValueError) as info:
            Diagram(m, 1, ())
        assert f"got m=an integer with at least {digits} digits, n=1" in str(info.value)
        assert len(str(info.value)) < 300


@pytest.mark.parametrize(
    "m,n,edges",
    [
        (2, 2, ((1, 1, 1.5),)),
        (2, 2, ((1.0, 1, 1),)),
        (2, 2, ((1, 2, True),)),
        (2, 2, (("1", 1, 1),)),
        (2.0, 1, ()),
        (2, 1.0, ()),
        (True, 1, ()),
        ("2", 1, ()),
    ],
)
def test_non_integer_sizes_and_entries_rejected(m, n, edges):
    with pytest.raises(ValueError, match="must be an integer"):
        Diagram(m, n, edges)


def test_min_digits_is_a_lower_bound_within_one():
    for k in list(range(1, 400)) + [1000, 4299]:
        for x in (10**k - 1, 10**k, 2**k, 2**k - 1, 3**k // 2 + 1):
            for y in (x, -x):
                assert 0 <= len(str(abs(y))) - min_digits(y) <= 1, y
    assert brief(2**256 - 1) == "(78 characters) 115792089237316195423570...913129639935"


def test_size_zero_allowed():
    assert empty_diagram(0, 3).edges == ()


# ---------------------------------------------------------------- boundaries


def test_boundaries_of_example():
    d = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    top, bottom = d.top, d.bottom
    assert top == (1, 2, 1, 2, 0)
    assert bottom == (2, 1, 1, 0, 2)
    assert positions(top, 0) == (5,)
    assert positions(top, 1) == (1, 3)
    assert positions(top, 2) == (2, 4)
    assert positions(bottom, 0) == (4,)
    assert positions(bottom, 1) == (2, 3)
    assert positions(bottom, 2) == (1, 5)


def test_covers_ignores_isolated_positions():
    big = (1, 2, 0)
    assert covers(big, (1, 0, 0))
    assert covers(big, (0, 2, 0))
    assert covers(big, (1, 2, 0))
    assert not covers(big, (2, 0, 0))
    # position 3 is isolated in big, so color there is not covered
    assert not covers(big, (0, 0, 1))
    # the smaller word may have fewer colored positions but never different ones
    assert covers((1,), (0,))
    assert not covers((0,), (1,))
    # words of different lengths live on different vertex sets
    with pytest.raises(ValueError):
        covers((1, 0), (1,))


def test_covers_against_setwise_oracle():
    # covers == containment of the colored position sets, color by color
    m, n = 3, 2
    all_words = list(itertools.product(range(n + 1), repeat=m))
    for w1 in all_words:
        for w2 in all_words:
            expected = all(
                set(positions(w2, i)) <= set(positions(w1, i))
                for i in range(1, n + 1)
            )
            assert covers(w1, w2) == expected


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
    assert (flip(d).top, flip(d).bottom) == (d.bottom, d.top)


# ---------------------------------------------------------------- juxtapose


def test_juxtapose_example():
    d = juxtapose(unit_diagram(2, 1), unit_diagram(2, 0))
    assert d == Diagram(2, 2, ((1, 1, 1),))
    assert d.top == (1, 0) and d.bottom == (1, 0)


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


# every (m, n) up to (5, 2) and (4, 3)
WORD_ORACLE_SIZES = [
    (m, n) for n, top in ((1, 5), (2, 5), (3, 4)) for m in range(top + 1)
]


@pytest.mark.parametrize("m,n", WORD_ORACLE_SIZES)
def test_enumeration_matches_word_oracle_in_order(m, n):
    expected = [
        Diagram._trusted(m, n, tau, beta)
        for beta in itertools.product(range(n + 1), repeat=m)
        for tau in oracle_words_with_counts(tuple(beta.count(c) for c in range(n + 1)))
    ]
    got = enumerate_diagrams(m, n)
    assert list(got) == expected
    assert [d.edges for d in got] == [oracle_match(d.top, d.bottom) for d in expected]


def test_enumeration_order_is_by_bottom_then_top_word():
    diagrams = enumerate_diagrams(2, 2)
    keys = [(d.bottom, d.top) for d in diagrams]
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


@pytest.mark.parametrize("m,n", [*itertools.product(range(6), range(1, 4)), (0, 50)])
def test_count_enumerated_agrees_with_the_listing(m, n):
    assert count_enumerated(m, n) == len(enumerate_diagrams(m, n)) == count_diagrams(m, n)


@pytest.mark.parametrize("m,n", [(9, 1), (6, 3), (2, 100000)])
def test_count_enumerated_refuses_as_the_listing_does(m, n):
    with pytest.raises(EnumerationCapError) as listed:
        enumerate_diagrams(m, n)
    with pytest.raises(EnumerationCapError) as counted:
        count_enumerated(m, n)
    assert str(counted.value) == str(listed.value)


def test_count_enumerated_force_lifts_the_cap():
    for m, n in ((9, 1), (6, 3)):
        assert count_enumerated(m, n, force=True) == count_diagrams(m, n)


def test_count_closed_form_one_color():
    # central Delannoy-like identity: sum_k C(m,k)^2
    for m in range(6):
        assert count_diagrams(m, 1) == sum(
            __import__("math").comb(m, k) ** 2 for k in range(m + 1)
        )
    # the partition sum against the listing, and against the squared
    # multinomials of every count vector, which it groups by partition
    for m in range(7):
        for n in range(1, 5):
            assert count_diagrams(m, n) == len(enumerate_diagrams(m, n, force=True)), (m, n)
    for m in range(8):
        for n in range(1, 7):
            vectors = weak_compositions(m, n + 1)
            assert count_diagrams(m, n) == sum(multinomial(c) ** 2 for c in vectors), (m, n)
    # a huge color count costs nothing: (2n + 1)(n + 1) at m = 2
    assert count_diagrams(2, 10**18) == (2 * 10**18 + 1) * (10**18 + 1)


# ---------------------------------------------------------------- matching


def test_word_pair_match_examples():
    # the diagram on a pair of words is the one the matching rule joins
    for m, n, top, bottom, edges in [
        (3, 1, (1, 1, 0), (1, 1, 0), ((1, 1, 1), (2, 2, 1))),
        (2, 1, (1, 0), (0, 1), ((1, 2, 1),)),
        (2, 2, (1, 2), (2, 1), ((1, 2, 1), (2, 1, 2))),
    ]:
        d = Diagram._trusted(m, n, top, bottom)
        assert d == Diagram(m, n, edges)
        assert d.edges == edges


def test_match_reconstructs_every_diagram():
    # a diagram is determined by its boundary words
    for m, n in [(3, 1), (2, 2), (3, 2)]:
        for d in enumerate_diagrams(m, n):
            assert Diagram(m, n, oracle_match(d.top, d.bottom)) == d


def test_partial_identity():
    t = (0, 1, 2)
    d = partial_identity(2, t)
    assert d == Diagram(3, 2, ((2, 2, 1), (3, 3, 2)))
    assert (d.top, d.bottom) == (t, t)
    assert multiply(d, d) == d
    # built through the validating constructor, so bad words are refused
    for n, word in [(2, (0, 3)), (2, (-1,)), (1, (1.0,)), (1, (0.0,)), (1, (False,)), (0, (0,))]:
        with pytest.raises(ValueError):
            partial_identity(n, word)
    # a unit diagram is the partial identity of a one-letter word
    assert unit_diagram(2, 0) == empty_diagram(1, 2)
    assert unit_diagram(2, 2) == partial_identity(2, (2,)) == Diagram(1, 2, ((1, 1, 2),))
    for i in (3, -1):
        with pytest.raises(ValueError):
            unit_diagram(2, i)


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
    assert words_with_counts(()) == ((),)


def test_words_with_counts_matches_recursive_oracle():
    for slots in range(1, 5):
        for total in range(7):
            for counts in weak_compositions(total, slots):
                expected = tuple(oracle_words_with_counts(counts))
                assert words_with_counts(counts) == expected, counts


def test_matrix_round_trip():
    for d in enumerate_diagrams(2, 2):
        assert from_matrix(2, 2, to_matrix(d)) == d


# ---------------------------------------------------------------- json


def test_diagram_json_round_trip():
    d = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    blob = json.dumps(d.to_json_dict())
    assert Diagram.from_json_dict(json.loads(blob)) == d
    assert Diagram.from_json_dict(json.loads(blob)).edges == d.edges


def test_diagram_json_rejects_garbage():
    with pytest.raises(ValueError):
        Diagram.from_json_dict({"m": 2})


# ---------------------------------------------------------------- trusted paths

SMALL = [(m, n) for n in (1, 2) for m in range(4)]


def assert_validated(d):
    # the public constructor sorts and validates; a trusted construction
    # must already be what it would produce
    assert d == Diagram(d.m, d.n, d.edges)


@pytest.mark.parametrize("m,n", SMALL)
def test_trusted_constructions_are_valid(m, n):
    diagrams = enumerate_diagrams(m, n)
    for d in diagrams:
        assert_validated(d)
        assert_validated(flip(d))
        for sub in subdiagrams(d):
            assert_validated(sub)
        for d2 in diagrams:
            assert_validated(multiply(d, d2))
    for m2 in range(4 - m):
        for d2 in enumerate_diagrams(m2, n):
            for d in diagrams:
                assert_validated(juxtapose(d, d2))


# ---------------------------------------------------------------- word properties

# (m, n) up to (6, 1) and (4, 3)
PROPERTY_SIZES = [
    (m, n) for n, top in ((1, 6), (2, 4), (3, 4)) for m in range(top + 1)
]


@st.composite
def diagrams_of_one_size(draw, count=2):
    """`count` random diagrams of one size: each a random bottom word under a
    random rearrangement of it, built from words without enumeration."""
    m, n = draw(st.sampled_from(PROPERTY_SIZES))
    out = []
    for _ in range(count):
        bottom = tuple(draw(st.lists(st.integers(0, n), min_size=m, max_size=m)))
        top = tuple(draw(st.permutations(bottom)))
        out.append(Diagram._trusted(m, n, top, bottom))
    return out


@settings(max_examples=300, deadline=None)
@given(diagrams_of_one_size())
def test_word_product_matches_edge_stacking_oracle(pair):
    d1, d2 = pair
    prod, expected = multiply(d1, d2), oracle_multiply(d1, d2)
    assert prod == expected
    assert prod.edges == expected.edges
    assert hash(prod) == hash(expected)


@settings(max_examples=300, deadline=None)
@given(diagrams_of_one_size(count=1))
def test_derived_edges_round_trip(single):
    (d,) = single
    assert d.edges == oracle_match(d.top, d.bottom)
    assert oracle_is_valid(d.m, d.n, d.edges)
    rebuilt = Diagram(d.m, d.n, d.edges)
    assert (rebuilt.top, rebuilt.bottom, rebuilt.edges) == (d.top, d.bottom, d.edges)
    assert Diagram(d.m, d.n, tuple(reversed(d.edges))) == d


@settings(max_examples=300, deadline=None)
@given(diagrams_of_one_size(count=1))
def test_diagram_json_round_trip_property(single):
    (d,) = single
    parsed = Diagram.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
    assert parsed == d
    assert parsed.edges == d.edges
