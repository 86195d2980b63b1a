"""Algebra-level tests: canonical elements, the orbit basis and its product
rules, identities and truncation idempotents.

Basis-change tests run both directions against each other (Mobius inversion
round-trip) rather than trusting either direction alone.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_rook.algebra import (
    Element,
    identity_element,
    orbit_basis_product,
    orbit_vector,
    strand,
    subdiagrams,
    to_orbit_basis,
    truncation_idempotent,
)
from planar_rook.diagrams import (
    Diagram,
    EnumerationCapError,
    covers,
    empty_diagram,
    enumerate_diagrams,
    multiply,
    partial_identity,
    product_words,
    unit_diagram,
)

I0 = unit_diagram(2, 0)
I1 = unit_diagram(2, 1)
I2 = unit_diagram(2, 2)


def expand_orbit_coordinates(m: int, n: int, coords) -> Element:
    """Oracle: the element with the given orbit-basis coordinates, in the
    diagram basis, by expanding every orbit vector."""
    acc = Element.zero(m, n)
    for d, c in coords.items():
        acc = acc + orbit_vector(d).scale(c)
    return acc


def naive_product(a: Element, b: Element) -> Element:
    """Oracle for Element * Element: Fraction arithmetic pair by pair."""
    acc: dict[Diagram, Fraction] = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            prod = multiply(d1, d2)
            acc[prod] = acc.get(prod, Fraction(0)) + c1 * c2
    return Element(a.m, a.n, acc)


def pairwise_product(a: Element, b: Element) -> Element:
    """Oracle for the packed product kernel of Element * Element: the pair
    loop it replaced, one `product_words` call per pair of terms, with
    integer coefficients (scaled by the lcm of the denominators) summed by
    word pair and one division per distinct product."""
    la = lcm(*(c.denominator for c in a.terms.values()))
    lb = lcm(*(c.denominator for c in b.terms.values()))
    acc: dict[tuple, int] = {}
    for d1, c1 in a.terms.items():
        for d2, c2 in b.terms.items():
            words = product_words(d1, d2)
            x1 = c1.numerator * (la // c1.denominator)
            x2 = c2.numerator * (lb // c2.denominator)
            acc[words] = acc.get(words, 0) + x1 * x2
    prods = {Diagram._trusted(a.m, a.n, *w): c for w, c in acc.items() if c}
    return Element(a.m, a.n, {d: Fraction(c, la * lb) for d, c in prods.items()})


def assert_same_element(got: Element, want: Element) -> None:
    """Equal, hashing alike, with the same terms in the same order and
    Fraction coefficients."""
    assert got == want and hash(got) == hash(want)
    assert (got.m, got.n) == (want.m, want.n)
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


# ---------------------------------------------------------------- element basics


def test_zero_terms_are_dropped():
    d = unit_diagram(1, 1)
    a = Element(1, 1, {d: Fraction(0)})
    assert not a
    assert Element.from_diagram(d) - Element.from_diagram(d) == Element.zero(1, 1)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        Element(2, 1, {unit_diagram(1, 1): 1})
    with pytest.raises(ValueError):
        Element.from_diagram(unit_diagram(1, 1)) + Element.from_diagram(
            unit_diagram(2, 1)
        )
    with pytest.raises(ValueError):
        Element.from_diagram(unit_diagram(1, 1)) * Element.from_diagram(
            empty_diagram(2, 1)
        )


def test_linear_operations():
    a = Element.from_diagram(I1, 2)
    b = Element.from_diagram(I0, Fraction(1, 3))
    c = a + b - a.scale(Fraction(1, 2))
    assert c.coefficient(I1) == 1
    assert c.coefficient(I0) == Fraction(1, 3)
    assert (-c).coefficient(I1) == -1
    assert (Fraction(3) * c).coefficient(I0) == 1
    assert (c * 3).coefficient(I1) == 3


def test_multiplication_is_bilinear_diagram_extension():
    a = Element.from_diagram(I1) + Element.from_diagram(I2)
    # cross terms I1*I2 and I2*I1 both collapse to I0
    assert a * a == a + Element.from_diagram(I0, 2)
    # I1*I2 = I0 on the nose
    assert Element.from_diagram(I1) * Element.from_diagram(
        I2
    ) == Element.from_diagram(I0)
    assert Element.from_diagram(I1) * I2 == Element.from_diagram(I0)
    assert I1 * Element.from_diagram(I2) == Element.from_diagram(I0)


def test_flip_on_elements():
    d = Diagram(2, 1, ((1, 2, 1),))
    a = Element.from_diagram(d, Fraction(5, 7))
    assert a.flip().coefficient(Diagram(2, 1, ((2, 1, 1),))) == Fraction(5, 7)
    diagrams = enumerate_diagrams(2, 2)
    for d1 in diagrams:
        for d2 in diagrams:
            x, y = Element.from_diagram(d1), Element.from_diagram(d2)
            assert (x * y).flip() == y.flip() * x.flip()


def test_tensor_is_bilinear():
    a = Element.from_diagram(unit_diagram(2, 1)) + Element.from_diagram(
        unit_diagram(2, 0), 2
    )
    b = Element.from_diagram(unit_diagram(2, 2), Fraction(1, 2))
    c = Element.from_diagram(unit_diagram(2, 1))
    assert (a + c).tensor(b) == a.tensor(b) + c.tensor(b)
    assert a.tensor(b + c) == a.tensor(b) + a.tensor(c)
    assert (a @ b).m == 2


def test_flip_is_tensor_compatible():
    a = Element.from_diagram(Diagram(2, 2, ((1, 2, 1),)))
    b = Element.from_diagram(unit_diagram(2, 2)) - Element.from_diagram(
        unit_diagram(2, 0)
    )
    assert a.tensor(b).flip() == a.flip().tensor(b.flip())


# ---------------------------------------------------------------- orbit basis


def test_orbit_vector_of_unit():
    assert orbit_vector(I1) == Element.from_diagram(I1) - Element.from_diagram(I0)
    assert orbit_vector(I0) == Element.from_diagram(I0)


def test_orbit_vector_two_edges():
    two = partial_identity(1, (1, 1))
    left = Diagram(2, 1, ((1, 1, 1),))
    right = Diagram(2, 1, ((2, 2, 1),))
    none = empty_diagram(2, 1)
    x = orbit_vector(two)
    assert x.coefficient(two) == 1
    assert x.coefficient(left) == -1
    assert x.coefficient(right) == -1
    assert x.coefficient(none) == 1
    assert len(x.terms) == 4


def test_subdiagram_count():
    d = Diagram(5, 2, ((1, 2, 1), (2, 1, 2), (3, 3, 1), (4, 5, 2)))
    assert len(list(subdiagrams(d))) == 2 ** 4


def test_to_orbit_basis_of_single_diagram():
    coords = to_orbit_basis(Element.from_diagram(I1))
    assert coords == {I0: 1, I1: 1}


def test_to_orbit_basis_of_identity():
    # the identity is the sum of ALL orbit vectors of partial identities
    coords = to_orbit_basis(identity_element(1, 2))
    assert coords == {I0: 1, I1: 1, I2: 1}
    re_expanded = expand_orbit_coordinates(1, 2, coords)
    assert re_expanded == identity_element(1, 2)


def test_identity_is_sum_of_orbit_vectors_of_partial_identities():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        acc = Element.zero(m, n)
        for word in itertools.product(range(n + 1), repeat=m):
            acc = acc + orbit_vector(partial_identity(n, word))
        assert acc == identity_element(m, n)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_orbit_round_trip_on_basis(m, n):
    for d in enumerate_diagrams(m, n):
        a = Element.from_diagram(d)
        assert expand_orbit_coordinates(m, n, to_orbit_basis(a)) == a
        # and the other composite: coordinates of an expansion come back out
        coords = {d: Fraction(1)}
        assert to_orbit_basis(expand_orbit_coordinates(m, n, coords)) == coords


def test_orbit_round_trip_on_random_elements():
    rng = random.Random(20240817)
    diagrams = enumerate_diagrams(3, 1)
    for _ in range(25):
        picks = rng.sample(diagrams, rng.randint(1, 6))
        a = Element(
            3,
            1,
            {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in picks},
        )
        assert expand_orbit_coordinates(3, 1, to_orbit_basis(a)) == a


# ---------------------------------------------------------------- identity


def test_identity_one_color_is_identity_diagram():
    one = partial_identity(1, (1, 1, 1))
    assert identity_element(3, 1) == Element.from_diagram(one)


def test_identity_size_one_two_colors():
    e = identity_element(1, 2)
    assert e.coefficient(I1) == 1
    assert e.coefficient(I2) == 1
    assert e.coefficient(I0) == -1
    assert len(e.terms) == 3


def test_identity_is_neutral():
    for m, n in [(2, 2), (3, 1), (1, 3)]:
        e = identity_element(m, n)
        for d in enumerate_diagrams(m, n):
            a = Element.from_diagram(d)
            assert e * a == a
            assert a * e == a
        assert e * e == e


def test_identity_tensor_structure():
    assert identity_element(2, 2) == identity_element(1, 2).tensor(
        identity_element(1, 2)
    )
    assert identity_element(0, 2) == Element.from_diagram(empty_diagram(0, 2))


def test_identity_cap():
    with pytest.raises(EnumerationCapError):
        identity_element(7, 2)
    forced = identity_element(7, 2, force=True)
    assert forced == identity_element(6, 2).tensor(identity_element(1, 2))


# ---------------------------------------------------------------- truncation idempotents


def test_truncation_idempotent_small():
    e = truncation_idempotent(1, 2, 1)
    assert e == Element.from_diagram(I1) - Element.from_diagram(I0)
    e0 = truncation_idempotent(1, 2, 0)
    assert e0 == Element.from_diagram(I0)


def test_truncation_idempotents_are_idempotent():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
        for i in range(n + 1):
            e = truncation_idempotent(m, n, i)
            assert e * e == e


def test_truncation_idempotents_are_orthogonal_and_sum_to_identity():
    for m, n in [(1, 1), (2, 2), (3, 2)]:
        total = Element.zero(m, n)
        for i in range(n + 1):
            total = total + truncation_idempotent(m, n, i)
        assert total == identity_element(m, n)
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    prod = truncation_idempotent(m, n, i) * truncation_idempotent(
                        m, n, j
                    )
                    assert not prod


def test_truncation_idempotent_validation():
    with pytest.raises(ValueError):
        truncation_idempotent(0, 2, 1)
    with pytest.raises(ValueError):
        truncation_idempotent(2, 2, 3)


def test_strand_is_unit_minus_isolated_pair():
    for n in (1, 2, 3):
        isolated = Element.from_diagram(unit_diagram(n, 0))
        assert strand(n, 0) == isolated
        for i in range(1, n + 1):
            assert strand(n, i) == Element.from_diagram(unit_diagram(n, i)) - isolated
    with pytest.raises(ValueError):
        strand(2, 3)
    with pytest.raises(ValueError):
        strand(2, -1)


@pytest.mark.parametrize("color", [True, False, 1.0])
def test_strand_refuses_a_color_that_is_no_integer(color):
    # True and 1.0 compare within 0..n, so the range check alone builds them
    with pytest.raises(ValueError, match="^color must be an integer, got "):
        strand(2, color)


def test_truncation_idempotent_picks_out_last_vertex_color():
    # acting on an orbit vector keeps it iff the last top vertex has color i
    for m, n in [(2, 1), (2, 2)]:
        for i in range(n + 1):
            e = truncation_idempotent(m, n, i)
            for d in enumerate_diagrams(m, n):
                x = orbit_vector(d)
                result = e * x
                if d.top[m - 1] == i:
                    assert result == x
                else:
                    assert not result


# ---------------------------------------------------------------- orbit product


def test_orbit_product_matched():
    d = partial_identity(1, (1, 0))
    assert orbit_basis_product({d: Fraction(1)}, {d: Fraction(1)}) == {d: 1}


def test_orbit_product_mismatched_is_zero():
    d1 = Diagram(2, 1, ((1, 1, 1),))
    d2 = Diagram(2, 1, ((2, 2, 1),))
    assert orbit_basis_product({d1: Fraction(1)}, {d2: Fraction(1)}) == {}
    # brute-force confirmation
    assert not orbit_vector(d1) * orbit_vector(d2)


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (1, 2), (2, 2)])
def test_orbit_product_agrees_with_expansion(m, n):
    diagrams = enumerate_diagrams(m, n)
    for d1 in diagrams:
        for d2 in diagrams:
            coords = orbit_basis_product({d1: Fraction(1)}, {d2: Fraction(1)})
            fast = expand_orbit_coordinates(m, n, coords)
            brute = orbit_vector(d1) * orbit_vector(d2)
            assert fast == brute


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
def test_one_sided_orbit_laws(m, n):
    # d' * x_d keeps x_{d'd} iff the top word of d is covered by the
    # bottom word of d'; mirrored on the other side
    diagrams = enumerate_diagrams(m, n)
    for dp in diagrams:
        for d in diagrams:
            left = Element.from_diagram(dp) * orbit_vector(d)
            if covers(dp.bottom, d.top):
                assert left == orbit_vector(multiply(dp, d))
            else:
                assert not left
            right = orbit_vector(dp) * Element.from_diagram(d)
            if covers(d.top, dp.bottom):
                assert right == orbit_vector(multiply(dp, d))
            else:
                assert not right


def test_orbit_flip_compatibility():
    for d in enumerate_diagrams(2, 2):
        assert orbit_vector(d).flip() == orbit_vector(d.flip())


# ---------------------------------------------------------------- json


def test_element_json_round_trip():
    d1 = Diagram(2, 2, ((1, 2, 1),))
    d2 = Diagram(2, 2, ((1, 1, 2), (2, 2, 1)))
    a = Element(2, 2, {d1: Fraction(-3, 2), d2: Fraction(4)})
    blob = json.dumps(a.to_json_dict())
    parsed = Element.from_json_dict(json.loads(blob))
    assert parsed == a
    coeffs = {t["coeff"] for t in a.to_json_dict()["terms"]}
    assert coeffs == {"-3/2", "4"}


def test_element_json_rejects_garbage():
    with pytest.raises(ValueError):
        Element.from_json_dict({"m": 1, "n": 1})


def test_orbit_basis_product_of_basis_vectors():
    # x_d1 * x_d2 is x_{d1 d2} when the boundaries match and 0 otherwise
    d1 = Diagram(2, 1, ((1, 1, 1),))
    d2 = Diagram(2, 1, ((1, 2, 1),))
    assert orbit_basis_product({d1: Fraction(2)}, {d2: Fraction(1, 3)}) == {
        multiply(d1, d2): Fraction(2, 3)
    }
    assert orbit_basis_product({d2: Fraction(1)}, {d1: Fraction(1)}) == {}
    assert orbit_basis_product({}, {d1: Fraction(1)}) == {}


# ---------------------------------------------------------------- properties

_coefficients = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def same_size_elements(draw, count):
    """`count` random elements of one algebra of size (m, n) <= (3, 2), each
    with up to six terms and small rational coefficients (zero included)."""
    m, n = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    diagrams = enumerate_diagrams(m, n)
    terms = st.dictionaries(st.sampled_from(diagrams), _coefficients, max_size=6)
    return [Element(m, n, draw(terms)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(same_size_elements(2))
def test_orbit_basis_product_matches_expansion(pair):
    a, b = pair
    expected = to_orbit_basis(
        expand_orbit_coordinates(a.m, a.n, a.terms)
        * expand_orbit_coordinates(b.m, b.n, b.terms)
    )
    assert orbit_basis_product(a.terms, b.terms) == expected


@settings(max_examples=150, deadline=None)
@given(same_size_elements(3))
def test_product_laws(triple):
    a, b, c = triple
    assert a * b == naive_product(a, b)
    assert (a * b) * c == a * (b * c)
    assert (a * b).flip() == b.flip() * a.flip()


@settings(max_examples=150, deadline=None)
@given(same_size_elements(1))
def test_orbit_round_trip_property(single):
    (a,) = single
    assert expand_orbit_coordinates(a.m, a.n, to_orbit_basis(a)) == a
    assert to_orbit_basis(expand_orbit_coordinates(a.m, a.n, a.terms)) == a.terms


@settings(max_examples=150, deadline=None)
@given(same_size_elements(1))
def test_element_json_round_trip_property(single):
    (a,) = single
    for basis in ("diagram", "orbit"):
        blob = json.dumps(a.to_json_dict(basis))
        parsed = Element.from_json_dict(json.loads(blob))
        assert parsed == a
        assert list(parsed.terms.items()) == list(a.terms.items())


# ---------------------------------------------------------------- product kernel


@st.composite
def diagrams_of(draw, m: int, n: int):
    """A random (m, n) diagram: a bottom word and a rearrangement of it as
    the top word, which fixes the crossingless matching."""
    bottom = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    top = draw(st.permutations(bottom))
    return Diagram._trusted(m, n, tuple(top), tuple(bottom))


@st.composite
def elements_of(draw, m: int, n: int, max_terms: int = 6):
    terms = draw(st.dictionaries(diagrams_of(m, n), _coefficients, max_size=max_terms))
    return Element(m, n, terms)


@st.composite
def kernel_pairs(draw):
    """Two elements of one algebra, m <= 4 (0 included) and n at and around
    the letter widths; either may be zero."""
    m, n = draw(st.integers(0, 4)), draw(st.sampled_from((1, 2, 3, 4, 7, 8)))
    return draw(elements_of(m, n)), draw(elements_of(m, n))


@settings(max_examples=300, deadline=None)
@given(kernel_pairs())
def test_product_kernel_matches_pairwise_oracle(pair):
    a, b = pair
    assert_same_element(a * b, pairwise_product(a, b))
    assert_same_element(a * b, naive_product(a, b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_kernel_cancellation(data):
    # unit_0 * strand(n, i) = unit_0 - unit_0 = 0 for i >= 1, so the pairs of
    # (a (x) unit_0) * (b (x) strand) all cancel, and those of
    # (c (x) unit_i) * (b (x) strand) leave (c * b) (x) strand
    m, n = data.draw(st.integers(0, 2)), data.draw(st.sampled_from((1, 2, 3, 4)))
    i = data.draw(st.integers(1, n))
    a, b, c = (data.draw(elements_of(m, n)) for _ in range(3))
    isolated = Element.from_diagram(unit_diagram(n, 0))
    left = a.tensor(isolated) + c.tensor(Element.from_diagram(unit_diagram(n, i)))
    right = b.tensor(strand(n, i))
    got = left * right
    assert_same_element(got, pairwise_product(left, right))
    assert_same_element(got, (c * b).tensor(strand(n, i)))
    assert_same_element(a.tensor(isolated) * right, Element.zero(m + 1, n))


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8])
def test_product_kernel_at_letter_widths(n):
    # n = 1, 3, 7 fill their w = n.bit_length() bits with the letter n;
    # n = 4, 8 are the first letters of a wider field
    rng = random.Random(n)

    def element(m: int) -> Element:
        terms = {}
        for _ in range(rng.randint(0, 8)):
            bottom = [rng.choice((0, n, n, rng.randint(0, n))) for _ in range(m)]
            top = rng.sample(bottom, m)
            d = Diagram._trusted(m, n, tuple(top), tuple(bottom))
            terms[d] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return Element(m, n, terms)

    for m in range(5):
        for _ in range(20):
            a, b = element(m), element(m)
            assert_same_element(a * b, pairwise_product(a, b))


def test_product_kernel_on_every_pair_of_diagrams():
    diagrams = enumerate_diagrams(3, 2)
    elements = [Element.from_diagram(d) for d in diagrams]
    for d1, x in zip(diagrams, elements):
        for d2, y in zip(diagrams, elements):
            want = Element.from_diagram(Diagram._trusted(3, 2, *product_words(d1, d2)))
            assert_same_element(x * y, want)
    # and all of them at once, with distinct coefficients
    a = Element(3, 2, {d: Fraction(k + 1, 7) for k, d in enumerate(diagrams)})
    b = Element(3, 2, {d: Fraction(2 - k, 3) for k, d in enumerate(diagrams)})
    assert_same_element(a * b, pairwise_product(a, b))


def random_element(rng: random.Random, m: int, n: int, size: int) -> Element:
    diagrams = enumerate_diagrams(m, n)
    terms = {}
    for _ in range(size):
        terms[rng.choice(diagrams)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Element(m, n, terms)


def test_trusted_elements_match_public_construction():
    for m, n in ((0, 1), (1, 2), (2, 2), (3, 1), (3, 2)):
        for d in enumerate_diagrams(m, n):
            x = orbit_vector(d)
            assert_same_element(x, Element(m, n, dict(x.terms)))
            assert_same_element(Element(m, n, dict(x.terms)), x)
    # every operation on elements builds trusted, as the public constructor would
    rng = random.Random(5)
    for _ in range(30):
        a, b = random_element(rng, 3, 2, 6), random_element(rng, 3, 2, 6)
        results = [a * b, a + b, a - b, -a, a.tensor(b), a.flip(), a - a, (a + b) - a]
        results += [a.scale(q) for q in (0, Fraction(-2, 3), 5)]
        for x in results:
            assert_same_element(x, Element(x.m, x.n, dict(reversed(x.terms.items()))))
        assert_same_element(a - a, Element.zero(3, 2))
        assert_same_element((a + b) - a, b)


def test_packed_form_stays_with_its_element():
    rng = random.Random(11)
    unit = Element.from_diagram(enumerate_diagrams(2, 2)[3])
    for _ in range(20):
        a, b = random_element(rng, 2, 2, 5), random_element(rng, 2, 2, 5)
        # pack both sides of both factors
        assert_same_element(a * b, pairwise_product(a, b))
        assert_same_element(b * a, pairwise_product(b, a))
        derived = [
            a.flip(),
            a.tensor(b),
            b.tensor(a),
            a.scale(Fraction(-2, 3)),
            a + b,
            a - b,
            -a,
            unit * a,
        ]
        assert all(x._packed is None for x in derived)
        for x in derived:
            for y in (a, b.tensor(a), derived[1], x):
                if (x.m, x.n) == (y.m, y.n):
                    assert_same_element(x * y, pairwise_product(x, y))
                    assert_same_element(y * x, pairwise_product(y, x))
