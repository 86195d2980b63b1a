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

import pytest

from planar_rook.algebra import (
    Element,
    expand_orbit_coordinates,
    identity_element,
    orbit_product,
    orbit_vector,
    subdiagrams,
    to_orbit_basis,
    truncation_idempotent,
)
from planar_rook.diagrams import (
    Boundary,
    Diagram,
    EnumerationCapError,
    empty_diagram,
    enumerate_diagrams,
    multiply,
    partial_identity,
    unit_diagram,
)

I0 = unit_diagram(2, 0)
I1 = unit_diagram(2, 1)
I2 = unit_diagram(2, 2)


# ---------------------------------------------------------------- element basics


def test_zero_terms_are_dropped():
    d = unit_diagram(1, 1)
    a = Element(1, 1, {d: Fraction(0)})
    assert a.is_zero() and not a
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
    two = partial_identity(Boundary(2, 1, (1, 1)))
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
            acc = acc + orbit_vector(partial_identity(Boundary(m, n, word)))
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
    one = partial_identity(Boundary(3, 1, (1, 1, 1)))
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
                    assert prod.is_zero()


def test_truncation_idempotent_validation():
    with pytest.raises(ValueError):
        truncation_idempotent(0, 2, 1)
    with pytest.raises(ValueError):
        truncation_idempotent(2, 2, 3)


def test_truncation_idempotent_picks_out_last_vertex_color():
    # acting on an orbit vector keeps it iff the last top vertex has color i
    for m, n in [(2, 1), (2, 2)]:
        for i in range(n + 1):
            e = truncation_idempotent(m, n, i)
            for d in enumerate_diagrams(m, n):
                x = orbit_vector(d)
                result = e * x
                if d.top_boundary().colors[m - 1] == i:
                    assert result == x
                else:
                    assert result.is_zero()


# ---------------------------------------------------------------- orbit product


def test_orbit_product_matched():
    t = Boundary(2, 1, (1, 0))
    d = partial_identity(t)
    assert orbit_product(d, d) == orbit_vector(d)


def test_orbit_product_mismatched_is_zero():
    d1 = Diagram(2, 1, ((1, 1, 1),))
    d2 = Diagram(2, 1, ((2, 2, 1),))
    assert orbit_product(d1, d2).is_zero()
    # brute-force confirmation
    assert (orbit_vector(d1) * orbit_vector(d2)).is_zero()


@pytest.mark.parametrize("m,n", [(2, 1), (3, 1), (1, 2), (2, 2)])
def test_orbit_product_agrees_with_expansion(m, n):
    diagrams = enumerate_diagrams(m, n)
    for d1 in diagrams:
        for d2 in diagrams:
            fast = orbit_product(d1, d2)
            brute = orbit_vector(d1) * orbit_vector(d2)
            assert fast == brute


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
def test_one_sided_orbit_laws(m, n):
    # d' * x_d keeps x_{d'd} iff the top boundary of d is covered by the
    # bottom boundary of d'; mirrored on the other side
    diagrams = enumerate_diagrams(m, n)
    for dp in diagrams:
        for d in diagrams:
            left = Element.from_diagram(dp) * orbit_vector(d)
            if dp.bottom_boundary().covers(d.top_boundary()):
                assert left == orbit_vector(multiply(dp, d))
            else:
                assert left.is_zero()
            right = orbit_vector(dp) * Element.from_diagram(d)
            if d.top_boundary().covers(dp.bottom_boundary()):
                assert right == orbit_vector(multiply(dp, d))
            else:
                assert right.is_zero()


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
