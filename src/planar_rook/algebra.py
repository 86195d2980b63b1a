"""The semigroup algebra of colored planar rook diagrams over the rationals.

Elements are finite rational-linear combinations of diagrams of a fixed size.
Besides the diagram basis the algebra carries the orbit basis, obtained by
signed inclusion-exclusion over edge subsets: the orbit vector of a diagram d
is the alternating sum of all subdiagrams of d, and conversely d is the plain
sum of the orbit vectors of its subdiagrams.  Orbit vectors multiply by a
"matched or zero" rule driven by boundary containment, which is what makes the
idempotents and the module theory transparent.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce

from .diagrams import (
    Diagram,
    empty_diagram,
    ensure_within_cap,
    flip,
    juxtapose,
    multiply,
    unit_diagram,
)


class Element:
    """A rational-linear combination of diagrams of one size.

    Terms are stored canonically: zero coefficients dropped, diagrams in
    sorted order, coefficients coerced to Fraction.  Equality and hashing of
    diagrams make the representation unique, so == on elements is exact.
    """

    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms=None):
        self.m = m
        self.n = n
        cleaned: dict[Diagram, Fraction] = {}
        for d, coeff in sorted((terms or {}).items()):
            if (d.m, d.n) != (m, n):
                raise ValueError(
                    f"term {d} has size ({d.m},{d.n}), element has ({m},{n})"
                )
            c = Fraction(coeff)
            if c:
                cleaned[d] = c
        self.terms = cleaned

    @classmethod
    def zero(cls, m: int, n: int) -> Element:
        return cls(m, n, {})

    @classmethod
    def from_diagram(cls, d: Diagram, coeff=1) -> Element:
        return cls(d.m, d.n, {d: Fraction(coeff)})

    def coefficient(self, d: Diagram) -> Fraction:
        return self.terms.get(d, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and (self.m, self.n) == (other.m, other.n)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.m, self.n, tuple(self.terms.items())))

    def _check_compatible(self, other: Element) -> None:
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError(
                f"elements live in different algebras: "
                f"({self.m},{self.n}) vs ({other.m},{other.n})"
            )

    def __add__(self, other: Element) -> Element:
        self._check_compatible(other)
        acc = dict(self.terms)
        for d, c in other.terms.items():
            acc[d] = acc.get(d, Fraction(0)) + c
        return Element(self.m, self.n, acc)

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __neg__(self) -> Element:
        return Element(self.m, self.n, {d: -c for d, c in self.terms.items()})

    def scale(self, scalar) -> Element:
        s = Fraction(scalar)
        return Element(self.m, self.n, {d: s * c for d, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_compatible(other)
            acc: dict[Diagram, Fraction] = {}
            for d1, c1 in self.terms.items():
                for d2, c2 in other.terms.items():
                    prod = multiply(d1, d2)
                    acc[prod] = acc.get(prod, Fraction(0)) + c1 * c2
            return Element(self.m, self.n, acc)
        if isinstance(other, Diagram):
            return self * Element.from_diagram(other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, Diagram):
            return Element.from_diagram(other) * self
        return self.scale(other)

    def tensor(self, other: Element) -> Element:
        """Bilinear extension of diagram juxtaposition."""
        if self.n != other.n:
            raise ValueError("cannot tensor elements with different color counts")
        acc: dict[Diagram, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                prod = juxtapose(d1, d2)
                acc[prod] = acc.get(prod, Fraction(0)) + c1 * c2
        return Element(self.m + other.m, self.n, acc)

    def __matmul__(self, other: Element) -> Element:
        return self.tensor(other)

    def flip(self) -> Element:
        """The linear anti-involution extending the diagram flip."""
        return Element(self.m, self.n, {flip(d): c for d, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return f"Element({self.m}, {self.n}, 0)"
        bits = ", ".join(f"{c}*{d.edges}" for d, c in self.terms.items())
        return f"Element({self.m}, {self.n}, {bits})"

    def to_json_dict(self, basis: str = "diagram") -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "basis": basis,
            "terms": [
                {"coeff": str(c), "diagram": d.to_json_dict()}
                for d, c in self.terms.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> Element:
        try:
            m, n, terms = int(obj["m"]), int(obj["n"]), obj["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not an element object: missing {exc}") from None
        acc: dict[Diagram, Fraction] = {}
        for t in terms:
            d = Diagram.from_json_dict(t["diagram"])
            acc[d] = acc.get(d, Fraction(0)) + Fraction(t["coeff"])
        return cls(m, n, acc)


def subdiagrams(d: Diagram):
    """All diagrams obtained by deleting a subset of the edges of d."""
    for r in range(len(d.edges) + 1):
        for subset in itertools.combinations(d.edges, r):
            yield Diagram(d.m, d.n, subset)


def orbit_vector(d: Diagram) -> Element:
    """Inclusion-exclusion: the alternating sum of all subdiagrams of d.

    The sign of a subdiagram is (-1) to the number of deleted edges.
    """
    size = len(d.edges)
    terms = {
        sub: Fraction(-1 if (size - len(sub.edges)) % 2 else 1)
        for sub in subdiagrams(d)
    }
    return Element(d.m, d.n, terms)


def to_orbit_basis(a: Element) -> dict[Diagram, Fraction]:
    """Coordinates of a in the orbit basis.

    Uses the inverse expansion d = sum of orbit vectors over subdiagrams of d,
    so the diagram-basis coefficient of d contributes to every subdiagram.
    """
    coords: dict[Diagram, Fraction] = {}
    for d, c in a.terms.items():
        for sub in subdiagrams(d):
            coords[sub] = coords.get(sub, Fraction(0)) + c
    return {d: c for d, c in sorted(coords.items()) if c}


def expand_orbit_coordinates(m: int, n: int, coords) -> Element:
    """The element with the given orbit-basis coordinates, in the diagram basis."""
    acc = Element.zero(m, n)
    for d, c in coords.items():
        acc = acc + orbit_vector(d).scale(c)
    return acc


def orbit_product(d1: Diagram, d2: Diagram) -> Element:
    """Product of two orbit vectors without expanding either one.

    It is the orbit vector of d1*d2 when the bottom boundary of d1 equals the
    top boundary of d2, and zero otherwise.
    """
    if (d1.m, d1.n) != (d2.m, d2.n):
        raise ValueError("diagrams live in different algebras")
    if d1.bottom_boundary() != d2.top_boundary():
        return Element.zero(d1.m, d1.n)
    return orbit_vector(multiply(d1, d2))


@lru_cache(maxsize=None)
def _identity(m: int, n: int) -> Element:
    if m == 0:
        return Element.from_diagram(empty_diagram(0, n))
    one = Element.zero(1, n)
    for i in range(1, n + 1):
        one = one + Element.from_diagram(unit_diagram(n, i))
    one = one - Element.from_diagram(unit_diagram(n, 0)).scale(n - 1)
    return reduce(lambda acc, _: acc.tensor(one), range(m - 1), one)


def identity_element(m: int, n: int, force: bool = False) -> Element:
    """The multiplicative identity of the size-m algebra.

    The size-1 identity is the sum of the one-edge diagrams in every color
    minus (n-1) times the edgeless diagram; larger identities are its tensor
    powers.  Term count grows like (n+1)^m for n > 1, hence the size cap.
    """
    ensure_within_cap(m, n, force)
    return _identity(m, n)


def strand(n: int, i: int) -> Element:
    """The size-1 element appended for color i.

    For i >= 1 it is unit_i - unit_0, a color-i edge minus an isolated pair;
    for i = 0 it is the isolated pair unit_0 itself.
    """
    last = Element.from_diagram(unit_diagram(n, i))
    if i >= 1:
        last = last - Element.from_diagram(unit_diagram(n, 0))
    return last


def truncation_idempotent(m: int, n: int, i: int, force: bool = False) -> Element:
    """Idempotent cutting to the part of a module where vertex m is colored i:
    identity(m-1) tensor strand(n, i)."""
    if m < 1:
        raise ValueError("truncation idempotents need m >= 1")
    return identity_element(m - 1, n, force).tensor(strand(n, i))
