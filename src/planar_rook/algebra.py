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
import re
import sys
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm

from .diagrams import (
    Diagram,
    brief,
    empty_diagram,
    ensure_diagrams,
    flip,
    json_int,
    juxtapose,
)

# the signs of orbit vectors, shared by all their terms
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


class Element:
    """A rational-linear combination of diagrams of one size.

    Terms are stored canonically: zero coefficients dropped, diagrams in
    sorted order, coefficients coerced to Fraction.  Equality and hashing of
    diagrams make the representation unique, so == on elements is exact, and
    elements are immutable by convention.

    `Element(m, n, terms)` checks sizes and coerces outside input; every
    operation on elements builds by `_trusted`, which only sorts nonzero
    Fractions on diagrams of size (m, n).  `_packed` caches the terms packed
    for the product kernel (see `_packed_side`).
    """

    __slots__ = ("m", "n", "terms", "_packed")

    def __init__(self, m: int, n: int, terms=None):
        self.m = m
        self.n = n
        self._packed = None
        cleaned: dict[Diagram, Fraction] = {}
        for d, coeff in _sorted_terms(terms or {}):
            if (d.m, d.n) != (m, n):
                raise ValueError(
                    f"term {brief(d)} does not have size ({brief(m)},{brief(n)})"
                )
            c = Fraction(coeff)
            if c:
                cleaned[d] = c
        self.terms = cleaned

    @classmethod
    def _trusted(cls, m: int, n: int, terms: dict) -> Element:
        e = object.__new__(cls)
        e.m, e.n, e.terms, e._packed = m, n, dict(_sorted_terms(terms)), None
        return e

    @classmethod
    def zero(cls, m: int, n: int) -> Element:
        return cls(m, n, {})

    @classmethod
    def from_diagram(cls, d: Diagram, coeff=1) -> Element:
        return cls(d.m, d.n, {d: Fraction(coeff)})

    def coefficient(self, d: Diagram) -> Fraction:
        return self.terms.get(d, Fraction(0))

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
                f"elements live in different algebras: ({brief(self.m)},"
                f"{brief(self.n)}) vs ({brief(other.m)},{brief(other.n)})"
            )

    def __add__(self, other: Element) -> Element:
        self._check_compatible(other)
        acc = dict(self.terms)
        for d, c in other.terms.items():
            acc[d] = acc.get(d, 0) + c
        return Element._trusted(self.m, self.n, {d: c for d, c in acc.items() if c})

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __neg__(self) -> Element:
        return Element._trusted(self.m, self.n, {d: -c for d, c in self.terms.items()})

    def scale(self, scalar) -> Element:
        s = Fraction(scalar)
        return Element._trusted(self.m, self.n, {d: s * c for d, c in self.terms.items() if s})

    def __mul__(self, other):
        if isinstance(other, Element):
            # fraction-free: integer coefficients la*a and lb*b, one division
            self._check_compatible(other)
            la, left = self._packed_side(0)
            lb, right = other._packed_side(1)
            # a pair's product key is the OR of its surviving letters' bits
            acc: dict[int, int] = defaultdict(int)
            for survivors, c1 in left:
                for above, below, c2 in right:
                    key = 0
                    for bits, c, k in survivors:
                        if above[k] == c:
                            key |= bits | below[k]
                    acc[key] += c1 * c2
            m, n, den = self.m, self.n, la * lb
            w = n.bit_length()
            mask, shifts = (1 << w) - 1, range(0, 2 * m * w, w)
            prods = {}
            for key, c in acc.items():
                if c:
                    letters = tuple([(key >> s) & mask for s in shifts])
                    d = Diagram._trusted(m, n, letters[m:], letters[:m])
                    prods[d] = Fraction(c, den)
            return Element._trusted(m, n, prods)
        if isinstance(other, Diagram):
            return self * Element.from_diagram(other)
        return self.scale(other)

    def _packed_side(self, side: int):
        """(l, [(pack, l*c)]) for the product kernel, with l the lcm of the
        denominators, so every scaled coefficient is an integer; built once
        per side and element.

        A product key holds w = n.bit_length() bits per letter: the bottom
        word's letter at vertex p in bits w*p up, the top word's at w*(m+p).
        As a left factor (side 0) a diagram packs, for each colored top
        vertex, (its letter in the key's top half, its color, its middle
        vertex); as a right factor (side 1), its top word and, for each
        middle vertex, its bottom partner's letter in the key's bottom half
        (0 if isolated).  The matching rule is read from `_matching`.
        """
        if self._packed is None:
            self._packed = [None, None]
        if self._packed[side] is None:
            m, w = self.m, self.n.bit_length()
            den = lcm(*(c.denominator for c in self.terms.values()))
            packs = []
            for d, c in self.terms.items():
                c = c.numerator * (den // c.denominator)
                down, word = d._matching()[0], d.top
                if side:
                    below = [x << w * down[k] if x else 0 for k, x in enumerate(word)]
                    packs.append((word, below, c))
                else:
                    top = [(x << w * (m + t), x, down[t]) for t, x in enumerate(word) if x]
                    packs.append((top, c))
            self._packed[side] = den, packs
        return self._packed[side]

    def __rmul__(self, other):
        if isinstance(other, Diagram):
            return Element.from_diagram(other) * self
        return self.scale(other)

    def tensor(self, other: Element) -> Element:
        """Bilinear extension of diagram juxtaposition, which is injective."""
        if self.n != other.n:
            raise ValueError("cannot tensor elements with different color counts")
        pairs = itertools.product(self.terms.items(), other.terms.items())
        acc = {juxtapose(d1, d2): c1 * c2 for (d1, c1), (d2, c2) in pairs}
        return Element._trusted(self.m + other.m, self.n, acc)

    def __matmul__(self, other: Element) -> Element:
        return self.tensor(other)

    def flip(self) -> Element:
        """The linear anti-involution extending the diagram flip."""
        return Element._trusted(self.m, self.n, {flip(d): c for d, c in self.terms.items()})

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
            m, n, terms = obj["m"], obj["n"], obj["terms"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not an element object: missing {exc}") from None
        empty_diagram(m, n)  # refuses the sizes a diagram refuses, in its words
        acc: dict[Diagram, Fraction] = {}
        for k, t in enumerate(terms):
            d = Diagram.from_json_dict(t["diagram"])
            acc[d] = acc.get(d, Fraction(0)) + _json_coeff(t["coeff"], k)
        return cls(m, n, acc)


def _json_coeff(x, k: int) -> Fraction:
    """A term's coefficient: a JSON integer, or a decimal or fraction string.

    A string whose numerator or denominator has more digits than the
    interpreter prints (sys.get_int_max_str_digits()) is refused.  A run of
    digits beyond that limit, which Fraction could not read, and a decimal
    exponent beyond it, which Fraction would expand, are refused first.
    """
    if type(x) is int:
        return Fraction(x)
    if not isinstance(x, str):
        raise ValueError(
            f"term {k}: coefficient must be an integer or a string, got {brief(x)}"
        )
    limit = sys.get_int_max_str_digits()
    _, e, exponent = x.lower().partition("e")
    try:
        # int() skips underscores when it counts digits, so runs join across them
        huge = bool(limit) and (
            any(len(run) > limit for run in re.findall(r"\d+", x.replace("_", "")))
            or bool(e) and abs(int(exponent)) > limit
        )
        value = None if huge else Fraction(x)
    except ZeroDivisionError:
        raise ValueError(
            f"term {k}: coefficient {brief(x)} has a zero denominator"
        ) from None
    except ValueError:
        raise ValueError(
            f"term {k}: coefficient {brief(x)} is not a decimal or a fraction"
        ) from None
    if not huge and limit:
        big = max(abs(value.numerator), value.denominator)
        # bit_length filters cheaply: 10**limit has about 3.32 * limit bits
        huge = big.bit_length() > 3 * limit and big >= 10**limit
    if huge:
        raise ValueError(
            f"term {k}: coefficient {brief(x)} has more than {limit} digits"
        )
    return value


def _sorted_terms(terms: dict):
    """The items in diagram order, which for one (m, n) is edge order."""
    return sorted(terms.items(), key=lambda item: item[0].edges)


def subdiagrams(d: Diagram):
    """All diagrams obtained by deleting a subset of the edges of d, by
    number of edges and then in the order of d.edges."""
    for r in range(len(d.edges) + 1):
        for subset in itertools.combinations(d.edges, r):
            top, bottom = [0] * d.m, [0] * d.m
            for t, b, c in subset:
                top[t - 1] = bottom[b - 1] = c
            yield Diagram._trusted(d.m, d.n, tuple(top), tuple(bottom))


def orbit_vector(d: Diagram) -> Element:
    """Inclusion-exclusion: the alternating sum of all subdiagrams of d.

    The sign of a subdiagram is (-1) to the number of deleted edges.
    """
    size = len(d.edges)
    terms = {
        sub: _MINUS_ONE if (size - len(sub.edges)) % 2 else _ONE
        for sub in subdiagrams(d)
    }
    return Element._trusted(d.m, d.n, terms)


def to_orbit_basis(a: Element) -> dict[Diagram, Fraction]:
    """Coordinates of a in the orbit basis.

    Uses the inverse expansion d = sum of orbit vectors over subdiagrams of d,
    so the diagram-basis coefficient of d contributes to every subdiagram.
    """
    coords: dict[Diagram, Fraction] = {}
    for d, c in a.terms.items():
        for sub in subdiagrams(d):
            coords[sub] = coords.get(sub, Fraction(0)) + c
    return {d: c for d, c in _sorted_terms(coords) if c}


def orbit_basis_product(a, b) -> dict[Diagram, Fraction]:
    """The product of two elements given by orbit coordinates, in orbit
    coordinates, by the matched-or-zero rule extended bilinearly: the orbit
    vectors of d1 and d2 multiply to the orbit vector of d1*d2 when the
    bottom word of d1 equals the top word of d2, and to zero otherwise.

    Only pairs whose boundaries match contribute, so b's terms are grouped
    by top word and each term of a meets just the group of its bottom word;
    nothing is expanded into the diagram basis.  Every edge of a matched pair
    survives the stacking, so d1*d2 has d1's top word and d2's bottom word.
    """
    by_top: dict = {}
    for d2, c2 in b.items():
        by_top.setdefault(d2.top, []).append((d2.bottom, c2))
    acc: dict[tuple, Fraction] = {}
    for d1, c1 in a.items():
        for bottom, c2 in by_top.get(d1.bottom, ()):
            key = (d1.m, d1.n, d1.top, bottom)
            acc[key] = acc.get(key, 0) + c1 * c2
    prods = {Diagram._trusted(*key): c for key, c in acc.items() if c}
    return dict(_sorted_terms(prods))


def _identity(m: int, n: int) -> Element:
    if m == 0:
        return Element.from_diagram(empty_diagram(0, n))
    one = sum((strand(n, i) for i in range(n + 1)), Element.zero(1, n))
    return reduce(lambda acc, _: acc.tensor(one), range(m - 1), one)


def identity_element(m: int, n: int, force: bool = False) -> Element:
    """The multiplicative identity of the size-m algebra.

    The size-1 identity is the sum of the strands of every color: the
    one-edge diagrams minus (n-1) times the edgeless diagram.  Larger
    identities are its tensor powers, with (n+1)^m terms for n > 1, at most
    the count of diagrams, which ensure_diagrams checks.
    """
    m, n = json_int(m, "m", 0), json_int(n, "n", 1)
    ensure_diagrams(m, n, force)
    return _identity(m, n)


def strand(n: int, i: int) -> Element:
    """The size-1 element appended for color i.

    For i >= 1 it is unit_i - unit_0, a color-i edge minus an isolated pair;
    for i = 0 it is the isolated pair unit_0 itself.
    """
    if not (0 <= i <= n):
        raise ValueError(f"color {i} outside 0..{n}")
    last = Element.from_diagram(Diagram._trusted(1, n, (i,), (i,)))
    if i >= 1:
        last = last - Element.from_diagram(Diagram._trusted(1, n, (0,), (0,)))
    return last


@lru_cache(maxsize=32)  # the n + 1 colors of a size, reused across its classes
def _truncation(m: int, n: int, i: int) -> Element:
    return _identity(m - 1, n).tensor(strand(n, i))


def truncation_idempotent(m: int, n: int, i: int, force: bool = False) -> Element:
    """Idempotent cutting to the part of a module where vertex m is colored i:
    identity(m-1) tensor strand(n, i), memoized per (m, n, i), with at
    most as many terms as the diagrams of size m, which ensure_diagrams checks."""
    m, n, i = json_int(m, "m", 1), json_int(n, "n", 1), json_int(i, "color")
    ensure_diagrams(m, n, force)
    return _truncation(m, n, i)
