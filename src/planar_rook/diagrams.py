"""Colored planar rook diagrams.

A diagram of size m with n colors is a partial matching between a top row and a
bottom row of m vertices (numbered 1..m), each edge carrying a color in 1..n,
such that no vertex meets two edges and edges of the same color never cross.
Equivalently it is an m x m matrix whose entries are 0 or one of the standard
units u_1..u_n of the ring (Z_2)^n, with at most one nonzero entry in every row
and every column and no same-color inversion.  Multiplication is matrix
multiplication over (Z_2)^n; graphically, stack the first diagram on top of the
second and keep the concatenated edges whose colors agree.

Color 0 is reserved for isolated vertices in boundary words and never appears
on an edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb


class EnumerationCapError(ValueError):
    """An enumeration would exceed the configured size cap."""


# Caps keep accidental exponential enumerations out of interactive use.
SIZE_CAP_ONE_COLOR = 8
SIZE_CAP_MULTI_COLOR = 6

Edge = tuple[int, int, int]


def json_int(x, what: str) -> int:
    """x itself when it is a JSON integer.  Floats and booleans are refused,
    so no binary fraction is silently truncated into a size or a color."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def size_cap(n: int) -> int:
    return SIZE_CAP_ONE_COLOR if n == 1 else SIZE_CAP_MULTI_COLOR


def ensure_within_cap(m: int, n: int, force: bool = False) -> None:
    if force:
        return
    cap = size_cap(n)
    if m > cap:
        raise EnumerationCapError(
            f"size m={m} exceeds the enumeration cap {cap} for n={n} colors; "
            "pass force=True to override"
        )


@dataclass(frozen=True, order=True)
class Diagram:
    """An n-colored planar rook diagram on m top and m bottom vertices.

    Edges are triples (top, bottom, color) with 1-based vertex indices and
    colors in 1..n.  The edge tuple is kept sorted by top vertex, so equal
    diagrams compare and hash equal.  `Diagram._trusted` skips sorting and
    validation; its callers guarantee valid edges already sorted by top vertex.
    """

    m: int
    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))
        self._validate()

    @classmethod
    def _trusted(cls, m: int, n: int, edges: tuple[Edge, ...]) -> Diagram:
        """A diagram whose edges the caller knows to be valid and sorted."""
        d = object.__new__(cls)
        object.__setattr__(d, "m", m)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "edges", edges)
        return d

    def _validate(self) -> None:
        if self.m < 0:
            raise ValueError(f"size must be nonnegative, got m={self.m}")
        if self.n < 1:
            raise ValueError(f"need at least one color, got n={self.n}")
        tops: set[int] = set()
        bottoms: set[int] = set()
        for e in self.edges:
            if len(e) != 3:
                raise ValueError(f"edge {e!r} is not a (top, bottom, color) triple")
            t, b, c = e
            if not (1 <= t <= self.m and 1 <= b <= self.m):
                raise ValueError(f"edge {e} out of range for m={self.m}")
            if not (1 <= c <= self.n):
                raise ValueError(f"edge {e} has color outside 1..{self.n}")
            if t in tops:
                raise ValueError(f"top vertex {t} meets two edges")
            if b in bottoms:
                raise ValueError(f"bottom vertex {b} meets two edges")
            tops.add(t)
            bottoms.add(b)
        # planarity per color: same-color edges must not cross
        for e1, e2 in itertools.combinations(self.edges, 2):
            if e1[2] == e2[2] and (e1[0] - e2[0]) * (e1[1] - e2[1]) < 0:
                raise ValueError(f"same-color edges {e1} and {e2} cross")

    def top_boundary(self) -> Boundary:
        word = [0] * self.m
        for t, _, c in self.edges:
            word[t - 1] = c
        return Boundary._trusted(self.m, self.n, tuple(word))

    def bottom_boundary(self) -> Boundary:
        word = [0] * self.m
        for _, b, c in self.edges:
            word[b - 1] = c
        return Boundary._trusted(self.m, self.n, tuple(word))

    def flip(self) -> Diagram:
        return flip(self)

    def __mul__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return multiply(self, other)

    def __matmul__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return juxtapose(self, other)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> Diagram:
        try:
            m, n, edges = obj["m"], obj["n"], obj["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a diagram object: missing {exc}") from None
        return cls(
            json_int(m, "m"),
            json_int(n, "n"),
            tuple(tuple(json_int(x, "edge entry") for x in e) for e in edges),
        )


@dataclass(frozen=True, order=True)
class Boundary:
    """One row of a diagram recorded as a color word.

    Position p carries the color of the edge meeting vertex p, or 0 if the
    vertex is isolated.  Words compare lexicographically.
    """

    m: int
    n: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(int(c) for c in self.colors))
        if self.m < 0 or self.n < 1:
            raise ValueError(f"bad boundary size m={self.m}, n={self.n}")
        if len(self.colors) != self.m:
            raise ValueError(f"word length {len(self.colors)} != m={self.m}")
        for c in self.colors:
            if not (0 <= c <= self.n):
                raise ValueError(f"color {c} outside 0..{self.n}")

    @classmethod
    def _trusted(cls, m: int, n: int, colors: tuple[int, ...]) -> Boundary:
        """A boundary whose word the caller knows to be valid."""
        b = object.__new__(cls)
        object.__setattr__(b, "m", m)
        object.__setattr__(b, "n", n)
        object.__setattr__(b, "colors", colors)
        return b

    def counts(self) -> tuple[int, ...]:
        """(number of 0s, number of 1s, ..., number of ns)."""
        tally = [0] * (self.n + 1)
        for c in self.colors:
            tally[c] += 1
        return tuple(tally)

    def covers(self, other: Boundary) -> bool:
        """Containment on the colored positions only.

        True when every vertex colored i >= 1 in `other` carries the same
        color here.  Isolated vertices of `other` are unconstrained, so this
        is not plain word equality or componentwise set containment at 0.
        """
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("boundaries live on different vertex sets")
        return all(o == 0 or o == s for s, o in zip(self.colors, other.colors))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "colors": list(self.colors)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> Boundary:
        return cls(
            json_int(obj["m"], "m"),
            json_int(obj["n"], "n"),
            tuple(json_int(c, "color") for c in obj["colors"]),
        )


def multiply(d1: Diagram, d2: Diagram) -> Diagram:
    """Stack d1 on top of d2.

    The product has an edge (t, b, c) exactly when d1 joins t to some middle
    vertex k with color c and d2 joins k to b with the same color.  This
    agrees with matrix multiplication over (Z_2)^n because u_i u_j = 0 for
    i != j and u_i u_i = u_i, and no sums of distinct units ever arise.
    """
    if (d1.m, d1.n) != (d2.m, d2.n):
        raise ValueError(f"cannot multiply ({d1.m},{d1.n}) by ({d2.m},{d2.n}) diagrams")
    lower = {t: (b, c) for t, b, c in d2.edges}
    edges = []
    for t, k, c in d1.edges:
        hit = lower.get(k)
        if hit is not None and hit[1] == c:
            edges.append((t, hit[0], c))
    # composing non-crossing edges keeps them non-crossing, in d1's top order
    return Diagram._trusted(d1.m, d1.n, tuple(edges))


def flip(d: Diagram) -> Diagram:
    """Reflect across the horizontal axis (matrix transpose)."""
    return Diagram._trusted(d.m, d.n, tuple(sorted((b, t, c) for t, b, c in d.edges)))


def juxtapose(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 to the right of d1, shifting its vertex labels by d1.m."""
    if d1.n != d2.n:
        raise ValueError("cannot juxtapose diagrams with different color counts")
    shifted = tuple((t + d1.m, b + d1.m, c) for t, b, c in d2.edges)
    return Diagram._trusted(d1.m + d2.m, d1.n, d1.edges + shifted)


def empty_diagram(m: int, n: int) -> Diagram:
    return Diagram(m, n, ())


def unit_diagram(n: int, i: int) -> Diagram:
    """Size-1 diagram: a single edge of color i, or edgeless for i = 0."""
    if not (0 <= i <= n):
        raise ValueError(f"color {i} outside 0..{n}")
    return Diagram(1, n, ()) if i == 0 else Diagram(1, n, ((1, 1, i),))


def unique_planar_match(top: Boundary, bottom: Boundary) -> Diagram:
    """The unique crossingless diagram with the given boundaries.

    For each color the k-th colored top vertex is joined to the k-th colored
    bottom vertex; this is forced, since same-color edges may not cross.
    """
    if (top.m, top.n) != (bottom.m, bottom.n):
        raise ValueError("boundaries live on different vertex sets")
    bottoms: list[list[int]] = [[] for _ in range(top.n + 1)]
    for p, c in enumerate(bottom.colors, start=1):
        bottoms[c].append(p)
    taken = [0] * (top.n + 1)
    edges = []
    for t, c in enumerate(top.colors, start=1):
        if c:
            k = taken[c]
            taken[c] = k + 1
            if k < len(bottoms[c]):
                edges.append((t, bottoms[c][k], c))
    for i in range(1, top.n + 1):
        if taken[i] != len(bottoms[i]):
            raise ValueError(
                f"color {i} count mismatch: {taken[i]} on top, "
                f"{len(bottoms[i])} on bottom"
            )
    return Diagram._trusted(top.m, top.n, tuple(edges))


def partial_identity(boundary: Boundary) -> Diagram:
    """The diagram joining each colored position straight down to itself."""
    return unique_planar_match(boundary, boundary)


def weak_compositions(total: int, slots: int):
    """All tuples of `slots` nonnegative integers summing to `total`, lex order."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in weak_compositions(total - head, slots - 1):
            yield (head,) + rest


def words_with_counts(counts: tuple[int, ...]):
    """All words with counts[c] letters c, in lexicographic order."""
    if sum(counts) == 0:
        yield ()
        return
    for letter, remaining in enumerate(counts):
        if remaining:
            shrunk = counts[:letter] + (remaining - 1,) + counts[letter + 1 :]
            for rest in words_with_counts(shrunk):
                yield (letter,) + rest


@lru_cache(maxsize=None)
def _enumerate(m: int, n: int) -> tuple[Diagram, ...]:
    out = []
    for beta_word in itertools.product(range(n + 1), repeat=m):
        beta = Boundary._trusted(m, n, beta_word)
        for tau_word in words_with_counts(beta.counts()):
            out.append(unique_planar_match(Boundary._trusted(m, n, tau_word), beta))
    return tuple(out)


def enumerate_diagrams(m: int, n: int, force: bool = False) -> tuple[Diagram, ...]:
    """All diagrams of size m with n colors.

    Ordered lexicographically by (bottom word, top word).  Diagrams are in
    bijection with pairs of boundaries having equal color counts, since the
    crossingless matching between two compatible boundaries is unique.
    """
    ensure_within_cap(m, n, force)
    return _enumerate(m, n)


def multinomial(counts) -> int:
    """sum(counts)! / (counts_0! ... counts_k!): the words with these letter counts."""
    ways, left = 1, sum(counts)
    for c in counts:
        ways *= comb(left, c)
        left -= c
    return ways


def count_diagrams(m: int, n: int) -> int:
    """Closed form: sum over count vectors of the squared multinomial."""
    return sum(multinomial(counts) ** 2 for counts in weak_compositions(m, n + 1))
