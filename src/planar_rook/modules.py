"""Simple modules over the colored planar rook algebra, and the restriction
and induction structure between neighboring sizes.

For each boundary T of size m there is a module spanned by the orbit vectors
of the diagrams whose bottom boundary is T; the one-sided orbit product rule
makes the action combinatorial (a diagram either moves a basis vector to
another basis vector or kills it).  Two such modules are isomorphic exactly
when their boundaries have the same color counts, so isomorphism classes are
labeled by count vectors.  Restriction to one size down is implemented
concretely: cut by a truncation idempotent and act through the one-strand
extension of the smaller algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import Element, orbit_vector, strand, truncation_idempotent
from .diagrams import (
    Boundary,
    Diagram,
    ensure_within_cap,
    enumerate_diagrams,
    multinomial,
    multiply,
    partial_identity,
    unique_planar_match,
    weak_compositions,
    words_with_counts,
)
from .linalg import (
    column_space_basis,
    coordinates_in_basis,
    mat_vec,
    rank,
    zeros,
)


@dataclass(frozen=True, order=True)
class ClassLabel:
    """Isomorphism class of a simple module: how many vertices of each color.

    counts[0] counts isolated vertices, counts[i] the color-i vertices; the
    total is the size m.
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if self.n < 1:
            raise ValueError(f"need at least one color, got n={self.n}")
        if len(self.counts) != self.n + 1:
            raise ValueError(
                f"expected {self.n + 1} counts (isolated plus one per color), "
                f"got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in {self.counts}")

    @property
    def m(self) -> int:
        return sum(self.counts)

    @property
    def key(self) -> str:
        return f"{self.m}|{','.join(str(c) for c in self.counts)}"

    def canonical_boundary(self) -> Boundary:
        """The block word 0..0 1..1 2..2 with the prescribed counts."""
        word = []
        for color, c in enumerate(self.counts):
            word.extend([color] * c)
        return Boundary(self.m, self.n, tuple(word))


def all_class_labels(m: int, n: int) -> list[ClassLabel]:
    """Every class at size m, ordered so that earlier labels have more
    isolated vertices (reverse lexicographic count vectors)."""
    return [
        ClassLabel(n, counts)
        for counts in sorted(weak_compositions(m, n + 1), reverse=True)
    ]


def class_dimension(label: ClassLabel) -> int:
    """Multinomial coefficient m! / (counts_0! ... counts_n!)."""
    return multinomial(label.counts)


def _matrix_of_targets(targets, dimension: int):
    """The 0/1 matrix sending basis vector j to basis vector targets[j], or to
    zero where targets[j] is None."""
    rows = zeros(dimension, dimension)
    for j, t in enumerate(targets):
        if t is not None:
            rows[t][j] = Fraction(1)
    return rows


class SimpleModule:
    """The simple module of one class, on its canonical boundary.

    The basis is indexed by the diagrams with that bottom boundary, ordered
    by top word; a diagram of the algebra acts by the one-sided orbit rule.
    """

    def __init__(self, label: ClassLabel):
        self.label = label
        self.boundary = label.canonical_boundary()
        self.basis = tuple(
            unique_planar_match(Boundary(label.m, label.n, tau), self.boundary)
            for tau in words_with_counts(self.boundary.counts())
        )
        self.dimension = len(self.basis)
        self.index = {d: j for j, d in enumerate(self.basis)}
        self._explicit: ExplicitModule | None = None

    def explicit(self) -> ExplicitModule:
        if self._explicit is None:
            self._explicit = ExplicitModule(
                self.label.m, self.label.n, self.dimension, self._action_matrix
            )
        return self._explicit

    def targets(self, d: Diagram) -> list[int | None]:
        """Where d sends each basis vector, by basis index.

        The basis vector at b goes to the one at d*b when the bottom boundary
        of d covers the top boundary of b, and to zero (None) otherwise; d*b
        still has the module's bottom boundary, so no reduction is needed.
        """
        beta = d.bottom_boundary()
        return [
            self.index[multiply(d, b)] if beta.covers(b.top_boundary()) else None
            for b in self.basis
        ]

    def _action_matrix(self, d: Diagram):
        return _matrix_of_targets(self.targets(d), self.dimension)

    def __repr__(self) -> str:
        return f"SimpleModule({self.label.key}, dim={self.dimension})"


@lru_cache(maxsize=None)
def _simple(label: ClassLabel) -> SimpleModule:
    return SimpleModule(label)


def simple(label: ClassLabel, force: bool = False) -> SimpleModule:
    ensure_within_cap(label.m, label.n, force)
    return _simple(label)


def act(mod: SimpleModule, a: Element, vec) -> tuple[Fraction, ...]:
    """Apply an algebra element to a coordinate vector of the simple module,
    each diagram acting through SimpleModule.targets."""
    if (a.m, a.n) != (mod.label.m, mod.label.n):
        raise ValueError("element and module live at different sizes")
    if len(vec) != mod.dimension:
        raise ValueError(f"vector has length {len(vec)}, expected {mod.dimension}")
    out = [Fraction(0)] * mod.dimension
    for d, coeff in a.terms.items():
        for x, t in zip(vec, mod.targets(d)):
            if x and t is not None:
                out[t] += coeff * Fraction(x)
    return tuple(out)


class ExplicitModule:
    """A module given by one matrix per diagram, in a fixed basis.

    The callback is consulted once per diagram and memoized.  Construction is
    pure, so the cache is idempotent and safe under concurrent readers.
    """

    def __init__(self, m: int, n: int, dimension: int, diagram_action):
        if m < 0 or n < 1 or dimension < 0:
            raise ValueError(f"bad module shape m={m}, n={n}, dim={dimension}")
        self.m = m
        self.n = n
        self.dimension = dimension
        self._diagram_action = diagram_action
        self._cache: dict[Diagram, tuple] = {}

    def matrix(self, d: Diagram) -> tuple:
        if (d.m, d.n) != (self.m, self.n):
            raise ValueError(
                f"diagram of size ({d.m},{d.n}) cannot act on a ({self.m},{self.n}) module"
            )
        got = self._cache.get(d)
        if got is None:
            rows = self._diagram_action(d)
            got = tuple(tuple(Fraction(x) for x in row) for row in rows)
            if len(got) != self.dimension or any(
                len(r) != self.dimension for r in got
            ):
                raise ValueError("action callback returned a wrongly sized matrix")
            self._cache[d] = got
        return got

    def matrix_of(self, a: Element):
        if (a.m, a.n) != (self.m, self.n):
            raise ValueError("element and module live at different sizes")
        acc = zeros(self.dimension, self.dimension)
        for d, coeff in a.terms.items():
            mat = self.matrix(d)
            for r in range(self.dimension):
                row = mat[r]
                for c in range(self.dimension):
                    if row[c]:
                        acc[r][c] += coeff * row[c]
        return acc

    def __repr__(self) -> str:
        return f"ExplicitModule(m={self.m}, n={self.n}, dim={self.dimension})"


@lru_cache(maxsize=None)
def _regular(m: int, n: int) -> ExplicitModule:
    basis = enumerate_diagrams(m, n, force=True)
    index = {d: j for j, d in enumerate(basis)}

    def action(d: Diagram):
        return _matrix_of_targets([index[multiply(d, b)] for b in basis], len(basis))

    return ExplicitModule(m, n, len(basis), action)


def regular_module(m: int, n: int, force: bool = False) -> ExplicitModule:
    """The algebra acting on itself by left multiplication, in the diagram basis."""
    ensure_within_cap(m, n, force)
    return _regular(m, n)


def multiplicity(mod: ExplicitModule, label: ClassLabel) -> int:
    """Multiplicity of the labeled simple module inside mod.

    Probe with the orbit vector of the partial identity on the canonical
    boundary: on a simple module it acts with rank 1 when the classes match
    (it fixes the single basis vector whose top word is the canonical word and
    kills the rest) and rank 0 otherwise, so on a semisimple module its rank
    counts copies.
    """
    if (mod.m, mod.n) != (label.m, label.n):
        raise ValueError("module and class label live at different sizes")
    probe = orbit_vector(partial_identity(label.canonical_boundary()))
    return rank(mod.matrix_of(probe))


def decompose(mod: ExplicitModule) -> dict[ClassLabel, int]:
    """Multiplicity of every class, with a dimension audit.

    Raises if the multiplicities do not account for the full dimension, which
    catches callbacks that are not actually module actions.
    """
    out: dict[ClassLabel, int] = {}
    covered = 0
    for label in all_class_labels(mod.m, mod.n):
        k = multiplicity(mod, label)
        if k:
            out[label] = k
            covered += k * class_dimension(label)
    if covered != mod.dimension:
        raise ValueError(
            f"dimension accounting failed: simple pieces cover {covered} "
            f"of {mod.dimension}; the input is not a module action"
        )
    return out


def extend_by_color(a: Element, i: int) -> Element:
    """Embed a size-m element into size m+1 by appending strand(n, i), the
    combination that acts correctly on the color-i cut subspace."""
    return a.tensor(strand(a.n, i))


def restrict(i: int, mod) -> ExplicitModule:
    """Cut mod by the color-i truncation idempotent and restrict the action.

    The result is a module one size down: the idempotent commutes with every
    extended diagram, so its image is stable, and coordinates are taken in a
    canonical basis of that image.  A zero image gives a zero module.
    """
    if isinstance(mod, SimpleModule):
        mod = mod.explicit()
    m, n = mod.m, mod.n
    if m < 1:
        raise ValueError("cannot restrict a size-0 module")
    if not (0 <= i <= n):
        raise ValueError(f"color {i} outside 0..{n}")
    projector = mod.matrix_of(truncation_idempotent(m, n, i))
    basis, pivots = column_space_basis(projector)
    dim = len(pivots)

    def action(d: Diagram):
        big = mod.matrix_of(extend_by_color(Element.from_diagram(d), i))
        columns = []
        for b in basis:
            image = mat_vec(big, b)
            columns.append(coordinates_in_basis(image, basis, pivots))
        return [[columns[c][r] for c in range(dim)] for r in range(dim)]

    return ExplicitModule(m - 1, n, dim, action)


def restrict_class(i: int, label: ClassLabel) -> ClassLabel | None:
    """Where restriction sends a class: drop one vertex of color i.

    None when the class has no color-i vertex (the restriction vanishes).
    """
    if not (0 <= i <= label.n):
        raise ValueError(f"color {i} outside 0..{label.n}")
    if label.counts[i] == 0:
        return None
    counts = list(label.counts)
    counts[i] -= 1
    return ClassLabel(label.n, tuple(counts))


def induce_class(i: int, label: ClassLabel) -> ClassLabel:
    """Where induction sends a class: add one vertex of color i."""
    if not (0 <= i <= label.n):
        raise ValueError(f"color {i} outside 0..{label.n}")
    counts = list(label.counts)
    counts[i] += 1
    return ClassLabel(label.n, tuple(counts))


def adjunction_check(i: int, small: ClassLabel, big: ClassLabel) -> tuple[int, int]:
    """Both sides of the induction/restriction adjunction on simples.

    Returns (hom after inducing small, hom after restricting big); the first
    is 1 exactly when inducing small gives big, the second is the multiplicity
    of small in the concrete restriction of big.  Agreement for all pairs is
    the adjunction on dimensions.
    """
    if small.n != big.n or small.m + 1 != big.m:
        raise ValueError("labels must sit at adjacent sizes with equal colors")
    left = 1 if induce_class(i, small) == big else 0
    right = multiplicity(restrict(i, simple(big)), small)
    return left, right
