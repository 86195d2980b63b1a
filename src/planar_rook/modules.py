"""Simple modules over the colored planar rook algebra, and the restriction
and induction structure between neighboring sizes.

For each boundary word T of size m there is a module spanned by the orbit
vectors of the diagrams whose bottom word is T; the one-sided orbit product
rule makes the action combinatorial (a diagram either moves a basis vector to
another basis vector or kills it), so the package's own modules act as
partial maps of their basis indices.  Two such modules are isomorphic exactly
when their words have the same color counts, so isomorphism classes are
labeled by count vectors.  Restriction to one size down is implemented
concretely: cut by the truncation idempotent e = id ⊗ strand(n, i) and let a
smaller diagram d act as d ⊗ unit_i.  On the image of e this is the action of
d ⊗ strand(n, i), because (d ⊗ unit_i)·e = e·(d ⊗ strand(n, i)): for i >= 1
the unit_0 term of the strand gives d ⊗ unit_0·strand(n, i) = 0.  On a simple
module e fixes the orbit basis vectors whose top word ends in i and kills the
rest, so `SimpleModule.restrict` takes those vectors and needs no projector.
A class's multiplicity is the trace of its probe, an idempotent, read off one
partial identity per count vector with no elimination; on a partial map the
trace counts fixed points.  No module stores a matrix: each is built from
the module's action when it is read.  The class labels and their arithmetic
(dimensions, restriction and induction of labels, the trace inversion and
the regular decomposition, which needs no module) live in `classes`.  This
module loads the rational and linear algebra only for the generic `restrict`
and for a user module's entries that are not ints.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from math import prod

from .classes import ClassLabel, _invert, _tally, all_class_labels, block_word
from .diagrams import (
    Diagram,
    capped_binomial,
    ensure_work,
    enumerate_diagrams,
    json_int,
    juxtapose,
    product_words,
    unit_diagram,
    words_with_counts,
)


class ExplicitModule:
    """A module given by one matrix per diagram, in a fixed basis.

    The callback maps a diagram to its matrix as `dimension` sparse columns:
    column j is a mapping from row index (0..dimension-1) to the nonzero
    int or Fraction coefficient of that basis vector in the image of basis
    vector j.  A diagram moving basis vector j to basis vector t has column
    {t: 1}, and {} where it kills j.  Floats and booleans are rejected.
    matrix() consults the callback and checks its size on every call; a
    module stores no matrix, only its sizes and its action.

    The public constructor validates every column the callback returns, the
    generic `restrict`'s among them.  The package's own modules (simple,
    regular, and a simple's restriction) act by a partial map instead,
    `_targets`: a diagram sends basis vector j to basis vector targets[j],
    or kills it where that is None.  Traces and `matrix_of` read the map
    directly, and matrix() builds its columns {t: 1}.  Whichever built it,
    `decompose` holds a module's classes, and the columns of the probe
    matrices it builds for them, to the work cap unless forced.
    """

    # the partial map of a package module; None for a module of columns
    _targets = None

    def __init__(self, m: int, n: int, dimension: int, diagram_action):
        self.m, self.n = json_int(m, "m", 0), json_int(n, "n", 1)
        self.dimension = json_int(dimension, "dimension", 0)
        self._diagram_action = lambda d: map(self._checked, diagram_action(d))

    @classmethod
    def _trusted(cls, m: int, n: int, dimension: int, targets) -> ExplicitModule:
        """A package module acting by the partial map targets."""
        mod = object.__new__(cls)
        mod.m, mod.n, mod.dimension, mod._targets = m, n, dimension, targets
        return mod

    def matrix(self, d: Diagram) -> tuple:
        if (d.m, d.n) != (self.m, self.n):
            raise ValueError(
                f"diagram of size ({d.m},{d.n}) cannot act on a ({self.m},{self.n}) module"
            )
        if self._targets is None:
            got = tuple(self._diagram_action(d))
        else:
            got = tuple({} if t is None else {t: 1} for t in self._targets(d))
        if len(got) != self.dimension:
            raise ValueError("action callback returned a wrongly sized matrix")
        return got

    def _checked(self, col) -> dict:
        if not isinstance(col, Mapping):
            raise ValueError(f"action callback returned a non-mapping column {col!r}")
        for r, x in col.items():
            if isinstance(r, bool) or isinstance(x, bool):
                raise ValueError(f"action callback returned a boolean row or entry {r!r}: {x!r}")
            if not (isinstance(r, int) and 0 <= r < self.dimension):
                raise ValueError(
                    f"action callback returned a wrongly sized matrix: "
                    f"row {r!r} outside 0..{self.dimension - 1}"
                )
            if not isinstance(x, int):
                from fractions import Fraction

                if not isinstance(x, Fraction):
                    raise ValueError(f"action callback returned a non-exact entry {x!r}")
        return {r: x for r, x in col.items() if x}

    def matrix_of(self, a: Element) -> tuple[dict, ...]:
        if (a.m, a.n) != (self.m, self.n):
            raise ValueError("element and module live at different sizes")
        acc: list[dict] = [{} for _ in range(self.dimension)]
        for d, c in a.terms.items():
            c = c.numerator if c.denominator == 1 else c
            if self._targets is None:
                for out, col in zip(acc, self.matrix(d)):
                    for r, x in col.items():
                        out[r] = out.get(r, 0) + c * x
            else:
                for out, t in zip(acc, self._targets(d)):
                    if t is not None:
                        out[t] = out.get(t, 0) + c
        return tuple({r: x for r, x in col.items() if x} for col in acc)

    def __repr__(self) -> str:
        return f"ExplicitModule(m={self.m}, n={self.n}, dim={self.dimension})"


class SimpleModule(ExplicitModule):
    """The simple module of one class, on its canonical word.

    The basis is indexed by the diagrams with that bottom word, ordered by
    top word; a diagram of the algebra acts by the one-sided orbit rule.
    """

    def __init__(self, label: ClassLabel):
        self.label = label
        m, n, beta = label.m, label.n, label.canonical_word()
        tops = words_with_counts(label.counts)
        self.basis = tuple(Diagram._trusted(m, n, tau, beta) for tau in tops)
        # d*b still has the module's bottom word, so its top word names it
        self.index = {tau: j for j, tau in enumerate(tops)}
        self.m, self.n, self.dimension, self._targets = m, n, len(tops), self.targets

    def targets(self, d: Diagram) -> list[int | None]:
        """Where d sends each basis vector, by basis index.

        The basis vector at b goes to the one at d*b when the bottom word of
        d covers the top word of b, and to zero (None) otherwise; d*b still
        has the module's bottom word, so no reduction is needed.  Only the
        covered top words are visited: per color c, every choice of
        counts[c] of d's color-c bottom positions.
        """
        out: list[int | None] = [None] * self.dimension
        slots = [
            itertools.combinations([p for p, x in enumerate(d.bottom) if x == c], k)
            for c, k in enumerate(self.label.counts)
            if c
        ]
        for choice in itertools.product(*slots):
            tau = [0] * self.m
            for c, positions in enumerate(choice, 1):
                for p in positions:
                    tau[p] = c
            j = self.index[tuple(tau)]
            out[j] = self.index[product_words(d, self.basis[j])[0]]
        return out

    def restrict(self, i: int) -> ExplicitModule:
        """restrict(i, self), read off the orbit basis: e fixes the basis
        vectors whose top word ends in i and kills the rest, so the reduced
        echelon basis of its image is those vectors, in basis order.  A
        diagram d acts on them as d ⊗ unit_i, which fixes that last letter."""
        if self.m < 1:
            raise ValueError("cannot restrict a size-0 module")
        if not 0 <= i <= self.n:
            raise ValueError(f"color {i} outside 0..{self.n}")
        kept = [j for j, b in enumerate(self.basis) if b.top[-1] == i]
        where = {j: k for k, j in enumerate(kept)}
        last = unit_diagram(self.n, i)

        def targets(d: Diagram) -> list[int | None]:
            moved = self.targets(juxtapose(d, last))
            return [where.get(moved[j]) for j in kept]

        return ExplicitModule._trusted(self.m - 1, self.n, len(kept), targets)

    def __repr__(self) -> str:
        return f"SimpleModule({self.label.key}, dim={self.dimension})"


def simple(label: ClassLabel, force: bool = False) -> SimpleModule:
    """The simple module of a class, once ensure_work has passed its basis:
    the dimension as the product of the C(c0 + ... + cj, cj), exact below
    2**256 and past it a lower bound (see capped_binomial)."""
    dimension = prod(map(capped_binomial, itertools.accumulate(label.counts), label.counts))
    ensure_work(dimension, label.m, label.n, "basis vectors of the simple module", force)
    return SimpleModule(label)


def regular_module(m: int, n: int, force: bool = False) -> ExplicitModule:
    """The algebra acting on itself by left multiplication, in the diagram basis."""
    basis = enumerate_diagrams(m, n, force)
    index = {(d.top, d.bottom): j for j, d in enumerate(basis)}

    def targets(d: Diagram) -> list[int]:
        return [index[product_words(d, b)] for b in basis]

    return ExplicitModule._trusted(m, n, len(basis), targets)


def multiplicity(mod: ExplicitModule, label: ClassLabel) -> int | Fraction:
    """Multiplicity of the labeled simple module inside mod.

    Probe with the orbit vector of the partial identity on the canonical
    word: on a simple module it fixes the basis vector whose top word is the
    canonical word when the classes match, and kills the rest.  It is an
    idempotent (Prop. 2.1), so its rank on a module, which counts copies, is
    its trace, which _invert reads off one diagram action per count vector,
    read anew on each call."""
    if (mod.m, mod.n) != (label.m, label.n):
        raise ValueError("module and class label live at different sizes")
    return _invert(label, lambda counts: _trace(mod, block_word(counts)))


def _trace(mod: ExplicitModule, word: tuple[int, ...]) -> int | Fraction:
    """The trace on mod of the partial identity on word: the fixed points
    of a partial map, or the diagonal of a matrix of columns."""
    d = Diagram._trusted(mod.m, mod.n, word, word)
    if mod._targets is not None:
        return sum(1 for j, t in enumerate(mod._targets(d)) if t == j)
    return sum(col.get(j, 0) for j, col in enumerate(mod.matrix(d)))


def decompose(mod: ExplicitModule, force: bool = False) -> dict[ClassLabel, int]:
    """Multiplicity of every class present, in all_class_labels order.

    Raises if a probe's trace is not a count, or if the multiplicities do not
    account for the full dimension, which catches callbacks that are not
    actually module actions.  Each class's probe is one action of mod,
    built in full and read once; the classes and the probes' columns are
    checked against the work cap, which force overrides.
    `multiplicity` reads one class at a time.
    """
    labels = all_class_labels(mod.m, mod.n, force)
    ensure_work(mod.dimension * len(labels), mod.m, mod.n, "probe matrix columns", force)
    return _tally(labels, mod.dimension, lambda word: _trace(mod, word))


def restrict(i: int, mod: ExplicitModule, force: bool = False) -> ExplicitModule:
    """Cut mod by the color-i truncation idempotent and restrict the action.

    The result is a module one size down, with coordinates in a canonical
    basis of the image of e = truncation_idempotent(m, n, i), whose work cap
    force overrides.  A diagram d acts there as d ⊗ unit_i: since
    (d ⊗ unit_i)·e = e·(d ⊗ strand(n, i)), the image is stable and this is
    the action of the extended element, one matrix of mod built per
    diagram read.  A zero image gives a zero module.  SimpleModule.restrict
    builds the same module of a simple without the projector.
    """
    from .algebra import truncation_idempotent
    from .linalg import apply, column_space_basis, coordinates_in_basis

    m, n = mod.m, mod.n
    if m < 1:
        raise ValueError("cannot restrict a size-0 module")
    # truncation_idempotent refuses a color outside 0..n
    projector = mod.matrix_of(truncation_idempotent(m, n, i, force))
    basis, pivots = column_space_basis(projector)
    last = unit_diagram(n, i)

    def action(d: Diagram):
        big = mod.matrix(juxtapose(d, last))
        return [coordinates_in_basis(apply(big, b), basis, pivots) for b in basis]

    return ExplicitModule(m - 1, n, len(pivots), action)
