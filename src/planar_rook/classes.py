"""Isomorphism classes of simple modules and their arithmetic, with no module
built.

Simple modules over the colored planar rook algebra at size m are labeled by
count vectors: how many vertices of each color (counts[0] the isolated ones).
A class has the multinomial dimension of its words, restriction to one size
down drops one vertex of a color and induction adds one.  A class's
multiplicity in a module is the trace of its probe, an idempotent, read off
one partial-identity trace per count vector (`_invert`); on the regular
module a diagram's trace counts fixed top words, so `regular_decomposition`
needs no module either.  This module needs only `diagrams`, so the commands
that stop at class arithmetic load no rational or linear algebra.
"""

from __future__ import annotations

import itertools
from functools import total_ordering
from math import comb, prod

from .diagrams import (
    Diagram,
    brief,
    capped_binomial,
    ensure_diagrams,
    ensure_work,
    json_int,
    multinomial,
    weak_compositions,
)


@total_ordering
class ClassLabel:
    """Isomorphism class of a simple module: how many vertices of each color.

    counts[0] counts isolated vertices, counts[i] the color-i vertices; the
    total is the size m.  Labels compare, hash and sort by (n, counts) and
    are immutable by convention.
    """

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: tuple[int, ...]) -> None:
        counts = tuple(counts)
        if any(type(c) is not int for c in counts):
            raise ValueError(f"counts must be integers, got {brief(counts)}")
        if type(n) is not int or n < 1:
            raise ValueError(f"the number of colors must be a positive integer, got n={brief(n)}")
        if len(counts) != n + 1:
            raise ValueError(
                f"expected {n + 1} counts (isolated plus one per color), "
                f"got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {brief(counts)}")
        self.n, self.counts = n, counts

    @classmethod
    def _trusted(cls, n: int, counts: tuple[int, ...]) -> ClassLabel:
        """A label whose counts the caller knows to be valid."""
        label = object.__new__(cls)
        label.n, label.counts = n, counts
        return label

    def __eq__(self, other) -> bool:
        if type(other) is not ClassLabel:
            return NotImplemented
        return (self.n, self.counts) == (other.n, other.counts)

    def __lt__(self, other) -> bool:
        if type(other) is not ClassLabel:
            return NotImplemented
        return (self.n, self.counts) < (other.n, other.counts)

    def __hash__(self) -> int:
        return hash((self.n, self.counts))

    def __repr__(self) -> str:
        return f"ClassLabel(n={self.n!r}, counts={self.counts!r})"

    @property
    def m(self) -> int:
        return sum(self.counts)

    @property
    def key(self) -> str:
        return f"{sum(self.counts)}|{','.join(map(str, self.counts))}"

    def canonical_word(self) -> tuple[int, ...]:
        """The block word 0..0 1..1 2..2 with the prescribed counts."""
        return tuple(color for color, c in enumerate(self.counts) for _ in range(c))


def all_class_labels(m: int, n: int, force: bool = False) -> list[ClassLabel]:
    """Every class at size m, ordered so that earlier labels have more
    isolated vertices (reverse lexicographic count vectors); ensure_work
    refuses their C(m + n, n) count first."""
    json_int(m, "m", 0)
    if json_int(n, "n") < 1:
        raise ValueError(f"need at least one color, got n={brief(n)}")
    ensure_work(capped_binomial(m + n, n), m, n, "classes", force)
    return [
        ClassLabel._trusted(n, counts)
        for counts in sorted(weak_compositions(m, n + 1), reverse=True)
    ]


def class_dimension(label: ClassLabel) -> int:
    """Multinomial coefficient m! / (counts_0! ... counts_n!)."""
    return multinomial(label.counts)


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
    return ClassLabel._trusted(label.n, tuple(counts))


def induce_class(i: int, label: ClassLabel) -> ClassLabel:
    """Where induction sends a class: add one vertex of color i."""
    if not (0 <= i <= label.n):
        raise ValueError(f"color {i} outside 0..{label.n}")
    counts = list(label.counts)
    counts[i] += 1
    return ClassLabel._trusted(label.n, tuple(counts))


def _invert(label: ClassLabel, t):
    """The trace of label's probe from t(w), the trace of the partial identity
    on a block word w.  Of the probe's ±1 terms, prod_{c>=1} C(label_c, k_c)
    have w's color counts k and share w's trace: for words w', w'' with equal
    counts, the planar a joining the j-th letter of each color in w' to the
    j-th in w'' gives id_w' = a·flip(a), id_w'' = flip(a)·a; tr(xy) = tr(yx).
    An int, or a Fraction when t's traces are fractions that do not cancel."""
    colored, total = label.counts[1:], 0
    for ks in itertools.product(*(range(c + 1) for c in colored)):
        word = ClassLabel._trusted(label.n, (label.m - sum(ks), *ks)).canonical_word()
        total += (-1) ** (sum(colored) - sum(ks)) * prod(map(comb, colored, ks)) * t(word)
    return total.numerator if total.denominator == 1 else total


def _tally(labels: list[ClassLabel], dimension: int, trace) -> dict[ClassLabel, int]:
    """The multiplicity of every class of labels present, in their order,
    from trace(w) on each class's block word.  Raises if a probe's trace is
    not a count, or if the multiplicities do not account for the dimension."""
    table = {w: trace(w) for w in map(ClassLabel.canonical_word, labels)}
    out, covered = {}, 0
    for label in labels:
        k = _invert(label, table.__getitem__)
        if k < 0 or type(k) is not int:
            raise ValueError(f"dimension accounting failed: the probe of {label.key} has trace {k}")
        if k:
            out[label] = k
            covered += k * class_dimension(label)
    if covered != dimension:
        raise ValueError(
            f"dimension accounting failed: simple pieces cover {covered} "
            f"of {dimension}; the input is not a module action"
        )
    return out


def regular_decomposition(m: int, n: int, force: bool = False) -> dict[ClassLabel, int]:
    """decompose(regular_module(m, n, force)) without building the module."""
    m, n = json_int(m, "m", 0), json_int(n, "n", 1)
    count = ensure_diagrams(m, n, force)
    labels = all_class_labels(m, n, force=True)  # the diagram count bounds them
    return _tally(labels, count, lambda w: _regular_trace(Diagram._trusted(m, n, w, w)))


def _regular_trace(d: Diagram) -> int:
    """The trace of d on the regular module: d fixes a basis diagram exactly
    when each colored letter of its top word τ lies on a straight strand
    p → p of d of that color, so it fixes all multinomial(counts τ) or none."""
    straight = [d.top[p] for p, q in enumerate(d._matching()[0]) if q == p]
    return sum(
        multinomial([d.m - r, *map(kept.count, range(1, d.n + 1))])
        for r in range(len(straight) + 1)
        for kept in itertools.combinations(straight, r)
    )
