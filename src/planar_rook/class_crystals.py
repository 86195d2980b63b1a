"""Crystals on isomorphism classes of simple modules.

The classes at size m sit in bijection with weakly increasing words (send a
count vector to its canonical boundary word, with that many copies of each
letter).  Restriction and induction move one vertex between colors, and the
composites restrict(i) . induce(i-1) and restrict(i-1) . induce(i) shift
counts exactly like the raising and lowering operators of the length-m row
crystal.  This module builds that crystal, the tensor version whose nodes
are tuples of classes (one per part of a composition), and the component
generated by the straight-line tuple of a partition.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .crystals import (
    Crystal,
    component_containing,
    make_crystal,
    signature_apply,
    string_lengths,
)
from .modules import ClassLabel, all_class_labels, induce_class, restrict_class
from .tableaux import word_key


def raise_label(i: int, label: ClassLabel) -> ClassLabel | None:
    """Move one vertex from color i to color i-1; None when none exists."""
    if not (1 <= i <= label.n):
        raise ValueError(f"direction {i} outside 1..{label.n}")
    if label.counts[i] == 0:
        return None
    counts = list(label.counts)
    counts[i] -= 1
    counts[i - 1] += 1
    return ClassLabel(label.n, tuple(counts))


def lower_label(i: int, label: ClassLabel) -> ClassLabel | None:
    """Move one vertex from color i-1 to color i; None when none exists."""
    if not (1 <= i <= label.n):
        raise ValueError(f"direction {i} outside 1..{label.n}")
    if label.counts[i - 1] == 0:
        return None
    counts = list(label.counts)
    counts[i - 1] -= 1
    counts[i] += 1
    return ClassLabel(label.n, tuple(counts))


def class_operator_via_functors(kind: str, i: int, label: ClassLabel):
    """The same operators computed as composites of induction and restriction.

    Raising is restrict(i) after induce(i-1); lowering is restrict(i-1) after
    induce(i).  Induction always succeeds on classes; the restriction step
    returns None exactly when the closed-form operator vanishes.
    """
    if not (1 <= i <= label.n):
        raise ValueError(f"direction {i} outside 1..{label.n}")
    if kind == "e":
        return restrict_class(i, induce_class(i - 1, label))
    if kind == "f":
        return restrict_class(i - 1, induce_class(i, label))
    raise ValueError(f"kind must be 'e' or 'f', got {kind!r}")


@lru_cache(maxsize=None)
def class_crystal(m: int, n: int) -> Crystal:
    """The crystal of simple-module classes at size m.

    Node keys are label keys "m|c0,...,cn"; eps counts the color-i vertices
    and phi the color-(i-1) vertices.  DOT labels show the class next to its
    weakly increasing word.
    """
    if m < 0 or n < 1:
        raise ValueError(f"bad class crystal parameters m={m}, n={n}")
    labels = all_class_labels(m, n)
    nodes = []
    weights = {}
    eps = {}
    phi = {}
    f_edges = {}
    display = {}
    for label in labels:
        k = label.key
        nodes.append(k)
        weights[k] = label.counts
        eps[k] = tuple(label.counts[i] for i in range(1, n + 1))
        phi[k] = tuple(label.counts[i - 1] for i in range(1, n + 1))
        display[k] = f"{k} ~ {word_key(label.canonical_boundary().colors)}"
        for i in range(1, n + 1):
            lowered = lower_label(i, label)
            if lowered is not None:
                f_edges[(k, i)] = lowered.key
    return make_crystal(n, nodes, weights, eps, phi, f_edges, display)


def tuple_key(labels) -> str:
    return "×".join(label.key for label in labels)


@lru_cache(maxsize=None)
def tensor_class_crystal(parts: tuple[int, ...], n: int) -> Crystal:
    """Crystal on tuples of classes, one factor per part of a composition.

    The signature rule over the factors (eps = color-i count, phi = color-(i-1)
    count of each factor) picks which factor an operator moves, and the chosen
    factor moves by the single-size rule.  eps and phi of a tuple are the
    string lengths this produces.
    """
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive integers, got {parts}")
    if n < 1:
        raise ValueError(f"need at least one color, got n={n}")
    factor_labels = [all_class_labels(p, n) for p in parts]
    tuples = list(itertools.product(*factor_labels))
    nodes = []
    weights = {}
    f_edges = {}
    e_edges = {}
    for labels in tuples:
        k = tuple_key(labels)
        nodes.append(k)
        wt = [0] * (n + 1)
        for label in labels:
            for x, c in enumerate(label.counts):
                wt[x] += c
        weights[k] = tuple(wt)
        for i in range(1, n + 1):
            factors = [
                (label.counts[i], label.counts[i - 1]) for label in labels
            ]
            pos = signature_apply("e", factors)
            if pos is not None:
                moved = raise_label(i, labels[pos])
                assert moved is not None  # signature saw a surviving minus
                e_edges[(k, i)] = tuple_key(
                    labels[:pos] + (moved,) + labels[pos + 1 :]
                )
            pos = signature_apply("f", factors)
            if pos is not None:
                moved = lower_label(i, labels[pos])
                assert moved is not None  # signature saw a surviving plus
                f_edges[(k, i)] = tuple_key(
                    labels[:pos] + (moved,) + labels[pos + 1 :]
                )
    eps = string_lengths(nodes, e_edges, n)
    phi = string_lengths(nodes, f_edges, n)
    display = {
        tuple_key(labels): tuple_key(labels)
        + " ~ "
        + "×".join(word_key(label.canonical_boundary().colors) for label in labels)
        for labels in tuples
    }
    return Crystal(
        n, tuple(nodes), weights, eps, phi, e_edges, f_edges, display
    )


def straight_line_tuple(partition: tuple[int, ...], n: int) -> tuple[ClassLabel, ...]:
    """Part j (1-based) gets all its vertices in color j-1."""
    labels = []
    for j, part in enumerate(partition):
        counts = [0] * (n + 1)
        counts[j] = part
        labels.append(ClassLabel(n, tuple(counts)))
    return tuple(labels)


def highest_component(partition, n: int) -> Crystal:
    """The component of the tuple crystal at the straight-line tuple.

    The partition must be weakly decreasing with at most n+1 parts; that is
    exactly when the straight-line tuple is killed by every raising operator
    (the minuses of part j+1 all cancel against the pluses of part j).
    """
    partition = tuple(int(p) for p in partition)
    if not partition or any(p < 1 for p in partition):
        raise ValueError(f"partition parts must be positive, got {partition}")
    if any(a < b for a, b in zip(partition, partition[1:])):
        raise ValueError(f"partition must be weakly decreasing, got {partition}")
    if len(partition) > n + 1:
        raise ValueError(
            f"partition with {len(partition)} parts needs at least "
            f"{len(partition) - 1} colors, have n={n}"
        )
    crystal = tensor_class_crystal(partition, n)
    return component_containing(crystal, tuple_key(straight_line_tuple(partition, n)))


def clear_caches() -> None:
    """Drop memoized crystals (used by tests that monkeypatch the rules)."""
    class_crystal.cache_clear()
    tensor_class_crystal.cache_clear()
