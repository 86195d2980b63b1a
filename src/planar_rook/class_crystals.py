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
from math import prod
from operator import add
from typing import NamedTuple

from .crystals import (
    Crystal,
    capped_binomial,
    component_containing,
    ensure_nodes_within_cap,
    signature,
)
from .modules import ClassLabel, all_class_labels, induce_class, restrict_class


def raise_label(i: int, label: ClassLabel) -> ClassLabel | None:
    """Move one vertex from color i to color i-1; None when none exists."""
    if not (1 <= i <= label.n):
        raise ValueError(f"direction {i} outside 1..{label.n}")
    if label.counts[i] == 0:
        return None
    counts = list(label.counts)
    counts[i] -= 1
    counts[i - 1] += 1
    return ClassLabel._trusted(label.n, tuple(counts))


def lower_label(i: int, label: ClassLabel) -> ClassLabel | None:
    """Move one vertex from color i-1 to color i; None when none exists."""
    if not (1 <= i <= label.n):
        raise ValueError(f"direction {i} outside 1..{label.n}")
    if label.counts[i - 1] == 0:
        return None
    counts = list(label.counts)
    counts[i - 1] -= 1
    counts[i] += 1
    return ClassLabel._trusted(label.n, tuple(counts))


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


def class_crystal(m: int, n: int, force: bool = False) -> Crystal:
    """The crystal of simple-module classes at size m, one node for each of
    the C(m+n, n) classes.

    Node keys are label keys "m|c0,...,cn"; eps counts the color-i vertices
    and phi the color-(i-1) vertices.  DOT labels show the class next to its
    weakly increasing word.  It is the tuple crystal of the one-part
    composition (m,): with a single factor nothing cancels.
    """
    if m < 0 or n < 1:
        raise ValueError(f"bad class crystal parameters m={m}, n={n}")
    ensure_nodes_within_cap(capped_binomial(m + n, n), force)
    return _tensor_class_crystal((m,), n)


class FactorTable(NamedTuple):
    """The classes of one size, indexed in `all_class_labels` order.

    keys, words and counts hold each class's label key, weakly increasing
    word and count vector.  up[i-1][j] and down[i-1][j] are the indices of
    raise_label(i, class j) and lower_label(i, class j), or -1.
    """

    keys: tuple[str, ...]
    words: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    up: list[list[int]]
    down: list[list[int]]


@lru_cache(maxsize=None)
def _factor_table(p: int, n: int) -> FactorTable:
    labels = all_class_labels(p, n)
    index = {label.counts: j for j, label in enumerate(labels)}

    def column(rule, i):
        moved = (rule(i, label) for label in labels)
        return [-1 if x is None else index[x.counts] for x in moved]

    return FactorTable(
        tuple(label.key for label in labels),
        # the weakly increasing word from the counts, a run per letter
        tuple("".join(str(j) * c for j, c in enumerate(label.counts)) for label in labels),
        tuple(label.counts for label in labels),
        [column(raise_label, i) for i in range(1, n + 1)],
        [column(lower_label, i) for i in range(1, n + 1)],
    )


def tuple_key(labels) -> str:
    return "×".join(label.key for label in labels)


def tensor_class_crystal(
    parts: tuple[int, ...], n: int, force: bool = False
) -> Crystal:
    """Crystal on tuples of classes, one factor per part of a composition,
    so with the product of the C(part+n, n) as its node count.

    The signature rule over the factors (eps = color-i count, phi = color-(i-1)
    count of each factor) picks which factor an operator moves, and the chosen
    factor moves by the single-size rule.  eps and phi of a tuple are the
    numbers of surviving minuses and pluses of that rule, computed apart
    from the edges, so `check_axioms` compares them with the string lengths
    as an independent check.
    """
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"parts must be positive integers, got {parts}")
    if n < 1:
        raise ValueError(f"need at least one color, got n={n}")
    ensure_nodes_within_cap(tuple_count(parts, n), force)
    return _tensor_class_crystal(parts, n)


def tuple_count(parts, n: int) -> int:
    """Nodes of the tuple crystal: the product of the C(part+n, n), exact
    below 2**256 and past it a lower bound (see capped_binomial)."""
    return prod(capped_binomial(p + n, n) for p in parts)


@lru_cache(maxsize=128)
def _tensor_class_crystal(parts: tuple[int, ...], n: int) -> Crystal:
    """Build the columns one factor at a time, over the prefixes of
    itertools.product of one factor table per part: prefix node a followed
    by class k of a factor of s classes sits at a * s + k.

    Per direction a prefix node holds its surviving (eps, phi) and its
    raising and lowering targets; on one factor these are the class's
    counts and table moves.  Appending class k is the signature rule
    on two factors, the prefix's (eps, phi) and the class's, memoized per
    (eps, phi, m, p) for the build: where it picks the prefix, target t
    moves to t * s + k; where it picks the class, to a * s + col[k] by the
    class's table column.  A target the rules left as -1 (which a correct
    rule never does where a sign survives) leaves the edge out.  Weights
    add a factor at a time; keys and labels join the tables' strings.
    """
    tables = [_factor_table(p, n) for p in parts]
    memo: dict = {}
    eps, phi, up, down = [], [], [], []
    for d in range(n):
        first = tables[0]
        e_col, p_col = [c[d + 1] for c in first.counts], [c[d] for c in first.counts]
        u_col, d_col = list(first.up[d]), list(first.down[d])
        for t in tables[1:]:
            s, ks = len(t.keys), range(len(t.keys))
            pairs = [(c[d + 1], c[d]) for c in t.counts]
            # per prefix (eps, phi), over the classes: the factor raising
            # and lowering pick, and the surviving (eps, phi)
            rows = {}
            for ep in set(zip(e_col, p_col)):
                sigs = memo.setdefault(ep, {})
                for mq in set(pairs) - sigs.keys():
                    sigs[mq] = signature((ep, mq))
                rows[ep] = list(zip(*map(sigs.get, pairs)))
            per = list(map(rows.__getitem__, zip(e_col, p_col)))
            e_col = list(itertools.chain.from_iterable(row[2] for row in per))
            p_col = list(itertools.chain.from_iterable(row[3] for row in per))
            u_col, d_col = (
                [
                    (x * s + k if x >= 0 else -1) if r == 0 else (a * s + c if r == 1 and c >= 0 else -1)
                    for a, (row, x) in enumerate(zip(per, targets))
                    for k, r, c in zip(ks, row[which], col)
                ]
                for which, targets, col in ((0, u_col, t.up[d]), (1, d_col, t.down[d]))
            )
        eps.append(e_col)
        phi.append(p_col)
        up.append(u_col)
        down.append(d_col)

    wt = list(tables[0].counts)
    for t in tables[1:]:
        wt = [tuple(map(add, w, c)) for w in wt for c in t.counts]
    keys = ["×".join(ks) for ks in itertools.product(*(t.keys for t in tables))]
    words = itertools.product(*(t.words for t in tables))
    labels = [k + " ~ " + "×".join(ws) for k, ws in zip(keys, words)]
    return Crystal(n, wt, eps, phi, up, down, keys, labels)


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
