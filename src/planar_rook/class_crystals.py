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

from functools import lru_cache
from itertools import chain
from math import prod
from operator import add

from .classes import (
    ClassLabel,
    all_class_labels,
    ensure_indexable,
    induce_class,
    restrict_class,
)
from .crystals import (
    Crystal,
    _lowered,
    _restrict,
    capped_binomial,
    ensure_nodes_within_cap,
    signature,
)
from .diagrams import json_int
from .tableaux import partition_shape


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
    m, n = json_int(m, "m", 0), json_int(n, "n", 1)
    if force:  # force lifts the node cap, not the bound on listing classes
        ensure_indexable(m, n)
    ensure_nodes_within_cap(capped_binomial(m + n, n), force)
    return _tensor_class_crystal((m,), n)


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
    parts = tuple(parts)
    if not parts or any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"parts must be positive integers, got {parts}")
    json_int(n, "n", 1)
    if force:  # force lifts the node cap, not the bound on listing classes
        ensure_indexable(max(parts), n)
    ensure_nodes_within_cap(tuple_count(parts, n), force)
    return _tensor_class_crystal(parts, n)


def tuple_count(parts, n: int) -> int:
    """Nodes of the tuple crystal: the product of the C(part+n, n), exact
    below 2**256 and past it a lower bound (see capped_binomial)."""
    return prod(capped_binomial(p + n, n) for p in parts)


@lru_cache(maxsize=128)
def _tensor_class_crystal(parts: tuple[int, ...], n: int) -> Crystal:
    """The crystal of parts[:-1], from this memo so that compositions
    sharing a prefix share it, extended by the one-part crystal of the last
    part.  A one-part crystal has the classes of its size as nodes, in
    `all_class_labels` order: eps and phi are their counts, the edges
    raise_label and lower_label, and a label is the key, " ~ " and the
    weakly increasing word."""
    if len(parts) > 1:
        return _extend(_tensor_class_crystal(parts[:-1], n), _tensor_class_crystal(parts[-1:], n))
    labels = all_class_labels(parts[0], n)
    counts = [label.counts for label in labels]
    index = {c: j for j, c in enumerate(counts)}

    def column(rule, i):
        return [-1 if (x := rule(i, label)) is None else index[x.counts] for label in labels]

    eps, phi = ([[c[d + j] for c in counts] for d in range(n)] for j in (1, 0))
    up, down = ([column(rule, i) for i in range(1, n + 1)] for rule in (raise_label, lower_label))
    keys = [label.key for label in labels]
    # the weakly increasing word from the counts, a run per letter
    words = ("".join(str(j) * k for j, k in enumerate(c)) for c in counts)
    return Crystal(n, counts, eps, phi, up, down, keys, map(" ~ ".join, zip(keys, words)))


def _extend(prefix: Crystal, factor: Crystal) -> Crystal:
    """One factor step: prefix tensored with the one-part crystal factor,
    prefix node a followed by class k of factor's s classes at a * s + k.
    Appending class k is the signature rule on a's (eps, phi) and the
    class's, memoized per (eps, phi, m, p) for the step: where it picks the
    prefix, a's target x moves to x * s + k; where it picks the class, to
    a * s + col[k] by factor's column.  A target left as -1 (which a correct
    rule never does where a sign survives) leaves the edge out.  Weights
    are summed once per distinct prefix weight; keys and labels extend the
    prefix's, which has labels."""
    s, ks = len(factor), range(len(factor))
    memo: dict = {}
    eps, phi, up, down = [], [], [], []
    for d in range(prefix.n):
        pairs = list(zip(factor.eps[d], factor.phi[d]))
        # per prefix (eps, phi), over the classes: the factor raising
        # and lowering pick, and the surviving (eps, phi)
        rows = {}
        for ep in set(zip(prefix.eps[d], prefix.phi[d])):
            sigs = memo.setdefault(ep, {})
            for mq in set(pairs) - sigs.keys():
                sigs[mq] = signature((ep, mq))
            rise, fall, e, p = zip(*map(sigs.get, pairs))
            rows[ep] = e, p, [*zip(ks, rise, factor.up[d])], [*zip(ks, fall, factor.down[d])]
        per = list(map(rows.__getitem__, zip(prefix.eps[d], prefix.phi[d])))
        eps.append(list(chain.from_iterable(row[0] for row in per)))
        phi.append(list(chain.from_iterable(row[1] for row in per)))
        up_col, down_col = (
            [
                (x * s + k if x >= 0 else -1) if r == 0 else (a * s + c if r == 1 and c >= 0 else -1)
                for a, (row, x) in enumerate(zip(per, targets))
                for k, r, c in row[which]
            ]
            for which, targets in ((2, prefix.up[d]), (3, prefix.down[d]))
        )
        up.append(up_col)
        down.append(down_col)
    sums = {w: [tuple(map(add, w, c)) for c in factor.wt] for w in set(prefix.wt)}
    wt = list(chain.from_iterable(map(sums.__getitem__, prefix.wt)))
    keys = [k + "×" + tk for k in prefix.nodes for tk in factor.nodes]
    # a label is "key ~ words", so its words follow the key and " ~ "
    pre, post = ([lab[len(k) + 3 :] for k, lab in zip(c.nodes, c.labels)] for c in (prefix, factor))
    words = [ws + "×" + w for ws in pre for w in post]
    return Crystal(prefix.n, wt, eps, phi, up, down, keys, map(" ~ ".join, zip(keys, words)))


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
    Operators act factor by factor, so the component of u1⊗…⊗uk lies in
    comp(u1⊗…⊗u(k-1)) ⊗ (classes of part k): it is grown a part at a time,
    never building the whole tuple crystal, with the same nodes in order.
    Each step keeps, in position order, what lowering reaches from the
    straight-line prefix, the one highest node of its component.
    """
    partition = partition_shape(partition)
    if not partition:
        raise ValueError("partition must have at least one part")
    if len(partition) > json_int(n, "n", 1) + 1:
        raise ValueError(
            f"partition with {len(partition)} parts needs at least "
            f"{len(partition) - 1} colors, have n={n}"
        )
    ensure_nodes_within_cap(tuple_count(partition, n))
    line = straight_line_tuple(partition, n)
    comp = None
    for j in range(len(partition)):
        factor = _tensor_class_crystal(partition[j : j + 1], n)
        grown = factor if comp is None else _extend(comp, factor)
        start = grown.nodes.index(tuple_key(line[: j + 1]))
        comp = _restrict(grown, sorted(_lowered(grown, start)))
    return comp

