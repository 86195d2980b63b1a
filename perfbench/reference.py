"""Answers the benchmark checks planar-rook's output against.

Nothing here imports planar_rook.  Each answer comes from a closed formula or
from a direct implementation of the definition, so a bug in the package
cannot also hide in the expected value.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb, factorial, prod


def weak_compositions(total: int, slots: int) -> list[tuple[int, ...]]:
    """Every tuple of `slots` nonnegative integers summing to `total`."""
    if slots == 1:
        return [(total,)]
    return [
        (head,) + rest
        for head in range(total + 1)
        for rest in weak_compositions(total - head, slots - 1)
    ]


def multinomial(counts) -> int:
    return factorial(sum(counts)) // prod(factorial(c) for c in counts)


def diagram_count(m: int, n: int) -> int:
    """Sum of squared multinomials over the vertex counts per color."""
    return sum(multinomial(c) ** 2 for c in weak_compositions(m, n + 1))


def ssyt_count(shape, letters: int) -> int:
    """Hook-content formula: semistandard tableaux with entries in 1..letters."""
    conjugate = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    top = bottom = 1
    for r, part in enumerate(shape):
        for c in range(part):
            top *= letters + c - r
            bottom *= (part - c - 1) + (conjugate[c] - r - 1) + 1
    return top // bottom


def tuple_class_count(parts, n: int) -> int:
    """Tuples of simple classes, one per part: a product of binomials."""
    return prod(comb(p + n, n) for p in parts)


def partitions(total: int, max_parts: int) -> list[tuple[int, ...]]:
    out = []

    def grow(left, largest, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        if len(acc) < max_parts:
            for part in range(min(left, largest), 0, -1):
                grow(left - part, part, acc + [part])

    grow(total, total, [])
    return out


# ---------------------------------------------------------------- diagrams
# A diagram is its sorted tuple of (top, bottom, color) edges; m and n are
# fixed by the element that holds it.


def all_diagrams(m: int, n: int) -> list[tuple]:
    """Every diagram: one per pair of boundary words with equal color counts,
    joining the k-th color-i vertex on top to the k-th one below."""
    out = []
    words = list(itertools.product(range(n + 1), repeat=m))
    for top in words:
        for bottom in words:
            edges = []
            for color in range(1, n + 1):
                tops = [p for p, c in enumerate(top, 1) if c == color]
                bottoms = [p for p, c in enumerate(bottom, 1) if c == color]
                if len(tops) != len(bottoms):
                    break
                edges.extend((t, b, color) for t, b in zip(tops, bottoms))
            else:
                out.append(tuple(sorted(edges)))
    return out


def stack(upper: tuple, lower: tuple) -> tuple:
    """Product by stacking: keep a path through the middle row whose two
    edges have the same color."""
    below = {t: (b, c) for t, b, c in lower}
    return tuple(
        sorted(
            (t, below[k][0], c)
            for t, k, c in upper
            if k in below and below[k][1] == c
        )
    )


def _word(edges, m: int, side: int) -> tuple[int, ...]:
    word = [0] * m
    for edge in edges:
        word[edge[side] - 1] = edge[2]
    return tuple(word)


def diagram_product(a: dict, b: dict) -> dict:
    """Bilinear extension of stacking, in the diagram basis."""
    acc: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            d = stack(d1, d2)
            acc[d] = acc.get(d, 0) + c1 * c2
    return {d: c for d, c in acc.items() if c}


def orbit_product(a: dict, b: dict, m: int) -> dict:
    """Product in orbit coordinates by the matching rule of Prop. 2.1: the
    orbit vectors of d1 and d2 multiply to the orbit vector of d1*d2 when the
    bottom word of d1 equals the top word of d2, and to zero otherwise."""
    by_top: dict = {}
    for d2, c2 in b.items():
        by_top.setdefault(_word(d2, m, 0), []).append((d2, c2))
    acc: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in by_top.get(_word(d1, m, 1), ()):
            d = stack(d1, d2)
            acc[d] = acc.get(d, 0) + c1 * c2
    return {d: c for d, c in acc.items() if c}


def element_json(m: int, n: int, basis: str, terms: dict) -> dict:
    """The documented element format, terms in diagram order."""
    return {
        "m": m,
        "n": n,
        "basis": basis,
        "terms": [
            {
                "coeff": str(Fraction(c)),
                "diagram": {"m": m, "n": n, "edges": [list(e) for e in d]},
            }
            for d, c in sorted(terms.items())
        ],
    }


def cli_json_bytes(obj) -> bytes:
    """JSON exactly as the CLI prints it: two-space indent, one newline."""
    return (json.dumps(obj, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
