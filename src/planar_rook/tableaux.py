"""Letter, row and tableau crystals with 0-based entries.

Letters run over 0..n.  The one-box crystal is the chain 0 -> 1 -> ... -> n
under lowering.  A row of length m is a weakly increasing word; its crystal
structure lowers the rightmost copy of i-1 and raises the leftmost copy of i.
Semistandard tableaux (rows weakly increasing, columns strictly increasing)
carry the structure lifted through the right-to-left, top-to-bottom reading:
the reading embeds a tableau into a tensor power of the one-box crystal, and
the signature rule picks the box an operator changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .crystals import (
    Crystal,
    ensure_nodes_within_cap,
    make_crystal,
    signature,
    signature_apply,
)
from .diagrams import json_int

Word = tuple[int, ...]


@dataclass(frozen=True, order=True)
class Tableau:
    """A semistandard filling of a partition shape with letters >= 0."""

    shape: tuple[int, ...]
    rows: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        object.__setattr__(
            self, "rows", tuple(tuple(int(x) for x in row) for row in self.rows)
        )
        shape = self.shape
        if any(x < 1 for x in shape):
            raise ValueError(f"shape parts must be positive, got {shape}")
        if any(a < b for a, b in zip(shape, shape[1:])):
            raise ValueError(f"shape must be weakly decreasing, got {shape}")
        if len(self.rows) != len(shape):
            raise ValueError(f"{len(self.rows)} rows for shape {shape}")
        for r, (row, width) in enumerate(zip(self.rows, shape)):
            if len(row) != width:
                raise ValueError(f"row {r} has length {len(row)}, expected {width}")
            if any(x < 0 for x in row):
                raise ValueError(f"negative letter in row {r}")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {r} is not weakly increasing: {row}")
        for r in range(1, len(self.rows)):
            upper, lower = self.rows[r - 1], self.rows[r]
            if any(upper[c] >= lower[c] for c in range(len(lower))):
                raise ValueError(f"column not strictly increasing between rows {r-1},{r}")

    @property
    def size(self) -> int:
        return sum(self.shape)

    def key(self) -> str:
        return "/".join("".join(str(x) for x in row) for row in self.rows)

    def letter_counts(self, n: int) -> tuple[int, ...]:
        tally = [0] * (n + 1)
        for row in self.rows:
            for x in row:
                tally[x] += 1
        return tuple(tally)

    def to_json_dict(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> Tableau:
        return cls(
            tuple(json_int(x, "shape part") for x in obj["shape"]),
            tuple(tuple(json_int(x, "tableau entry") for x in r) for r in obj["rows"]),
        )


def reading(t: Tableau) -> Word:
    """Right-to-left within each row, rows top to bottom."""
    out: list[int] = []
    for row in t.rows:
        out.extend(reversed(row))
    return tuple(out)


def reading_positions(shape) -> list[tuple[int, int]]:
    """(row, column) of each reading-word position."""
    out = []
    for r, width in enumerate(shape):
        out.extend((r, c) for c in reversed(range(width)))
    return out


def signature_factors(word: Word, i: int) -> list[tuple[int, int]]:
    """(eps, phi) in direction i of each letter of word, read as one-box
    crystal factors: a letter i has eps 1, a letter i-1 has phi 1."""
    return [(1 if x == i else 0, 1 if x == i - 1 else 0) for x in word]


def tableau_op(kind: str, i: int, t: Tableau) -> Tableau | None:
    """Apply a raising (kind 'e') or lowering (kind 'f') operator to a tableau.

    The signature rule over the reading word chooses the box; raising turns an
    i into i-1, lowering an i-1 into i.  None when the operator vanishes.
    The changed filling is rebuilt through the validating constructor, so a
    result outside the semistandard family would raise rather than pass.
    """
    if i < 1:
        raise ValueError(f"direction must be >= 1, got {i}")
    pos = signature_apply(kind, signature_factors(reading(t), i))
    if pos is None:
        return None
    r, c = reading_positions(t.shape)[pos]
    new_rows = [list(row) for row in t.rows]
    new_rows[r][c] += -1 if kind == "e" else 1
    return Tableau(t.shape, tuple(tuple(row) for row in new_rows))


def highest_tableau(shape) -> Tableau:
    """Row r filled with the letter r."""
    return Tableau(tuple(shape), tuple((r,) * w for r, w in enumerate(shape)))


def box_crystal(n: int, force: bool = False) -> Crystal:
    """The chain crystal on the letters 0..n."""
    if n < 1:
        raise ValueError("need at least one direction")
    ensure_nodes_within_cap(n + 1, force)
    nodes = [str(j) for j in range(n + 1)]
    weights = {}
    eps = {}
    phi = {}
    f_edges = {}
    for j in range(n + 1):
        wt = [0] * (n + 1)
        wt[j] = 1
        weights[str(j)] = tuple(wt)
        eps[str(j)] = tuple(1 if i == j else 0 for i in range(1, n + 1))
        phi[str(j)] = tuple(1 if i == j + 1 else 0 for i in range(1, n + 1))
        if j < n:
            f_edges[(str(j), j + 1)] = str(j + 1)
    return make_crystal(n, nodes, weights, eps, phi, f_edges)


def weakly_increasing_words(m: int, n: int) -> list[Word]:
    return list(itertools.combinations_with_replacement(range(n + 1), m))


def word_key(word: Word) -> str:
    return "".join(str(x) for x in word)


def row_crystal(m: int, n: int, force: bool = False) -> Crystal:
    """Crystal on weakly increasing words of length m in the letters 0..n.

    Lowering in direction i bumps the rightmost i-1 to i; since the reversed
    reading of a row lists all copies of i before all copies of i-1, no signs
    cancel, so eps counts the copies of i and phi the copies of i-1.  It has
    C(m+n, n) nodes.
    """
    if m < 0 or n < 1:
        raise ValueError(f"bad row crystal parameters m={m}, n={n}")
    ensure_nodes_within_cap(comb(m + n, n), force)
    nodes = []
    weights = {}
    eps = {}
    phi = {}
    f_edges = {}
    for word in weakly_increasing_words(m, n):
        k = word_key(word)
        nodes.append(k)
        tally = [0] * (n + 1)
        for x in word:
            tally[x] += 1
        weights[k] = tuple(tally)
        eps[k] = tuple(tally[i] for i in range(1, n + 1))
        phi[k] = tuple(tally[i - 1] for i in range(1, n + 1))
        for i in range(1, n + 1):
            if tally[i - 1]:
                pos = max(p for p, x in enumerate(word) if x == i - 1)
                lowered = word[:pos] + (i,) + word[pos + 1 :]
                f_edges[(k, i)] = word_key(lowered)
    return make_crystal(n, nodes, weights, eps, phi, f_edges)


def ssyt_count(shape, n: int) -> int:
    """The number of semistandard tableaux of a partition shape in the
    letters 0..n, by the hook-content formula (Stanley, EC2 Thm 7.21.2):
    the product over boxes of (n + 1 + content) / hook."""
    columns = [
        sum(1 for width in shape if width > c) for c in range(max(shape, default=0))
    ]
    num = den = 1
    for r, width in enumerate(shape):
        for c in range(width):
            num *= n + 1 + c - r
            den *= (width - c) + (columns[c] - r) - 1
    return num // den


def enumerate_ssyt(shape, n: int) -> list[Tableau]:
    """All semistandard tableaux of the shape with letters 0..n, ordered by
    their row-concatenated word."""
    shape = tuple(shape)
    if len(shape) > n + 1:
        raise ValueError(
            f"shape with {len(shape)} rows cannot be filled with letters 0..{n}"
        )
    if not shape:
        return [Tableau((), ())]
    rows_out: list[Tableau] = []

    def fill(rows: list[list[int]], r: int, c: int) -> None:
        if r == len(shape):
            rows_out.append(Tableau(shape, tuple(tuple(row) for row in rows)))
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = rows[r][c - 1] if c > 0 else 0
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        for x in range(lo, n + 1):
            rows[r][c] = x
            fill(rows, nr, nc)
        rows[r][c] = 0

    fill([[0] * w for w in shape], 0, 0)
    return rows_out


@lru_cache(maxsize=None)
def _ssyt_crystal(shape: tuple[int, ...], n: int) -> Crystal:
    top = highest_tableau(shape)
    for i in range(1, n + 1):
        if tableau_op("e", i, top) is not None:
            raise AssertionError(f"highest tableau of {shape} is raisable at {i}")
    found: dict[str, Tableau] = {top.key(): top}
    frontier = [top]
    f_edges: dict[tuple[str, int], str] = {}
    while frontier:
        frontier.sort(key=Tableau.key)
        next_frontier = []
        for t in frontier:
            for i in range(1, n + 1):
                lowered = tableau_op("f", i, t)
                if lowered is None:
                    continue
                k = lowered.key()
                f_edges[(t.key(), i)] = k
                if k not in found:
                    found[k] = lowered
                    next_frontier.append(lowered)
        frontier = next_frontier
    nodes = sorted(found)
    weights = {}
    eps = {}
    phi = {}
    for k in nodes:
        t = found[k]
        weights[k] = t.letter_counts(n)
        word = reading(t)
        stats = [signature(signature_factors(word, i)) for i in range(1, n + 1)]
        eps[k] = tuple(s[2] for s in stats)
        phi[k] = tuple(s[3] for s in stats)
    return make_crystal(n, nodes, weights, eps, phi, f_edges)


def ssyt_crystal(shape, n: int, force: bool = False) -> Crystal:
    """The crystal generated from the highest tableau by lowering operators.

    Nodes are keyed by rows joined with '/'.  The node set always coincides
    with the full semistandard enumeration (tested, not assumed), whose size
    ssyt_count gives in closed form.
    """
    shape = tuple(int(x) for x in shape)
    # constructor validates the shape
    highest_tableau(shape)
    if len(shape) > n + 1:
        raise ValueError(
            f"shape with {len(shape)} rows cannot be filled with letters 0..{n}"
        )
    ensure_nodes_within_cap(ssyt_count(shape, n), force)
    return _ssyt_crystal(shape, n)
