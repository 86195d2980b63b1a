"""Letter, row and tableau crystals with 0-based entries.

Letters run over 0..n.  A filling is a tuple of rows of letters: the one-box
crystal has the fillings ((j,),), a row of length m is one weakly increasing
word, and a semistandard tableau (rows weakly increasing, columns strictly
increasing) is its rows.  All three get their structure from one builder:
reading a filling right to left, rows top to bottom, embeds it into a tensor
power of the one-box crystal, and per direction the signature rule on that
reading word gives eps and phi and picks the letter that raising lowers and
the letter that lowering raises.  The moved word is looked up among the
given fillings, so a rule that led outside them would raise.  In a row the
reversed reading lists every copy of i before every copy of i-1, so no signs
cancel: lowering bumps the rightmost i-1 and raising the leftmost i.
"""

from __future__ import annotations

import itertools
from math import comb

from .crystals import Crystal, signature
from .diagrams import capped_binomial, ensure_work, json_int

Word = tuple[int, ...]


def partition_shape(shape) -> tuple[int, ...]:
    """The shape as a tuple of ints, refused unless positive and weakly
    decreasing; only its numbers are read, so any size is checked at once."""
    shape = tuple(shape)
    if any(type(x) is not int for x in shape):
        raise ValueError(f"shape parts must be integers, got {shape}")
    if any(x < 1 for x in shape):
        raise ValueError(f"shape parts must be positive, got {shape}")
    if any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"shape must be weakly decreasing, got {shape}")
    return shape


def word_key(word: Word) -> str:
    return "".join(map(str, word))


def filling_key(rows) -> str:
    """Each row's letters run together, rows joined with '/'."""
    return "/".join(map(word_key, rows))


def reading(rows) -> Word:
    """Right-to-left within each row, rows top to bottom."""
    return tuple(x for row in rows for x in reversed(row))


def letter_factors(n: int, i: int) -> tuple[tuple[int, int], ...]:
    """(eps, phi) in direction i of the one-box letters 0..n: i has eps 1, i-1 phi 1."""
    return tuple((int(x == i), int(x == i - 1)) for x in range(n + 1))


def _filling_crystal(n: int, fillings: list, keys=None) -> Crystal:
    """The crystal on the given fillings, in their order, keyed by
    filling_key (or by `keys`, the fillings' keys when the caller has them):
    per direction one signature call on each reading word gives eps, phi
    and the letters raising and lowering move.  A moved word that reads
    none of the fillings raises, naming the filling and the direction."""
    if keys is None:
        keys = list(map(filling_key, fillings))
    words = list(map(reading, fillings))
    index = {w: p for p, w in enumerate(words)}

    def moved(p: int, j: int, step: int, i: int) -> int:
        if j < 0:
            return -1
        w = words[p]
        t = index.get(w[:j] + (w[j] + step,) + w[j + 1 :])
        if t is None:
            name = "raising" if step < 0 else "lowering"
            raise ValueError(
                f"{name} {keys[p]} in direction {i} "
                "leaves the given fillings"
            )
        return t

    eps, phi, up, down = [], [], [], []
    for i in range(1, n + 1):
        factor = letter_factors(n, i)
        stats = [signature(map(factor.__getitem__, w)) for w in words]
        eps.append([s[2] for s in stats])
        phi.append([s[3] for s in stats])
        up.append([moved(p, s[0], -1, i) for p, s in enumerate(stats)])
        down.append([moved(p, s[1], 1, i) for p, s in enumerate(stats)])
    wt = [tuple(map(w.count, range(n + 1))) for w in words]
    return Crystal(n, wt, eps, phi, up, down, keys)


def box_crystal(n: int, force: bool = False) -> Crystal:
    """The chain crystal on the letters 0..n: the row crystal of length 1."""
    return row_crystal(1, n, force)


def weakly_increasing_words(m: int, n: int) -> list[Word]:
    return list(itertools.combinations_with_replacement(range(n + 1), m))


def row_crystal(m: int, n: int, force: bool = False) -> Crystal:
    """Crystal on weakly increasing words of length m in the letters 0..n,
    in lexicographic order; eps counts the copies of i and phi the copies
    of i-1.  It has C(m+n, n) nodes."""
    m, n = json_int(m, "m", 0), json_int(n, "n", 1)
    ensure_work(capped_binomial(m + n, n), m, n, "crystal nodes", force)
    return _filling_crystal(n, [(w,) for w in weakly_increasing_words(m, n)])


def ssyt_count(shape, n: int) -> int:
    """The number of semistandard tableaux of a partition shape l in the
    letters 0..n by Weyl's dimension formula: the product over 0 <= i < j
    <= n of (l_i - l_j + j - i) / (j - i), l padded with zeros.  Row i's
    pairs with the r - 1 < j zero parts give C(l_i + n - i, l_i) / C(l_i +
    r - 1 - i, l_i), so it takes O(r^2) steps for r rows."""
    r = len(shape)
    if r > n + 1:
        return 0
    num = den = 1
    for i, a in enumerate(shape):
        num *= comb(a + n - i, a)
        den *= comb(a + r - 1 - i, a)
        for j in range(i + 1, r):
            num *= a - shape[j] + j - i
            den *= j - i
    return num // den


def _ssyt_rows(shape: tuple[int, ...], n: int) -> list[tuple[Word, ...]]:
    """The rows of every semistandard tableau of the shape in the letters
    0..n, by row-concatenated word, a row at a time.  Box (r, c) lies in
    [(the box above) + 1, n - (boxes below)], every row within those bounds
    completes, and the next row raises the rightmost box below its bound
    and sets the boxes right of it as low as they go."""
    if len(shape) > n + 1:
        raise ValueError(
            f"shape with {len(shape)} rows cannot be filled with letters 0..{n}"
        )
    height = [sum(w > c for w in shape) for c in range(max(shape, default=0))]

    def fill(rows: tuple[Word, ...]):
        r = len(rows)
        if r == len(shape):
            yield rows
            return
        lo = [x + 1 for x in rows[-1][: shape[r]]] if rows else [0] * shape[r]
        hi = [n + 1 + r - h for h in height[: shape[r]]]
        row = lo
        while True:
            yield from fill(rows + (tuple(row),))
            c = next((c for c in reversed(range(len(row))) if row[c] < hi[c]), -1)
            if c < 0:
                return
            row = row[:c] + [max(row[c] + 1, x) for x in lo[c:]]

    return list(fill(()))


def ssyt_crystal(shape, n: int, force: bool = False) -> Crystal:
    """The crystal on every semistandard tableau of the shape, keyed by rows
    joined with '/' and in key order; ssyt_count gives its size in closed
    form.  That it is connected, with the highest tableau as its only
    highest node, is tested, not assumed.
    """
    shape, n = partition_shape(shape), json_int(n, "n", 1)
    # a tall shape counts 0 and its enumeration refuses it
    ensure_work(ssyt_count(shape, n), sum(shape), n, "crystal nodes", force)
    rows = _ssyt_rows(shape, n)
    keys = list(map(filling_key, rows))
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return _filling_crystal(n, [rows[p] for p in order], [keys[p] for p in order])
