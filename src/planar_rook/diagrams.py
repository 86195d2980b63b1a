"""Colored planar rook diagrams.

A diagram of size m with n colors is a partial matching between a top row and a
bottom row of m vertices (numbered 1..m), each edge carrying a color in 1..n,
such that no vertex meets two edges and edges of the same color never cross.
Equivalently it is an m x m matrix over the units u_1..u_n of (Z_2)^n with at
most one nonzero entry per row and column and no same-color inversion; the
product is matrix multiplication, i.e. stacking and keeping the concatenated
edges whose colors agree.

A diagram is stored as its two boundary words, the color at each vertex with
0 for an isolated one.  Two words with equal color counts have exactly one
crossingless matching, so the edge list is a view derived from the words, and
enumeration, products, flips and juxtaposition all work on words.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache, total_ordering
from math import comb, factorial, perm, prod


class EnumerationCapError(ValueError):
    """A build would pass the work cap, or list more than any index reaches."""


# Every record the package lists holds O(m + n) entries (words of length m,
# count vectors and weights of n + 1, n crystal columns), so each builder
# refuses objects × (m + n + 1) over this cap before it allocates.
WORK_CAP = 500_000
MAX_SIZE = 4096


def brief(x) -> str:
    """repr(x), or for a long one its length and its two ends, so a message
    quoting malformed input stays one short line.  An integer past 256 bits
    is worded by its digits, as repr fails past sys.get_int_max_str_digits()."""
    if type(x) is int and x.bit_length() > 256:
        return f"an integer with at least {min_digits(x)} digits"
    text = repr(x)
    if len(text) <= 40:
        return text
    return f"({len(text)} characters) {text[:24]}...{text[-12:]}"


def min_digits(x: int) -> int:
    """A lower bound on the decimal digits of x, read from its bit length
    without converting it: |x| >= 2**(b-1) >= 10**floor((b-1) * log10(2)),
    with log10(2) rounded down."""
    return (abs(x).bit_length() - 1) * 30102999566 // 10**11 + 1


def json_int(x, what: str, least: int | None = None) -> int:
    """x itself when it is a JSON integer, and not below `least` if given.
    Floats and booleans are refused, so no binary fraction is silently
    truncated into a size or a color."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {brief(x)}")
    if least is not None and x < least:
        raise ValueError(f"{what} must be at least {least}, got {brief(x)}")
    return x


def ensure_work(objects: int, m: int, n: int, what: str, force: bool = False) -> None:
    """Refuse to list `objects` records of m + n + 1 entries each when that
    work is over WORK_CAP, unless forced, or past sys.maxsize, which no list
    can index, even when forced.  Past 256 bits the count is worded as the
    power of ten below it, as str() fails past sys.get_int_max_str_digits()."""
    work = objects * (m + n + 1)
    if work <= WORK_CAP or force and work <= sys.maxsize:
        return
    count = f"at least 10**{min_digits(objects) - 1}" if objects.bit_length() > 256 else objects
    head = f"{what} at m={brief(m)}, n={brief(n)}: {count} of them, times m + n + 1, is"
    if work > sys.maxsize:
        # no ";": force does not lift this bound, so there is no override to name
        raise EnumerationCapError(f"{head} too large to index")
    raise EnumerationCapError(f"{head} over the work cap {WORK_CAP}; pass force=True to override")


def capped_binomial(total: int, k: int, bits: int = 256) -> int:
    """comb(total, k), 0 <= k <= total, built as the running binomial
    comb(total - k + j, j) and cut short once that passes 2**bits: exact
    below it, a lower bound past it, in at most bits + 1 steps either way,
    as each step at least doubles it."""
    k, out = min(k, total - k), 1
    for j in range(1, k + 1):
        if out.bit_length() > bits:
            break
        out = out * (total - k + j) // j
    return out


def ensure_diagrams(m: int, n: int, force: bool = False) -> int:
    """count_diagrams(m, n), once ensure_work has passed it.  The partition
    sum's cost grows with m alone, so it runs only when the C(2m, m)
    one-color diagrams alone are within the bound (m <= 10 unforced, 33
    forced); past that they are what the refusal names."""
    least = capped_binomial(2 * m, m)
    if least > (sys.maxsize if force else WORK_CAP):
        ensure_work(least, m, n, "one-color diagrams", force)  # raises
    count = count_diagrams(m, n)
    ensure_work(count, m, n, "diagrams", force)
    return count


@total_ordering
class Diagram:
    """An n-colored planar rook diagram on m top and m bottom vertices.

    Stored as its boundary words `top` and `bottom`, tuples of length m whose
    entry p is the color at vertex p+1 (0 if isolated); equality and the hash
    (computed once) read them, so diagrams are immutable by convention.
    `edges` is a view of the matching `_match` builds on first use: triples
    (top, bottom, color), 1-based, sorted by top vertex, read by repr, JSON
    and the order (by m, n, then edges).

    `Diagram(m, n, edges)` validates, in `__post_init__`: ints in range, m up
    to MAX_SIZE (a word entry per vertex), edges that round-trip through their
    words (no same-color crossing).  `Diagram._trusted(m, n, top, bottom)`
    checks nothing; callers pass length-m words over 0..n with equal counts.
    """

    __slots__ = ("m", "n", "top", "bottom", "_hash", "_view")

    def __init__(self, m: int, n: int, edges=()) -> None:
        self.m, self.n = m, n
        self.__post_init__(edges)

    def __post_init__(self, edges) -> None:
        m, n = json_int(self.m, "m"), json_int(self.n, "n")
        if not (0 <= m <= MAX_SIZE and n >= 1):
            raise ValueError(
                f"need 0 <= m <= {MAX_SIZE} and n >= 1, got m={brief(m)}, n={brief(n)}"
            )
        top, bottom, given = [0] * m, [0] * m, []
        for e in edges:
            if len(e) != 3:
                raise ValueError(f"edge {brief(e)} is not a (top, bottom, color) triple")
            t, b, c = e = tuple(json_int(x, "edge entry") for x in e)
            if not (1 <= t <= m and 1 <= b <= m and 1 <= c <= n):
                raise ValueError(f"edge {brief(e)} out of range for m={m}, n={brief(n)}")
            if top[t - 1] or bottom[b - 1]:
                raise ValueError(f"edge {brief(e)} meets a vertex of another edge")
            top[t - 1] = bottom[b - 1] = c
            given.append(e)
        self.top, self.bottom = tuple(top), tuple(bottom)
        self._hash = self._view = None
        if sorted(given) != list(self.edges):
            raise ValueError(f"same-color edges cross in {brief(tuple(sorted(given)))}")

    @classmethod
    def _trusted(cls, m: int, n: int, top: tuple, bottom: tuple) -> Diagram:
        d = object.__new__(cls)
        d.m, d.n, d.top, d.bottom = m, n, top, bottom
        d._hash = d._view = None
        return d

    def _matching(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        if self._view is None:
            self._view = _match(self.top, self.bottom)
        return self._view

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return self._matching()[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.top, self.bottom, self.n) == (other.top, other.bottom, other.n)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.top, self.bottom, self.n))
        return self._hash

    def __lt__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return (self.m, self.n, self.edges) < (other.m, other.n, other.edges)

    def __repr__(self) -> str:
        return f"Diagram(m={self.m!r}, n={self.n!r}, edges={self.edges!r})"

    def flip(self) -> Diagram:
        return flip(self)

    def __mul__(self, other):
        return multiply(self, other) if isinstance(other, Diagram) else NotImplemented

    def __matmul__(self, other):
        return juxtapose(self, other) if isinstance(other, Diagram) else NotImplemented

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> Diagram:
        try:
            m, n, edges = obj["m"], obj["n"], obj["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a diagram object: missing {exc}") from None
        return cls(m, n, edges)


@lru_cache(maxsize=1 << 12)
def _match(top: tuple, bottom: tuple):
    """(down, edges): down[t] is the 0-based bottom partner of top position t
    (-1 if it is isolated), and edges are the triples.  For each color the
    k-th colored top vertex meets the k-th colored bottom vertex: the only
    crossingless matching of two words with equal color counts, since
    same-color edges may not cross.  Memoized, as equal diagrams recur as
    new objects (e.g. 4,402 matchings of 186 word pairs in verify thm3.2)."""
    below: dict[int, list[int]] = {}
    for p in range(len(bottom) - 1, -1, -1):
        if bottom[p]:
            below.setdefault(bottom[p], []).append(p)
    down = tuple(below[c].pop() if c else -1 for c in top)
    return down, tuple((t + 1, down[t] + 1, c) for t, c in enumerate(top) if c)


def multiply(d1: Diagram, d2: Diagram) -> Diagram:
    """Stack d1 on top of d2: the product has an edge (t, b, c) exactly when
    d1 joins t to some middle vertex k with color c and d2 joins k to b with
    the same color.  This agrees with matrix multiplication over (Z_2)^n
    because u_i u_j = 0 for i != j and u_i u_i = u_i, and no sums of distinct
    units ever arise."""
    if (d1.m, d1.n) != (d2.m, d2.n):
        raise ValueError(f"cannot multiply ({d1.m},{d1.n}) by ({d2.m},{d2.n}) diagrams")
    return Diagram._trusted(d1.m, d1.n, *product_words(d1, d2))


def product_words(d1: Diagram, d2: Diagram) -> tuple[tuple, tuple]:
    """The (top, bottom) words of d1*d2 for diagrams of one size: a middle
    vertex k survives iff d1.bottom[k] == d2.top[k] != 0, and the product
    keeps d1's top and d2's bottom letters whose partners survive."""
    top, bottom = [0] * d1.m, [0] * d1.m
    middle, above, down = d1._matching()[0], d2.top, d2._matching()[0]
    for t, c in enumerate(d1.top):
        if c and above[middle[t]] == c:
            top[t] = bottom[down[middle[t]]] = c
    return tuple(top), tuple(bottom)


def flip(d: Diagram) -> Diagram:
    """Reflect across the horizontal axis (matrix transpose)."""
    return Diagram._trusted(d.m, d.n, d.bottom, d.top)


def juxtapose(d1: Diagram, d2: Diagram) -> Diagram:
    """Place d2 to the right of d1, shifting its vertex labels by d1.m."""
    if d1.n != d2.n:
        raise ValueError("cannot juxtapose diagrams with different color counts")
    return Diagram._trusted(d1.m + d2.m, d1.n, d1.top + d2.top, d1.bottom + d2.bottom)


def empty_diagram(m: int, n: int) -> Diagram:
    return Diagram(m, n, ())


def unit_diagram(n: int, i: int) -> Diagram:
    """Size-1 diagram: a single edge of color i, or edgeless for i = 0."""
    return partial_identity(n, (i,))


def partial_identity(n: int, word) -> Diagram:
    """The diagram joining each colored position of the word straight down
    to itself, built through the validating constructor."""
    edges = [(p, p, c) for p, c in enumerate(word, 1) if json_int(c, "color")]
    return Diagram(len(word), n, edges)


def covers(above: tuple, below: tuple) -> bool:
    """Containment on the colored positions only.

    True when every vertex colored i >= 1 in `below` carries the same color
    in `above`.  Isolated vertices of `below` are unconstrained, so this is
    not plain word equality or componentwise set containment at 0.
    """
    if len(above) != len(below):
        raise ValueError("words live on different vertex sets")
    return all(b == 0 or a == b for a, b in zip(above, below))


def weak_compositions(total: int, slots: int) -> list[tuple[int, ...]]:
    """All tuples of `slots` nonnegative integers summing to `total`, in lex
    order, which is the order of their bar positions among total+slots-1."""
    if slots == 0:
        return [()] if total == 0 else []
    ends = (-1,), (total + slots - 1,)
    return [
        tuple(b - a - 1 for a, b in zip(ends[0] + bars, bars + ends[1]))
        for bars in itertools.combinations(range(total + slots - 1), slots - 1)
    ]


def words_with_counts(counts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All words with counts[c] letters c, in lexicographic order: the
    next-permutation walk of the multiset from its sorted word."""
    word = [c for c, k in enumerate(counts) for _ in range(k)]
    out = [tuple(word)]
    while True:
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = max(j for j in range(i + 1, len(word)) if word[j] > word[i])
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[: i : -1]
        out.append(tuple(word))


def _word_pairs(m: int, n: int):
    """Each bottom word β of length m over 0..n, in lexicographic order, with
    the tuple of top words τ it pairs with: those with β's color counts."""
    letters = range(n + 1)
    tops = {counts: words_with_counts(counts) for counts in weak_compositions(m, n + 1)}
    for beta in itertools.product(letters, repeat=m):
        yield beta, tops[tuple(beta.count(c) for c in letters)]


def _enumerate(m: int, n: int) -> tuple[Diagram, ...]:
    """The diagram of every word pair _word_pairs walks, in its order."""
    trusted = Diagram._trusted
    return tuple(trusted(m, n, tau, beta) for beta, taus in _word_pairs(m, n) for tau in taus)


def enumerate_diagrams(m: int, n: int, force: bool = False) -> tuple[Diagram, ...]:
    """All diagrams of size m with n colors: every pair of words with equal
    color counts, ordered lexicographically by (bottom word, top word).
    count_enumerated counts the same pairs, under the same checks and cap,
    without building them."""
    m, n = json_int(m, "m", 0), json_int(n, "n", 1)
    ensure_diagrams(m, n, force)
    return _enumerate(m, n)


def count_enumerated(m: int, n: int, force: bool = False) -> int:
    """len(enumerate_diagrams(m, n, force)), summed over the same walk
    without building a diagram; it refuses exactly where that does."""
    m, n = json_int(m, "m", 0), json_int(n, "n", 1)
    ensure_diagrams(m, n, force)
    return sum(len(taus) for _, taus in _word_pairs(m, n))


def multinomial(counts) -> int:
    """sum(counts)! / (counts_0! ... counts_k!): the words with these letter counts."""
    ways, left = 1, sum(counts)
    for c in counts:
        ways *= comb(left, c)
        left -= c
    return ways


def partitions(total: int, max_parts: int) -> list[tuple[int, ...]]:
    """The partitions of total > 0 with at most max_parts parts, in reverse
    lexicographic order."""
    out = []

    def rec(remaining, most, acc):
        if remaining == 0 and acc:
            out.append(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for part in range(min(remaining, most), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


def count_diagrams(m: int, n: int) -> int:
    """Closed form: the sum over count vectors of the squared multinomial,
    taken per partition λ of the r colored letters, as colors are
    interchangeable: (n)_ℓ(λ) / Π_j mult_j(λ)! vectors share the squared
    multinomial C(m, r)² (r! / Π λ_i!)², so a huge n costs nothing."""
    total = 1  # r = 0: the empty diagram
    for r in range(1, m + 1):
        for lam in partitions(r, n):
            vectors = perm(n, len(lam)) // prod(factorial(lam.count(p)) for p in set(lam))
            total += vectors * (comb(m, r) * multinomial(lam)) ** 2
    return total
