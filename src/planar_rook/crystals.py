"""Finite crystals for the general linear Lie algebra on n+1 letters.

A crystal is stored as integer columns over node positions.  Node b is a
position 0..N-1 with weight wt[b] in Z^(n+1); for each direction i in 1..n
the columns eps[i-1] and phi[i-1] hold the statistics eps_i and phi_i, and
up[i-1] and down[i-1] hold the positions that raising and lowering send b
to, with -1 where the operator sends b to zero.  The node key strings sit
beside the columns and are read only by export and by the node maps handed
back to callers.  Every crystal built here is seminormal, so eps_i and phi_i
are the lengths of the raising and lowering i-strings through the node,
never minus infinity.  The axioms
(weight/statistics compatibility, weight shifts along edges, raising and
lowering being mutually inverse, and the statistics measuring the string
lengths) are checked by `check_axioms`, which returns violations as data
instead of raising, so verification reports can show counterexamples.

Tensor products follow the convention in which the lowering operator acts on
the left factor when its phi exceeds the right factor's eps, and the signature
rule is the flattened bracket-cancellation equivalent of iterating that binary
rule.
"""

from __future__ import annotations

import sys
from functools import reduce
from itertools import chain, compress
from operator import add
from typing import Optional

from .diagrams import EnumerationCapError, min_digits

# Builders spend tens of microseconds per node, so a closed-form node count
# is checked before anything is allocated.
CRYSTAL_NODE_CAP = 50_000


def ensure_nodes_within_cap(nodes: int, force: bool = False) -> None:
    """Refuse a closed-form node count over the cap unless forced, and one
    past sys.maxsize, which no list can index, even when forced."""
    if not force and nodes > CRYSTAL_NODE_CAP:
        raise EnumerationCapError(
            f"the crystal would have {_nodes(nodes)}, over the cap "
            f"{CRYSTAL_NODE_CAP}; pass force=True to override"
        )
    if nodes > sys.maxsize:
        # no ";": force does not lift this bound, so there is no override to name
        raise EnumerationCapError(f"the crystal would have {_nodes(nodes)}, too large to index")


def _nodes(count: int) -> str:
    """count nodes, worded by its digits past 256 bits: a closed-form count
    can be astronomical, and str() fails past sys.get_int_max_str_digits()."""
    if count.bit_length() > 256:
        return f"a number of nodes with at least {min_digits(count)} digits"
    return f"{count} nodes"


def capped_binomial(total: int, k: int) -> int:
    """comb(total, k), 0 <= k <= total, built as the running binomial
    comb(total - k + j, j) and cut short once that passes 2**256: exact
    below it, a lower bound past it, in a few hundred steps either way."""
    k, out = min(k, total - k), 1
    for j in range(1, k + 1):
        if out.bit_length() > 256:
            break
        out = out * (total - k + j) // j
    return out

Weight = tuple[int, ...]


class Crystal:
    """An explicit finite crystal on the node positions 0..len-1.

    wt[b] is the weight of node b; eps[i-1][b] and phi[i-1][b] are its
    statistics in direction i; up[i-1][b] and down[i-1][b] are the positions
    of its raising and lowering targets, or -1 when the operator kills it.
    The columns are lists that nobody mutates once the crystal is built.
    nodes[b] is the node's key and labels[b], when labels are given, its
    DOT label.  Crystals are equal when their columns, keys and labels are,
    and they are unhashable.
    """

    __slots__ = ("n", "wt", "eps", "phi", "up", "down", "nodes", "labels")
    __hash__ = None

    def __init__(self, n: int, wt, eps, phi, up, down, nodes, labels=None) -> None:
        self.n, self.wt, self.eps, self.phi, self.up, self.down = n, wt, eps, phi, up, down
        self.nodes = tuple(nodes)
        self.labels = None if labels is None else tuple(labels)

    def _fields(self) -> tuple:
        return self.n, self.wt, self.eps, self.phi, self.up, self.down, self.nodes, self.labels

    def __eq__(self, other) -> bool:
        if type(other) is not Crystal:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"Crystal(n={self.n!r}, wt={self.wt!r}, eps={self.eps!r}, phi={self.phi!r}, "
            f"up={self.up!r}, down={self.down!r}, nodes={self.nodes!r}, labels={self.labels!r})"
        )

    # outside the tests only perfbench/tracer.py reads this (crystals.edges)
    @property
    def f_edges(self) -> dict[tuple[str, int], str]:
        """The lowering edges keyed as {(key, i): target key}."""
        keys = self.nodes
        return {
            (keys[b], i): keys[t]
            for i, col in enumerate(self.down, 1)
            for b, t in enumerate(col)
            if t >= 0
        }

    def __len__(self) -> int:
        return len(self.wt)


def weight_pairing(wt: Weight, i: int) -> int:
    """The i-th simple coroot applied to a weight: wt_i - wt_{i+1}."""
    return wt[i - 1] - wt[i]


def _string_lengths(col: list[int]) -> list[int]:
    """Steps along col from each position until -1; a string that runs into
    a cycle, which no crystal has, gets length -1."""
    limit = len(col)
    out = []
    for cur in col:
        steps = 0
        while cur >= 0 and steps <= limit:
            steps += 1
            cur = col[cur]
        out.append(steps if cur < 0 else -1)
    return out


def check_axioms(crystal: Crystal) -> list[str]:
    """All axiom violations, as human-readable strings.  Empty means valid.

    Checked for every node and direction: phi = eps + pairing of the weight
    with the coroot; raising adds the simple root to the weight and lowering
    subtracts it; raising and lowering are mutually inverse; eps and phi
    equal the lengths of the raising and lowering strings (a string that
    runs into a cycle counts as -1).  Keys are read only to word a violation.
    """
    n, wt = crystal.n, crystal.wt
    moves = [
        (("raising", "lowering", 1, up, down), ("lowering", "raising", -1, down, up))
        for up, down in zip(crystal.up, crystal.down)
    ]
    lengths = [list(map(_string_lengths, cols)) for cols in zip(crystal.up, crystal.down)]
    bad: list[str] = []
    key = crystal.nodes.__getitem__
    for p, w in enumerate(wt):
        if len(w) != n + 1:
            bad.append(f"node {key(p)}: weight {w} has wrong length")
            continue
        for d in range(n):
            i, eps, phi = d + 1, crystal.eps[d][p], crystal.phi[d][p]
            pairing = weight_pairing(w, i)
            if phi != eps + pairing:
                bad.append(
                    f"node {key(p)}, direction {i}: phi={phi} != eps+pairing={eps + pairing}"
                )
            for name, other, step, there, back in moves[d]:
                t = there[p]
                if t >= 0:
                    moved = list(w)
                    moved[d] += step
                    moved[i] -= step
                    if wt[t] != tuple(moved):
                        bad.append(
                            f"{name} {key(p)} in direction {i}: weight {wt[t]} != {tuple(moved)}"
                        )
                    if back[t] != p:
                        bad.append(f"{name} {key(p)} then {other} in direction {i} misses {key(p)}")
            up_len, down_len = lengths[d][0][p], lengths[d][1][p]
            if up_len != eps:
                bad.append(f"node {key(p)}, direction {i}: raising string {up_len} != eps {eps}")
            if down_len != phi:
                bad.append(f"node {key(p)}, direction {i}: lowering string {down_len} != phi {phi}")
    return bad


def tensor(left: Crystal, right: Crystal) -> Crystal:
    """Tensor product of crystals, left factor first.

    Raising acts on the left factor when phi(left) >= eps(right), otherwise on
    the right; lowering acts on the left when phi(left) > eps(right) (strict),
    otherwise on the right.  Weights add; eps and phi combine by the standard
    max formulas.  The pair (a, b) sits at position a * len(right) + b, with
    key a⊗b.  The product's node count is checked against the cap before
    anything is built.  Each column is built whole: an edge column by one
    comprehension over the pairs, an eps, phi or weight row once per
    distinct value of the left node that it reads, then chained.  `verify`
    holds the signature rule against this binary rule, so it never calls
    `signature`.
    """
    if left.n != right.n:
        raise ValueError("cannot tensor crystals with different color counts")
    ensure_nodes_within_cap(len(left) * len(right))
    size = len(right)
    bases = range(0, len(left) * size, size)
    eps, phi, up, down = [], [], [], []
    for d in range(left.n):
        e1s, p1s, e2s = left.eps[d], left.phi[d], right.eps[d]
        pair1s, pair2 = ([w[d] - w[d + 1] for w in c.wt] for c in (left, right))
        # (position, eps, target) of the right nodes, zipped once for every left node
        ups, downs = (list(zip(range(size), e2s, col)) for col in (right.up[d], right.down[d]))
        e_rows = {
            (e1, pair1): [e1 if e1 >= e2 - pair1 else e2 - pair1 for e2 in e2s]
            for e1, pair1 in set(zip(e1s, pair1s))
        }
        p_rows = {
            p1: [p2 if p2 >= p1 + q2 else p1 + q2 for p2, q2 in zip(right.phi[d], pair2)]
            for p1 in set(p1s)
        }
        eps.append(list(chain.from_iterable(map(e_rows.__getitem__, zip(e1s, pair1s)))))
        phi.append(list(chain.from_iterable(map(p_rows.__getitem__, p1s))))
        lus, lds = ([t * size if t >= 0 else -1 for t in col] for col in (left.up[d], left.down[d]))
        up.append(
            [
                (lu + b if lu >= 0 else -1) if p1 >= e2 else (base + u2 if u2 >= 0 else -1)
                for base, p1, lu in zip(bases, p1s, lus)
                for b, e2, u2 in ups
            ]
        )
        down.append(
            [
                (ld + b if ld >= 0 else -1) if p1 > e2 else (base + d2 if d2 >= 0 else -1)
                for base, p1, ld in zip(bases, p1s, lds)
                for b, e2, d2 in downs
            ]
        )
    sums = {w1: [tuple(map(add, w1, w2)) for w2 in right.wt] for w1 in set(left.wt)}
    wt = list(chain.from_iterable(map(sums.__getitem__, left.wt)))
    keys = [f"{b1}⊗{b2}" for b1 in left.nodes for b2 in right.nodes]
    return Crystal(left.n, wt, eps, phi, up, down, keys)


def tensor_all(crystals) -> Crystal:
    """Left-associated iterated tensor product."""
    crystals = list(crystals)
    if not crystals:
        raise ValueError("need at least one crystal")
    return reduce(tensor, crystals)


def signature(factors) -> tuple[int, int, int, int]:
    """(raising factor, lowering factor, eps, phi) by the signature rule.

    factors lists (eps, phi) of each tensor factor in one direction, left to
    right.  Write eps minuses then phi pluses for each factor and cancel
    every (+, -) pair with the + on the left.  Raising acts on the factor
    owning the rightmost surviving -, lowering on the factor owning the
    leftmost surviving + (-1 when no such sign survives); eps and phi are
    the numbers of surviving minuses and pluses.  Only counts are kept: a
    minus cancels the nearest open plus, so the leftmost open plus survives
    until every open plus has been cancelled.
    """
    rise = fall = -1
    minus = plus = 0
    for j, (m, p) in enumerate(factors):
        if m > plus:
            minus += m - plus
            rise = j
            plus = 0
        else:
            plus -= m
        if p:
            if not plus:
                fall = j
            plus += p
    return rise, fall if plus else -1, minus, plus


def _restrict(crystal: Crystal, members: list[int]) -> Crystal:
    """The sub-crystal on the given positions, renumbered in their order."""
    new = [-1] * len(crystal)
    for q, p in enumerate(members):
        new[p] = q

    def pick(col):
        return [col[p] for p in members]

    def moved(col):
        return [-1 if t < 0 else new[t] for t in pick(col)]

    labels = None if crystal.labels is None else pick(crystal.labels)
    return Crystal(
        crystal.n, pick(crystal.wt), list(map(pick, crystal.eps)), list(map(pick, crystal.phi)),
        list(map(moved, crystal.up)), list(map(moved, crystal.down)),
        pick(crystal.nodes), labels,
    )


def _lowered(crystal: Crystal, start: int) -> list[int]:
    """What lowering reaches from start, breadth first, directions in order."""
    order, seen = [start], {start}
    for b in order:
        for col in crystal.down:
            t = col[b]
            if t >= 0 and t not in seen:
                seen.add(t)
                order.append(t)
    return order


def _traversals(crystal: Crystal) -> list[tuple]:
    """(certificate, first position, order) for each highest node in
    position order, order being `_lowered` from the node.  The certificate
    lists the weights, the eps, phi and lowering columns (targets as
    indices into order) along order: equal certificates mean isomorphic
    components, and matching the orders gives the isomorphism.

    Raises ValueError unless each component has one highest node and is
    generated by lowering from it, checked in this order: a node that a
    later traversal meets again, a node that none meets, and a raising
    edge (by direction, then position) that leaves its traversal.
    """
    size, keys = len(crystal), crystal.nodes
    high = [True] * size
    for col in crystal.up:
        high = [h and t < 0 for h, t in zip(high, col)]
    owner = [-1] * size
    # rank[p] is p's index in its order; rank[-1] stays -1 for a killed edge
    rank = [-1] * (size + 1)
    found = []
    for h in compress(range(size), high):
        order = _lowered(crystal, h)
        for j, p in enumerate(order):
            if owner[p] >= 0:
                raise ValueError(
                    f"lowering reaches {keys[p]} from the highest nodes "
                    f"{keys[owner[p]]} and {keys[h]}; not a normal crystal component"
                )
            owner[p], rank[p] = h, j
        targets = (map(col.__getitem__, order) for col in crystal.down)
        cert = (
            tuple(map(crystal.wt.__getitem__, order)),
            tuple(tuple(map(col.__getitem__, order)) for col in crystal.eps + crystal.phi),
            tuple(tuple(map(rank.__getitem__, ts)) for ts in targets),
        )
        found.append((cert, min(order), order))
    if -1 in owner:
        fault = f"lowering reaches {keys[owner.index(-1)]} from no highest node"
        raise ValueError(f"{fault}; not a normal crystal component")
    for i, col in enumerate(crystal.up, 1):
        for b, (t, h) in enumerate(zip(col, owner)):
            if t >= 0 and owner[t] != h:
                raise ValueError(
                    f"raising {keys[b]} in direction {i} leaves what lowering "
                    f"reaches from {keys[h]}; not a normal crystal component"
                )
    return found


def _image_violations(source: Crystal, target: Crystal, image: list[int]) -> list[str]:
    """Defects of the bijection sending position b to image[b] as a strict
    isomorphism, node by node in source order; keys are read only to word a
    defect.  Whole columns are compared, source columns (edges pushed
    through image) against target columns pulled back through it, and
    only the positions where one differs are worded."""
    tags = [("weight", "")] + [("eps", "")] * source.n + [("phi", "")] * source.n
    ours = [list(col) for col in [source.wt, *source.eps, *source.phi]]
    theirs = [target.wt, *target.eps, *target.phi]
    for i, cols in enumerate(zip(source.up, source.down, target.up, target.down), 1):
        tags += [("raising", f", direction {i}"), ("lowering", f", direction {i}")]
        ours += [[-1 if s < 0 else image[s] for s in col] for col in cols[:2]]
        theirs += cols[2:]
    found: dict[int, dict] = {}
    for tag, mine, col in zip(tags, ours, theirs):
        pulled = [col[t] for t in image]
        if mine != pulled:
            for b, (x, y) in enumerate(zip(mine, pulled)):
                if x != y:
                    found.setdefault(b, {})[tag] = None
    bad = []
    for b in sorted(found):
        at = f"{source.nodes[b]} -> {target.nodes[image[b]]}"
        bad += [f"{name} mismatch at {at}{where}" for name, where in found[b]]
    return bad


def morphism_violations(source: Crystal, target: Crystal, mapping) -> list[str]:
    """Defects of a node map (keys to keys) as a strict isomorphism of
    crystals, in source node order.

    Checks bijectivity, preservation of weight/eps/phi and both edge
    families.  Empty list means the map is an isomorphism.
    """
    if source.n != target.n:
        return [f"different color counts: {source.n} vs {target.n}"]
    if len(mapping) != len(source) or set(mapping) != set(source.nodes):
        return ["mapping does not cover the source nodes exactly"]
    if sorted(mapping.values()) != sorted(target.nodes):
        return ["mapping is not a bijection onto the target nodes"]
    index = {k: p for p, k in enumerate(target.nodes)}
    image = [index[mapping[b]] for b in source.nodes]
    return _image_violations(source, target, image)


def isomorphism_positions(left: Crystal, right: Crystal) -> Optional[list[int]]:
    """image[b], the position of right that left's position b goes to under
    an isomorphism, or None when the crystals are not isomorphic.

    Each crystal, left first, is cut into one lowering traversal per
    highest node by `_traversals`, which raises ValueError on a crystal
    that is not normal.  The traversals are sorted by certificate, equal
    ones by first position, and matched in that order: None when their
    numbers or the sorted certificates differ.  The witness is verified
    edge by edge before it is returned.
    """
    if left.n != right.n:
        raise ValueError("crystals have different color counts")
    found_left, found_right = _traversals(left), _traversals(right)
    if len(found_left) != len(found_right):
        return None
    image = [-1] * len(left)
    for (cert_l, _, order_l), (cert_r, _, order_r) in zip(sorted(found_left), sorted(found_right)):
        if cert_l != cert_r:
            return None
        for p, q in zip(order_l, order_r):
            image[p] = q
    defects = _image_violations(left, right, image)
    if defects:
        raise AssertionError(f"certificate matching produced a defective witness: {defects[:3]}")
    return image


def are_isomorphic(left: Crystal, right: Crystal):
    """(True, node map) when the crystals are isomorphic, else (False, None);
    `isomorphism_positions` with the witness handed back as a map of keys."""
    image = isomorphism_positions(left, right)
    if image is None:
        return False, None
    return True, dict(zip(left.nodes, map(right.nodes.__getitem__, image)))


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(crystal: Crystal) -> str:
    """Graphviz source with one arc per lowering edge, colored by direction."""
    lines = ["digraph crystal {", "  rankdir=TB;", "  node [shape=box];"]
    keys = [_dot_escape(k) for k in crystal.nodes]
    labels = crystal.labels or crystal.nodes
    for k, label, w in zip(keys, labels, crystal.wt):
        wt = ", ".join(str(x) for x in w)
        lines.append(f'  "{k}" [label="{_dot_escape(label)}\\nwt=({wt})"];')
    for b, k in enumerate(keys):
        for i, col in enumerate(crystal.down, 1):
            if col[b] >= 0:
                lines.append(
                    f'  "{k}" -> "{keys[col[b]]}" '
                    f'[label="{i}", colorscheme=set19, color={(i - 1) % 9 + 1}];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(crystal: Crystal) -> dict:
    """Serializable form: nodes with statistics, lowering edges by direction."""
    keys = crystal.nodes
    return {
        "n": crystal.n,
        "nodes": [
            {
                "key": k,
                "wt": list(w),
                "eps": [col[b] for col in crystal.eps],
                "phi": [col[b] for col in crystal.phi],
            }
            for b, (k, w) in enumerate(zip(keys, crystal.wt))
        ],
        "edges": [
            {"from": k, "to": keys[col[b]], "i": i}
            for b, k in enumerate(keys)
            for i, col in enumerate(crystal.down, 1)
            if col[b] >= 0
        ],
    }
