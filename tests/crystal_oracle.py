"""Dict-based crystals: the keyed representation and algorithms that the
integer-column core in `planar_rook.crystals` replaced, kept as oracles.

A `DictCrystal` stores weights, eps and phi per node key and the raising and
lowering maps as {(key, i): key} dictionaries.  `as_dicts` reads a column
crystal into this form and `from_dicts` builds a column crystal from it, so
tests can compare the two implementations field by field and hand-build
broken crystals (edges that are not mutually inverse, say) for the checkers.
`column_components` cuts a column crystal into its components, and
`component_containing` cuts out the one that holds a node, with a
union-find over both edge families that the package itself no longer
needs: it finds components by lowering from each highest node.  Both cut
with `_restrict`, which also keeps `highest_component_by_cutting`, the
build-then-cut construction of a highest component that growing it from
its highest node replaced.  `check_axioms` walks every string node by
node, where the package checks whole columns.
`are_isomorphic` keeps the package's contract over dicts: one lowering
traversal per highest node, the same refusals of a crystal that is not
normal, in the same order and words, and the same matching of equal
certificates, with certificates built node by node rather than by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Optional

from planar_rook import class_crystals as cc
from planar_rook.crystals import Crystal, _lowered as column_lowered, tensor as column_tensor


@dataclass(frozen=True)
class DictCrystal:
    n: int
    nodes: tuple[str, ...]
    weights: Mapping[str, tuple]
    eps: Mapping[str, tuple]
    phi: Mapping[str, tuple]
    e_edges: Mapping[tuple[str, int], str]
    f_edges: Mapping[tuple[str, int], str]
    display: Optional[Mapping[str, str]] = None

    def weight(self, b):
        return self.weights[b]

    def e(self, b, i):
        return self.e_edges.get((b, i))

    def f(self, b, i):
        return self.f_edges.get((b, i))

    def __len__(self):
        return len(self.nodes)


def _edges(keys, columns) -> dict:
    return {
        (keys[b], i): keys[col[b]]
        for b in range(len(keys))
        for i, col in enumerate(columns, 1)
        if col[b] >= 0
    }


def as_dicts(c: Crystal) -> DictCrystal:
    """The keyed form of a column crystal, edges in node-then-direction order."""
    keys = c.nodes
    per_node = lambda cols: {k: tuple(col[b] for col in cols) for b, k in enumerate(keys)}
    return DictCrystal(
        c.n,
        keys,
        dict(zip(keys, c.wt)),
        per_node(c.eps),
        per_node(c.phi),
        _edges(keys, c.up),
        _edges(keys, c.down),
        None if c.labels is None else dict(zip(keys, c.labels)),
    )


def from_dicts(d: DictCrystal) -> Crystal:
    """A column crystal with exactly the given data, checked by nothing."""
    index = {k: b for b, k in enumerate(d.nodes)}

    def column(edges, i):
        col = [-1] * len(d.nodes)
        for (k, j), t in edges.items():
            if j == i:
                col[index[k]] = index[t]
        return col

    directions = range(1, d.n + 1)
    return Crystal(
        d.n,
        [d.weights[k] for k in d.nodes],
        [[d.eps[k][i - 1] for k in d.nodes] for i in directions],
        [[d.phi[k][i - 1] for k in d.nodes] for i in directions],
        [column(d.e_edges, i) for i in directions],
        [column(d.f_edges, i) for i in directions],
        d.nodes,
        None if d.display is None else [d.display.get(k, k) for k in d.nodes],
    )


def assert_same(ours: DictCrystal, theirs: DictCrystal) -> None:
    """Field by field, edges in order."""
    assert ours.n == theirs.n
    assert ours.nodes == theirs.nodes
    assert ours.weights == theirs.weights
    assert ours.eps == theirs.eps
    assert ours.phi == theirs.phi
    assert list(ours.e_edges.items()) == list(theirs.e_edges.items())
    assert list(ours.f_edges.items()) == list(theirs.f_edges.items())
    assert ours.display == theirs.display


def weight_pairing(wt, i: int) -> int:
    return wt[i - 1] - wt[i]


def string_lengths(nodes, edges, n: int) -> dict[str, tuple[int, ...]]:
    """Per node, the number of steps along edges[(b, i)] in each direction i;
    -1 for a string that runs into a cycle."""
    limit = len(nodes)
    out = {}
    for b in nodes:
        lengths = []
        for i in range(1, n + 1):
            steps, cur = 0, edges.get((b, i))
            while cur is not None and steps <= limit:
                steps += 1
                cur = edges.get((cur, i))
            lengths.append(steps if cur is None else -1)
        out[b] = tuple(lengths)
    return out


def check_axioms(crystal: DictCrystal) -> list[str]:
    bad: list[str] = []
    up_lengths = string_lengths(crystal.nodes, crystal.e_edges, crystal.n)
    down_lengths = string_lengths(crystal.nodes, crystal.f_edges, crystal.n)
    for b in crystal.nodes:
        wt = crystal.weight(b)
        if len(wt) != crystal.n + 1:
            bad.append(f"node {b}: weight {wt} has wrong length")
            continue
        for i in range(1, crystal.n + 1):
            eps = crystal.eps[b][i - 1]
            phi = crystal.phi[b][i - 1]
            pairing = weight_pairing(wt, i)
            if phi != eps + pairing:
                bad.append(
                    f"node {b}, direction {i}: phi={phi} != eps+pairing={eps + pairing}"
                )
            up = crystal.e(b, i)
            if up is not None:
                expected = list(wt)
                expected[i - 1] += 1
                expected[i] -= 1
                if crystal.weight(up) != tuple(expected):
                    bad.append(
                        f"raising {b} in direction {i}: weight {crystal.weight(up)}"
                        f" != {tuple(expected)}"
                    )
                if crystal.f(up, i) != b:
                    bad.append(f"raising {b} then lowering in direction {i} misses {b}")
            down = crystal.f(b, i)
            if down is not None:
                expected = list(wt)
                expected[i - 1] -= 1
                expected[i] += 1
                if crystal.weight(down) != tuple(expected):
                    bad.append(
                        f"lowering {b} in direction {i}: weight {crystal.weight(down)}"
                        f" != {tuple(expected)}"
                    )
                if crystal.e(down, i) != b:
                    bad.append(f"lowering {b} then raising in direction {i} misses {b}")
            up_len = up_lengths[b][i - 1]
            down_len = down_lengths[b][i - 1]
            if up_len != eps:
                bad.append(f"node {b}, direction {i}: raising string {up_len} != eps {eps}")
            if down_len != phi:
                bad.append(
                    f"node {b}, direction {i}: lowering string {down_len} != phi {phi}"
                )
    return bad


def tensor(left: DictCrystal, right: DictCrystal) -> DictCrystal:
    """The binary tensor rule, node by node on keys."""
    if left.n != right.n:
        raise ValueError("cannot tensor crystals with different color counts")
    n = left.n
    nodes, weights, eps, phi, e_edges, f_edges = [], {}, {}, {}, {}, {}

    def key(b1, b2):
        return f"{b1}⊗{b2}"

    for b1 in left.nodes:
        w1 = left.weight(b1)
        for b2 in right.nodes:
            k = key(b1, b2)
            nodes.append(k)
            w2 = right.weight(b2)
            weights[k] = tuple(a + b for a, b in zip(w1, w2))
            ev, pv = [], []
            for i in range(1, n + 1):
                e1, p1 = left.eps[b1][i - 1], left.phi[b1][i - 1]
                e2, p2 = right.eps[b2][i - 1], right.phi[b2][i - 1]
                ev.append(max(e1, e2 - weight_pairing(w1, i)))
                pv.append(max(p2, p1 + weight_pairing(w2, i)))
                if p1 >= e2:
                    up = left.e(b1, i)
                    if up is not None:
                        e_edges[(k, i)] = key(up, b2)
                else:
                    up = right.e(b2, i)
                    if up is not None:
                        e_edges[(k, i)] = key(b1, up)
                if p1 > e2:
                    down = left.f(b1, i)
                    if down is not None:
                        f_edges[(k, i)] = key(down, b2)
                else:
                    down = right.f(b2, i)
                    if down is not None:
                        f_edges[(k, i)] = key(b1, down)
            eps[k] = tuple(ev)
            phi[k] = tuple(pv)
    return DictCrystal(n, tuple(nodes), weights, eps, phi, e_edges, f_edges)


def tensor_all(crystals) -> DictCrystal:
    return reduce(tensor, crystals)


def tensor_columns(crystals) -> Crystal:
    """The left-associated tensor product of column crystals by the
    package's `crystals.tensor`."""
    crystals = list(crystals)
    if not crystals:
        raise ValueError("need at least one crystal")
    return reduce(column_tensor, crystals)


def signature_survivors(factors) -> tuple[list[int], list[int]]:
    """Factor indices owning the surviving minuses and pluses, in order, by a
    stack of open pluses."""
    minus_owner: list[int] = []
    plus_stack: list[int] = []
    for j, (num_minus, num_plus) in enumerate(factors):
        cancelled = min(num_minus, len(plus_stack))
        if cancelled:
            del plus_stack[-cancelled:]
        if num_minus > cancelled:
            minus_owner.extend([j] * (num_minus - cancelled))
        if num_plus:
            plus_stack.extend([j] * num_plus)
    return minus_owner, plus_stack


def components(crystal: DictCrystal) -> list[DictCrystal]:
    """Connected components under both edge families, in node order."""
    seen: dict[str, int] = {}
    neighbors: dict[str, list[str]] = {b: [] for b in crystal.nodes}
    for (b, _), target in list(crystal.e_edges.items()) + list(crystal.f_edges.items()):
        neighbors[b].append(target)
        neighbors[target].append(b)
    groups: list[list[str]] = []
    for start in crystal.nodes:
        if start in seen:
            groups[seen[start]].append(start)
            continue
        comp_id = len(groups)
        groups.append([start])
        stack = [start]
        seen[start] = comp_id
        while stack:
            for nxt in neighbors[stack.pop()]:
                if nxt not in seen:
                    seen[nxt] = comp_id
                    stack.append(nxt)
    display = crystal.display
    return [
        DictCrystal(
            crystal.n,
            tuple(nodes),
            {b: crystal.weights[b] for b in nodes},
            {b: crystal.eps[b] for b in nodes},
            {b: crystal.phi[b] for b in nodes},
            {k: v for k, v in crystal.e_edges.items() if seen[k[0]] == c},
            {k: v for k, v in crystal.f_edges.items() if seen[k[0]] == c},
            None if display is None else {b: display[b] for b in nodes if b in display},
        )
        for c, nodes in enumerate(groups)
    ]


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


def component_positions(crystal: Crystal) -> list[list[int]]:
    """Positions of each connected component of a column crystal under both
    edge families, in node order, components ordered by their first node.
    The union-find keeps the smaller position as the root, so root[b] <= b;
    a lowering edge that raising inverts was joined by the raising pass."""
    root = list(range(len(crystal)))
    for col, back in [(col, None) for col in crystal.up] + list(zip(crystal.down, crystal.up)):
        for b, t in enumerate(col):
            if t >= 0 and (back is None or back[t] != b):
                while root[b] != b:
                    root[b] = b = root[root[b]]
                while root[t] != t:
                    root[t] = t = root[root[t]]
                if b < t:
                    root[t] = b
                elif t < b:
                    root[b] = t
    groups: dict[int, list[int]] = {}
    for b, r in enumerate(root):
        root[b] = r = root[r]
        groups.setdefault(r, []).append(b)
    return list(groups.values())


def column_components(crystal: Crystal) -> list[Crystal]:
    """The column crystal's connected components under both edge families,
    in node order, cut out by `component_positions`."""
    return [_restrict(crystal, group) for group in component_positions(crystal)]


def component_containing(crystal: Crystal, node: str) -> Crystal:
    """The column crystal's connected component that holds the node, cut
    out by `component_positions`."""
    if node not in crystal.nodes:
        raise ValueError(f"node {node!r} not in the crystal")
    p = crystal.nodes.index(node)
    return next(_restrict(crystal, g) for g in component_positions(crystal) if p in g)


def highest_component_by_cutting(partition, n: int) -> Crystal:
    """The highest component as the package built it before it grew one
    from its highest node: each part's step builds the whole product of
    the component so far and the part's one-part crystal by
    `class_crystals._extend`, then cuts out, in position order, what
    lowering reaches from the straight-line node."""
    line = cc.straight_line_tuple(partition, n)
    comp = None
    for j in range(len(partition)):
        factor = cc._tensor_class_crystal(tuple(partition[j : j + 1]), n)
        grown = factor if comp is None else cc._extend(comp, factor)
        start = grown.nodes.index(cc.tuple_key(line[: j + 1]))
        comp = _restrict(grown, sorted(column_lowered(grown, start)))
    return comp


def highest_nodes(crystal: DictCrystal) -> list[str]:
    return [
        b
        for b in crystal.nodes
        if all(crystal.e(b, i) is None for i in range(1, crystal.n + 1))
    ]


def _lowered(crystal: DictCrystal, start: str) -> list[str]:
    """What lowering reaches from start: start, then each reached node's
    targets in directions 1..n, first come first listed."""
    order = [start]
    cursor = 0
    while cursor < len(order):
        b = order[cursor]
        cursor += 1
        for i in range(1, crystal.n + 1):
            target = crystal.f(b, i)
            if target is not None and target not in order:
                order.append(target)
    return order


def _traversals(crystal: DictCrystal) -> list[tuple[tuple, list[str]]]:
    """(certificate, order) per highest node in node order, order being what
    lowering reaches from it.  Refuses, in this order, the first node that
    a later traversal meets again, the first node that no traversal meets,
    and the first raising edge (by direction, then node) whose ends lie in
    different traversals."""
    owner: dict[str, str] = {}
    found = []
    for top in highest_nodes(crystal):
        order = _lowered(crystal, top)
        for b in order:
            if b in owner:
                raise ValueError(
                    f"lowering reaches {b} from the highest nodes {owner[b]} and {top}; "
                    "not a normal crystal component"
                )
            owner[b] = top
        position = {b: j for j, b in enumerate(order)}
        cert = tuple(
            (
                crystal.weight(b),
                tuple(crystal.eps[b]),
                tuple(crystal.phi[b]),
                tuple(
                    position[crystal.f(b, i)] if crystal.f(b, i) is not None else -1
                    for i in range(1, crystal.n + 1)
                ),
                # a raising target outside order is refused below
                tuple(position.get(crystal.e(b, i), -1) for i in range(1, crystal.n + 1)),
            )
            for b in order
        )
        found.append((cert, order))
    for b in crystal.nodes:
        if b not in owner:
            raise ValueError(
                f"lowering reaches {b} from no highest node; not a normal crystal component"
            )
    for i in range(1, crystal.n + 1):
        for b in crystal.nodes:
            up = crystal.e(b, i)
            if up is not None and owner[up] != owner[b]:
                raise ValueError(
                    f"raising {b} in direction {i} leaves what lowering reaches from "
                    f"{owner[b]}; not a normal crystal component"
                )
    return found


def morphism_violations(source: DictCrystal, target: DictCrystal, mapping) -> list[str]:
    """Defects of a node map as a strict isomorphism, in the mapping's order."""
    bad = []
    if source.n != target.n:
        return [f"different color counts: {source.n} vs {target.n}"]
    if len(mapping) != len(source.nodes) or set(mapping) != set(source.nodes):
        return ["mapping does not cover the source nodes exactly"]
    if sorted(mapping.values()) != sorted(target.nodes):
        return ["mapping is not a bijection onto the target nodes"]
    for b, image in mapping.items():
        if source.weight(b) != target.weight(image):
            bad.append(f"weight mismatch at {b} -> {image}")
        if tuple(source.eps[b]) != tuple(target.eps[image]):
            bad.append(f"eps mismatch at {b} -> {image}")
        if tuple(source.phi[b]) != tuple(target.phi[image]):
            bad.append(f"phi mismatch at {b} -> {image}")
        for i in range(1, source.n + 1):
            for ours, theirs, name in (
                (source.e(b, i), target.e(image, i), "raising"),
                (source.f(b, i), target.f(image, i), "lowering"),
            ):
                expected = mapping.get(ours) if ours is not None else None
                if expected != theirs:
                    bad.append(f"{name} mismatch at {b} -> {image}, direction {i}")
    return bad


def are_isomorphic(left: DictCrystal, right: DictCrystal):
    if left.n != right.n:
        raise ValueError("crystals have different color counts")
    found_left, found_right = _traversals(left), _traversals(right)
    if len(found_left) != len(found_right):
        return False, None
    # equal certificates are matched in the order of their components' first nodes
    tagged_left = sorted(found_left, key=lambda t: (t[0], min(map(left.nodes.index, t[1]))))
    tagged_right = sorted(found_right, key=lambda t: (t[0], min(map(right.nodes.index, t[1]))))
    mapping: dict[str, str] = {}
    for (cert_l, order_l), (cert_r, order_r) in zip(tagged_left, tagged_right):
        if cert_l != cert_r:
            return False, None
        mapping.update(zip(order_l, order_r))
    defects = morphism_violations(left, right, mapping)
    if defects:
        raise AssertionError(f"certificate matching produced a defective witness: {defects[:3]}")
    return True, mapping
