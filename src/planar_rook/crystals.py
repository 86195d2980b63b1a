"""Finite crystals for the general linear Lie algebra on n+1 letters.

A crystal is stored explicitly: a list of node keys, a weight vector in Z^(n+1)
per node, the statistics eps_i and phi_i for the raising and lowering
directions i in 1..n, and partial raising/lowering maps as edge dictionaries.
Every crystal built here is seminormal, so eps_i and phi_i are the lengths of
the raising and lowering i-strings through the node, never minus infinity.
The axioms (weight/statistics compatibility, weight shifts along edges,
raising and lowering being mutually inverse, and the statistics measuring the
string lengths) are checked by `check_axioms`, which returns violations as
data instead of raising, so verification reports can show counterexamples.

Tensor products follow the convention in which the lowering operator acts on
the left factor when its phi exceeds the right factor's eps, and the signature
rule is the flattened bracket-cancellation equivalent of iterating that binary
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping, Optional

from .diagrams import EnumerationCapError

# Builders spend tens of microseconds per node, so a closed-form node count
# is checked before anything is allocated.
CRYSTAL_NODE_CAP = 50_000


def ensure_nodes_within_cap(nodes: int, force: bool = False) -> None:
    if not force and nodes > CRYSTAL_NODE_CAP:
        raise EnumerationCapError(
            f"the crystal would have {nodes} nodes, over the cap "
            f"{CRYSTAL_NODE_CAP}; pass force=True to override"
        )

Weight = tuple[int, ...]


@dataclass(frozen=True)
class Crystal:
    """An explicit finite crystal.

    nodes fixes the canonical ordering used by serialization and traversals.
    e_edges[(b, i)] is the raising target, f_edges[(b, i)] the lowering
    target; absent keys mean the operator sends the node to zero.  display
    optionally overrides node labels in DOT output.
    """

    n: int
    nodes: tuple[str, ...]
    weights: Mapping[str, Weight]
    eps: Mapping[str, tuple]
    phi: Mapping[str, tuple]
    e_edges: Mapping[tuple[str, int], str]
    f_edges: Mapping[tuple[str, int], str]
    display: Optional[Mapping[str, str]] = None

    def weight(self, b: str) -> Weight:
        return self.weights[b]

    def eps_i(self, b: str, i: int):
        return self.eps[b][i - 1]

    def phi_i(self, b: str, i: int):
        return self.phi[b][i - 1]

    def e(self, b: str, i: int) -> Optional[str]:
        return self.e_edges.get((b, i))

    def f(self, b: str, i: int) -> Optional[str]:
        return self.f_edges.get((b, i))

    def __len__(self) -> int:
        return len(self.nodes)


def weight_pairing(wt: Weight, i: int) -> int:
    """The i-th simple coroot applied to a weight: wt_i - wt_{i+1}."""
    return wt[i - 1] - wt[i]


def add_weights(w1: Weight, w2: Weight) -> Weight:
    return tuple(a + b for a, b in zip(w1, w2))


def make_crystal(n, nodes, weights, eps, phi, f_edges, display=None) -> Crystal:
    """Assemble a crystal, deriving the raising edges from the lowering ones."""
    e_edges: dict[tuple[str, int], str] = {}
    for (b, i), target in f_edges.items():
        key = (target, i)
        if key in e_edges:
            raise ValueError(f"lowering in direction {i} is not injective at {target}")
        e_edges[key] = b
    return Crystal(n, tuple(nodes), dict(weights), dict(eps), dict(phi), e_edges, dict(f_edges), display)


def string_lengths(nodes, edges, n: int) -> dict[str, tuple[int, ...]]:
    """Per node, the number of steps along edges[(b, i)] in each direction i.

    A string that runs into a cycle, which no crystal has, gets length -1.
    """
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


def check_axioms(crystal: Crystal) -> list[str]:
    """All axiom violations, as human-readable strings.  Empty means valid.

    Checked for every node and direction: phi = eps + pairing of the weight
    with the coroot; raising adds the simple root to the weight and lowering
    subtracts it; raising and lowering are mutually inverse; eps and phi
    equal the lengths of the raising and lowering strings (a string that
    runs into a cycle counts as -1).
    """
    bad: list[str] = []
    up_lengths = string_lengths(crystal.nodes, crystal.e_edges, crystal.n)
    down_lengths = string_lengths(crystal.nodes, crystal.f_edges, crystal.n)
    for b in crystal.nodes:
        wt = crystal.weight(b)
        if len(wt) != crystal.n + 1:
            bad.append(f"node {b}: weight {wt} has wrong length")
            continue
        for i in range(1, crystal.n + 1):
            eps = crystal.eps_i(b, i)
            phi = crystal.phi_i(b, i)
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
                    bad.append(
                        f"raising {b} then lowering in direction {i} misses {b}"
                    )
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
                    bad.append(
                        f"lowering {b} then raising in direction {i} misses {b}"
                    )
            up_len = up_lengths[b][i - 1]
            down_len = down_lengths[b][i - 1]
            if up_len != eps:
                bad.append(
                    f"node {b}, direction {i}: raising string {up_len} != eps {eps}"
                )
            if down_len != phi:
                bad.append(
                    f"node {b}, direction {i}: lowering string {down_len} != phi {phi}"
                )
    return bad


def tensor(left: Crystal, right: Crystal) -> Crystal:
    """Tensor product of crystals, left factor first.

    Raising acts on the left factor when phi(left) >= eps(right), otherwise on
    the right; lowering acts on the left when phi(left) > eps(right) (strict),
    otherwise on the right.  Weights add; eps and phi combine by the standard
    max formulas.  The product's node count is checked against the cap
    before anything is built.
    """
    if left.n != right.n:
        raise ValueError("cannot tensor crystals with different color counts")
    ensure_nodes_within_cap(len(left) * len(right))
    n = left.n
    nodes = []
    weights = {}
    eps: dict[str, tuple] = {}
    phi: dict[str, tuple] = {}
    e_edges: dict[tuple[str, int], str] = {}
    f_edges: dict[tuple[str, int], str] = {}

    def key(b1, b2):
        return f"{b1}⊗{b2}"

    for b1 in left.nodes:
        w1 = left.weight(b1)
        for b2 in right.nodes:
            k = key(b1, b2)
            nodes.append(k)
            w2 = right.weight(b2)
            weights[k] = add_weights(w1, w2)
            ev, pv = [], []
            for i in range(1, n + 1):
                e1, p1 = left.eps_i(b1, i), left.phi_i(b1, i)
                e2, p2 = right.eps_i(b2, i), right.phi_i(b2, i)
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
    return Crystal(n, tuple(nodes), weights, eps, phi, e_edges, f_edges)


def tensor_all(crystals) -> Crystal:
    """Left-associated iterated tensor product."""
    crystals = list(crystals)
    if not crystals:
        raise ValueError("need at least one crystal")
    return reduce(tensor, crystals)


def signature_apply(kind: str, factors) -> Optional[int]:
    """Which factor an operator acts on, by the signature rule.

    factors lists (eps, phi) of each tensor factor in one direction, left to
    right.  Write eps minuses then phi pluses for each factor and cancel
    every (+, -) pair with the + on the left; raising acts on the factor
    owning the rightmost surviving -, lowering on the factor owning the
    leftmost surviving +.  Returns the factor index, or None when no sign
    survives.
    """
    minus_owner, plus_owner = signature_survivors(factors)
    if kind == "e":
        return minus_owner[-1] if minus_owner else None
    if kind == "f":
        return plus_owner[0] if plus_owner else None
    raise ValueError(f"kind must be 'e' or 'f', got {kind!r}")


def signature_survivors(factors) -> tuple[list[int], list[int]]:
    """Factor indices owning the surviving minuses and pluses, in order."""
    minus_owner: list[int] = []
    plus_stack: list[int] = []
    for j, (num_minus, num_plus) in enumerate(factors):
        # each minus cancels the nearest open plus to its left
        cancelled = min(num_minus, len(plus_stack))
        if cancelled:
            del plus_stack[-cancelled:]
        if num_minus > cancelled:
            minus_owner.extend([j] * (num_minus - cancelled))
        if num_plus:
            plus_stack.extend([j] * num_plus)
    return minus_owner, plus_stack


def components(crystal: Crystal) -> list[Crystal]:
    """Connected components (under both edge directions), in node order."""
    seen: dict[str, int] = {}
    neighbors: dict[str, list[str]] = {b: [] for b in crystal.nodes}
    for (b, _), target in list(crystal.e_edges.items()) + list(
        crystal.f_edges.items()
    ):
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
            cur = stack.pop()
            for nxt in neighbors[cur]:
                if nxt not in seen:
                    seen[nxt] = comp_id
                    stack.append(nxt)
    # each edge goes to its source's component: one pass per edge dict,
    # which keeps the dict's order within every component
    e_parts: list[dict] = [{} for _ in groups]
    f_parts: list[dict] = [{} for _ in groups]
    for edges, parts in ((crystal.e_edges, e_parts), (crystal.f_edges, f_parts)):
        for k, v in edges.items():
            parts[seen[k[0]]][k] = v
    display = crystal.display
    return [
        Crystal(
            crystal.n,
            tuple(nodes),
            {b: crystal.weights[b] for b in nodes},
            {b: crystal.eps[b] for b in nodes},
            {b: crystal.phi[b] for b in nodes},
            e_part,
            f_part,
            None if display is None else {b: display[b] for b in nodes if b in display},
        )
        for nodes, e_part, f_part in zip(groups, e_parts, f_parts)
    ]


def highest_nodes(crystal: Crystal) -> list[str]:
    """Nodes killed by every raising operator."""
    return [
        b
        for b in crystal.nodes
        if all(crystal.e(b, i) is None for i in range(1, crystal.n + 1))
    ]


def component_containing(crystal: Crystal, node: str) -> Crystal:
    for comp in components(crystal):
        if node in comp.weights:
            return comp
    raise ValueError(f"node {node!r} not in the crystal")


def _traversal(comp: Crystal):
    """Canonical traversal of one component from its unique highest node.

    Returns (certificate, ordered nodes).  The certificate is a nested tuple
    of integers; equal certificates mean the components are isomorphic, and
    matching the traversals node by node gives the isomorphism.
    """
    highs = highest_nodes(comp)
    if len(highs) != 1:
        raise ValueError(
            f"component with {len(highs)} highest nodes is not a normal "
            "crystal component; no certificate"
        )
    order = [highs[0]]
    position = {highs[0]: 0}
    cursor = 0
    while cursor < len(order):
        b = order[cursor]
        cursor += 1
        for i in range(1, comp.n + 1):
            target = comp.f(b, i)
            if target is not None and target not in position:
                position[target] = len(order)
                order.append(target)
    if len(order) != len(comp.nodes):
        raise ValueError(
            "component is not generated by lowering from its highest node; "
            "not a normal crystal component"
        )
    cert = tuple(
        (
            comp.weight(b),
            tuple(comp.eps[b]),
            tuple(comp.phi[b]),
            tuple(
                position[comp.f(b, i)] if comp.f(b, i) is not None else -1
                for i in range(1, comp.n + 1)
            ),
        )
        for b in order
    )
    return cert, order


def morphism_violations(source: Crystal, target: Crystal, mapping) -> list[str]:
    """Defects of a node map as a strict isomorphism of crystals.

    Checks bijectivity, preservation of weight/eps/phi and both edge
    families.  Empty list means the map is an isomorphism.
    """
    bad = []
    if source.n != target.n:
        return [f"different color counts: {source.n} vs {target.n}"]
    if len(mapping) != len(source.nodes) or set(mapping) != set(source.nodes):
        bad.append("mapping does not cover the source nodes exactly")
        return bad
    if sorted(mapping.values()) != sorted(target.nodes):
        bad.append("mapping is not a bijection onto the target nodes")
        return bad
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
                    bad.append(
                        f"{name} mismatch at {b} -> {image}, direction {i}"
                    )
    return bad


def are_isomorphic(left: Crystal, right: Crystal):
    """(True, node map) when the crystals are isomorphic, else (False, None).

    Both crystals must decompose into components with unique highest nodes
    reachable by lowering (anything else raises).  Components are matched by
    canonical traversal certificates; the returned witness is verified edge
    by edge before being handed back.
    """
    if left.n != right.n:
        raise ValueError("crystals have different color counts")
    comps_left = components(left)
    comps_right = components(right)
    if len(comps_left) != len(comps_right):
        return False, None
    tagged_left = sorted((_traversal(c) for c in comps_left), key=lambda t: t[0])
    tagged_right = sorted((_traversal(c) for c in comps_right), key=lambda t: t[0])
    mapping: dict[str, str] = {}
    for (cert_l, order_l), (cert_r, order_r) in zip(tagged_left, tagged_right):
        if cert_l != cert_r:
            return False, None
        mapping.update(zip(order_l, order_r))
    defects = morphism_violations(left, right, mapping)
    if defects:
        raise AssertionError(
            f"certificate matching produced a defective witness: {defects[:3]}"
        )
    return True, mapping


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(crystal: Crystal) -> str:
    """Graphviz source with one arc per lowering edge, colored by direction."""
    lines = ["digraph crystal {", "  rankdir=TB;", "  node [shape=box];"]
    display = crystal.display or {}
    for b in crystal.nodes:
        wt = ", ".join(str(x) for x in crystal.weight(b))
        label = _dot_escape(display.get(b, b)) + f"\\nwt=({wt})"
        lines.append(f'  "{_dot_escape(b)}" [label="{label}"];')
    for b in crystal.nodes:
        for i in range(1, crystal.n + 1):
            target = crystal.f(b, i)
            if target is not None:
                lines.append(
                    f'  "{_dot_escape(b)}" -> "{_dot_escape(target)}" '
                    f'[label="{i}", colorscheme=set19, color={(i - 1) % 9 + 1}];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(crystal: Crystal) -> dict:
    """Serializable form: nodes with statistics, lowering edges by direction."""
    return {
        "n": crystal.n,
        "nodes": [
            {
                "key": b,
                "wt": list(crystal.weight(b)),
                "eps": list(crystal.eps[b]),
                "phi": list(crystal.phi[b]),
            }
            for b in crystal.nodes
        ],
        "edges": [
            {"from": b, "to": crystal.f(b, i), "i": i}
            for b in crystal.nodes
            for i in range(1, crystal.n + 1)
            if crystal.f(b, i) is not None
        ],
    }
