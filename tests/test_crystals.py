"""Crystal-core tests: axioms checker, tensor rule, signature rule,
components, and the isomorphism certificate machinery."""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import replace
from math import prod

import crystal_oracle as oracle
import pytest
from crystal_oracle import (
    DictCrystal,
    as_dicts,
    column_components,
    component_containing,
    from_dicts,
    tensor_columns,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planar_rook.class_crystals import (
    class_crystal,
    highest_component,
    tensor_class_crystal,
)
from planar_rook.crystals import (
    Crystal,
    are_isomorphic,
    check_axioms,
    isomorphism_positions,
    morphism_violations,
    signature,
    tensor,
    to_dot,
    to_json_dict,
    weight_pairing,
)
from planar_rook.diagrams import WORK_CAP, EnumerationCapError, ensure_work
from planar_rook.tableaux import box_crystal, row_crystal, ssyt_crystal


def test_weight_pairing():
    assert weight_pairing((2, 0, 1), 1) == 2
    assert weight_pairing((2, 0, 1), 2) == -1


def test_single_node_crystal_is_valid():
    c = from_dicts(
        DictCrystal(2, ("*",), {"*": (0, 0, 0)}, {"*": (0, 0)}, {"*": (0, 0)}, {}, {})
    )
    assert check_axioms(c) == []
    assert oracle.highest_nodes(as_dicts(c)) == ["*"]


def test_make_crystal_inverts_edges():
    b = as_dicts(box_crystal(2))
    assert b.f("0", 1) == "1" and b.e("1", 1) == "0"
    assert b.f("1", 2) == "2" and b.e("2", 2) == "1"
    assert b.f("0", 2) is None and b.e("0", 1) is None


def test_check_axioms_reports_non_injective_lowering():
    # a and b both lower to c, which can raise back to only one of them
    c = DictCrystal(
        1,
        ("a", "b", "c"),
        {"a": (1, 0), "b": (1, 0), "c": (0, 1)},
        {"a": (0,), "b": (0,), "c": (1,)},
        {"a": (1,), "b": (1,), "c": (0,)},
        {("c", 1): "a"},
        {("a", 1): "c", ("b", 1): "c"},
    )
    msgs = check_axioms(from_dicts(c))
    assert msgs == oracle.check_axioms(c)
    assert "lowering b then raising in direction 1 misses b" in msgs


# ---------------------------------------------------------------- axioms


def _chain2():
    # a -> b in direction 1, weights shift by the simple root
    return from_dicts(
        DictCrystal(
            1,
            ("a", "b"),
            {"a": (1, 0), "b": (0, 1)},
            {"a": (0,), "b": (1,)},
            {"a": (1,), "b": (0,)},
            {("b", 1): "a"},
            {("a", 1): "b"},
        )
    )


def test_chain_is_valid():
    assert check_axioms(_chain2()) == []


def test_axiom_phi_eps_pairing_violation():
    c = as_dicts(_chain2())
    broken = from_dicts(replace(c, eps={"a": (1,), "b": (1,)}))
    assert any("phi=" in v or "string" in v for v in check_axioms(broken))


def test_axiom_weight_shift_violation():
    c = as_dicts(_chain2())
    broken = from_dicts(replace(c, weights={"a": (1, 0), "b": (1, 0)}))
    msgs = check_axioms(broken)
    assert any("weight" in v for v in msgs)


def test_axiom_inverse_violation():
    # hand-build edge dicts that are not mutually inverse
    broken = from_dicts(replace(as_dicts(_chain2()), e_edges={}))
    msgs = check_axioms(broken)
    assert any("lowering a then raising" in v for v in msgs)


def test_axiom_string_length_violation():
    c = as_dicts(_chain2())
    broken = from_dicts(replace(c, eps={"a": (2,), "b": (1,)}))
    assert any("string" in v for v in check_axioms(broken))


def _looped():
    return DictCrystal(
        1,
        ("a", "b"),
        {"a": (0, 0), "b": (0, 0)},
        {"a": (0,), "b": (0,)},
        {"a": (0,), "b": (0,)},
        {("a", 1): "b", ("b", 1): "a"},
        {("a", 1): "b", ("b", 1): "a"},
    )


def test_cycle_detected_not_hung():
    msgs = check_axioms(from_dicts(_looped()))
    assert msgs  # weight shifts and string lengths both fail


# ---------------------------------------------------------------- tensor


def test_tensor_rule_on_boxes():
    b = box_crystal(1)
    t = tensor(b, b)
    d = as_dicts(t)
    assert d.f("0⊗0", 1) == "1⊗0"
    assert d.f("1⊗0", 1) == "1⊗1"
    assert d.f("0⊗1", 1) is None
    assert d.e("1⊗0", 1) == "0⊗0"
    assert d.e("0⊗1", 1) is None
    assert d.weight("1⊗0") == (1, 1)
    # the isolated node: cancellation leaves empty strings in both directions
    assert d.eps["0⊗1"][0] == 0
    assert d.phi["0⊗1"][0] == 0
    assert d.eps["1⊗1"][0] == 2
    assert d.phi["0⊗0"][0] == 2
    assert check_axioms(t) == []


def test_tensor_components_sizes():
    b = box_crystal(1)
    comps = column_components(tensor(b, b))
    assert sorted(len(c) for c in comps) == [1, 3]
    assert check_axioms(tensor(box_crystal(2), box_crystal(2))) == []


def test_tensor_weight_additivity_and_stats():
    b2 = box_crystal(2)
    r = row_crystal(2, 2)
    t = tensor(r, b2)
    dt, dr, db = as_dicts(t), as_dicts(r), as_dicts(b2)
    for b1 in r.nodes:
        for b2node in b2.nodes:
            k = f"{b1}⊗{b2node}"
            assert dt.weight(k) == tuple(
                x + y for x, y in zip(dr.weight(b1), db.weight(b2node))
            )
    assert check_axioms(t) == []


def test_tensor_color_mismatch():
    with pytest.raises(ValueError):
        tensor(box_crystal(1), box_crystal(2))


def test_tensor_all_associativity_up_to_iso():
    b = box_crystal(2)
    left = tensor(tensor(b, b), b)
    right = tensor(b, tensor(b, b))
    ok, witness = are_isomorphic(left, right)
    assert ok and witness is not None


def test_tensor_all_requires_input():
    with pytest.raises(ValueError):
        tensor_columns([])
    b = box_crystal(1)
    assert tensor_columns([b]) is b


def test_tensor_checks_the_cap_before_building():
    # 9^5 = 59,049 nodes of weight sum 5 and 8 colors; the four-fold
    # product (6,561) is built, the last step is refused before it
    # allocates anything
    assert 9**5 * (5 + 8 + 1) > WORK_CAP
    with pytest.raises(EnumerationCapError, match="^crystal nodes at m=5, n=8: 59049 of them"):
        tensor_columns([box_crystal(8)] * 5)
    big = row_crystal(4, 8)  # 495 nodes
    with pytest.raises(EnumerationCapError, match="^crystal nodes at m=8, n=8: 245025 of them"):
        tensor(big, big)


def test_force_lifts_the_node_cap_but_not_the_index_bound():
    # the work is the count times m + n + 1, here 1
    ensure_work(sys.maxsize, 0, 0, "nodes", force=True)
    ensure_work(WORK_CAP, 0, 0, "nodes")
    with pytest.raises(EnumerationCapError, match="^nodes at m=0, n=0: 500001 of them, times m"):
        ensure_work(WORK_CAP + 1, 0, 0, "nodes")
    # no ";" before a reason force cannot lift, so callers add no override hint
    for nodes, what in ((sys.maxsize + 1, f"{sys.maxsize + 1}"), (10**100, "at least 10\\*\\*99")):
        for force in (True, False):
            with pytest.raises(EnumerationCapError, match=f": {what} of them, times m \\+ n \\+ 1, is too large to index$"):
                ensure_work(nodes, 0, 0, "nodes", force=force)
    with pytest.raises(EnumerationCapError, match="; pass force=True to override$"):
        ensure_work(WORK_CAP, 1, 0, "nodes")


def per_node_tensor(left: Crystal, right: Crystal) -> Crystal:
    """The tensor product built one list per left node and per column, as
    `tensor` was before it built whole columns, kept as an oracle: the same
    max formulas and the same rule for which factor moves."""
    size = len(right)
    positions = range(size)
    eps, phi, up, down = [], [], [], []
    for d in range(left.n):
        e2s, p2s, u2s, d2s = right.eps[d], right.phi[d], right.up[d], right.down[d]
        pair2 = [w[d] - w[d + 1] for w in right.wt]
        e_col, p_col, u_col, d_col = [], [], [], []
        for a, (w1, e1, p1, u1, d1) in enumerate(
            zip(left.wt, left.eps[d], left.phi[d], left.up[d], left.down[d])
        ):
            base, pair1 = a * size, w1[d] - w1[d + 1]
            lu, ld = u1 * size if u1 >= 0 else -1, d1 * size if d1 >= 0 else -1
            e_col += [e1 if e1 >= e2 - pair1 else e2 - pair1 for e2 in e2s]
            p_col += [p2 if p2 >= p1 + q2 else p1 + q2 for p2, q2 in zip(p2s, pair2)]
            u_col += [
                (lu + b if lu >= 0 else -1) if p1 >= e2 else (base + u2 if u2 >= 0 else -1)
                for b, e2, u2 in zip(positions, e2s, u2s)
            ]
            d_col += [
                (ld + b if ld >= 0 else -1) if p1 > e2 else (base + d2 if d2 >= 0 else -1)
                for b, e2, d2 in zip(positions, e2s, d2s)
            ]
        eps.append(e_col)
        phi.append(p_col)
        up.append(u_col)
        down.append(d_col)
    wt = [tuple(x + y for x, y in zip(w1, w2)) for w1 in left.wt for w2 in right.wt]
    keys = [f"{b1}⊗{b2}" for b1 in left.nodes for b2 in right.nodes]
    return Crystal(left.n, wt, eps, phi, up, down, keys)


def tensor_factor(kind: str, m: int, n: int) -> Crystal:
    """A box, row, class or SSYT crystal; m sizes the last three."""
    if kind == "box":
        return box_crystal(n)
    if kind == "row":
        return row_crystal(m, n)
    if kind == "class":
        return class_crystal(m, n)
    return ssyt_crystal((m, 1), n)


TENSOR_KINDS = ("box", "row", "class", "ssyt")


@pytest.mark.parametrize("left,right", itertools.product(TENSOR_KINDS, repeat=2))
def test_tensor_matches_the_per_node_tensor(left, right):
    # columns, weights and keys, compared as whole crystals
    for m, n in ((1, 1), (2, 2), (2, 3)):
        a, b = tensor_factor(left, m, n), tensor_factor(right, m, n)
        assert tensor(a, b) == per_node_tensor(a, b), (m, n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(TENSOR_KINDS), st.integers(1, 3)), min_size=2, max_size=4),
    st.integers(1, 3),
)
def test_tensor_matches_the_per_node_tensor_random(factors, n):
    # every step of a left-associated product of at most 5,000 nodes
    crystals = [tensor_factor(kind, m, n) for kind, m in factors]
    assume(prod(map(len, crystals)) <= 5000)
    product = crystals[0]
    for right in crystals[1:]:
        step = tensor(product, right)
        assert step == per_node_tensor(product, right)
        product = step


def components_by_rescan(crystal: DictCrystal) -> list[DictCrystal]:
    """Components by depth-first search, then every edge dict rescanned once
    per component."""
    neighbors = {b: [] for b in crystal.nodes}
    for (b, _), target in list(crystal.e_edges.items()) + list(
        crystal.f_edges.items()
    ):
        neighbors[b].append(target)
        neighbors[target].append(b)
    seen = set()
    out = []
    for start in crystal.nodes:
        if start in seen:
            continue
        seen.add(start)
        block = {start}
        stack = [start]
        while stack:
            for nxt in neighbors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    block.add(nxt)
                    stack.append(nxt)
        nodes = tuple(b for b in crystal.nodes if b in block)
        display = crystal.display
        out.append(
            DictCrystal(
                crystal.n,
                nodes,
                {b: crystal.weights[b] for b in nodes},
                {b: crystal.eps[b] for b in nodes},
                {b: crystal.phi[b] for b in nodes},
                {k: v for k, v in crystal.e_edges.items() if k[0] in block},
                {k: v for k, v in crystal.f_edges.items() if k[0] in block},
                None if display is None else {b: display[b] for b in nodes},
            )
        )
    return out


CORPUS = {
    "box^3": lambda: tensor_columns([box_crystal(2)] * 3),
    "row-box": lambda: tensor(row_crystal(2, 1), box_crystal(1)),
    "ssyt": lambda: ssyt_crystal((2, 1), 2),
    "classes(2,1,1)": lambda: tensor_class_crystal((2, 1, 1), 2),
    "classes(1,3)": lambda: tensor_class_crystal((1, 3), 1),
}


@pytest.mark.parametrize("crystal", [build() for build in CORPUS.values()], ids=list(CORPUS))
def test_components_match_rescanning_oracle(crystal):
    ours = [as_dicts(c) for c in column_components(crystal)]
    rescanned = components_by_rescan(as_dicts(crystal))
    assert ours == rescanned == oracle.components(as_dicts(crystal))
    for a, b in zip(ours, rescanned):
        assert a.nodes == b.nodes
        assert list(a.e_edges.items()) == list(b.e_edges.items())
        assert list(a.f_edges.items()) == list(b.f_edges.items())


# ---------------------------------------------------------------- signature


def test_signature_survivors():
    # the stack oracle: word - + + | factor 0 contributes the -, factor 1 the first +
    assert oracle.signature_survivors([(1, 1), (0, 1)]) == ([0], [0, 1])
    # cancellation: + then - annihilate
    assert oracle.signature_survivors([(0, 1), (1, 0)]) == ([], [])
    assert oracle.signature_survivors([(2, 0), (0, 3)]) == ([0, 0], [1, 1, 1])


def test_signature_examples():
    assert signature([(1, 1), (0, 1)]) == (0, 0, 1, 2)
    assert signature([(0, 1), (1, 0)]) == (-1, -1, 0, 0)
    assert signature([(2, 0), (0, 3)]) == (0, 1, 2, 3)
    # the leftmost open plus is cancelled last: + + | - leaves factor 0's plus
    assert signature([(0, 2), (1, 0)]) == (-1, 0, 0, 1)
    assert signature([(0, 1), (0, 1), (2, 0), (0, 1)]) == (-1, 3, 0, 1)
    assert signature([]) == (-1, -1, 0, 0)


def test_signature_acting_factor_examples():
    # (raising factor, lowering factor), -1 where the operator kills the tensor
    assert signature([(0, 1), (0, 1)])[:2] == (-1, 0)
    assert signature([(1, 0), (0, 1)])[:2] == (0, 1)
    assert signature([(0, 1), (1, 0)])[:2] == (-1, -1)


def _word_nodes(n, length):
    return itertools.product(range(n + 1), repeat=length)


@pytest.mark.parametrize("n,length", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_signature_matches_iterated_binary_rule(n, length):
    box = box_crystal(n)
    power = as_dicts(tensor_columns([box] * length))
    for word in _word_nodes(n, length):
        key = "⊗".join(str(x) for x in word)
        for i in range(1, n + 1):
            factors = [
                (1 if x == i else 0, 1 if x == i - 1 else 0) for x in word
            ]
            for kind in ("e", "f"):
                target = power.e(key, i) if kind == "e" else power.f(key, i)
                pos = signature(factors)[0 if kind == "e" else 1]
                if target is None:
                    assert pos == -1
                else:
                    changed = [
                        j
                        for j, (a, b) in enumerate(
                            zip(word, target.split("⊗"))
                        )
                        if str(a) != b
                    ]
                    assert changed == [pos]


# ---------------------------------------------------------------- components, iso


def test_components_partition_nodes():
    t = tensor(box_crystal(2), box_crystal(2))
    comps = column_components(t)
    assert sorted(b for c in comps for b in c.nodes) == sorted(t.nodes)
    assert sum(len(c) for c in comps) == len(t)
    for comp in comps:
        assert check_axioms(comp) == []


def test_component_containing():
    t = tensor(box_crystal(1), box_crystal(1))
    comp = component_containing(t, "0⊗1")
    assert len(comp) == 1
    with pytest.raises(ValueError):
        component_containing(t, "nope")


def test_are_isomorphic_relabeled():
    b = box_crystal(2)
    relabeled = from_dicts(
        DictCrystal(
            2,
            ("x", "y", "z"),
            dict(zip("xyz", b.wt)),
            dict(zip("xyz", zip(*b.eps))),
            dict(zip("xyz", zip(*b.phi))),
            {("y", 1): "x", ("z", 2): "y"},
            {("x", 1): "y", ("y", 2): "z"},
        )
    )
    ok, witness = are_isomorphic(b, relabeled)
    assert ok
    assert witness == {"0": "x", "1": "y", "2": "z"}


def test_are_isomorphic_rejects_different():
    assert are_isomorphic(box_crystal(1), row_crystal(2, 1))[0] is False
    b = box_crystal(1)
    shifted = from_dicts(replace(as_dicts(b), weights={"0": (2, 0), "1": (1, 1)}))
    assert are_isomorphic(b, shifted)[0] is False
    with pytest.raises(ValueError):
        are_isomorphic(box_crystal(1), box_crystal(2))


def test_are_isomorphic_rejects_non_normal():
    looped = from_dicts(_looped())
    with pytest.raises(ValueError, match="not a normal"):
        are_isomorphic(looped, looped)


def _flat(nodes, e_edges, f_edges):
    """A two-color crystal with zero weights and statistics, which the
    traversal contract never reads."""
    zero = {b: (0, 0) for b in nodes}
    return DictCrystal(2, nodes, {b: (0, 0, 0) for b in nodes}, zero, zero, e_edges, f_edges)


NOT_NORMAL = {
    # two lowering chains a -> b and c -> d, joined only by a raising edge
    # from d that no lowering edge inverts
    "raising edge across chains": (
        _flat(
            ("a", "b", "c", "d"),
            {("b", 1): "a", ("d", 1): "c", ("d", 2): "a"},
            {("a", 1): "b", ("c", 1): "d"},
        ),
        "raising d in direction 2 leaves what lowering reaches from c; "
        "not a normal crystal component",
    ),
    # a and b are both highest and both lower onto the chain c -> d
    "two highest nodes": (
        _flat(
            ("a", "b", "c", "d"),
            {("c", 1): "a", ("c", 2): "b", ("d", 1): "c"},
            {("a", 1): "c", ("b", 2): "c", ("c", 1): "d"},
        ),
        "lowering reaches c from the highest nodes a and b; not a normal crystal component",
    ),
    "no highest node": (
        _looped(),
        "lowering reaches a from no highest node; not a normal crystal component",
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_NORMAL))
def test_isomorphism_refuses_a_crystal_that_is_not_normal(name):
    d, message = NOT_NORMAL[name]
    c, good = from_dicts(d), box_crystal(d.n)
    for left, right in ((c, c), (c, good), (good, c)):
        with pytest.raises(ValueError) as exc:
            isomorphism_positions(left, right)
        assert str(exc.value) == message
        refused = (ValueError, message)
        assert _outcome(oracle.are_isomorphic, as_dicts(left), as_dicts(right)) == refused


def test_isomorphism_checks_the_left_crystal_first():
    chains, message = NOT_NORMAL["raising edge across chains"]
    tops, _ = NOT_NORMAL["two highest nodes"]
    outcome = (ValueError, message)
    assert _outcome(isomorphism_positions, from_dicts(chains), from_dicts(tops)) == outcome
    assert _outcome(oracle.are_isomorphic, chains, tops) == outcome


# recorded images: isomorphic components are matched in the order of their
# first positions, whichever of their nodes is highest
PARENT_IMAGES = {
    "box^4(n=1)": [15, 14, 13, 10, 11, 12, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
    "rows(2,1)": list(range(17, -1, -1)),
}


@pytest.mark.parametrize("name", sorted(PARENT_IMAGES))
def test_isomorphism_images_are_unchanged(name):
    c = ORACLE_CORPUS[name]()
    assert isomorphism_positions(c, c) == list(range(len(c)))
    assert isomorphism_positions(c, _reversed(c)) == PARENT_IMAGES[name]


def test_morphism_violations():
    b = box_crystal(1)
    assert morphism_violations(b, b, {"0": "0", "1": "1"}) == []
    assert morphism_violations(b, b, {"0": "1", "1": "0"})
    assert morphism_violations(b, b, {"0": "0"})


# ---------------------------------------------------------------- export


def test_to_dot_deterministic():
    b = box_crystal(1)
    dot = to_dot(b)
    assert dot == to_dot(box_crystal(1))
    assert '"0" [label="0\\nwt=(1, 0)"];' in dot
    assert '"0" -> "1" [label="1", colorscheme=set19, color=1];' in dot
    assert dot.startswith("digraph crystal {")


def test_to_json_structure():
    b = box_crystal(2)
    obj = to_json_dict(b)
    assert obj["n"] == 2
    assert [node["key"] for node in obj["nodes"]] == ["0", "1", "2"]
    assert {"from": "0", "to": "1", "i": 1} in obj["edges"]
    assert all(node["eps"] is not None for node in obj["nodes"])


# ---------------------------------------------------------------- dict oracles


ORACLE_CORPUS = {
    **CORPUS,
    "box(1)": lambda: box_crystal(1),
    "box^4(n=1)": lambda: tensor_columns([box_crystal(1)] * 4),
    "row(3,2)": lambda: row_crystal(3, 2),
    "ssyt((2,2,1),2)": lambda: ssyt_crystal((2, 2, 1), 2),
    "classes(3,2)": lambda: class_crystal(3, 2),
    "classes(1,2,1)": lambda: tensor_class_crystal((1, 2, 1), 2),
    "highest((2,1),2)": lambda: highest_component((2, 1), 2),
    "rows(2,1)": lambda: tensor(row_crystal(2, 2), row_crystal(1, 2)),
    # highest nodes last, so position 0 is a lowering target
    "reversed ssyt": lambda: _reversed(ssyt_crystal((2, 1), 2)),
    "reversed box(2)": lambda: _reversed(box_crystal(2)),
}


def _reversed(c):
    return from_dicts(replace(as_dicts(c), nodes=c.nodes[::-1]))

TENSOR_PAIRS = [
    ("box(1)", "box(1)"),
    ("row(3,2)", "box^3"),
    ("box^3", "row(3,2)"),
    ("ssyt", "classes(3,2)"),
    ("highest((2,1),2)", "classes(1,2,1)"),
    ("row-box", "box^4(n=1)"),
    ("reversed ssyt", "reversed box(2)"),
    ("reversed box(2)", "classes(1,2,1)"),
]


@pytest.mark.parametrize("left,right", TENSOR_PAIRS)
def test_tensor_matches_dict_oracle(left, right):
    a, b = ORACLE_CORPUS[left](), ORACLE_CORPUS[right]()
    product = tensor(a, b)
    oracle.assert_same(as_dicts(product), oracle.tensor(as_dicts(a), as_dicts(b)))
    assert check_axioms(product) == oracle.check_axioms(as_dicts(product)) == []


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_column_core_matches_dict_oracle(name):
    c = ORACLE_CORPUS[name]()
    d = as_dicts(c)
    assert from_dicts(d) == c
    assert check_axioms(c) == oracle.check_axioms(d) == []
    assert [as_dicts(x) for x in column_components(c)] == oracle.components(d)
    assert c.f_edges == d.f_edges and len(c.f_edges) == len(d.f_edges)
    ok, witness = are_isomorphic(c, c)
    assert (ok, witness) == oracle.are_isomorphic(d, d)


ISO_PAIRS = [
    ("classes(2,1,1)", lambda: tensor_columns([row_crystal(p, 2) for p in (2, 1, 1)])),
    ("highest((2,1),2)", lambda: ssyt_crystal((2, 1), 2)),
    ("classes(3,2)", lambda: row_crystal(3, 2)),
    ("box^3", lambda: tensor(box_crystal(2), tensor(box_crystal(2), box_crystal(2)))),
    ("box^3", lambda: tensor_class_crystal((1, 1, 1), 2)),
    ("classes(3,2)", lambda: ssyt_crystal((2, 1), 2)),
    ("row(3,2)", lambda: ssyt_crystal((3,), 2)),
    ("reversed ssyt", lambda: highest_component((2, 1), 2)),
]


@pytest.mark.parametrize("name,build", ISO_PAIRS)
def test_are_isomorphic_matches_dict_oracle(name, build):
    left, right = ORACLE_CORPUS[name](), build()
    ours = are_isomorphic(left, right)
    assert ours == oracle.are_isomorphic(as_dicts(left), as_dicts(right))
    if ours[0]:
        assert morphism_violations(left, right, ours[1]) == []


def _outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ORACLE_CORPUS)), st.data())
def test_checkers_match_dict_oracle_on_broken_crystals(name, data):
    """One entry of one column changed: every checker agrees with the dict
    oracle, violations word for word and in order."""
    c = ORACLE_CORPUS[name]()
    fields = {
        "wt": [list(c.wt)],
        "eps": [list(col) for col in c.eps],
        "phi": [list(col) for col in c.phi],
        "up": [list(col) for col in c.up],
        "down": [list(col) for col in c.down],
    }
    field = data.draw(st.sampled_from(sorted(fields)))
    col = data.draw(st.sampled_from(fields[field]))
    b = data.draw(st.integers(0, len(c) - 1))
    if field == "wt":
        j = data.draw(st.integers(0, c.n))
        w = list(col[b])
        w[j] += data.draw(st.sampled_from([-1, 1]))
        col[b] = tuple(w)
    elif field in ("up", "down"):
        col[b] = data.draw(st.integers(-1, len(c) - 1).filter(lambda t: t != col[b]))
    else:
        col[b] += data.draw(st.sampled_from([-1, 1]))
    broken = Crystal(
        c.n, fields["wt"][0], fields["eps"], fields["phi"], fields["up"],
        fields["down"], c.nodes,
    )
    d, good = as_dicts(broken), as_dicts(c)
    assert check_axioms(broken) == oracle.check_axioms(d) != []
    assert [as_dicts(x) for x in column_components(broken)] == oracle.components(d)
    identity = {k: k for k in c.nodes}
    assert morphism_violations(broken, c, identity) == oracle.morphism_violations(
        d, good, identity
    ) != []
    assert _outcome(are_isomorphic, broken, c) == _outcome(oracle.are_isomorphic, d, good)
    assert _outcome(are_isomorphic, c, broken) == _outcome(oracle.are_isomorphic, good, d)


factor_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(factor_lists)
def test_signature_matches_stack_oracle(factors):
    minus, plus = oracle.signature_survivors(factors)
    rise = minus[-1] if minus else -1
    fall = plus[0] if plus else -1
    assert signature(factors) == (rise, fall, len(minus), len(plus))


compositions_st = st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
    lambda parts: sum(parts) <= 6
)
shapes_st = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True))
).filter(lambda shape: sum(shape) <= 7)


@settings(max_examples=25, deadline=None)
@given(compositions_st, st.integers(1, 3))
def test_check_axioms_empty_on_random_compositions(parts, n):
    parts = tuple(parts)
    assert check_axioms(tensor_class_crystal(parts, n)) == []
    assert check_axioms(tensor_columns([row_crystal(p, n) for p in parts])) == []


@settings(max_examples=25, deadline=None)
@given(shapes_st, st.integers(1, 3))
def test_check_axioms_empty_on_random_shapes(shape, n):
    assume(len(shape) <= n + 1)
    assert check_axioms(ssyt_crystal(shape, n)) == []
    assert check_axioms(highest_component(shape, n)) == []


def test_crystal_equality_compares_keys_and_labels():
    b = box_crystal(1)
    product = tensor(b, b)
    assert product == tensor(b, box_crystal(1))
    assert product == from_dicts(as_dicts(tensor(b, b)))
    assert product.nodes == ("0⊗0", "0⊗1", "1⊗0", "1⊗1")
    relabeled = from_dicts(replace(as_dicts(product), display={"0⊗0": "top"}))
    assert product != relabeled
    assert product != "0⊗0"
    assert product != (product.n, product.wt, product.eps, product.phi,
                       product.up, product.down, product.nodes, None)
    with pytest.raises(TypeError):
        hash(product)
    assert repr(b) == (
        "Crystal(n=1, wt=[(1, 0), (0, 1)], eps=[[0, 1]], phi=[[1, 0]], "
        "up=[[-1, 0]], down=[[1, -1]], nodes=('0', '1'), labels=None)"
    )


# ---------------------------------------------------------------- whole-column axioms


def _defective(kind, c, rng):
    """c with one seeded defect of the given kind."""
    wt = list(c.wt)
    eps, phi, up, down = ([list(col) for col in cols] for cols in (c.eps, c.phi, c.up, c.down))
    nodes, d = list(c.nodes), rng.randrange(c.n)
    if kind == "swapped lowering targets":
        p = rng.choice([b for b, t in enumerate(down[d]) if t >= 0])
        q = rng.choice([b for b, t in enumerate(down[d]) if t != down[d][p]])
        down[d][p], down[d][q] = down[d][q], down[d][p]
    elif kind == "eps off by one":
        eps[d][rng.randrange(len(c))] += rng.choice([-1, 1])
    elif kind == "weight off by one":
        p, j = rng.randrange(len(c)), rng.randrange(c.n + 1)
        wt[p] = wt[p][:j] + (wt[p][j] + rng.choice([-1, 1]),) + wt[p][j + 1 :]
    elif kind == "truncated weight":
        p = rng.randrange(len(c))
        wt[p] = wt[p][:-1]
    else:
        # two nodes raising and lowering into each other in direction d,
        # eps = phi = -1 there as the string lengths of a cycle read
        x, y = len(c), len(c) + 1
        nodes += ["x", "y"]
        wt += [(0,) * (c.n + 1)] * 2
        for cols, value in ((eps, 0), (phi, 0), (up, -1), (down, -1)):
            for col in cols:
                col += [value, value]
        eps[d][x:] = phi[d][x:] = [-1, -1]
        up[d][x:] = down[d][x:] = [y, x]
    return Crystal(c.n, wt, eps, phi, up, down, nodes)


DEFECTS = [
    "swapped lowering targets",
    "eps off by one",
    "weight off by one",
    "truncated weight",
    "2-cycle",
]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("kind", DEFECTS)
@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_check_axioms_words_a_defect_as_the_node_walk_does(name, kind, seed):
    broken = _defective(kind, ORACLE_CORPUS[name](), random.Random(seed))
    assert check_axioms(broken) == oracle.check_axioms(as_dicts(broken)) != []


def test_a_cycle_cannot_pass_the_string_recurrence():
    # a 2-cycle whose weights and statistics are otherwise consistent: equal
    # weights make the pairing 0, and eps = phi = -1 is what walking a
    # string that runs into a cycle reads, so only the weight shift and the
    # recurrence can refuse it
    c = _defective("2-cycle", box_crystal(1), random.Random(0))
    msgs = check_axioms(c)
    assert msgs == oracle.check_axioms(as_dicts(c)) != []
    assert not any("string" in m for m in msgs)


def test_labels_are_built_once_on_first_read():
    calls = []

    def build(keys):
        calls.append(keys)
        return (k + "!" for k in keys)

    c = Crystal(1, [(1, 0)], [[0]], [[1]], [[-1]], [[-1]], ["a"], build)
    assert calls == []
    assert c.labels == ("a!",) and c.labels == ("a!",)
    assert calls == [("a",)]
    assert c == Crystal(1, [(1, 0)], [[0]], [[1]], [[-1]], [[-1]], ["a"], ["a!"])
