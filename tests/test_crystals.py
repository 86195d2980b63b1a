"""Crystal-core tests: axioms checker, tensor rule, signature rule,
components, and the isomorphism certificate machinery."""

from __future__ import annotations

import itertools

import pytest

from planar_rook.class_crystals import tensor_class_crystal
from planar_rook.crystals import (
    CRYSTAL_NODE_CAP,
    Crystal,
    are_isomorphic,
    check_axioms,
    component_containing,
    components,
    highest_nodes,
    make_crystal,
    morphism_violations,
    signature_apply,
    signature_survivors,
    tensor,
    tensor_all,
    to_dot,
    to_json_dict,
    weight_pairing,
)
from planar_rook.diagrams import EnumerationCapError
from planar_rook.tableaux import box_crystal, row_crystal, ssyt_crystal


def test_weight_pairing():
    assert weight_pairing((2, 0, 1), 1) == 2
    assert weight_pairing((2, 0, 1), 2) == -1


def test_single_node_crystal_is_valid():
    c = make_crystal(2, ["*"], {"*": (0, 0, 0)}, {"*": (0, 0)}, {"*": (0, 0)}, {})
    assert check_axioms(c) == []
    assert highest_nodes(c) == ["*"]


def test_make_crystal_inverts_edges():
    b = box_crystal(2)
    assert b.f("0", 1) == "1" and b.e("1", 1) == "0"
    assert b.f("1", 2) == "2" and b.e("2", 2) == "1"
    assert b.f("0", 2) is None and b.e("0", 1) is None


def test_make_crystal_rejects_non_injective_lowering():
    with pytest.raises(ValueError):
        make_crystal(
            1,
            ["a", "b", "c"],
            {"a": (1, 0), "b": (1, 0), "c": (0, 1)},
            {"a": (0,), "b": (0,), "c": (1,)},
            {"a": (1,), "b": (1,), "c": (0,)},
            {("a", 1): "c", ("b", 1): "c"},
        )


# ---------------------------------------------------------------- axioms


def _chain2():
    # a -> b in direction 1, weights shift by the simple root
    return make_crystal(
        1,
        ["a", "b"],
        {"a": (1, 0), "b": (0, 1)},
        {"a": (0,), "b": (1,)},
        {"a": (1,), "b": (0,)},
        {("a", 1): "b"},
    )


def test_chain_is_valid():
    assert check_axioms(_chain2()) == []


def test_axiom_phi_eps_pairing_violation():
    c = _chain2()
    broken = Crystal(
        c.n, c.nodes, c.weights, {"a": (1,), "b": (1,)}, c.phi, c.e_edges, c.f_edges
    )
    assert any("phi=" in v or "string" in v for v in check_axioms(broken))


def test_axiom_weight_shift_violation():
    c = _chain2()
    broken = Crystal(
        c.n, c.nodes, {"a": (1, 0), "b": (1, 0)}, c.eps, c.phi, c.e_edges, c.f_edges
    )
    msgs = check_axioms(broken)
    assert any("weight" in v for v in msgs)


def test_axiom_inverse_violation():
    # hand-build edge dicts that are not mutually inverse
    c = _chain2()
    broken = Crystal(c.n, c.nodes, c.weights, c.eps, c.phi, {}, c.f_edges)
    msgs = check_axioms(broken)
    assert any("lowering a then raising" in v for v in msgs)


def test_axiom_string_length_violation():
    c = _chain2()
    broken = Crystal(
        c.n, c.nodes, c.weights, {"a": (2,), "b": (1,)}, c.phi, c.e_edges, c.f_edges
    )
    assert any("string" in v for v in check_axioms(broken))


def test_cycle_detected_not_hung():
    looped = Crystal(
        1,
        ("a", "b"),
        {"a": (0, 0), "b": (0, 0)},
        {"a": (0,), "b": (0,)},
        {"a": (0,), "b": (0,)},
        {("a", 1): "b", ("b", 1): "a"},
        {("a", 1): "b", ("b", 1): "a"},
    )
    msgs = check_axioms(looped)
    assert msgs  # weight shifts and string lengths both fail


# ---------------------------------------------------------------- tensor


def test_tensor_rule_on_boxes():
    b = box_crystal(1)
    t = tensor(b, b)
    assert t.f("0⊗0", 1) == "1⊗0"
    assert t.f("1⊗0", 1) == "1⊗1"
    assert t.f("0⊗1", 1) is None
    assert t.e("1⊗0", 1) == "0⊗0"
    assert t.e("0⊗1", 1) is None
    assert t.weight("1⊗0") == (1, 1)
    # the isolated node: cancellation leaves empty strings in both directions
    assert t.eps_i("0⊗1", 1) == 0
    assert t.phi_i("0⊗1", 1) == 0
    assert t.eps_i("1⊗1", 1) == 2
    assert t.phi_i("0⊗0", 1) == 2
    assert check_axioms(t) == []


def test_tensor_components_sizes():
    b = box_crystal(1)
    comps = components(tensor(b, b))
    assert sorted(len(c) for c in comps) == [1, 3]
    assert check_axioms(tensor(box_crystal(2), box_crystal(2))) == []


def test_tensor_weight_additivity_and_stats():
    b2 = box_crystal(2)
    r = row_crystal(2, 2)
    t = tensor(r, b2)
    for b1 in r.nodes:
        for b2node in b2.nodes:
            k = f"{b1}⊗{b2node}"
            assert t.weight(k) == tuple(
                x + y for x, y in zip(r.weight(b1), b2.weight(b2node))
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
        tensor_all([])
    b = box_crystal(1)
    assert tensor_all([b]) is b


def test_tensor_checks_the_cap_before_building():
    # 9^5 = 59,049 nodes; the four-fold product (6,561) is built, the last
    # step is refused before it allocates anything
    assert 9**5 > CRYSTAL_NODE_CAP
    with pytest.raises(EnumerationCapError, match="would have 59049 nodes"):
        tensor_all([box_crystal(8)] * 5)
    big = row_crystal(4, 8)  # 495 nodes
    with pytest.raises(EnumerationCapError, match="would have 245025 nodes"):
        tensor(big, big)


def components_by_rescan(crystal):
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
            Crystal(
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


@pytest.mark.parametrize(
    "crystal",
    [
        tensor_all([box_crystal(2)] * 3),
        tensor(row_crystal(2, 1), box_crystal(1)),
        ssyt_crystal((2, 1), 2),
        tensor_class_crystal((2, 1, 1), 2),
        tensor_class_crystal((1, 3), 1),
    ],
    ids=["box^3", "row-box", "ssyt", "classes(2,1,1)", "classes(1,3)"],
)
def test_components_match_rescanning_oracle(crystal):
    ours = components(crystal)
    oracle = components_by_rescan(crystal)
    assert len(ours) == len(oracle)
    for a, b in zip(ours, oracle):
        assert a == b
        assert a.nodes == b.nodes
        assert list(a.e_edges.items()) == list(b.e_edges.items())
        assert list(a.f_edges.items()) == list(b.f_edges.items())
        assert a.display == b.display


# ---------------------------------------------------------------- signature


def test_signature_survivors():
    # word: - + + | factor 0 contributes the -, factor 1 the first +
    assert signature_survivors([(1, 1), (0, 1)]) == ([0], [0, 1])
    # cancellation: + then - annihilate
    assert signature_survivors([(0, 1), (1, 0)]) == ([], [])
    assert signature_survivors([(2, 0), (0, 3)]) == ([0, 0], [1, 1, 1])


def test_signature_apply_examples():
    assert signature_apply("f", [(0, 1), (0, 1)]) == 0
    assert signature_apply("e", [(0, 1), (0, 1)]) is None
    assert signature_apply("e", [(1, 0), (0, 1)]) == 0
    assert signature_apply("f", [(1, 0), (0, 1)]) == 1
    assert signature_apply("e", [(0, 1), (1, 0)]) is None
    assert signature_apply("f", [(0, 1), (1, 0)]) is None
    with pytest.raises(ValueError):
        signature_apply("g", [(0, 1)])


def _word_nodes(n, length):
    return itertools.product(range(n + 1), repeat=length)


@pytest.mark.parametrize("n,length", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])
def test_signature_matches_iterated_binary_rule(n, length):
    box = box_crystal(n)
    power = tensor_all([box] * length)
    for word in _word_nodes(n, length):
        key = "⊗".join(str(x) for x in word)
        for i in range(1, n + 1):
            factors = [
                (1 if x == i else 0, 1 if x == i - 1 else 0) for x in word
            ]
            for kind in ("e", "f"):
                target = power.e(key, i) if kind == "e" else power.f(key, i)
                pos = signature_apply(kind, factors)
                if target is None:
                    assert pos is None
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
    comps = components(t)
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
    relabeled = make_crystal(
        2,
        ["x", "y", "z"],
        {"x": b.weights["0"], "y": b.weights["1"], "z": b.weights["2"]},
        {"x": b.eps["0"], "y": b.eps["1"], "z": b.eps["2"]},
        {"x": b.phi["0"], "y": b.phi["1"], "z": b.phi["2"]},
        {("x", 1): "y", ("y", 2): "z"},
    )
    ok, witness = are_isomorphic(b, relabeled)
    assert ok
    assert witness == {"0": "x", "1": "y", "2": "z"}


def test_are_isomorphic_rejects_different():
    assert are_isomorphic(box_crystal(1), row_crystal(2, 1))[0] is False
    b = box_crystal(1)
    shifted = Crystal(
        1,
        b.nodes,
        {"0": (2, 0), "1": (1, 1)},
        b.eps,
        b.phi,
        b.e_edges,
        b.f_edges,
    )
    assert are_isomorphic(b, shifted)[0] is False
    with pytest.raises(ValueError):
        are_isomorphic(box_crystal(1), box_crystal(2))


def test_are_isomorphic_rejects_non_normal():
    looped = Crystal(
        1,
        ("a", "b"),
        {"a": (0, 0), "b": (0, 0)},
        {"a": (0,), "b": (0,)},
        {"a": (0,), "b": (0,)},
        {("a", 1): "b", ("b", 1): "a"},
        {("a", 1): "b", ("b", 1): "a"},
    )
    with pytest.raises(ValueError, match="not a normal"):
        are_isomorphic(looped, looped)


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
