"""Tests for the crystals living on classes of simple modules.

The closed-form arrows are checked against the functor composites (restrict
after induce), the class crystal against the row crystal through the counting
word, and the tuple crystal against iterated tensor products.
"""

from __future__ import annotations

import itertools
from math import comb

import pytest

from planar_rook.class_crystals import (
    class_crystal,
    class_operator_via_functors,
    highest_component,
    lower_label,
    raise_label,
    straight_line_tuple,
    tensor_class_crystal,
    tuple_key,
)
from planar_rook.crystals import (
    are_isomorphic,
    check_axioms,
    components,
    highest_nodes,
    morphism_violations,
    tensor_all,
)
from planar_rook.modules import ClassLabel, all_class_labels
from planar_rook.tableaux import row_crystal, ssyt_crystal, word_key


def label(n, *counts):
    return ClassLabel(n, tuple(counts))


# ---------------------------------------------------------------- closed forms


def test_class_word():
    # a class's weakly increasing word is its canonical boundary word
    assert label(2, 1, 1, 1).canonical_boundary().colors == (0, 1, 2)
    assert label(1, 0, 3).canonical_boundary().colors == (1, 1, 1)
    assert label(2, 2, 0, 0).canonical_boundary().colors == (0, 0)


def test_raise_label_examples():
    assert raise_label(1, label(2, 1, 1, 0)) == label(2, 2, 0, 0)
    assert raise_label(1, label(1, 2, 0)) is None
    assert raise_label(2, label(2, 0, 1, 1)) == label(2, 0, 2, 0)
    with pytest.raises(ValueError):
        raise_label(0, label(1, 1, 0))


def test_lower_label_examples():
    assert lower_label(1, label(1, 1, 1)) == label(1, 0, 2)
    assert lower_label(1, label(1, 0, 2)) is None
    with pytest.raises(ValueError):
        lower_label(3, label(2, 1, 0, 0))


def test_raise_lower_inverse_when_defined():
    for lab in all_class_labels(3, 2):
        for i in (1, 2):
            down = lower_label(i, lab)
            if down is not None:
                assert raise_label(i, down) == lab
            up = raise_label(i, lab)
            if up is not None:
                assert lower_label(i, up) == lab


# ---------------------------------------------------------------- via functors


def test_via_functors_examples():
    assert class_operator_via_functors("e", 1, label(1, 1, 1)) == label(1, 2, 0)
    assert class_operator_via_functors("e", 1, label(1, 2, 0)) is None
    assert class_operator_via_functors("f", 1, label(1, 1, 0)) == label(1, 0, 1)
    with pytest.raises(ValueError):
        class_operator_via_functors("g", 1, label(1, 1, 0))
    with pytest.raises(ValueError):
        class_operator_via_functors("e", 0, label(1, 1, 0))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_via_functors_match_closed_forms(m, n):
    for lab in all_class_labels(m, n):
        for i in range(1, n + 1):
            assert class_operator_via_functors("e", i, lab) == raise_label(i, lab)
            assert class_operator_via_functors("f", i, lab) == lower_label(i, lab)


# ---------------------------------------------------------------- class crystal


def test_class_crystal_small():
    c = class_crystal(2, 2)
    assert len(c) == comb(2 + 2, 2) == 6
    assert check_axioms(c) == []
    # raising moves a vertex from color 1 to isolated
    assert c.e("2|1,1,0", 1) == "2|2,0,0"
    assert c.f("2|0,0,2", 1) is None
    assert c.f("2|1,1,0", 2) == "2|1,0,1"
    assert c.weight("2|1,1,0") == (1, 1, 0)


def test_class_crystal_display_shows_words():
    c = class_crystal(2, 1)
    assert c.display["2|1,1"] == "2|1,1 ~ 01"


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_class_crystal_matches_row_crystal_via_word(m, n):
    classes = class_crystal(m, n)
    rows = row_crystal(m, n)
    mapping = {
        lab.key: word_key(lab.canonical_boundary().colors)
        for lab in all_class_labels(m, n)
    }
    assert morphism_violations(classes, rows, mapping) == []
    ok, _ = are_isomorphic(classes, rows)
    assert ok


def test_class_crystal_connected_with_unique_top():
    c = class_crystal(3, 2)
    assert len(components(c)) == 1
    assert highest_nodes(c) == ["3|3,0,0"]


# ---------------------------------------------------------------- tuple crystal


def test_tensor_class_crystal_node_count():
    c = tensor_class_crystal((2, 1), 1)
    assert len(c) == comb(2 + 1, 1) * comb(1 + 1, 1)
    assert check_axioms(c) == []


def test_tensor_class_crystal_example_arrows():
    c = tensor_class_crystal((2, 1), 1)
    node = tuple_key((label(1, 1, 1), label(1, 1, 0)))
    assert c.e(node, 1) == tuple_key((label(1, 2, 0), label(1, 1, 0)))
    assert c.f(node, 1) == tuple_key((label(1, 0, 2), label(1, 1, 0)))


def test_tensor_class_crystal_single_part_is_class_crystal():
    single = tensor_class_crystal((3,), 2)
    classes = class_crystal(3, 2)
    mapping = {lab.key: lab.key for lab in all_class_labels(3, 2)}
    # node keys coincide, structure must too
    assert sorted(single.nodes) == sorted(classes.nodes)
    assert morphism_violations(single, classes, mapping) == []


@pytest.mark.parametrize(
    "parts,n",
    [((1, 1), 1), ((2, 1), 1), ((2, 2), 2), ((1, 1, 1), 2), ((3, 1), 2)],
)
def test_tensor_class_crystal_isomorphic_to_row_tensor(parts, n):
    tuples = tensor_class_crystal(parts, n)
    rows = tensor_all([row_crystal(p, n) for p in parts])
    assert check_axioms(tuples) == []
    ok, _ = are_isomorphic(tuples, rows)
    assert ok


def test_tensor_class_crystal_validation():
    with pytest.raises(ValueError):
        tensor_class_crystal((), 1)
    with pytest.raises(ValueError):
        tensor_class_crystal((0, 1), 1)


# ---------------------------------------------------------------- highest component


def test_straight_line_tuple():
    tup = straight_line_tuple((2, 1), 2)
    assert tup == (label(2, 2, 0, 0), label(2, 0, 1, 0))


def test_highest_component_single_part_is_whole_crystal():
    comp = highest_component((3,), 1)
    whole = class_crystal(3, 1)
    assert sorted(comp.nodes) == sorted(whole.nodes)
    ok, _ = are_isomorphic(comp, row_crystal(3, 1))
    assert ok


def test_highest_component_column_is_single_node():
    comp = highest_component((1, 1), 1)
    assert len(comp) == 1
    node = comp.nodes[0]
    assert comp.weight(node) == (1, 1)


def test_highest_component_hook():
    comp = highest_component((2, 1), 2)
    assert len(comp) == 8
    ok, _ = are_isomorphic(comp, ssyt_crystal((2, 1), 2))
    assert ok
    # the straight-line node is the unique highest node
    assert highest_nodes(comp) == [tuple_key(straight_line_tuple((2, 1), 2))]


def test_highest_component_validation():
    with pytest.raises(ValueError):
        highest_component((1, 2), 1)  # not weakly decreasing
    with pytest.raises(ValueError):
        highest_component((1, 1, 1), 1)  # too many parts
    with pytest.raises(ValueError):
        highest_component((), 1)
