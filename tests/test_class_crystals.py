"""Tests for the crystals living on classes of simple modules.

The closed-form arrows are checked against the functor composites (restrict
after induce), the class crystal against the row crystal through the counting
word, and the tuple crystal against iterated tensor products.
"""

from __future__ import annotations

import itertools
import re
from math import comb, prod

import crystal_oracle as oracle
import pytest
from crystal_oracle import (
    DictCrystal,
    as_dicts,
    column_components,
    component_containing,
    tensor_columns,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planar_rook import class_crystals as cc
from planar_rook import clear_caches
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
from planar_rook.classes import ClassLabel, all_class_labels
from planar_rook.crystals import (
    Crystal,
    are_isomorphic,
    check_axioms,
    morphism_violations,
    signature,
)
from planar_rook.diagrams import partitions
from planar_rook.tableaux import row_crystal, ssyt_crystal, word_key
from planar_rook.verify import compositions, verify_target


def label(n, *counts):
    return ClassLabel(n, tuple(counts))


# ---------------------------------------------------------------- closed forms


def test_class_word():
    # a class's weakly increasing word is its canonical boundary word
    assert label(2, 1, 1, 1).canonical_word() == (0, 1, 2)
    assert label(1, 0, 3).canonical_word() == (1, 1, 1)
    assert label(2, 2, 0, 0).canonical_word() == (0, 0)


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
    d = as_dicts(c)
    # raising moves a vertex from color 1 to isolated
    assert d.e("2|1,1,0", 1) == "2|2,0,0"
    assert d.f("2|0,0,2", 1) is None
    assert d.f("2|1,1,0", 2) == "2|1,0,1"
    assert d.weight("2|1,1,0") == (1, 1, 0)


def test_class_crystal_display_shows_words():
    c = class_crystal(2, 1)
    assert as_dicts(c).display["2|1,1"] == "2|1,1 ~ 01"


@pytest.mark.parametrize("m,n", [(0, 1), (0, 2), (1, 1), (2, 1), (3, 2), (4, 3)])
def test_class_crystal_matches_its_closed_form(m, n):
    # the class crystal is the one-part tuple crystal; check it against the
    # definition: eps_i counts color i, phi_i color i-1, lower_label lowers
    labels = all_class_labels(m, n)
    keys = [lab.key for lab in labels]
    f_edges = {
        (lab.key, i): lower_label(i, lab).key
        for lab in labels
        for i in range(1, n + 1)
        if lower_label(i, lab) is not None
    }
    reference = DictCrystal(
        n,
        tuple(keys),
        {lab.key: lab.counts for lab in labels},
        {lab.key: lab.counts[1:] for lab in labels},
        {lab.key: lab.counts[:-1] for lab in labels},
        {(t, i): b for (b, i), t in f_edges.items()},
        f_edges,
        {lab.key: f"{lab.key} ~ {word_key(lab.canonical_word())}" for lab in labels},
    )
    assert class_crystal(m, n) == oracle.from_dicts(reference)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_class_crystal_matches_row_crystal_via_word(m, n):
    classes = class_crystal(m, n)
    rows = row_crystal(m, n)
    mapping = {
        lab.key: word_key(lab.canonical_word())
        for lab in all_class_labels(m, n)
    }
    assert morphism_violations(classes, rows, mapping) == []
    ok, _ = are_isomorphic(classes, rows)
    assert ok


def test_class_crystal_connected_with_unique_top():
    c = class_crystal(3, 2)
    assert len(column_components(c)) == 1
    assert oracle.highest_nodes(as_dicts(c)) == ["3|3,0,0"]


# ---------------------------------------------------------------- tuple crystal


def test_tensor_class_crystal_node_count():
    c = tensor_class_crystal((2, 1), 1)
    assert len(c) == comb(2 + 1, 1) * comb(1 + 1, 1)
    assert check_axioms(c) == []


def test_tensor_class_crystal_example_arrows():
    c = as_dicts(tensor_class_crystal((2, 1), 1))
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
    rows = tensor_columns([row_crystal(p, n) for p in parts])
    assert check_axioms(tuples) == []
    ok, _ = are_isomorphic(tuples, rows)
    assert ok


def reference_tensor_class_crystal(parts, n):
    """The tuple crystal built node by node from ClassLabel objects: the
    signature rule picks the factor, raise_label/lower_label move it, and eps
    and phi are the string lengths of the resulting edges."""
    tuples = list(itertools.product(*(all_class_labels(p, n) for p in parts)))
    nodes = []
    weights = {}
    e_edges = {}
    f_edges = {}
    for labels in tuples:
        k = tuple_key(labels)
        nodes.append(k)
        weights[k] = tuple(sum(c) for c in zip(*(lab.counts for lab in labels)))
        for i in range(1, n + 1):
            factors = [(lab.counts[i], lab.counts[i - 1]) for lab in labels]
            for kind, rule, edges in (
                ("e", raise_label, e_edges),
                ("f", lower_label, f_edges),
            ):
                pos = signature(factors)[0 if kind == "e" else 1]
                if pos >= 0:
                    moved = rule(i, labels[pos])
                    edges[(k, i)] = tuple_key(
                        labels[:pos] + (moved,) + labels[pos + 1 :]
                    )
    display = {
        tuple_key(labels): tuple_key(labels)
        + " ~ "
        + "×".join(word_key(lab.canonical_word()) for lab in labels)
        for labels in tuples
    }
    return DictCrystal(
        n,
        tuple(nodes),
        weights,
        oracle.string_lengths(nodes, e_edges, n),
        oracle.string_lengths(nodes, f_edges, n),
        e_edges,
        f_edges,
        display,
    )


def assert_same_crystal(ours, reference):
    oracle.assert_same(as_dicts(ours), reference)


SMALL_CASES = [
    (parts, n)
    for n in (1, 2, 3)
    for total in range(1, 5)
    for parts in compositions(total)
]


@pytest.mark.parametrize("parts,n", SMALL_CASES)
def test_tensor_class_crystal_matches_label_oracle(parts, n):
    assert_same_crystal(
        tensor_class_crystal(parts, n), reference_tensor_class_crystal(parts, n)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
        lambda parts: sum(parts) <= 6
    ),
    st.integers(1, 2),
)
def test_tensor_class_crystal_matches_label_oracle_random(parts, n):
    parts = tuple(parts)
    assert_same_crystal(
        tensor_class_crystal(parts, n), reference_tensor_class_crystal(parts, n)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_class_crystal_stats_are_string_lengths(n):
    # eps/phi come from the surviving signs, independently of the edges
    for total in range(1, 6):
        for parts in compositions(total):
            c = as_dicts(tensor_class_crystal(parts, n))
            assert c.eps == oracle.string_lengths(c.nodes, c.e_edges, n), parts
            assert c.phi == oracle.string_lengths(c.nodes, c.f_edges, n), parts


def test_tuple_crystal_memo_is_bounded():
    # a sweep of more compositions than the memo holds keeps at most 128
    clear_caches()
    assert verify_target("axioms", max_m=9, max_n=1)["failed"] == 0
    assert cc._tensor_class_crystal.cache_info().currsize <= 128


def test_clear_caches_rebuilds_from_the_rules(monkeypatch):
    # the one-part crystals read lower_label when they are built, so a
    # broken rule shows up once the memo is cleared
    clear_caches()
    monkeypatch.setattr(cc, "lower_label", lambda i, label: None)
    try:
        report = verify_target("thm4.5", max_m=3, max_n=1)
        assert report["failed"] > 0
        assert report["counterexamples"]
    finally:
        monkeypatch.undo()
        clear_caches()
    assert verify_target("thm4.5", max_m=3, max_n=1)["failed"] == 0


def per_node_tensor_class_crystal(parts, n):
    """The per-node builder that the one-factor-at-a-time fold replaced,
    kept as an oracle: one `signature` call per node and direction over the
    (eps, phi) pairs of all its factors, and the factor it picks moved by
    that factor's one-part crystal column, at position sum(k_j * stride[j])."""
    factors = [cc._tensor_class_crystal((p,), n) for p in parts]
    sizes = list(map(len, factors))
    strides = [prod(sizes[j + 1 :]) for j in range(len(parts))]

    def targets(sigs, which, cols):
        out = []
        for at, sig in enumerate(sigs):
            j = sig[which]
            k = at // strides[j] % sizes[j] if j >= 0 else 0
            out.append(-1 if j < 0 or cols[j][k] < 0 else at + (cols[j][k] - k) * strides[j])
        return out

    eps, phi, up, down = [], [], [], []
    for d in range(n):
        pairs = (list(zip(f.eps[d], f.phi[d])) for f in factors)
        sigs = list(map(signature, itertools.product(*pairs)))
        eps.append([sig[2] for sig in sigs])
        phi.append([sig[3] for sig in sigs])
        up.append(targets(sigs, 0, [f.up[d] for f in factors]))
        down.append(targets(sigs, 1, [f.down[d] for f in factors]))
    keys = ["×".join(ks) for ks in itertools.product(*(f.nodes for f in factors))]
    words = itertools.product(*map(label_words, factors))
    labels = [k + " ~ " + "×".join(ws) for k, ws in zip(keys, words)]
    wt = [tuple(map(sum, zip(*cs))) for cs in itertools.product(*(f.wt for f in factors))]
    return Crystal(n, wt, eps, phi, up, down, keys, labels)


def label_words(crystal):
    """The words after " ~ " in a class crystal's labels."""
    return [lab.split(" ~ ", 1)[1] for lab in crystal.labels]


FOLD_CASES = [
    (parts, n) for n in (1, 2, 3) for total in range(1, 6) for parts in compositions(total)
]


@pytest.mark.parametrize("parts,n", FOLD_CASES)
def test_folded_builder_matches_the_per_node_builder(parts, n):
    # columns, weights, keys and labels, compared as whole crystals
    assert cc._tensor_class_crystal(parts, n) == per_node_tensor_class_crystal(parts, n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=5), st.integers(1, 4))
def test_folded_builder_matches_the_per_node_builder_random(parts, n):
    parts = tuple(parts)
    assume(cc.tuple_count(parts, n) <= 3000)
    assert cc._tensor_class_crystal(parts, n) == per_node_tensor_class_crystal(parts, n)


@pytest.mark.parametrize("m,n", [(0, 2), (3, 1), (2, 11), (12, 1), (3, 12)])
def test_factor_table_words_are_the_canonical_words(m, n):
    # a factor is its one-part crystal, whose label words are built from the
    # counts by repetition, letters >= 10 included
    words = [word_key(lab.canonical_word()) for lab in all_class_labels(m, n)]
    assert label_words(cc._tensor_class_crystal((m,), n)) == words


def test_tensor_class_crystal_validation():
    with pytest.raises(ValueError):
        tensor_class_crystal((), 1)
    with pytest.raises(ValueError):
        tensor_class_crystal((0, 1), 1)


@pytest.mark.parametrize(
    "build,parts,n,named",
    [
        (tensor_class_crystal, (2.7,), 1, "2.7"),
        (tensor_class_crystal, ("2",), 1, "'2'"),
        (tensor_class_crystal, (1, True), 1, "True"),
        (highest_component, (2.9, 1.2), 2, "2.9"),
        (highest_component, (2, 1.0), 2, "1.0"),
        (ssyt_crystal, (2.5,), 1, "2.5"),
        (ssyt_crystal, (2, "1"), 2, "'1'"),
    ],
)
def test_a_part_that_is_not_an_int_is_refused(build, parts, n, named):
    # no part is truncated or parsed: the error names the parts
    pattern = f"parts must be (positive )?integers, got .*{re.escape(named)}"
    with pytest.raises(ValueError, match=pattern):
        build(parts, n)


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
    assert comp.wt == [(1, 1)]


def test_highest_component_hook():
    comp = highest_component((2, 1), 2)
    assert len(comp) == 8
    ok, _ = are_isomorphic(comp, ssyt_crystal((2, 1), 2))
    assert ok
    # the straight-line node is the unique highest node
    assert oracle.highest_nodes(as_dicts(comp)) == [tuple_key(straight_line_tuple((2, 1), 2))]


def cut_highest_component(partition, n):
    """The highest component cut from the whole tuple crystal, as
    `highest_component` found it before it grew the component a part at a
    time, kept as an oracle."""
    crystal = tensor_class_crystal(partition, n)
    return component_containing(crystal, tuple_key(straight_line_tuple(partition, n)))


HIGHEST_CASES = [
    (shape, n) for n in (1, 2, 3) for total in range(1, 7) for shape in partitions(total, n + 1)
]
# the cases with n = 4 or total 7 follow, so the ones above keep their ids
HIGHEST_CASES += [
    (shape, n)
    for n in (1, 2, 3, 4)
    for total in range(1, 8)
    for shape in partitions(total, n + 1)
    if n == 4 or total == 7
]


@pytest.mark.parametrize("shape,n", HIGHEST_CASES)
def test_grown_highest_component_matches_the_cut_component(shape, n):
    # node order, columns, keys and labels, compared as whole crystals, with
    # the component cut from the whole tuple crystal and with the one cut
    # from each step's whole product
    grown = highest_component(shape, n)
    assert grown == cut_highest_component(shape, n)
    assert grown == oracle.highest_component_by_cutting(shape, n)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(1, 4))
def test_grown_highest_component_matches_the_cut_component_random(parts, n):
    shape = tuple(sorted(parts, reverse=True))
    assume(len(shape) <= n + 1 and cc.tuple_count(shape, n) <= 5000)
    grown = highest_component(shape, n)
    assert grown == cut_highest_component(shape, n)
    assert grown == oracle.highest_component_by_cutting(shape, n)


def test_highest_component_validation():
    with pytest.raises(ValueError):
        highest_component((1, 2), 1)  # not weakly decreasing
    with pytest.raises(ValueError):
        highest_component((1, 1, 1), 1)  # too many parts
    with pytest.raises(ValueError):
        highest_component((), 1)


# ---------------------------------------------------------------- growth


# the `component-blambda` range at --max-m 6 --max-n 3
GROWTH_CASES = [(shape, n) for shape, n in HIGHEST_CASES if n <= 3 and sum(shape) <= 6]


def test_growth_computes_columns_only_for_the_component(monkeypatch):
    # every move `_grow` computes is one of its own nodes' edges: a
    # lowering edge in the walk and a raising edge in the build, per
    # direction, so never an entry for a node outside the component
    moved, grown = [], []
    move, grow = cc._moved, cc._grow

    def counting_move(s, rows):
        out = move(s, rows)
        moved.append(len(out))
        return out

    def counting_grow(prefix, factor, start):
        moved.clear()
        comp = grow(prefix, factor, start)
        grown.append((len(comp), comp.n, sum(moved)))
        return comp

    monkeypatch.setattr(cc, "_moved", counting_move)
    monkeypatch.setattr(cc, "_grow", counting_grow)
    sizes = [len(highest_component(shape, n)) for shape, n in GROWTH_CASES]
    assert sum(sizes) == 1307
    assert grown and all(entries == 2 * n * size for size, n, entries in grown)
