"""Module-layer tests: class labels, simple modules, the regular module,
multiplicities, and concrete restriction.

Dimension and decomposition claims are checked against independent counting
oracles (basis enumeration by bottom boundary, last-letter counting for the
truncated subspace) rather than against the formulas used in the code.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planar_rook
import planar_rook.classes as classes
import planar_rook.cli as cli
import planar_rook.modules as modules
from planar_rook.algebra import (
    Element,
    identity_element,
    orbit_vector,
    strand,
    truncation_idempotent,
)
from planar_rook.classes import (
    ClassLabel,
    all_class_labels,
    class_dimension,
    induce_class,
    regular_decomposition,
    restrict_class,
)
from planar_rook.diagrams import (
    Diagram,
    EnumerationCapError,
    count_diagrams,
    covers,
    empty_diagram,
    enumerate_diagrams,
    partial_identity,
    product_words,
    unit_diagram,
    words_with_counts,
)
from planar_rook.linalg import apply, column_space_basis, coordinates_in_basis
from planar_rook.modules import (
    ExplicitModule,
    SimpleModule,
    decompose,
    multiplicity,
    regular_module,
    restrict,
    simple,
)
from planar_rook.verify import verify_target


def label(n, *counts):
    return ClassLabel(n, tuple(counts))


def dense(columns, dim):
    """The dim x dim matrix, as rows of Fractions, with the given sparse columns."""
    assert len(columns) == dim
    return [[Fraction(col.get(r, 0)) for col in columns] for r in range(dim)]


def act(mod: SimpleModule, a: Element, vec) -> tuple[Fraction, ...]:
    """Apply an algebra element to a coordinate vector of the simple module,
    each diagram acting through SimpleModule.targets."""
    if (a.m, a.n) != (mod.label.m, mod.label.n):
        raise ValueError("element and module live at different sizes")
    if len(vec) != mod.dimension:
        raise ValueError(f"vector has length {len(vec)}, expected {mod.dimension}")
    out = [Fraction(0)] * mod.dimension
    for d, coeff in a.terms.items():
        for x, t in zip(vec, mod.targets(d)):
            if x and t is not None:
                out[t] += coeff * Fraction(x)
    return tuple(out)


# ---------------------------------------------------------------- class labels


def test_class_label_basics():
    lab = label(2, 1, 2, 2)
    assert lab.m == 5
    assert lab.key == "5|1,2,2"
    assert lab.canonical_word() == (0, 1, 1, 2, 2)


def test_class_label_validation():
    with pytest.raises(ValueError):
        ClassLabel(1, (1,))
    with pytest.raises(ValueError):
        ClassLabel(1, (1, -1))
    with pytest.raises(ValueError):
        ClassLabel(0, (1,))
    # counts are integers: floats, booleans and strings are refused, not truncated
    for counts in ((1.9, 0.2), (1, 1.0), (True, 1), ("1", 1)):
        with pytest.raises(ValueError):
            ClassLabel(1, counts)


@pytest.mark.parametrize("n", [1.0, True, "1", None])
def test_class_label_refuses_a_number_of_colors_that_is_not_an_int(n):
    # a float n would build a label, and a simple module on it that fails
    # only later, inside decompose
    with pytest.raises(ValueError, match="number of colors must be a positive integer"):
        ClassLabel(n, (0, 1))


def test_all_class_labels():
    labels = all_class_labels(2, 1)
    assert [lab.counts for lab in labels] == [(2, 0), (1, 1), (0, 2)]
    assert len(all_class_labels(3, 2)) == comb(3 + 2, 2)
    for m, n in [(2, 2), (4, 1)]:
        labels = all_class_labels(m, n)
        assert all(lab.m == m for lab in labels)
        assert len(set(labels)) == len(labels)


def test_class_moves_build_the_validated_labels():
    # all_class_labels, restrict_class and induce_class skip validation;
    # what they build equals the validated label with the same counts
    for m, n in [(0, 1), (3, 2), (2, 3)]:
        for lab in all_class_labels(m, n):
            assert lab == ClassLabel(n, lab.counts)
            assert hash(lab) == hash(ClassLabel(n, lab.counts))
            for i in range(n + 1):
                for moved in (restrict_class(i, lab), induce_class(i, lab)):
                    if moved is not None:
                        assert moved == ClassLabel(n, moved.counts)
                        assert type(moved.counts) is tuple
    with pytest.raises(ValueError, match="at least one color"):
        all_class_labels(2, 0)


def test_class_dimension_against_enumeration():
    # dimension == number of diagrams with the canonical bottom word
    for m, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        for lab in all_class_labels(m, n):
            word = lab.canonical_word()
            by_count = sum(1 for d in enumerate_diagrams(m, n) if d.bottom == word)
            assert class_dimension(lab) == by_count


# ---------------------------------------------------------------- simple modules


def test_simple_dimensions():
    assert simple(label(1, 1, 1)).dimension == 2
    assert simple(label(2, 1, 2, 2)).dimension == 30
    assert simple(label(1, 3, 0)).dimension == 1
    assert simple(label(2, 0, 0, 2)).dimension == 1


def test_simple_basis_has_fixed_bottom_word():
    sm = simple(label(2, 1, 1, 1))
    assert isinstance(sm, ExplicitModule)
    assert sm.dimension == 6
    for d in sm.basis:
        assert d.bottom == (0, 1, 2)
    tops = [d.top for d in sm.basis]
    assert tops == sorted(tops)


def test_identity_acts_as_identity():
    sm = simple(label(1, 1, 1))
    e = identity_element(2, 1)
    for j in range(sm.dimension):
        v = tuple(Fraction(int(k == j)) for k in range(sm.dimension))
        assert act(sm, e, v) == v


def test_edgeless_diagram_kills_colored_module():
    sm = simple(label(1, 1, 1))
    a = Element.from_diagram(empty_diagram(2, 1))
    v = (Fraction(1), Fraction(1))
    assert act(sm, a, v) == (Fraction(0), Fraction(0))


def test_act_respects_products_sampled():
    rng = random.Random(7)
    sm = simple(label(2, 0, 1, 1))
    diagrams = enumerate_diagrams(2, 2)
    for _ in range(40):
        a = Element(2, 2, {rng.choice(diagrams): Fraction(rng.randint(-3, 3))})
        b = Element(2, 2, {rng.choice(diagrams): Fraction(rng.randint(-3, 3))})
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(sm.dimension))
        assert act(sm, a * b, v) == act(sm, a, act(sm, b, v))


def test_act_validates_input():
    sm = simple(label(1, 1, 1))
    with pytest.raises(ValueError):
        act(sm, identity_element(1, 1), (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        act(sm, identity_element(2, 1), (Fraction(1),))


def test_explicit_matrices_are_multiplicative():
    sm = simple(label(2, 1, 1, 0))
    dim = sm.dimension
    diagrams = enumerate_diagrams(2, 2)
    for d1 in diagrams:
        for d2 in diagrams:
            prod = sm.matrix_of(
                Element.from_diagram(d1) * Element.from_diagram(d2)
            )
            via = [
                [
                    sum(a * b for a, b in zip(row, col))
                    for col in zip(*dense(sm.matrix(d2), dim))
                ]
                for row in dense(sm.matrix(d1), dim)
            ]
            assert dense(prod, dim) == via


def test_explicit_module_validates():
    sm = simple(label(1, 1, 1))
    with pytest.raises(ValueError):
        sm.matrix(unit_diagram(2, 1))
    with pytest.raises(ValueError):
        sm.matrix_of(identity_element(1, 1))
    bad = ExplicitModule(1, 1, 2, lambda d: [[1]])
    with pytest.raises(ValueError):
        bad.matrix(unit_diagram(1, 1))
    # one column too few, a non-mapping column, a row outside 0..1, a float
    for columns in (
        [{0: 1}],
        [{0: 1}, [0, 1]],
        [{0: 1}, {2: 1}],
        [{0: 1}, {-1: 1}],
        [{0: 1}, {1: 0.5}],
    ):
        bad = ExplicitModule(1, 1, 2, lambda d, cols=columns: cols)
        with pytest.raises(ValueError):
            bad.matrix(unit_diagram(1, 1))


@pytest.mark.parametrize(
    "shape,message",
    [
        ((2, True, 1), "n must be an integer, got True"),
        ((2, 1, 1.5), "dimension must be an integer, got 1.5"),
        ((2.0, 1, 1), "m must be an integer, got 2.0"),
        ((-1, 1, 1), "m must be at least 0, got -1"),
        ((2, 0, 1), "n must be at least 1, got 0"),
        ((2, 1, -1), "dimension must be at least 0, got -1"),
    ],
)
def test_explicit_module_refuses_a_shape_that_is_not_a_sized_int(shape, message):
    # a bool would be stored as n and written out as `true`
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExplicitModule(*shape, lambda d: [{}] * shape[2])


@pytest.mark.parametrize(
    "column, message",
    [({True: 1}, "True: 1"), ({0: True}, "0: True")],
    ids=["row", "entry"],
)
def test_explicit_module_refuses_booleans(column, message):
    # bool is an int, so without the check True would pass as row 1 or entry 1
    mod = ExplicitModule(1, 1, 2, lambda d: [column, {}])
    with pytest.raises(
        ValueError, match=f"^action callback returned a boolean row or entry {message}$"
    ):
        mod.matrix(unit_diagram(1, 1))


def targets_by_covering(mod: SimpleModule, d: Diagram) -> list[int | None]:
    """The oracle for SimpleModule.targets: test every basis vector, sending
    b to d*b when the bottom word of d covers the top word of b."""
    return [
        mod.index[product_words(d, b)[0]] if covers(d.bottom, b.top) else None
        for b in mod.basis
    ]


@pytest.mark.parametrize(
    "m, n", [(m, n) for n in (1, 2) for m in range(5)] + [(3, 3)]
)
def test_targets_visit_exactly_the_covered_words(m, n):
    diagrams = enumerate_diagrams(m, n)
    for lab in all_class_labels(m, n):
        sm = simple(lab)
        for d in diagrams:
            assert sm.targets(d) == targets_by_covering(sm, d), (lab, d)


@pytest.mark.parametrize("m, n", [(3, 2), (4, 1)])
def test_trusted_modules_return_checked_columns(m, n):
    # the package's own modules skip the public constructor's validation,
    # so every column must already be what validation would return
    mods = [simple(lab) for lab in all_class_labels(m, n)] + [regular_module(m, n)]
    mods += [restrict(i, mod) for mod in list(mods) for i in range(n + 1)]
    for mod in mods:
        for d in enumerate_diagrams(mod.m, n):
            for col in mod.matrix(d):
                assert mod._checked(col) == col, (mod, d)


def test_the_generic_restriction_validates_its_columns(monkeypatch, capsys):
    # its coordinates come through the public constructor, as a user's do
    monkeypatch.setattr(planar_rook.linalg, "coordinates_in_basis", lambda *a: {0: True})
    restricted = restrict(1, simple(label(1, 1, 1)))
    with pytest.raises(ValueError, match="boolean row or entry 0: True"):
        restricted.matrix(partial_identity(1, (1,)))
    assert cli.main(["verify", "thm3.2", "--m", "2", "--n", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert any("boolean row or entry" in case.get("error", "") for case in report["counterexamples"])


# ---------------------------------------------------------------- regular module


def test_regular_module_dimensions():
    assert regular_module(2, 1).dimension == 6
    assert regular_module(3, 1).dimension == 20
    assert regular_module(2, 2).dimension == 15


def test_regular_identity_matrix():
    reg = regular_module(2, 2)
    mat = dense(reg.matrix_of(identity_element(2, 2)), reg.dimension)
    for r in range(reg.dimension):
        for c in range(reg.dimension):
            assert mat[r][c] == (1 if r == c else 0)


# ---------------------------------------------------------------- multiplicity


def test_simple_modules_are_multiplicity_one():
    for m, n in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]:
        for lab in all_class_labels(m, n):
            mod = simple(lab)
            for other in all_class_labels(m, n):
                expected = 1 if other == lab else 0
                assert multiplicity(mod, other) == expected


def test_decompose_regular_small():
    dec = decompose(regular_module(2, 1))
    assert {lab.counts: k for lab, k in dec.items()} == {
        (2, 0): 1,
        (1, 1): 2,
        (0, 2): 1,
    }
    dec = decompose(regular_module(1, 2))
    assert {lab.counts: k for lab, k in dec.items()} == {
        (1, 0, 0): 1,
        (0, 1, 0): 1,
        (0, 0, 1): 1,
    }


def test_decompose_regular_multiplicity_equals_dimension():
    # the regular module contains each simple as many times as its dimension
    for m, n in [(2, 1), (3, 1), (2, 2)]:
        dec = decompose(regular_module(m, n))
        for lab, k in dec.items():
            assert k == class_dimension(lab)
        assert sum(k * class_dimension(lab) for lab, k in dec.items()) == len(
            enumerate_diagrams(m, n)
        )


REGULAR_SIZES = [(m, 1) for m in range(7)] + [
    (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)
]


@pytest.mark.parametrize("m, n", REGULAR_SIZES)
def test_regular_decomposition_is_the_built_module_decomposition(m, n):
    got, built = regular_decomposition(m, n), decompose(regular_module(m, n))
    assert list(got.items()) == list(built.items())
    assert all(type(k) is int for k in got.values())


def test_regular_trace_is_the_diagonal_of_the_built_module():
    # the straight strands come from the matching: top 110 over bottom 011
    # has the letter 1 above and below vertex 2 but joins 1-2 and 2-3, so it
    # fixes only the basis diagram with top word 000
    assert classes._regular_trace(Diagram(3, 1, [(1, 2, 1), (2, 3, 1)])) == 1
    checked = 0
    for m, n in [(m, 1) for m in range(1, 5)] + [(2, 2), (3, 2), (2, 3)]:
        mod = regular_module(m, n)
        for d in enumerate_diagrams(m, n):
            diagonal = sum(col.get(j, 0) for j, col in enumerate(mod.matrix(d)))
            assert classes._regular_trace(d) == diagonal, d
            checked += 1
    assert checked == 234


def test_regular_decomposition_keeps_the_audit(monkeypatch):
    monkeypatch.setattr(classes, "ensure_diagrams", lambda m, n, force: 1)
    with pytest.raises(ValueError, match="^dimension accounting failed: simple pieces cover 6 of 1;"):
        regular_decomposition(2, 1)
    monkeypatch.undo()
    for bad in (Fraction(1, 2), -1):
        monkeypatch.setattr(classes, "_regular_trace", lambda d, bad=bad: bad)
        with pytest.raises(ValueError, match="^dimension accounting failed: the probe of 2|2,0"):
            regular_decomposition(2, 1)


def test_regular_decomposition_keeps_the_cap():
    with pytest.raises(EnumerationCapError, match="^diagrams at m=9, n=1: 48620 of them, times m"):
        regular_decomposition(9, 1)
    with pytest.raises(EnumerationCapError, match="^diagrams at m=7, n=2: 272835 of them, times m"):
        regular_decomposition(7, 2)
    dec = regular_decomposition(9, 1, force=True)
    assert all(k == class_dimension(lab) for lab, k in dec.items())
    assert sum(k * k for k in dec.values()) == count_diagrams(9, 1)


def test_decompose_flags_non_module():
    # I0 and I1 cannot both act as stated: I0*I1 = I0 forces 1*0 == 1
    fake = ExplicitModule(
        1, 1, 1, lambda d: [{0: 1} if not d.edges else {}]
    )
    with pytest.raises(ValueError, match="dimension accounting"):
        decompose(fake)


def test_decompose_zero_module():
    zero = ExplicitModule(1, 1, 0, lambda d: [])
    assert decompose(zero) == {}


def test_decompose_refuses_a_probe_trace_that_is_not_an_integer():
    # every diagram acting by 1/2 is no module action: the probe of 1|1,0 is
    # the edgeless diagram, whose trace is 1/2 although its rank is 1
    half = ExplicitModule(1, 1, 1, lambda d: [{0: Fraction(1, 2)}])
    assert multiplicity(half, label(1, 1, 0)) == Fraction(1, 2)
    with pytest.raises(ValueError, match="^dimension accounting failed"):
        decompose(half)


def test_decompose_lists_the_classes_of_a_public_module_under_the_cap():
    # the public constructor bounds nothing: about 5·10^11 classes at
    # (2, 10**6), which a forced listing would run for hours
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError, match=r"^classes at m=2, n=1000000: 500001500001 of"):
        decompose(ExplicitModule(2, 10**6, 0, lambda d: []))
    assert time.perf_counter() - start < 1


def test_decompose_lists_the_classes_of_a_package_module_under_the_cap(monkeypatch):
    # the simple's 2 basis vectors, times m + n + 1, are within the cap, and
    # the restriction's 3 classes are not: decompose lists them only forced
    monkeypatch.setattr(planar_rook.diagrams, "WORK_CAP", 10)
    restricted = simple(label(2, 1, 1, 0)).restrict(1)
    with pytest.raises(EnumerationCapError, match="^classes at m=1, n=2: 3 of them"):
        decompose(restricted)
    assert decompose(restricted, force=True) == {label(2, 1, 0, 0): 1}


def test_decompose_bounds_the_columns_of_its_probe_matrices(monkeypatch):
    # the simple's 30 basis vectors and the restriction's 15 classes, times
    # m + n + 1, are within the cap; the 15 probes' 12 columns each are not
    monkeypatch.setattr(planar_rook.diagrams, "WORK_CAP", 1000)
    restricted = simple(label(2, 1, 2, 2)).restrict(1)
    with pytest.raises(EnumerationCapError, match="^probe matrix columns at m=4, n=2: 180 of"):
        decompose(restricted)
    assert decompose(restricted, force=True) == {label(2, 1, 1, 2): 1}


def column_sum(mod, a):
    """The oracle for matrix_of: the sum of c·matrix(d) over a's terms."""
    acc = [{} for _ in range(mod.dimension)]
    for d, c in a.terms.items():
        for out, col in zip(acc, mod.matrix(d)):
            for r, x in col.items():
                out[r] = out.get(r, 0) + c * x
    return tuple({r: x for r, x in col.items() if x} for col in acc)


def partial_map_cases():
    for m, n in [(m, n) for n in (1, 2) for m in range(4)]:
        yield f"regular-{m}-{n}", regular_module(m, n)
        for lab in all_class_labels(m, n):
            sm = simple(lab)
            yield lab.key, sm
            for i in range(n + 1) if m else ():
                yield f"{lab.key} restricted {i}", sm.restrict(i)


@pytest.mark.parametrize("seed", [1, 2])
def test_partial_map_reads_agree_with_the_columns(seed):
    # traces and matrix_of read a package module's partial map, matrix()
    # builds its columns, and a public module of those columns reads them
    rng = random.Random(seed)
    for case, mod in partial_map_cases():
        m, n = mod.m, mod.n
        assert mod._targets is not None, case
        copy = ExplicitModule(m, n, mod.dimension, mod.matrix)
        for word in itertools.product(range(n + 1), repeat=m):
            cols = mod.matrix(partial_identity(n, word))
            diagonal = sum(col.get(j, 0) for j, col in enumerate(cols))
            assert modules._trace(mod, word) == modules._trace(copy, word) == diagonal, (case, word)
        diagrams = enumerate_diagrams(m, n)
        picked = rng.sample(diagrams, min(4, len(diagrams)))
        terms = {d: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for d in picked}
        elements = [Element(m, n, terms)]
        elements += [truncation_idempotent(m, n, i) for i in range(n + 1) if m]
        for a in elements:
            assert mod.matrix_of(a) == column_sum(mod, a) == copy.matrix_of(a), (case, a)
        assert decompose(copy) == decompose(mod), case


def probe_rank(mod, lab):
    """The rank of the class probe's matrix, by elimination: the oracle for
    the trace that multiplicity reads."""
    probe = orbit_vector(partial_identity(lab.n, lab.canonical_word()))
    return len(column_space_basis(mod.matrix_of(probe))[1])


def trace_cases():
    for m, n in [(m, 1) for m in range(6)] + [(2, 2), (3, 2), (4, 2), (2, 3)]:
        yield f"regular-{m}-{n}", regular_module(m, n)
    for m, n in [(m, 1) for m in range(1, 7)] + [(m, 2) for m in range(1, 5)] + [(3, 3)]:
        for lab in all_class_labels(m, n):
            sm = simple(lab)
            for i in range(n + 1):
                yield f"{lab.key} orbit route {i}", sm.restrict(i)
                yield f"{lab.key} projector route {i}", restrict(i, sm)


def test_multiplicity_is_the_rank_of_the_probe():
    # the probe is an idempotent, so its trace, which multiplicity reads, is
    # its rank: on regular modules and on both routes of every restriction
    checked = 0
    for case, mod in trace_cases():
        for lab in all_class_labels(mod.m, mod.n):
            assert multiplicity(mod, lab) == probe_rank(mod, lab), (case, lab)
            checked += 1
    assert checked == 3496


def test_partial_identities_with_equal_counts_have_equal_traces():
    # multiplicity reads one partial identity per count vector: id_w' and
    # id_w'' are a·flip(a) and flip(a)·a for a planar a, so tr(xy) = tr(yx)
    for case, mod in trace_cases():
        for lab in all_class_labels(mod.m, mod.n):
            traces = {
                sum(col.get(j, 0) for j, col in enumerate(mod.matrix(partial_identity(mod.n, w))))
                for w in words_with_counts(lab.counts)
            }
            assert len(traces) == 1, (case, lab, traces)


@pytest.mark.parametrize("m, n", [(3, 2), (4, 2)])
def test_decompose_reads_one_matrix_per_class(m, n):
    mod = regular_module(m, n)
    action, reads = mod._targets, []
    mod._targets = lambda d: reads.append(d) or action(d)
    decompose(mod)
    assert len(reads) == len(set(reads)) == len(all_class_labels(m, n))


@pytest.mark.parametrize(
    "build, own",
    [
        (lambda: regular_module(3, 2), set()),
        (lambda: simple(label(2, 1, 1, 1)), {"label", "basis", "index"}),
    ],
    ids=["regular", "simple"],
)
def test_reading_a_module_leaves_only_its_defining_attributes(build, own):
    # a module stores no matrix: decompose, multiplicity, restrict and the
    # restricted action read through the action and leave nothing behind.
    # The package's modules act by a partial map, the generic restriction
    # by columns.
    sizes = {"m", "n", "dimension"}
    mod = build()
    before = dict(vars(mod))
    decompose(mod)
    multiplicity(mod, all_class_labels(3, 2)[-1])
    mod.matrix_of(truncation_idempotent(3, 2, 1))
    restricted = restrict(1, mod)
    decompose(restricted)
    restricted.matrix(partial_identity(2, (1, 2)))
    assert vars(mod) == before and set(before) == sizes | {"_targets"} | own
    assert set(vars(restricted)) == sizes | {"_diagram_action"}


def test_multiplicity_reads_its_matrices_on_every_call():
    # multiplicity makes one action call per count vector up to the
    # class's, (k1, k2) in {0, 1}**2 for 3|1,1,1, and a second call makes
    # them all again
    mod = regular_module(3, 2)
    action, reads = mod._targets, []
    mod._targets = lambda d: reads.append(d) or action(d)
    lab = label(2, 1, 1, 1)
    assert multiplicity(mod, lab) == class_dimension(lab)
    first = list(reads)
    assert multiplicity(mod, lab) == class_dimension(lab)
    assert len(first) == len({tuple(map(d.top.count, (1, 2))) for d in first}) == 4
    assert reads == first + first


# ---------------------------------------------------------------- restriction


def extend_by_color(a: Element, i: int) -> Element:
    """The oracle for restriction's action: a size-m element embedded into
    size m+1 by appending strand(n, i), as one Element."""
    return a.tensor(strand(a.n, i))


def test_extend_by_color():
    a = Element.from_diagram(unit_diagram(2, 1))
    ext = extend_by_color(a, 2)
    d_keep = Diagram(2, 2, ((1, 1, 1), (2, 2, 2)))
    d_drop = Diagram(2, 2, ((1, 1, 1),))
    assert ext.coefficient(d_keep) == 1
    assert ext.coefficient(d_drop) == -1
    ext0 = extend_by_color(a, 0)
    assert ext0 == Element.from_diagram(d_drop)
    with pytest.raises(ValueError):
        extend_by_color(a, 3)


def simples_up_to(top_m, n):
    return [simple(lab) for m in range(1, top_m + 1) for lab in all_class_labels(m, n)]


# the simple modules up to a size, and regular modules, which hold simples
# with multiplicity: restriction assumes only that the action is an action
ROUTE_MODULES = {
    "4-2": lambda: simples_up_to(4, 2),
    "6-1": lambda: simples_up_to(6, 1),
    "regular-3-1": lambda: [regular_module(3, 1)],
    "regular-2-2": lambda: [regular_module(2, 2)],
}


@pytest.mark.parametrize("case", list(ROUTE_MODULES))
def test_restrict_action_matches_element_route(case):
    # each restricted column against the Element route: d extended by
    # strand(n, i) as one Element, through matrix_of, in the same basis
    for mod in ROUTE_MODULES[case]():
        m, n = mod.m, mod.n
        for i in range(n + 1):
            projector = mod.matrix_of(truncation_idempotent(m, n, i))
            basis, pivots = column_space_basis(projector)
            res = restrict(i, mod)
            for d in enumerate_diagrams(m - 1, n):
                big = mod.matrix_of(extend_by_color(Element.from_diagram(d), i))
                expected = [
                    coordinates_in_basis(apply(big, b), basis, pivots) for b in basis
                ]
                assert res.matrix(d) == tuple(expected), (mod, i, d)


def test_restrict_matches_last_letter_oracle():
    # the cut subspace is spanned by the basis vectors whose top word ends
    # in the chosen color, so its dimension counts those words
    for m, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        for lab in all_class_labels(m, n):
            sm = simple(lab)
            for i in range(n + 1):
                res = restrict(i, sm)
                expected = sum(
                    1
                    for d in sm.basis
                    if d.top[m - 1] == i
                )
                assert res.dimension == expected


def test_restrict_simple_examples():
    res = restrict(1, simple(label(1, 1, 1)))
    assert res.dimension == 1
    assert {lab.counts: k for lab, k in decompose(res).items()} == {(1, 0): 1}

    gone = restrict(1, simple(label(1, 2, 0)))
    assert gone.dimension == 0
    assert decompose(gone) == {}

    res0 = restrict(0, simple(label(1, 1, 1)))
    assert {lab.counts: k for lab, k in decompose(res0).items()} == {(0, 1): 1}


def test_restrict_drops_one_count():
    for m, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        for lab in all_class_labels(m, n):
            for i in range(n + 1):
                dec = decompose(restrict(i, simple(lab)))
                target = restrict_class(i, lab)
                if target is None:
                    assert dec == {}
                else:
                    assert dec == {target: 1}


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2)])
def test_restrict_regular_module_branches(m, n):
    # the regular module holds each class N class_dimension(N) times, so its
    # restriction holds restrict_class(i, N) with the summed multiplicities
    for i in range(n + 1):
        expected: dict = {}
        for lab in all_class_labels(m, n):
            target = restrict_class(i, lab)
            if target is not None:
                expected[target] = expected.get(target, 0) + class_dimension(lab)
        assert decompose(restrict(i, regular_module(m, n))) == expected


def test_restrict_validates():
    for i in (2, -1):
        with pytest.raises(ValueError, match="outside 0..1"):
            restrict(i, simple(label(1, 1, 1)))
    with pytest.raises(ValueError):
        restrict(0, ExplicitModule(0, 1, 1, lambda d: [[1]]))


def test_restrict_is_a_module_action():
    # matrices of the restricted module still multiply correctly
    res = restrict(1, simple(label(2, 0, 1, 1)))
    dim = res.dimension
    diagrams = enumerate_diagrams(1, 2)
    for d1 in diagrams:
        for d2 in diagrams:
            lhs = res.matrix_of(Element.from_diagram(d1) * Element.from_diagram(d2))
            a, b = dense(res.matrix(d1), dim), dense(res.matrix(d2), dim)
            rhs = [
                [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
                for row in a
            ]
            assert dense(lhs, dim) == rhs


# ---------------------------------------------------------------- class maps


# every class and color at these sizes, against every diagram one size down
ORBIT_ROUTE_SIZES = [(m, n) for n in (1, 2) for m in range(1, 5)] + [(5, 1), (3, 3)]


def test_simple_restrict_matches_the_projector_route():
    # the orbit-basis route keeps the basis vectors whose top word ends in i;
    # the projector route echelons the matrix of the truncation idempotent
    for m, n in ORBIT_ROUTE_SIZES:
        smaller = enumerate_diagrams(m - 1, n)
        for lab in all_class_labels(m, n):
            sm = simple(lab)
            for i in range(n + 1):
                fast, oracle = sm.restrict(i), restrict(i, sm)
                assert fast.dimension == oracle.dimension, (lab, i)
                for d in smaller:
                    assert fast.matrix(d) == oracle.matrix(d), (lab, i, d)


def test_simple_restrict_validates():
    sm = simple(label(1, 1, 1))
    for i in (2, -1):
        with pytest.raises(ValueError, match="outside 0..1"):
            sm.restrict(i)
    with pytest.raises(ValueError, match="size-0"):
        simple(label(1, 0, 0)).restrict(0)
    with pytest.raises(ValueError, match="cannot act"):
        sm.restrict(1).matrix(empty_diagram(2, 1))


def test_simple_restrict_builds_no_idempotent(monkeypatch, capsys):
    # decompose --restrict and the adjunction read the cut off the orbit
    # basis; the thm3.x targets keep the projector route as their oracle
    def refuse(*args, **kwargs):
        raise AssertionError("truncation idempotent built")

    planar_rook.clear_caches()
    monkeypatch.setattr(planar_rook.algebra, "truncation_idempotent", refuse)
    assert cli.main(["decompose", "--restrict", "1", "--class", "3,2:1,1,1"]) == 0
    assert '"class": "2|1,0,1"' in capsys.readouterr().out
    # 3 colors x 3 classes at size 1 x 6 classes at size 2
    assert verify_target("adjunction", m=2, n=2) == {
        "target": "adjunction",
        "checked": 54,
        "failed": 0,
    }
    with pytest.raises(AssertionError, match="idempotent built"):
        verify_target("thm3.2", m=2, n=1)


def test_restrict_class_arithmetic():
    assert restrict_class(1, label(1, 1, 1)) == label(1, 1, 0)
    assert restrict_class(1, label(1, 2, 0)) is None
    assert restrict_class(0, label(1, 1, 1)) == label(1, 0, 1)
    assert restrict_class(2, label(2, 1, 0, 2)) == label(2, 1, 0, 1)
    with pytest.raises(ValueError):
        restrict_class(3, label(2, 1, 0, 0))


def test_induce_class_arithmetic():
    assert induce_class(1, label(1, 1, 0)) == label(1, 1, 1)
    assert induce_class(0, label(1, 0, 1)) == label(1, 1, 1)
    with pytest.raises(ValueError):
        induce_class(-1, label(1, 1, 0))


def test_induce_then_restrict_round_trip():
    for lab in all_class_labels(3, 2):
        for i in range(3):
            assert restrict_class(i, induce_class(i, lab)) == lab


# ---------------------------------------------------------------- adjunction


def restricted_hom(i, small, big):
    """dim Hom(S_small, Res_i S_big), read off the orbit-basis restriction."""
    return multiplicity(simple(big).restrict(i), small)


def test_adjunction_examples():
    assert restricted_hom(1, label(1, 1, 0), label(1, 1, 1)) == 1
    assert restricted_hom(1, label(1, 1, 0), label(1, 2, 0)) == 0
    assert restricted_hom(0, label(1, 0, 1), label(1, 1, 1)) == 1


def test_adjunction_validates():
    with pytest.raises(ValueError, match="different sizes"):
        restricted_hom(1, label(1, 1, 0), label(1, 3, 0))
    with pytest.raises(ValueError, match="different sizes"):
        restricted_hom(1, label(1, 1, 0), label(2, 1, 1, 0))


def test_adjunction_exhaustive_small():
    # Frobenius reciprocity: Hom(Ind_i S_small, S_big) = Hom(S_small, Res_i S_big)
    for m in [1, 2]:
        for n in [1, 2]:
            for i in range(n + 1):
                for small in all_class_labels(m - 1, n):
                    for big in all_class_labels(m, n):
                        induced = 1 if induce_class(i, small) == big else 0
                        assert restricted_hom(i, small, big) == induced


def test_class_label_value_semantics():
    lab = ClassLabel(2, (1, 0, 1))
    assert repr(lab) == "ClassLabel(n=2, counts=(1, 0, 1))"
    assert lab == ClassLabel(2, [1, 0, 1]) == ClassLabel._trusted(2, (1, 0, 1))
    assert hash(lab) == hash((2, (1, 0, 1)))
    assert lab != (2, (1, 0, 1)) and not lab == (2, (1, 0, 1))
    labels = [lab, ClassLabel(1, (0, 3)), ClassLabel(2, (0, 2, 0)), ClassLabel(1, (2, 0))]
    assert sorted(labels) == sorted(labels, key=lambda x: (x.n, x.counts))
    assert max(labels) == ClassLabel(2, (1, 0, 1)) and ClassLabel(2, (0, 2, 0)) < lab
    assert len({ClassLabel(2, (1, 0, 1)), lab, ClassLabel(2, (0, 1, 1))}) == 2


# ---------------------------------------------- modules that are not monomial


def direct_sum(mods) -> ExplicitModule:
    """The direct sum, through the public constructor, block by block."""
    offsets = list(itertools.accumulate((mod.dimension for mod in mods), initial=0))

    def action(d):
        return [
            {r + off: x for r, x in col.items()}
            for mod, off in zip(mods, offsets)
            for col in mod.matrix(d)
        ]

    return ExplicitModule(mods[0].m, mods[0].n, offsets[-1], action)


def invertible_pair(dim, moves):
    """(P, P⁻¹) as sparse columns: P is the product of the elementary column
    moves, each scaling column a by q (b is None) or adding q times column a
    to column b, and P⁻¹ undoes them in reverse on the rows."""
    p = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
    p_inv = [row[:] for row in p]
    for a, b, q in moves:
        if b is None:
            for row in p:
                row[a] *= q
            p_inv[a] = [x / q for x in p_inv[a]]
        elif a != b:
            for row in p:
                row[b] += q * row[a]
            p_inv[a] = [x - q * y for x, y in zip(p_inv[a], p_inv[b])]
    p, p_inv = ([{r: row[c] for r, row in enumerate(mat) if row[c]} for c in range(dim)]
                for mat in (p, p_inv))
    assert [apply(p_inv, col) for col in p] == [{c: 1} for c in range(dim)]
    return p, p_inv


def conjugated(mod, p, p_inv) -> ExplicitModule:
    """mod in the basis of P's columns: each diagram acts by P⁻¹·M(d)·P."""
    return ExplicitModule(
        mod.m, mod.n, mod.dimension,
        lambda d: [apply(p_inv, apply(mod.matrix(d), col)) for col in p],
    )


SCALARS = [Fraction(q) for q in (2, -3, "1/2", "-2/3", "5/3")]


@st.composite
def conjugated_sums(draw):
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2)]))
    labels = all_class_labels(m, n)
    summands = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3))
    dim = sum(map(class_dimension, summands))
    move = st.tuples(
        st.integers(0, dim - 1),
        st.none() | st.integers(0, dim - 1),
        st.sampled_from(SCALARS),
    )
    p, p_inv = invertible_pair(dim, draw(st.lists(move, min_size=dim, max_size=2 * dim)))
    return summands, conjugated(direct_sum([simple(lab) for lab in summands]), p, p_inv)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(conjugated_sums())
def test_conjugated_direct_sums_decompose_by_class_arithmetic(case):
    # every module a sweep decomposes is monomial; here each diagram acts by
    # a rational matrix with non-unit entries, which reaches the non-unit
    # pivots, the Fraction coordinates and the Fraction traces that cancel
    summands, mod = case
    want = Counter(summands)
    assert mod.dimension == sum(k * class_dimension(lab) for lab, k in want.items())
    assert decompose(mod) == want
    for lab in all_class_labels(mod.m, mod.n):
        assert multiplicity(mod, lab) == want[lab]
    for i in range(mod.n + 1):
        low = Counter()
        for lab, k in want.items():
            if restrict_class(i, lab) is not None:
                low[restrict_class(i, lab)] += k
        cut = restrict(i, mod)
        assert cut.dimension == sum(k * class_dimension(lab) for lab, k in low.items())
        assert decompose(cut) == low


def test_decompose_force_lists_the_classes_past_the_cap():
    # 5050 classes at (2, 99) pass no cap unforced; forced, the zero
    # module has no class
    zero = ExplicitModule(2, 99, 0, lambda d: [])
    with pytest.raises(EnumerationCapError, match=r"^classes at m=2, n=99: 5050 of them"):
        decompose(zero)
    assert decompose(zero, force=True) == {}
