"""Verification targets: defaults pass, pins shape the sweep, mutations caught."""

import gc
import random
from functools import partial

import crystal_oracle as oracle
import pytest

import planar_rook.class_crystals as cc
import planar_rook.modules as modules
import planar_rook.tableaux as tableaux
import planar_rook.verify as verify
from planar_rook import clear_caches
from planar_rook.crystals import Crystal, _image_violations, signature, to_dot
from planar_rook.diagrams import EnumerationCapError, partitions
from planar_rook.modules import ExplicitModule, SimpleModule
from planar_rook.tableaux import row_crystal, ssyt_count
from planar_rook.verify import TARGETS, compositions, verify_target


def test_every_target_passes_on_defaults():
    for name in TARGETS:
        report = verify_target(name)
        assert report["target"] == name
        assert report["checked"] > 0
        assert report["failed"] == 0
        assert "counterexamples" not in report


def test_unknown_target_rejected():
    with pytest.raises(ValueError, match="unknown verify target"):
        verify_target("thm9.9")


def test_pinned_case_controls_the_sweep():
    assert verify_target("prop2.1", m=3, n=1)["checked"] == 400
    assert verify_target("prop2.1", m=2, n=2)["checked"] == 225
    # 6 classes at m=2, n=2 plus one dimension-sum audit
    assert verify_target("thm2.2", m=2, n=2)["checked"] == 7


def test_max_flags_extend_the_sweep():
    small = verify_target("thm4.3", max_m=2, max_n=1)
    wide = verify_target("thm4.3", max_m=4, max_n=2)
    assert small["failed"] == wide["failed"] == 0
    assert small["checked"] < wide["checked"]


def test_composition_and_partition_helpers():
    assert list(compositions(0)) == [()]
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert partitions(4, 2) == [(4,), (3, 1), (2, 2)]
    assert partitions(3, 3) == [(3,), (2, 1), (1, 1, 1)]


def test_broken_raising_rule_is_reported(monkeypatch):
    # sabotage the closed-form operator; the functor route must disagree
    clear_caches()
    monkeypatch.setattr(cc, "raise_label", lambda i, label: None)
    try:
        report = verify_target("thm4.3", max_m=2, max_n=1)
        assert report["failed"] > 0
        assert report["counterexamples"]
        sample = report["counterexamples"][0]
        assert "via functors" in sample
    finally:
        monkeypatch.undo()
        clear_caches()


def test_broken_lowering_rule_breaks_the_isomorphism(monkeypatch):
    # freeze all lowering: the class crystal degenerates to isolated nodes
    clear_caches()
    monkeypatch.setattr(cc, "lower_label", lambda i, label: None)
    try:
        report = verify_target("thm4.3", max_m=2, max_n=1)
        assert report["failed"] > 0
    finally:
        monkeypatch.undo()
        clear_caches()


def test_thm43_reports_a_class_crystal_that_is_not_normal(monkeypatch):
    # without lowering moves the class crystal keeps only its raising edges,
    # so its components are not generated from their highest nodes
    clear_caches()
    monkeypatch.setattr(cc, "lower_label", lambda i, label: None)
    try:
        report = verify_target("thm4.3", max_m=2, max_n=1)
    finally:
        monkeypatch.undo()
        clear_caches()
    details = [case.get("detail", "") for case in report["counterexamples"]]
    assert any("not a normal crystal component" in d for d in details)


@pytest.mark.parametrize(
    "target,calls",
    # per color count: one product per composition of 2..4 with two or more
    # parts (11), plus the box squares, cubes and fourth powers (3)
    [("thm4.5", 2 * 11), ("signature-equivalence", 2 * (11 + 3))],
)
def test_tensor_products_of_shared_prefixes_are_built_once(monkeypatch, target, calls):
    built = []
    tensor = verify.tensor

    def counted(left, right):
        built.append((len(left), len(right)))
        return tensor(left, right)

    monkeypatch.setattr(verify, "tensor", counted)
    report = verify_target(target, max_m=4, max_n=2)
    assert report["failed"] == 0
    assert len(built) == calls


def _leftmost_minus(factors):
    """A wrong signature rule: raising on the leftmost factor with a minus
    instead of the rightmost surviving minus moves the wrong factor
    wherever two factors keep a minus."""
    factors = list(factors)
    rise, fall, eps, phi = signature(factors)
    owners = [j for j, (m, _) in enumerate(factors) if m]
    return (owners[0] if rise >= 0 else -1), fall, eps, phi


def _first_factor(factors):
    """A wrong signature rule that raises factor 0 whenever anything rises;
    one-box crystals stay right, but in 0/1/1 it raises the letter 0 to -1,
    out of the alphabet."""
    rise, fall, eps, phi = signature(factors)
    return (0 if rise >= 0 else -1), fall, eps, phi


def _leftmost_surviving_minus(factors):
    """A wrong signature rule: raising on the factor of the leftmost
    surviving minus instead of the rightmost, so raising is not the inverse
    of lowering wherever two factors keep a minus."""
    factors, plus = list(factors), 0
    rise, fall, eps, phi = signature(factors)
    for j, (m, p) in enumerate(factors):
        if m > plus:
            return j, fall, eps, phi
        plus += p - m
    return rise, fall, eps, phi


def test_a_raising_rule_that_does_not_invert_lowering_finds_no_isomorphism(monkeypatch):
    # the certificate lists the raising columns beside the lowering ones, so
    # such a component and its tableaux do not match; a certificate of
    # lowering alone matched them and the witness check raised
    clear_caches()
    monkeypatch.setattr(cc, "signature", _leftmost_surviving_minus)
    try:
        report = verify_target("component-blambda", max_m=4, max_n=2)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert (report["checked"], report["failed"]) == (36, 2)
    assert [case["detail"] for case in report["counterexamples"]] == ["no isomorphism found"] * 2


def test_signature_equivalence_reports_a_wrong_box_power_rule(monkeypatch):
    monkeypatch.setattr(tableaux, "signature", _leftmost_minus)
    report = verify_target("signature-equivalence", max_m=3, max_n=1)
    assert report["failed"] > 0
    # the binary rule raises the right-hand 1 of 1⊗1, the wrong rule the left
    assert report["counterexamples"][0] == {
        "case": "e_1 on 1/1, length=2, n=1",
        "signature": "0⊗1",
        "binary": "1⊗0",
    }


def test_signature_equivalence_reports_a_rule_that_leaves_the_alphabet(monkeypatch):
    expected = verify_target("signature-equivalence", max_m=3, max_n=1)["checked"]
    monkeypatch.setattr(tableaux, "signature", _first_factor)
    report = verify_target("signature-equivalence", max_m=3, max_n=1)
    assert report["failed"] > 0
    # the arrows the failed build would have compared still count
    assert report["checked"] == expected
    cases = {case["case"]: case for case in report["counterexamples"]}
    assert "leaves the given fillings" in cases["length=3, n=1"]["detail"]


@pytest.mark.parametrize(
    "target, case",
    # the first crystal each sweep builds through row_crystal(2, 1)
    [
        ("axioms", "row(m=2,n=1)"),
        ("thm4.3", "m=2,n=1"),
        ("thm4.5", "parts=(2,), n=1"),
        ("component-blambda", "shape=(2,), n=1"),
    ],
)
def test_a_build_that_raises_is_reported_as_a_counterexample(monkeypatch, target, case):
    # the wrong rule raises 11 to a word that is no row, which the row builder refuses
    monkeypatch.setattr(tableaux, "signature", _leftmost_minus)
    report = verify_target(target, max_m=3, max_n=1)
    assert report["failed"] > 0
    assert report["counterexamples"][0] == {
        "case": case,
        "detail": "raising 11 in direction 1 leaves the given fillings",
    }


# a sweep per target with cases below the cap before its first one over it
OVER_THE_CAP = {target: {"max_m": 60} for target in TARGETS}
OVER_THE_CAP["thm4.3"] = {"max_m": 100000, "max_n": 1}
BUILDERS = {
    verify: [
        "box_crystal",
        "row_crystal",
        "ssyt_crystal",
        "_filling_crystal",
        "tensor",
        "enumerate_diagrams",
        "all_class_labels",
    ],
    cc: ["class_crystal", "tensor_class_crystal", "highest_component"],
    modules: ["regular_module", "simple"],
}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_no_builder_runs_before_a_refusal(monkeypatch, target):
    def built(*args, **kwargs):
        raise AssertionError("built before the refusal")

    for owner, names in BUILDERS.items():
        for name in names:
            monkeypatch.setattr(owner, name, built)
    with pytest.raises(EnumerationCapError):
        verify_target(target, **OVER_THE_CAP[target])


def test_component_blambda_reports_a_component_that_is_not_normal(monkeypatch):
    # at n=1 a node whose one raising edge is dropped is a second highest node
    build = cc.highest_component

    def dropped(shape, n):
        c = build(shape, n)
        up = [list(col) for col in c.up]
        live = [b for b, t in enumerate(up[0]) if t >= 0]
        if live:
            up[0][live[0]] = -1
        return Crystal(c.n, c.wt, c.eps, c.phi, up, c.down, c.nodes, c.labels)

    monkeypatch.setattr(verify.cc, "highest_component", dropped)
    report = verify_target("component-blambda", max_m=2, max_n=1)
    assert report["failed"] > 0
    details = [case.get("detail", "") for case in report["counterexamples"]]
    assert all("not a normal crystal component" in d for d in details)


def test_signature_equivalence_reports_a_wrong_tuple_rule(monkeypatch):
    clear_caches()
    monkeypatch.setattr(cc, "signature", _leftmost_minus)
    try:
        report = verify_target("signature-equivalence", max_m=3, max_n=1)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report["failed"] > 0
    case = report["counterexamples"][0]
    assert case["case"].startswith("e_1 on ")
    assert case["signature"] != case["binary"]
    assert verify_target("signature-equivalence", max_m=3, max_n=1)["failed"] == 0


def _counting_search(monkeypatch):
    """The list that gets one entry per isomorphism search verify runs."""
    calls = []
    search = verify.isomorphism_positions
    monkeypatch.setattr(verify, "isomorphism_positions", lambda a, b: calls.append(1) or search(a, b))
    return calls


@pytest.mark.parametrize(
    "target", ["thm4.5", "thm4.3", "component-blambda", "signature-equivalence", "axioms"]
)
def test_no_crystal_target_searches_on_a_correct_sweep(monkeypatch, target):
    # each side of a correct sweep lists its nodes as the other does, so
    # equal columns settle every isomorphism by the identity
    calls = _counting_search(monkeypatch)
    assert verify_target(target, max_m=4, max_n=2)["failed"] == 0
    assert calls == []


def test_a_sweep_whose_sides_differ_in_node_order_passes_through_the_search(monkeypatch):
    # a one-node crystal reversed is itself; every other one is searched
    calls = _counting_search(monkeypatch)
    build = verify.ssyt_crystal
    monkeypatch.setattr(
        verify, "ssyt_crystal", lambda *a: oracle._restrict(c := build(*a), list(range(len(c)))[::-1])
    )
    assert verify_target("component-blambda", max_m=4, max_n=2)["failed"] == 0
    shapes = [
        (shape, n) for n in (1, 2) for total in range(1, 5) for shape in partitions(total, n + 1)
    ]
    assert len(calls) == sum(1 for shape, n in shapes if ssyt_count(shape, n) > 1) > 0


def test_unequal_columns_fall_back_to_the_search(monkeypatch):
    calls = _counting_search(monkeypatch)
    rows, classes = row_crystal(2, 2), cc.class_crystal(2, 2)
    reversed_classes = oracle._restrict(classes, list(range(len(classes)))[::-1])
    assert verify._columns(rows) == verify._columns(classes)
    assert verify._isomorphism_defects("case", rows, classes) == [] and calls == []
    assert verify._columns(rows) != verify._columns(reversed_classes)
    assert verify._isomorphism_defects("case", rows, reversed_classes) == [] and calls == [1]


def test_a_crystal_that_is_not_normal_gets_the_search_detail():
    # without its lowering edges a row crystal is no normal crystal, and its
    # columns differ from the intact one's, so the search reports it
    rows = row_crystal(2, 1)
    frozen = Crystal(rows.n, rows.wt, rows.eps, rows.phi, rows.up, [[-1] * len(rows)], rows.nodes)
    got = verify._isomorphism_defects("case", frozen, rows)
    assert "not a normal crystal component" in got[0]["detail"]


def test_thm45_builds_each_row_crystal_once(monkeypatch):
    built = []
    build = verify.row_crystal
    monkeypatch.setattr(verify, "row_crystal", lambda m, n: built.append((m, n)) or build(m, n))
    assert verify_target("thm4.5", max_m=4, max_n=2)["failed"] == 0
    assert sorted(built) == [(m, n) for m in range(1, 5) for n in (1, 2)]


def test_left_products_keep_only_products_that_can_be_prefixes(monkeypatch):
    built = []
    tensor = verify.tensor
    monkeypatch.setattr(verify, "tensor", lambda a, b: built.append(1) or tensor(a, b))
    product = verify._left_products(partial(row_crystal, n=1), 3)
    # (1, 1) is built once and kept; (1, 1, 1) has the top sum and is rebuilt
    first = product((1, 1, 1))
    product((1, 1))
    assert product((1, 1, 1)) == first
    assert len(built) == 3


def test_signature_equivalence_reports_tuple_keys_missing_from_the_product(monkeypatch):
    build = cc.tensor_class_crystal

    def misjoined(parts, n, force=False):
        c = build(parts, n, force)
        keys = [k.replace("×", "+") for k in c.nodes]
        return Crystal(c.n, c.wt, c.eps, c.phi, c.up, c.down, keys, c.labels)

    monkeypatch.setattr(cc, "tensor_class_crystal", misjoined)
    report = verify_target("signature-equivalence", max_m=2, max_n=1)
    assert report["failed"] > 0
    case = report["counterexamples"][0]
    assert "+" in case["signature"] and case["binary"] is None


def test_functors_report_a_restriction_that_is_not_a_module(monkeypatch):
    # a one-dimensional module on which every diagram acts by zero fails
    # decompose's dimension audit; the target reports it instead of raising
    def zero(i, mod):
        return ExplicitModule(mod.m - 1, mod.n, 1, lambda d: [{}])

    monkeypatch.setattr(modules, "restrict", zero)
    report = verify_target("thm3.2", max_m=2, max_n=1)
    # one restriction per class at m=1 (2) and m=2 (3), in the one color
    assert report["checked"] == report["failed"] == 5
    first = report["counterexamples"][0]
    assert first["case"] == "restrict(i=1) of 1|1,0"
    assert first["error"].startswith("dimension accounting failed")


def test_functors_catch_a_wrong_restriction_rule(monkeypatch):
    # a rule that keeps every vertex: restriction must drop one
    monkeypatch.setattr(verify, "restrict_class", lambda i, label: label)
    report = verify_target("thm3.2", max_m=2, max_n=1)
    assert report["failed"] == report["checked"] == 5
    assert report["counterexamples"][0]["expected"] == {"1|1,0": 1}


def test_adjunction_catches_a_wrong_simple_restriction(monkeypatch):
    # keep the top words ending in i - 1 instead of i
    restrict = SimpleModule.restrict

    def shifted(self, i):
        return restrict(self, (i - 1) % (self.n + 1))

    monkeypatch.setattr(SimpleModule, "restrict", shifted)
    report = verify_target("adjunction", max_m=2, max_n=1)
    assert report["failed"] > 0
    sample = report["counterexamples"][0]
    assert sample["induced side"] != sample["restricted side"]


def test_adjunction_reports_a_restriction_that_is_not_a_module(monkeypatch):
    # a one-dimensional module on which every diagram acts by zero fails
    # decompose's dimension audit; its comparisons still run, reading zero
    def zero(self, i):
        return ExplicitModule(self.m - 1, self.n, 1, lambda d: [{}])

    passing = verify_target("adjunction", m=2, n=2)
    monkeypatch.setattr(SimpleModule, "restrict", zero)
    report = verify_target("adjunction", m=2, n=2)
    # 3 colors times 3 small and 6 big classes, whether or not they pass
    assert passing["checked"] == report["checked"] == 54
    # 18 refused restrictions, and the 9 pairs whose induced side is 1
    assert report["failed"] == 27
    first = report["counterexamples"][0]
    assert first["case"] == "restrict(i=0) of 2|2,0,0"
    assert first["error"].startswith("dimension accounting failed")
    sides = [c for c in report["counterexamples"] if "induced side" in c]
    assert sides and all((c["induced side"], c["restricted side"]) == (1, 0) for c in sides)


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_bounds_below_the_command_lines_are_refused_before_any_case(monkeypatch, target):
    # the command line refuses --m 0, --n 0, --max-m -1 and --max-n 0; a
    # library call is refused the same way, before the target lists a case
    assert verify_target(target, m=1, n=1)["failed"] == 0
    assert verify_target(target, max_m=0, max_n=1)["failed"] == 0

    def unlisted(*args):
        raise AssertionError("a case was listed")

    monkeypatch.setitem(TARGETS, target, unlisted)
    refused = [{"m": 0, "n": 1}, {"m": 1, "n": 0}, {"max_m": -1}, {"max_n": 0}, {"m": 1.0}, {"n": True}]
    for sizes in refused:
        with pytest.raises(ValueError, match=r"^(max_)?[mn] must be (at least|an integer)"):
            verify_target(target, **sizes)


def test_module_sweeps_keep_no_module_alive():
    # the sweeps hold their modules for one case and release them at the end
    clear_caches()
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, ExplicitModule)}
    assert verify_target("thm3.5", max_m=3, max_n=2)["failed"] == 0
    assert verify_target("adjunction", max_m=3, max_n=2)["failed"] == 0
    gc.collect()
    left = [
        o
        for o in gc.get_objects()
        if isinstance(o, ExplicitModule) and id(o) not in before
    ]
    assert left == []


# ---------------------------------------------------------------- column paths


def _rightmost_plus(factors):
    """A wrong signature rule: lowering the factor of the rightmost
    surviving plus instead of the leftmost."""
    factors = list(factors)
    rise, _, eps, phi = signature(factors)
    pluses = oracle.signature_survivors(factors)[1]
    return rise, (pluses[-1] if pluses else -1), eps, phi


@pytest.mark.parametrize("rule", [_leftmost_minus, _rightmost_plus])
def test_component_blambda_reports_a_wrong_rule_in_the_growth(monkeypatch, rule):
    # growing a component reads the signature rule of class_crystals
    clear_caches()
    monkeypatch.setattr(cc, "signature", rule)
    try:
        report = verify_target("component-blambda", max_m=4, max_n=2)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert report["failed"] > 0 and report["counterexamples"]
    assert verify_target("component-blambda", max_m=4, max_n=2)["failed"] == 0


def _isomorphism_defects_by_witness(case, left, right, witness=None):
    """`verify._isomorphism_defects` as it read before identity witnesses
    were settled by whole columns."""
    fits = witness is not None and (len(left), left.n) == (len(right), right.n)
    if fits and not _image_violations(left, right, witness):
        return []
    try:
        if verify.isomorphism_positions(left, right) is not None:
            return []
        detail = "no isomorphism found"
    except ValueError as exc:
        detail = str(exc)
    return [{"case": case, "detail": detail}]


def _arrow_defects_by_index(ours, sep, product, where):
    """`verify._arrow_defects` as it read before a key match that is the
    identity was settled by whole columns."""
    keys = product.nodes
    index = {k: p for p, k in enumerate(keys)}
    there = [index.get(k.replace(sep, "⊗"), -1) for k in ours.nodes]
    bad = [
        {"case": f"{k}, {where}", "signature": k, "binary": None}
        for k, p in zip(ours.nodes, there)
        if p < 0
    ]
    for kind, mine, theirs in (("e", ours.up, product.up), ("f", ours.down, product.down)):
        for i, (col, other) in enumerate(zip(mine, theirs), 1):
            mapped = [-1 if t < 0 else there[t] for t in col]
            pulled = [other[p] for p in there]
            for b, (got, want) in enumerate(zip(mapped, pulled)):
                if there[b] >= 0 and got != want:
                    bad.append(
                        {
                            "case": f"{kind}_{i} on {ours.nodes[b]}, {where}",
                            "signature": None if got < 0 else keys[got],
                            "binary": None if want < 0 else keys[want],
                        }
                    )
    return bad


def _changed(crystal, **columns):
    fields = dict(
        wt=crystal.wt, eps=crystal.eps, phi=crystal.phi, up=crystal.up, down=crystal.down
    )
    fields.update(columns)
    return Crystal(crystal.n, nodes=crystal.nodes, **fields)


def _one_up_moved(crystal, seed):
    """The crystal with one raising entry, chosen by seed, sent elsewhere."""
    rng = random.Random(seed)
    d = rng.randrange(crystal.n)
    live = [b for b, t in enumerate(crystal.up[d]) if t >= 0]
    up = [list(col) for col in crystal.up]
    b = rng.choice(live)
    up[d][b] = rng.choice([t for t in range(-1, len(crystal)) if t != up[d][b]])
    return _changed(crystal, up=up)


def _one_weight_moved(crystal, seed):
    rng = random.Random(seed)
    wt = list(crystal.wt)
    b = rng.randrange(len(wt))
    wt[b] = (wt[b][0] + 1,) + wt[b][1:]
    return _changed(crystal, wt=wt)


SIDES = [((2, 1), 2), ((1, 2), 1), ((1, 1, 1), 2), ((3,), 2), ((2, 2), 1)]


@pytest.mark.parametrize("parts,n", SIDES)
@pytest.mark.parametrize("seed", range(3))
def test_an_identity_witness_reports_as_before(parts, n, seed):
    tuples = cc.tensor_class_crystal(parts, n)
    rows = oracle.tensor_columns(row_crystal(p, n) for p in parts)
    identity = list(range(len(tuples)))
    cases = [
        (tuples, rows),
        (_one_weight_moved(tuples, seed), rows),
        (tuples, _one_weight_moved(rows, seed)),
        (_one_up_moved(tuples, seed), rows),
        (tuples, _one_up_moved(rows, seed)),
    ]
    for left, right in cases:
        got = verify._isomorphism_defects("case", left, right)
        assert got == _isomorphism_defects_by_witness("case", left, right, identity)


@pytest.mark.parametrize("parts,n", SIDES)
@pytest.mark.parametrize("seed", range(3))
def test_an_identity_key_match_reports_as_before(parts, n, seed):
    ours = cc.tensor_class_crystal(parts, n)
    product = oracle.tensor_columns(cc.class_crystal(p, n) for p in parts)
    cases = [
        (ours, product),
        (_one_weight_moved(ours, seed), product),
        (_one_up_moved(ours, seed), product),
        (ours, _one_up_moved(product, seed)),
    ]
    for left, right in cases:
        got = verify._arrow_defects(left, "×", right, "where")
        assert got == _arrow_defects_by_index(left, "×", right, "where")
    assert verify._arrow_defects(ours, "×", product, "where") == []


@pytest.mark.parametrize("parts,n", SIDES)
@pytest.mark.parametrize("seed", range(3))
def test_a_key_out_of_place_is_a_counterexample_of_its_own(parts, n, seed):
    # nodes are matched by position, so each key that a permutation moves
    # is a counterexample with no binary partner, listed before any arrow
    ours = cc.tensor_class_crystal(parts, n)
    product = oracle.tensor_columns(cc.class_crystal(p, n) for p in parts)
    order = random.Random(seed).sample(range(len(ours)), len(ours))
    got = verify._arrow_defects(oracle._restrict(ours, order), "×", product, "where")
    moved = [ours.nodes[p] for b, p in enumerate(order) if p != b]
    assert moved
    keyed = [{"case": f"{k}, where", "signature": k, "binary": None} for k in moved]
    assert got[: len(moved)] == keyed


def test_a_thm45_run_builds_no_label(monkeypatch):
    # labels are built on first read, which only export, equality and repr
    # make; a verify run checks columns and keys alone
    built = []
    init = Crystal.__init__

    def spying(self, n, wt, eps, phi, up, down, nodes, labels=None):
        if callable(labels):
            build = labels
            labels = lambda keys: built.append(keys) or build(keys)  # noqa: E731
        init(self, n, wt, eps, phi, up, down, nodes, labels)

    clear_caches()
    monkeypatch.setattr(Crystal, "__init__", spying)
    try:
        assert verify_target("thm4.5", max_m=5, max_n=3)["failed"] == 0
        assert built == []
        # the spy sees an export build them
        to_dot(cc.tensor_class_crystal((2, 1), 2))
        assert built
    finally:
        monkeypatch.undo()
        clear_caches()
