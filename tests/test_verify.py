"""Verification targets: defaults pass, pins shape the sweep, mutations caught."""

import gc
from functools import partial

import pytest

import planar_rook.class_crystals as cc
import planar_rook.tableaux as tableaux
import planar_rook.verify as verify
from planar_rook import clear_caches
from planar_rook.crystals import Crystal, signature
from planar_rook.modules import ExplicitModule, SimpleModule
from planar_rook.tableaux import row_crystal
from planar_rook.verify import TARGETS, compositions, partitions, verify_target


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

    monkeypatch.setattr(verify, "restrict", zero)
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
