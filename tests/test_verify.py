"""Verification targets: defaults pass, pins shape the sweep, mutations caught."""

import pytest

import planar_rook.class_crystals as cc
from planar_rook import clear_caches
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
    assert compositions(0) == [()]
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
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
