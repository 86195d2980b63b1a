"""`planar_rook.clear_caches` empties every memo in the package, and every
cached builder returns an equal result afterwards."""

from importlib import import_module

import pytest

import planar_rook
from planar_rook import algebra, class_crystals, classes, cli, diagrams, modules, tableaux

# one call per memo; each returns something comparable with ==
BUILDERS = {
    "enumerate": lambda: diagrams.enumerate_diagrams(3, 2),
    "words": lambda: diagrams.words_with_counts((1, 2, 1)),
    "identity": lambda: algebra.identity_element(2, 2),
    "truncation": lambda: algebra.truncation_idempotent(2, 2, 1),
    "ssyt": lambda: tableaux.ssyt_crystal((2, 1), 2),
    "classes": lambda: class_crystals.class_crystal(2, 2),
    "tuples": lambda: class_crystals.tensor_class_crystal((1, 2), 2),
}


def memos():
    """Every lru_cache defined in the package's modules, by qualified name."""
    return {
        f"{mod.__name__}.{name}": fn
        for mod in (import_module(f"planar_rook.{sub}") for sub in planar_rook._SUBMODULES)
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__
    }


def test_clear_caches_empties_every_memo_and_rebuilds_equal_results():
    before = {name: build() for name, build in BUILDERS.items()}
    assert {n: f.cache_info().currsize > 0 for n, f in memos().items()} == {
        n: True for n in memos()
    }
    planar_rook.clear_caches()
    assert {n: f.cache_info().currsize for n, f in memos().items()} == {
        n: 0 for n in memos()
    }
    after = {name: build() for name, build in BUILDERS.items()}
    assert after == before


# A bool hashes and compares equal to an int, so a memo keyed by a bool size
# would serve its result to later callers that pass the int; a float would
# fail deep inside the builders.  Every public entry refuses both first.
NON_INT_CALLS = {
    "enumerate bool": lambda: diagrams.enumerate_diagrams(2, True),
    "enumerate float": lambda: diagrams.enumerate_diagrams(2.0, 1),
    "labels": lambda: classes.all_class_labels(2, 1.0),
    "labels size": lambda: classes.all_class_labels(True, 1),
    "classes bool": lambda: class_crystals.class_crystal(2, True),
    "classes float": lambda: class_crystals.class_crystal(2.0, 1),
    "tuples": lambda: class_crystals.tensor_class_crystal((2,), 1.0),
    "highest": lambda: class_crystals.highest_component((2, 1), 1.0),
    "regular": lambda: modules.regular_module(2, True),
    "regular decomposition": lambda: classes.regular_decomposition(2.0, 1),
    "identity": lambda: algebra.identity_element(2, True),
    "truncation": lambda: algebra.truncation_idempotent(2, 1.0, 1),
    "truncation color": lambda: algebra.truncation_idempotent(2, 1, True),
    "row bool": lambda: tableaux.row_crystal(2, True),
    "row float": lambda: tableaux.row_crystal(2.0, 1),
    "box float": lambda: tableaux.box_crystal(1.5),
    "ssyt bool": lambda: tableaux.ssyt_crystal((2, 1), True),
}


@pytest.mark.parametrize("name", sorted(NON_INT_CALLS))
def test_non_int_sizes_are_refused_before_any_memo(name):
    planar_rook.clear_caches()
    with pytest.raises(ValueError, match="must be an integer"):
        NON_INT_CALLS[name]()
    assert {n: f.cache_info().currsize for n, f in memos().items()} == {n: 0 for n in memos()}


# A negative size or a missing color is refused in one line before any memo
# too, not built as a module with n = 0 or failed inside itertools.
OUT_OF_RANGE_CALLS = {
    "enumerate no colors": lambda: diagrams.enumerate_diagrams(2, 0),
    "enumerate negative": lambda: diagrams.enumerate_diagrams(-1, 1),
    "labels negative": lambda: classes.all_class_labels(-1, 1),
    "identity no colors": lambda: algebra.identity_element(2, 0),
    "identity negative": lambda: algebra.identity_element(-2, 1),
    "truncation no colors": lambda: algebra.truncation_idempotent(2, 0, 0),
    "truncation size 0": lambda: algebra.truncation_idempotent(0, 1, 0),
    "regular no colors": lambda: modules.regular_module(2, 0),
    "regular decomposition no colors": lambda: classes.regular_decomposition(2, 0),
    "regular decomposition negative": lambda: classes.regular_decomposition(-1, 1),
    "row negative": lambda: tableaux.row_crystal(-1, 1),
    "row no colors": lambda: tableaux.row_crystal(2, 0),
    "box no colors": lambda: tableaux.box_crystal(0),
    "ssyt no colors": lambda: tableaux.ssyt_crystal((1,), 0),
    "highest negative colors": lambda: class_crystals.highest_component((1,), -1),
    "classes no colors": lambda: class_crystals.class_crystal(2, 0),
    "classes negative": lambda: class_crystals.class_crystal(-1, 1),
    "tuples no colors": lambda: class_crystals.tensor_class_crystal((1,), 0),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_CALLS))
def test_out_of_range_sizes_are_refused_before_any_memo(name):
    planar_rook.clear_caches()
    with pytest.raises(ValueError, match=r"^[mn] must be at least [01], got -?\d+$"):
        OUT_OF_RANGE_CALLS[name]()
    assert {n: f.cache_info().currsize for n, f in memos().items()} == {n: 0 for n in memos()}


def test_a_refused_bool_size_leaves_later_int_callers_alone(capsys):
    planar_rook.clear_caches()
    for refused in ("classes bool", "enumerate bool"):
        with pytest.raises(ValueError):
            NON_INT_CALLS[refused]()
    assert type(diagrams.enumerate_diagrams(2, 1)[0].to_json_dict()["n"]) is int
    assert cli.main(["crystal", "cm", "--m", "2", "--n", "1", "--json", "-"]) == 0
    assert '"n": 1,' in capsys.readouterr().out
