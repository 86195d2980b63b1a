"""`planar_rook.clear_caches` empties every memo in the package, and every
cached builder returns an equal result afterwards."""

import planar_rook
from planar_rook import algebra, class_crystals, diagrams, modules, tableaux
from planar_rook.modules import ClassLabel

PACKAGE_MODULES = (algebra, class_crystals, diagrams, modules, tableaux)

# one call per memo; each returns something comparable with ==
BUILDERS = {
    "enumerate": lambda: diagrams.enumerate_diagrams(3, 2),
    "words": lambda: diagrams.words_with_counts((1, 2, 1)),
    "identity": lambda: algebra.identity_element(2, 2),
    "truncation": lambda: algebra.truncation_idempotent(2, 2, 1),
    "probe": lambda: modules._probe(ClassLabel(2, (1, 1, 0))),
    "ssyt": lambda: tableaux.ssyt_crystal((2, 1), 2),
    "classes": lambda: class_crystals.class_crystal(2, 2),
    "tuples": lambda: class_crystals.tensor_class_crystal((1, 2), 2),
}


def memos():
    """Every lru_cache defined in the package's modules, by qualified name."""
    return {
        f"{mod.__name__}.{name}": fn
        for mod in PACKAGE_MODULES
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
