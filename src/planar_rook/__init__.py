"""Exact combinatorics of colored planar rook monoids, their semigroup
algebras over the rationals, the simple modules, and the crystals carried by
the categories those modules form.

The names below are the README's library tour; everything else lives in the
submodules (diagrams, classes, algebra, linalg, modules, crystals, tableaux,
class_crystals, verify, cli).  Importing the package loads none of them: a
tour name or a submodule is imported on first access, so a command loads
only the layers it runs.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# the submodules, and the tour names each one defines
_SUBMODULES = (
    "algebra", "class_crystals", "classes", "cli", "crystals",
    "diagrams", "linalg", "modules", "tableaux", "verify",
)
_TOUR = {
    "algebra": ("identity_element", "orbit_vector", "to_orbit_basis"),
    "class_crystals": ("class_crystal", "highest_component"),
    "classes": ("ClassLabel",),
    "crystals": ("are_isomorphic", "check_axioms", "to_dot"),
    "diagrams": ("Diagram", "count_diagrams", "enumerate_diagrams", "flip", "multiply"),
    "modules": ("decompose", "regular_module", "restrict", "simple"),
    "tableaux": ("row_crystal", "ssyt_crystal"),
}
_HOME = {name: module for module, names in _TOUR.items() for name in names}


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def clear_caches() -> None:
    """Drop every memoized result: words and matchings of diagrams, identity
    and truncation elements, and crystals.  The memos of words, identity
    elements and truncation elements have no bound.  A submodule that is not
    loaded holds no memo, so only the loaded ones are cleared."""
    for name in _SUBMODULES:
        module = sys.modules.get(f"{__name__}.{name}")
        for memo in vars(module).values() if module else ():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()


__all__ = [*_HOME, "clear_caches", "__version__"]
