"""Exact combinatorics of colored planar rook monoids, their semigroup
algebras over the rationals, the simple modules, and the crystals carried by
the categories those modules form.

The names below are the README's library tour; everything else lives in the
submodules (diagrams, algebra, modules, crystals, tableaux, class_crystals,
linalg, verify, cli).
"""

__version__ = "0.1.0"

from . import algebra, class_crystals, diagrams, modules, tableaux
from .algebra import identity_element, orbit_vector, to_orbit_basis
from .class_crystals import class_crystal, highest_component
from .crystals import are_isomorphic, check_axioms, to_dot
from .diagrams import Diagram, count_diagrams, enumerate_diagrams, flip, multiply
from .modules import ClassLabel, decompose, regular_module, restrict, simple
from .tableaux import row_crystal, ssyt_crystal


def clear_caches() -> None:
    """Drop every memoized result: words and matchings of diagrams, identity
    and truncation elements, and crystals.  The memos of words, identity
    elements and truncation elements have no bound."""
    for module in (algebra, class_crystals, diagrams, modules, tableaux):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()


__all__ = [
    "ClassLabel",
    "Diagram",
    "are_isomorphic",
    "check_axioms",
    "class_crystal",
    "clear_caches",
    "count_diagrams",
    "decompose",
    "enumerate_diagrams",
    "flip",
    "highest_component",
    "identity_element",
    "multiply",
    "orbit_vector",
    "regular_module",
    "restrict",
    "row_crystal",
    "simple",
    "ssyt_crystal",
    "to_dot",
    "to_orbit_basis",
    "__version__",
]
