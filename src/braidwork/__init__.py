"""Braid-group word problem, Hurwitz orbits and numerical bifurcation
braid monodromy.

The exact layer (words, braid equality, coefficient groups, Hurwitz
orbits, the identity catalogue and certificates) is imported with the
package.  The numerical layer (families, tracking, arcs, bifurcation) and
numpy are imported on first use of one of its names here (PEP 562), so a
program that uses only the exact layer never loads numpy."""

import importlib

from .words import BraidWord, compose, conjugate_right, invert, reduce_free, word
from .garside import equal
from .groups import Artin3, Perm3, artin_from_word, perm_from_name
from .hurwitz import OrbitTable, act_letter, act_word, orbit, schreier_generators, stabilizes
from .catalog import (
    build_e,
    half_twist_classification,
    verify_identities,
    verify_stabilizer_tables,
)
from .certificates import TOOL_VERSION, Certificate

__version__ = TOOL_VERSION

# each numerical name and the module that defines it
_NUMERICAL = {
    **dict.fromkeys(("BranchConfiguration", "WeierstrassFamily", "branch_points",
                     "catalogue_family"), "families"),
    **dict.fromkeys(("BraidTrace", "ParameterLoop", "fiber_monodromy", "loop_to_braid",
                     "star_basis", "track_loop"), "tracking"),
    **dict.fromkeys(("admissible", "chord"), "arcs"),
    "bifurcation_generators": "bifurcation",
}

__all__ = [
    "BraidWord", "compose", "conjugate_right", "invert", "reduce_free", "word",
    "equal",
    "Artin3", "Perm3", "artin_from_word", "perm_from_name",
    "OrbitTable", "act_letter", "act_word", "orbit", "schreier_generators", "stabilizes",
    "build_e", "half_twist_classification", "verify_identities", "verify_stabilizer_tables",
    "TOOL_VERSION", "Certificate",
    *_NUMERICAL,
]


def __getattr__(name: str):
    if name not in _NUMERICAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_NUMERICAL[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
