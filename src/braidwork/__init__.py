"""Braid-group word problem, Hurwitz orbits and numerical bifurcation
braid monodromy."""

from .words import BraidWord, compose, conjugate_right, invert, reduce_free, word
from .garside import NormalForm, equal, normal_form
from .groups import Artin3, Perm3, artin_from_word, perm_from_name
from .hurwitz import OrbitTable, act_letter, act_word, orbit, schreier_generators, stabilizes
from .catalog import (
    build_e,
    half_twist_classification,
    verify_identities,
    verify_stabilizer_tables,
)
from .families import BranchConfiguration, WeierstrassFamily, branch_points, catalogue_family
from .tracking import BraidTrace, ParameterLoop, fiber_monodromy, loop_to_braid, star_basis, track_loop
from .arcs import admissible, chord
from .bifurcation import bifurcation_generators
from .certificates import TOOL_VERSION, Certificate

__version__ = TOOL_VERSION
