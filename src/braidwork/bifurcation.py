"""Generator realization for the bifurcation braid monodromy.

For the degree-three family with branch points at the 2k-th roots of
unity, specific parameter loops realize the generators of the band
subgroup inside the bifurcation braid monodromy group:

* loops in the two-parameter ray family around the critical values of
  x^k - k mu x realize half twists among the odd-labeled and among the
  even-labeled branch points;
* a path that first merges the first two branch points and then circles
  the resulting double point (which carries a local cusp) realizes the
  triple twist on the first pair;
* at k = 1, one circle in the cusp family's parameter realizes it.

``_catalogued_loops`` gives each k its base configuration and its loops.
Each loop takes one path: it is tracked, its braid is rewritten in
star-basis coordinates by conjugating with the braid of a contraction
that carries the base configuration onto labeled reference positions on
the real line, and the result is looked up in the band table.  The
contraction moves each point along a spiral (radii distinct for every
positive time, arguments distinct at the start), so it is collision free
by construction.

All traces of one run share a single projection angle so their words
compose meaningfully.  The computed set may contain band elements beyond
the expected generators; these are reported, not discarded.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .catalog import _band_table
from .certificates import CheckResult
from .families import WeierstrassFamily, branch_points, catalogue_family, merge_point
from .garside import normal_form
from .tracking import ParameterLoop, lasso, loop_to_braid, track_coefficients, track_loop
from .words import BraidWord, Perm, conjugate_right, permutation_image, pmul

PIPELINE_ANGLE = 0.0737  # projection angle shared by every trace of a run
LAM0 = 0.9  # the shrinking parameter where the ray loops circle mu
RHO_HAT = 0.2  # ray-loop circle radius over |critical value|
DETOUR = cmath.exp(0.5j)  # the ray-loop approach turns 0.5 rad off the ray
S0 = 0.4  # slope in x of the pair-merge family's p once t1 = 1
MERGE_RADIUS = 0.05  # radius of the w circle round the double point


@dataclasses.dataclass(frozen=True)
class LoopOutcome:
    loop_id: str
    braid: BraidWord  # in star-basis coordinates
    matched: str | None  # name of the band generator it equals, if any


@dataclasses.dataclass(frozen=True)
class BifurcationReport:
    contraction: BraidWord
    outcomes: tuple[LoopOutcome, ...]
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def contraction_to_reference(points: tuple[complex, ...]) -> BraidWord:
    """Braid of the spiral contraction taking labeled points onto the real
    positions 1, 2, ..., m."""
    args = [math.atan2(z.imag, z.real) % (2 * math.pi) for z in points]
    radii = [abs(z) for z in points]

    def coeffs(s: float) -> np.ndarray:
        positions = [
            ((1 - s) * r + s * (j + 1))
            * complex(math.cos(a * (1 - s)), math.sin(a * (1 - s)))
            for j, (r, a) in enumerate(zip(radii, args))
        ]
        return npoly.polyfromroots(positions)

    return loop_to_braid(track_coefficients(coeffs, projection_angle=PIPELINE_ANGLE))


def _ray_critical(k: int, level: float) -> list[complex]:
    """Parameter values mu where x^k - k mu x (k >= 2) has a double root on
    the given level: critical points satisfy x_c^k = -level/(k-1) and
    mu = x_c^(k-1), so the mu are the k-th roots of (-level/(k-1))^(k-1)."""
    rhs = complex(-level / (k - 1)) ** (k - 1)
    magnitude = abs(rhs) ** (1.0 / k)
    phase = cmath.phase(rhs)
    return [
        magnitude * cmath.exp(1j * (phase + 2 * math.pi * m) / k) for m in range(k)
    ]


def _tame_critical(k: int) -> list[complex]:
    """Critical values -(k-1) z^k of x^k - k x, z running over the
    (k-1)-th roots of unity."""
    return [complex(-(k - 1) * z**k)
            for z in [cmath.exp(2j * math.pi * m / (k - 1)) for m in range(k - 1)]]


def _mu_loop(mc: complex) -> ParameterLoop:
    """Travel out in the shrinking parameter, circle one critical value of
    the pair-collision parameter, and come back.  The approach leaves the
    ray of the critical value (where other critical values also sit) by a
    fixed angular detour."""
    entry = mc * (1 - RHO_HAT)
    approach = [
        {"lam": 0.0, "mu": 0.0},
        {"lam": LAM0, "mu": 0.0},
        {"lam": LAM0, "mu": entry * DETOUR},
        {"lam": LAM0, "mu": entry},
    ]
    return ParameterLoop.polyline(lasso(approach, mc, abs(mc) * RHO_HAT, 48, "mu"))


def _merge_loop(k: int) -> tuple[WeierstrassFamily, ParameterLoop]:
    """Path realizing the triple twist: shift the fiber so the first two
    branch points head for a common limit, switch the fiber coefficient on
    so the limit becomes a double point with a local cusp, and circle it."""
    family = catalogue_family("pair_merge", k)
    fixed = {"s0": complex(S0), "alpha": merge_point(k)}

    def at(t1: complex, t2: complex, w: complex) -> dict[str, complex]:
        return {"t1": complex(t1), "t2": complex(t2), "w": complex(w), **fixed}

    r = MERGE_RADIUS
    approach = [at(0, 0, 0), at(0, 1, 0), at(0, 1, r)]
    approach += [at(t1, 1, r) for t1 in np.linspace(0.1, 1.0, 10)]
    return family, ParameterLoop.polyline(lasso(approach, 0, r, 64, "w"))


def _catalogued_loops(
    k: int,
) -> tuple[tuple[complex, ...], list[tuple[str, WeierstrassFamily, ParameterLoop]]]:
    """The base branch points of the loops for x-degree k, and the loops
    as (loop id, family, loop).  At k = 1 the one loop is the cusp
    family's unit circle.  Otherwise the ray loops circle each critical
    value, and the merge loop starts at the ray family's base
    configuration (both have branch polynomial 1 - x^(2k) there)."""
    if k == 1:
        cusp = catalogue_family("cusp")
        circle = ParameterLoop.circle("lam", 0.0, 1.0)
        return branch_points(cusp, {"lam": 1.0}).points, [("cusp-circle", cusp, circle)]
    ray = catalogue_family("ray", k)
    loops = [(f"ray-{parity}-{idx}", ray, _mu_loop(mc))
             for parity, level in (("odd", LAM0 + 1), ("even", LAM0 - 1))
             for idx, mc in enumerate(_ray_critical(k, level))]
    loops.append(("pair-merge", *_merge_loop(k)))
    return branch_points(ray, {"lam": 0.0, "mu": 0.0}).points, loops


def expected_generators(k: int) -> dict[str, BraidWord]:
    band = _band_table(2 * k)
    pairs = [(1, 2)] + [(nu, nu + 2) for nu in range(1, 2 * k - 1)]
    return {f"e_{i}{j}": band[i, j] for i, j in pairs}


def bifurcation_generators(k: int) -> BifurcationReport:
    """Track the catalogued loops for x-degree k and match the resulting
    braids, rewritten in star-basis coordinates, against the band
    generators."""
    if k not in (1, 2, 3):
        raise ValueError("generator realization is catalogued for k = 1, 2, 3")
    base, loops = _catalogued_loops(k)
    conj = contraction_to_reference(base)
    band = {normal_form(w): f"e_{i}{j}" for (i, j), w in _band_table(2 * k).items()}
    outcomes = []
    for loop_id, family, loop in loops:
        trace = track_loop(family, loop, projection_angle=PIPELINE_ANGLE)
        std = conjugate_right(loop_to_braid(trace), conj)
        matched = band.get(normal_form(std))
        outcomes.append(LoopOutcome(loop_id, std, matched))

    matched_names = {o.matched for o in outcomes}
    results = tuple(
        CheckResult(f"bifurcation/{name}@k{k}", "generator-realization",
                    "verified" if name in matched_names else "failed")
        for name in expected_generators(k)
    )
    return BifurcationReport(conj, tuple(outcomes), results)


def _full_symmetric_group_row(k: int, perms: list[Perm]) -> CheckResult:
    """The degtwo row for the permutation images ``perms`` of loops in a
    family with k branch points: verified when each image is a
    transposition and their product, folded in loop order, is one k-cycle.
    Such transpositions generate S_k: each cycle of a product of
    transpositions lies in one component of the graph whose edges they
    are, so that graph is connected (Hurwitz 1891; Denes 1959).  The
    witness is each image's moved points, 1-based."""
    moved = [[i + 1 for i, x in enumerate(p) if x != i] for p in perms]
    product = functools.reduce(pmul, perms, tuple(range(k)))
    cycle, x = 1, product[0]
    while x != 0:
        cycle, x = cycle + 1, product[x]
    ok = all(len(points) == 2 for points in moved) and cycle == k
    return CheckResult(f"degtwo/full-symmetric-group@k{k}", "degree-two-family",
                       "verified" if ok else "failed", {"transpositions": moved})


def full_braid_monodromy_check(k: int) -> tuple[CheckResult, ...]:
    """For the degree-two family whose branch points follow x^k - k x =
    lam: braids from loops around the k-1 critical levels have permutation
    images generating the full symmetric group on k letters, decided by
    cycle type (``_full_symmetric_group_row``)."""
    family = catalogue_family("tame", k)
    perms = []
    for lam_c in _tame_critical(k):
        approach = [{"lam": 0.0}, {"lam": lam_c * (1 - 0.25)}]
        loop = ParameterLoop.polyline(lasso(approach, lam_c, 0.25 * abs(lam_c), 48, "lam"))
        trace = track_loop(family, loop, projection_angle=PIPELINE_ANGLE)
        perms.append(permutation_image(loop_to_braid(trace)))
    return (_full_symmetric_group_row(k, perms),)
