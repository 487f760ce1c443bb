"""Generator realization for the bifurcation braid monodromy.

For the degree-three family with branch points at the 2k-th roots of
unity, specific parameter loops realize the generators of the band
subgroup inside the bifurcation braid monodromy group:

* loops in the two-parameter ray family around the critical values of
  x^k - k mu x realize half twists among the odd-labeled and among the
  even-labeled branch points;
* a path that first merges the first two branch points and then circles
  the resulting double point (which carries a local cusp) realizes the
  triple twist on the first pair.

Every tracked braid is rewritten in star-basis coordinates by
conjugating with the braid of a contraction that carries the branch
configuration onto labeled reference positions on the real line; the
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
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .catalog import CheckResult, _band_table, build_e, build_matrix
from .families import WeierstrassFamily, branch_points, catalogue_family
from .garside import equal
from .geometry import permutation_closure
from .tracking import (
    ParameterLoop,
    TrackOptions,
    loop_to_braid,
    track_coefficients,
    track_loop,
)
from .words import BraidWord, conjugate_right, permutation_image

PIPELINE_ANGLE = 0.0737


@dataclasses.dataclass(frozen=True)
class LoopOutcome:
    loop_id: str
    braid: BraidWord  # in star-basis coordinates
    matched: str | None  # name of the band generator it equals, if any


@dataclasses.dataclass(frozen=True)
class BifurcationReport:
    k: int
    contraction: BraidWord
    outcomes: tuple[LoopOutcome, ...]
    expected: tuple[str, ...]
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def contraction_to_reference(
    points: tuple[complex, ...], options: TrackOptions
) -> BraidWord:
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

    return loop_to_braid(track_coefficients(coeffs, options))


def _ray_critical(k: int, level: float) -> list[complex]:
    """Parameter values mu where x^k - k mu x has a double root on the
    given level: critical points satisfy x_c^k = -level/(k-1) and
    mu = x_c^(k-1), so the mu are the k-th roots of (-level/(k-1))^(k-1)."""
    if k < 2:
        return []
    rhs = complex(-level / (k - 1)) ** (k - 1)
    magnitude = abs(rhs) ** (1.0 / k)
    phase = cmath.phase(rhs)
    return [
        magnitude * cmath.exp(1j * (phase + 2 * math.pi * m) / k) for m in range(k)
    ]


def _mu_loop(
    lam0: float, mc: complex, rho_hat: float = 0.2, detour: float = 0.5
) -> ParameterLoop:
    """Travel out in the shrinking parameter, circle one critical value of
    the pair-collision parameter, and come back.  The approach leaves the
    ray of the critical value (where other critical values also sit) by a
    fixed angular detour."""
    entry = mc * (1 - rho_hat)
    waypoint = entry * cmath.exp(1j * detour)
    points = [
        {"lam": 0.0, "mu": 0.0},
        {"lam": lam0, "mu": 0.0},
        {"lam": lam0, "mu": waypoint},
        {"lam": lam0, "mu": entry},
    ]
    rho = abs(mc) * rho_hat
    start_angle = math.atan2((entry - mc).imag, (entry - mc).real)
    segments = 48
    for j in range(1, segments + 1):
        theta = start_angle + 2 * math.pi * j / segments
        points.append(
            {"lam": lam0, "mu": mc + rho * complex(math.cos(theta), math.sin(theta))}
        )
    points += [
        {"lam": lam0, "mu": waypoint},
        {"lam": lam0, "mu": 0.0},
        {"lam": 0.0, "mu": 0.0},
    ]
    return ParameterLoop.polyline(points)


def _merge_loop(k: int, s0: float = 0.4, r: float = 0.05) -> tuple[WeierstrassFamily, ParameterLoop]:
    """Path realizing the triple twist: shift the fiber so the first two
    branch points head for a common limit, switch the fiber coefficient on
    so the limit becomes a double point with a local cusp, and circle it."""
    alpha = cmath.exp(1j * math.pi / (2 * k))
    family = catalogue_family("pair_merge", k)
    fixed = {"s0": complex(s0), "alpha": alpha}

    def at(t1: complex, t2: complex, w: complex) -> dict[str, complex]:
        return {"t1": complex(t1), "t2": complex(t2), "w": complex(w), **fixed}

    points = [at(0, 0, 0), at(0, 1, 0), at(0, 1, r)]
    points += [at(t1, 1, r) for t1 in np.linspace(0.1, 1.0, 10)]
    segments = 64
    points += [
        at(1, 1, r * cmath.exp(2j * math.pi * j / segments))
        for j in range(1, segments + 1)
    ]
    points += [at(t1, 1, r) for t1 in np.linspace(0.9, 0.0, 10)]
    points += [at(0, 1, 0), at(0, 0, 0)]
    return family, ParameterLoop.polyline(points)


def expected_generators(k: int) -> dict[str, BraidWord]:
    n = max(2 * k, 2)
    matrix = build_matrix(n)
    names = {"e_12": build_e(1, 2, matrix)}
    for nu in range(1, n - 1):
        names[f"e_{nu}{nu + 2}"] = build_e(nu, nu + 2, matrix)
    return names


def bifurcation_generators(
    k: int,
    lam0: float = 0.9,
    options: TrackOptions | None = None,
) -> BifurcationReport:
    """Track the catalogued loops for x-degree k and match the resulting
    braids, rewritten in star-basis coordinates, against the band
    generators."""
    if k not in (1, 2, 3):
        raise ValueError("generator realization is catalogued for k = 1, 2, 3")
    options = options or TrackOptions(projection_angle=PIPELINE_ANGLE)

    if k == 1:
        cusp = catalogue_family("cusp")
        loop = ParameterLoop.circle("lam", 0.0, 1.0)
        trace = track_loop(cusp, loop, options)
        braid = loop_to_braid(trace)
        config = branch_points(cusp, {"lam": 1.0})
        conj = contraction_to_reference(config.points, options)
        std = conjugate_right(braid, conj)
        expected = expected_generators(1)
        ok = equal(std, expected["e_12"])
        outcome = LoopOutcome("cusp-circle", std, "e_12" if ok else None)
        results = (
            CheckResult("bifurcation/e_12@k1", "generator-realization",
                        "verified" if ok else "failed"),
        )
        return BifurcationReport(1, conj, (outcome,), ("e_12",), results)

    n = 2 * k
    ray = catalogue_family("ray", k)
    base = branch_points(ray, {"lam": 0.0, "mu": 0.0})
    conj = contraction_to_reference(base.points, options)

    outcomes: list[LoopOutcome] = []
    band = {f"e_{i}{j}": w for (i, j), w in _band_table(n).items()}

    def classify(loop_id: str, braid_std: BraidWord):
        matched = None
        for name, wrd in band.items():
            if equal(braid_std, wrd):
                matched = name
                break
        outcomes.append(LoopOutcome(loop_id, braid_std, matched))

    for parity, level in (("odd", lam0 + 1), ("even", lam0 - 1)):
        for idx, mc in enumerate(_ray_critical(k, level)):
            loop = _mu_loop(lam0, mc)
            trace = track_loop(ray, loop, options)
            std = conjugate_right(loop_to_braid(trace), conj)
            classify(f"ray-{parity}-{idx}", std)

    merge_family, merge_loop = _merge_loop(k)
    merge_base = branch_points(
        merge_family, merge_loop.points[0], options.collision_tol
    )
    if any(abs(a - b) > 1e-9 for a, b in zip(merge_base.points, base.points)):
        raise RuntimeError("merge-family base configuration mismatch")
    trace = track_loop(merge_family, merge_loop, options)
    classify("pair-merge", conjugate_right(loop_to_braid(trace), conj))

    expected = expected_generators(k)
    matched_names = {o.matched for o in outcomes if o.matched}
    results = [
        CheckResult(f"bifurcation/{name}@k{k}", "generator-realization",
                    "verified" if name in matched_names else "failed")
        for name in expected
    ]

    # permutation-level cross check against the exhaustive closure oracle
    computed_perms = [permutation_image(o.braid) for o in outcomes]
    expected_perms = [permutation_image(w) for w in expected.values()]
    closure_ok = permutation_closure(computed_perms) == permutation_closure(expected_perms)
    results.append(
        CheckResult(f"bifurcation/permutation-closure@k{k}", "generator-realization",
                    "verified" if closure_ok else "failed",
                    {"closure_size": len(permutation_closure(computed_perms))})
    )

    return BifurcationReport(
        k, conj, tuple(outcomes), tuple(expected.keys()), tuple(results)
    )


def full_braid_monodromy_check(k: int = 3, options: TrackOptions | None = None) -> tuple[CheckResult, ...]:
    """For the degree-two family whose branch points follow x^k - k x =
    lam: braids from loops around the k-1 critical levels have permutation
    images generating the full symmetric group on k letters."""
    options = options or TrackOptions(projection_angle=PIPELINE_ANGLE)
    family = catalogue_family("tame", k)
    criticals = [complex(-(k - 1) * z**k)
                 for z in [cmath.exp(2j * math.pi * m / (k - 1)) for m in range(k - 1)]]
    perms = []
    for idx, lam_c in enumerate(criticals):
        entry = lam_c * (1 - 0.25) if abs(lam_c) > 1e-9 else 0.5
        points = [{"lam": 0.0}, {"lam": entry}]
        rho = 0.25 * abs(lam_c)
        start_angle = math.atan2((entry - lam_c).imag, (entry - lam_c).real)
        for j in range(1, 49):
            theta = start_angle + 2 * math.pi * j / 48
            points.append({"lam": lam_c + rho * complex(math.cos(theta), math.sin(theta))})
        points += [{"lam": entry}, {"lam": 0.0}]
        trace = track_loop(family, ParameterLoop.polyline(points), options)
        perms.append(permutation_image(loop_to_braid(trace)))
    closure = permutation_closure(perms)
    ok = len(closure) == math.factorial(k)
    return (
        CheckResult(f"degtwo/full-symmetric-group@k{k}", "degree-two-family",
                    "verified" if ok else "failed",
                    {"closure_size": len(closure), "expected": math.factorial(k)}),
    )
