"""Closed-form geometry checks on the catalogued degenerating families.

These certify, numerically and over parameter grids, the qualitative
statements the monodromy computations rely on: branch points confined to
straight rays or to a common circle, merge behavior at the degeneration,
uniqueness of the double branch point of the perturbed family, and the
cusp scaling exponent of the pairwise merge.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .certificates import CheckResult
from .families import (
    COLLISION_TOL,
    _monomial_q,
    catalogue_family,
    label_points,
    merge_point,
    min_pairwise_distance,
    solve_roots,
)
from .words import Perm, pmul

GRID_SAMPLES = 100  # parameter values on the confinement grids
CONFINEMENT_TOL = 1e-9  # largest ray deviation or modulus spread allowed
EPS_MAGNITUDES = (1e-2, 1e-3, 1e-4)  # |eps| on the double-root grid
EPS_ANGLES = 16  # arguments of eps per magnitude
MU_RANGE = (1e-5, 1e-3)  # mu range of the cusp-exponent fit
MU_SAMPLES = 13  # geometric samples of mu in that range


def _sorted_by_initial(cfg0: list[complex], points: np.ndarray) -> list[complex]:
    """Match points to the labels of the initial configuration by argument."""
    out = [None] * len(cfg0)
    remaining = list(points)
    for idx, ref in enumerate(cfg0):
        j = int(np.argmin([abs(cmath.phase(z / ref)) for z in remaining]))
        out[idx] = remaining.pop(j)
    return out


def ray_confinement(k: int) -> tuple[CheckResult, ...]:
    """Branch points of the shrinking family stay on fixed rays, and the
    even-labeled points shrink to the origin as the parameter approaches 1."""
    family = catalogue_family("ray", k)
    lam_grid = np.linspace(-0.99, 0.99, GRID_SAMPLES)
    cfg0 = list(label_points(solve_roots(family.branch_coeffs({"lam": 0.0, "mu": 0.0}))))
    ray_args = [cmath.phase(z) for z in cfg0]
    max_dev = 0.0
    even_initial = [abs(cfg0[i]) for i in range(1, len(cfg0), 2)]
    even_final: list[float] = []
    for lam in lam_grid:
        pts = solve_roots(family.branch_coeffs({"lam": complex(lam), "mu": 0.0}))
        matched = _sorted_by_initial(cfg0, pts)
        for idx, z in enumerate(matched):
            dev = abs(_angle_diff(cmath.phase(z), ray_args[idx]))
            max_dev = max(max_dev, dev)
        if lam == lam_grid[-1]:
            even_final = [abs(matched[i]) for i in range(1, len(matched), 2)]
    # analytic merge rate: even points solve x^k = lam - 1
    expected_final = abs(lam_grid[-1] - 1) ** (1.0 / k)
    merge_ok = all(
        abs(m - expected_final) < 1e-6 and m < 0.5 * e0
        for m, e0 in zip(even_final, even_initial)
    )
    return (
        CheckResult(f"geometry/ray-confinement@k{k}", "ray-family",
                    "verified" if max_dev < CONFINEMENT_TOL else "failed",
                    {"max_ray_deviation": max_dev}),
        CheckResult(f"geometry/ray-merge@k{k}", "ray-family",
                    "verified" if merge_ok else "failed",
                    {"even_moduli_at_end": even_final,
                     "expected": expected_final}),
    )


def _angle_diff(a: float, b: float) -> float:
    d = (a - b) % (2 * math.pi)
    return d - 2 * math.pi if d > math.pi else d


def circle_confinement(k: int) -> tuple[CheckResult, ...]:
    """Branch points of the circle family share a common modulus at every
    parameter value, and their arguments move strictly monotonically:
    increasing for odd labels, decreasing for even labels."""
    family = catalogue_family("circle", k)
    lam_grid = np.linspace(0.0, 0.99, GRID_SAMPLES)
    cfg0 = list(label_points(solve_roots(family.branch_coeffs({"lam": 0.0}))))
    max_spread = 0.0
    args = [[] for _ in cfg0]
    prev = cfg0
    for lam in lam_grid:
        pts = solve_roots(family.branch_coeffs({"lam": complex(lam)}))
        matched = _sorted_by_initial(prev, pts)
        prev = matched
        moduli = [abs(z) for z in matched]
        max_spread = max(max_spread, max(moduli) - min(moduli))
        for idx, z in enumerate(matched):
            args[idx].append(cmath.phase(z))
    monotone_ok = True
    for idx, series in enumerate(args):
        unwrapped = np.unwrap(series)
        diffs = np.diff(unwrapped)
        if idx % 2 == 0:  # odd label
            monotone_ok &= bool(np.all(diffs > 0))
        else:
            monotone_ok &= bool(np.all(diffs < 0))
    return (
        CheckResult(f"geometry/circle-modulus@k{k}", "circle-family",
                    "verified" if max_spread < CONFINEMENT_TOL else "failed",
                    {"max_modulus_spread": max_spread}),
        CheckResult(f"geometry/circle-monotone-args@k{k}", "circle-family",
                    "verified" if monotone_ok else "failed"),
    )


def double_root_uniqueness(k: int) -> tuple[CheckResult, ...]:
    """For the perturbation with vanishing locus eps (x - alpha)^3 -
    (x^k - i)^2: exactly one double root (at alpha), all other roots
    simple and separated, for every epsilon on the grid.  That locus is
    the branch polynomial of the ``double_point`` family, whose own eps is
    a cube root of the grid value."""
    alpha = merge_point(k)
    family = catalogue_family("double_point", k)
    all_ok = True
    for mag in EPS_MAGNITUDES:
        for j in range(EPS_ANGLES):
            eps = mag * cmath.exp(2j * math.pi * (j + 0.3) / EPS_ANGLES)
            coeffs = family.branch_coeffs({"eps": eps ** (1 / 3), "alpha": alpha})
            roots = np.polynomial.polynomial.polyroots(coeffs)
            near_alpha = sorted(roots, key=lambda z: abs(z - alpha))
            double_pair = near_alpha[:2]
            rest = near_alpha[2:]
            pair_tight = all(abs(z - alpha) < 1e-4 for z in double_pair)
            rest_simple = min_pairwise_distance(np.array(rest)) > COLLISION_TOL
            rest_clear = all(abs(z - alpha) > 1e-2 for z in rest)
            all_ok &= pair_tight and rest_simple and rest_clear
    return (
        CheckResult(f"geometry/double-root-unique@k{k}", "double-point-family",
                    "verified" if all_ok else "failed",
                    {"grid": f"{EPS_ANGLES} angles x {len(EPS_MAGNITUDES)} magnitudes"}),
    )


def cusp_exponent(k: int) -> tuple[CheckResult, ...]:
    """The two branch points that merge at a root of x^k = i separate like
    |pair gap|^2 ~ mu^3 in the merge family; fit the exponent."""
    alpha = merge_point(k)
    mus = np.geomspace(*MU_RANGE, MU_SAMPLES)
    logs = []
    for mu in mus:
        # p is constant in x here, so the branch polynomial factors exactly
        # as (q - sqrt(p^3))(q + sqrt(p^3)); solving the factors keeps the
        # nearly-merged pair well conditioned
        s = cmath.sqrt(-(mu**3) / 27)
        pair = []
        for sign in (1, -1):
            coeffs = _monomial_q(k, -(1j + mu + sign * s))
            roots = solve_roots(coeffs)
            pair.append(min(roots, key=lambda z: abs(z - alpha)))
        gap_sq = abs(pair[0] - pair[1]) ** 2
        logs.append((math.log(mu), math.log(gap_sq)))
    xs = np.array([p[0] for p in logs])
    ys = np.array([p[1] for p in logs])
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = abs(slope - 3.0) < 0.05 * 3.0
    return (
        CheckResult(f"geometry/cusp-exponent@k{k}", "merge-family",
                    "verified" if ok else "failed",
                    {"fitted_exponent": slope}),
    )


# ---------------------------------------------------------------------------
# Exhaustive subgroup closure over small symmetric groups


def permutation_closure(perms: list[Perm]) -> set[Perm]:
    """Brute-force closure of a set of permutations under composition."""
    if not perms:
        return set()
    n = len(perms[0])
    identity = tuple(range(n))
    closure = {identity}
    frontier = [identity]
    gens = [tuple(p) for p in perms]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = pmul(p, g)
                if q not in closure:
                    closure.add(q)
                    nxt.append(q)
        frontier = nxt
    return closure
