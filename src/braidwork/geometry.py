"""Closed-form geometry checks on the catalogued degenerating families.

These certify, numerically and over parameter grids, the qualitative
statements the monodromy computations rely on: branch points confined to
straight rays or to a common circle, merge behavior at the degeneration,
uniqueness of the double branch point of the perturbed family, and the
cusp scaling exponent of the pairwise merge.

Both confinement checks walk their grid through ``_follow``: it solves the
start value and every grid value in one stacked call
(``families.solve_stack``), labels the branch points at the start, then
matches each grid value's points, by argument, to the labels of the value
before.  The cusp-exponent factors and the double-root grid are solved in
one stacked call each too.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .certificates import CheckResult
from .families import (
    COLLISION_TOL,
    WeierstrassFamily,
    catalogue_family,
    label_points,
    merge_point,
    min_pairwise_distance,
    solve_stack,
)

GRID_SAMPLES = 100  # parameter values on the confinement grids
CONFINEMENT_TOL = 1e-9  # largest ray deviation or modulus spread allowed
EPS_MAGNITUDES = (1e-2, 1e-3, 1e-4)  # |eps| on the double-root grid
EPS_ANGLES = 16  # arguments of eps per magnitude
MU_RANGE = (1e-5, 1e-3)  # mu range of the cusp-exponent fit
MU_SAMPLES = 13  # geometric samples of mu in that range


def _roots(rows: list[np.ndarray], polish: bool) -> list[np.ndarray]:
    """Each row's roots from one ``solve_stack`` call; the first failing
    row raises."""
    solved = solve_stack(rows, polish)
    for roots in solved:
        if isinstance(roots, Exception):
            raise roots
    return solved


def _follow(family: WeierstrassFamily, params: list[dict[str, complex]],
            start: dict[str, complex]) -> list[list[complex]]:
    """The branch points at ``start`` in label order, then at each of
    ``params`` in turn, each matched by argument to the labels of the
    configuration before it."""
    first, *rest = _roots([family.branch_coeffs(t) for t in [start, *params]], True)
    configs = [list(label_points(first))]
    for roots in rest:
        remaining = list(roots)
        matched = []
        for ref in configs[-1]:
            j = int(np.argmin([abs(cmath.phase(z / ref)) for z in remaining]))
            matched.append(remaining.pop(j))
        configs.append(matched)
    return configs


def ray_confinement(k: int) -> tuple[CheckResult, ...]:
    """Branch points of the shrinking family stay on fixed rays, and the
    even-labeled points shrink to the origin as the parameter approaches 1."""
    lam_grid = np.linspace(-0.99, 0.99, GRID_SAMPLES)
    cfg0, *path = _follow(catalogue_family("ray", k),
                          [{"lam": complex(lam), "mu": 0.0} for lam in lam_grid],
                          {"lam": 0.0, "mu": 0.0})
    max_dev = max(abs(_angle_diff(cmath.phase(z), cmath.phase(z0)))
                  for cfg in path for z, z0 in zip(cfg, cfg0))
    even_initial = [abs(z) for z in cfg0[1::2]]
    even_final = [abs(z) for z in path[-1][1::2]]
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
    lam_grid = np.linspace(0.0, 0.99, GRID_SAMPLES)
    _, *path = _follow(catalogue_family("circle", k),
                       [{"lam": complex(lam)} for lam in lam_grid], {"lam": 0.0})
    max_spread = max(max(map(abs, cfg)) - min(map(abs, cfg)) for cfg in path)
    args = zip(*[[cmath.phase(z) for z in cfg] for cfg in path])
    # label idx + 1 is odd for even idx, whose arguments must increase
    monotone_ok = all(bool(np.all(np.diff(np.unwrap(series)) * (-1) ** idx > 0))
                      for idx, series in enumerate(args))
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
    eps_grid = [mag * cmath.exp(2j * math.pi * (j + 0.3) / EPS_ANGLES)
                for mag in EPS_MAGNITUDES for j in range(EPS_ANGLES)]
    all_ok = True
    # the companion step alone: the pair near alpha is a double root
    for roots in _roots([family.branch_coeffs({"eps": eps ** (1 / 3), "alpha": alpha})
                         for eps in eps_grid], False):
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
    family = catalogue_family("cusp_merge", k)
    mus = np.geomspace(*MU_RANGE, MU_SAMPLES)
    # p = -mu/3 is constant in x here, so the branch polynomial factors
    # exactly as (q - sqrt(p^3))(q + sqrt(p^3)); solving the factors keeps
    # the nearly-merged pair well conditioned.  sqrt(p^3) is written out,
    # as the family's (-mu/3)^3 rounds differently.
    factors = []
    for mu in mus:
        s = cmath.sqrt(-(mu**3) / 27)
        q = family.q_array({"mu": mu})
        for sign in (1, -1):
            coeffs = q.copy()
            coeffs[0] -= sign * s
            factors.append(coeffs)
    pair = [min(roots, key=lambda z: abs(z - alpha)) for roots in _roots(factors, True)]
    xs = [math.log(mu) for mu in mus]
    ys = [math.log(abs(a - b) ** 2) for a, b in zip(pair[::2], pair[1::2])]
    slope = float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
    ok = abs(slope - 3.0) < 0.05 * 3.0
    return (
        CheckResult(f"geometry/cusp-exponent@k{k}", "merge-family",
                    "verified" if ok else "failed",
                    {"fitted_exponent": slope}),
    )

