"""Parameterized plane polynomial families and their branch points.

A family is a fiber polynomial in y over the x-line, either
y^3 - 3 p(x, t) y + 2 q(x, t) or y^2 + q(x, t), with p and q given as
coefficient arrays in x whose entries are polynomial expressions in named
parameters.  The branch points at a parameter value are the roots in x of
p^3 - q^2 (cubic fibers) or of q (quadratic fibers); a configuration with
a near-double root is flagged as degenerate, never silently returned.

Branch points are labeled by increasing argument starting from the point
closest to 1, matching the labeling used by all catalogued computations.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Iterable

import numpy as np
import sympy as sp
from numpy.polynomial import polynomial as npoly

DEFAULT_COLLISION_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-12


class DegenerateConfigurationError(RuntimeError):
    """A branch configuration has a (near-)multiple point."""


def _to_expr(entry, symbols: dict[str, sp.Symbol]) -> sp.Expr:
    if isinstance(entry, str):
        return sp.sympify(entry, locals=dict(symbols))
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return sp.sympify(complex(entry[0], entry[1]))
    return sp.sympify(entry)


class WeierstrassFamily:
    """A plane polynomial family with named complex parameters."""

    def __init__(
        self,
        y_degree: int,
        params: Iterable[str],
        p_coeffs: Iterable = (),
        q_coeffs: Iterable = (),
        catalogue_id: str | None = None,
        degenerations: str | None = None,
    ):
        if y_degree not in (2, 3):
            raise ValueError("fiber degree must be 2 or 3")
        self.y_degree = y_degree
        self.params = tuple(params)
        self.catalogue_id = catalogue_id
        self.degenerations = degenerations
        symbols = {name: sp.Symbol(name) for name in self.params}
        self._p_exprs = tuple(_to_expr(c, symbols) for c in p_coeffs)
        self._q_exprs = tuple(_to_expr(c, symbols) for c in q_coeffs)
        if y_degree == 2 and self._p_exprs:
            raise ValueError("quadratic fibers take no p coefficients")
        if not self._q_exprs:
            raise ValueError("q coefficients are required")
        args = [symbols[name] for name in self.params]
        self._p_fn = sp.lambdify(args, list(self._p_exprs), "numpy") if self._p_exprs else None
        self._q_fn = sp.lambdify(args, list(self._q_exprs), "numpy")

    def _values(self, t: dict[str, complex]) -> list[complex]:
        missing = [name for name in self.params if name not in t]
        if missing:
            raise ValueError(f"missing parameter values: {missing}")
        return [complex(t[name]) for name in self.params]

    def p_array(self, t: dict[str, complex]) -> np.ndarray:
        if self._p_fn is None:
            return np.zeros(1, dtype=complex)
        return np.asarray(self._p_fn(*self._values(t)), dtype=complex)

    def q_array(self, t: dict[str, complex]) -> np.ndarray:
        return np.asarray(self._q_fn(*self._values(t)), dtype=complex)

    def branch_coeffs(self, t: dict[str, complex]) -> np.ndarray:
        """Coefficients in x (low to high) whose roots are the branch points."""
        q = self.q_array(t)
        if self.y_degree == 2:
            return q
        p = self.p_array(t)
        return npoly.polysub(npoly.polypow(p, 3), npoly.polypow(q, 2))

    def fiber_coeffs(self, x: complex, t: dict[str, complex]) -> np.ndarray:
        """Coefficients in y (low to high) of the fiber polynomial over x."""
        q = complex(npoly.polyval(x, self.q_array(t)))
        if self.y_degree == 2:
            return np.array([q, 0.0, 1.0], dtype=complex)
        p = complex(npoly.polyval(x, self.p_array(t)))
        return np.array([2 * q, -3 * p, 0.0, 1.0], dtype=complex)

    def to_json(self) -> dict:
        return {
            "catalogue_id": self.catalogue_id,
            "y_degree": self.y_degree,
            "params": list(self.params),
            "p_coeffs": [str(c) for c in self._p_exprs],
            "q_coeffs": [str(c) for c in self._q_exprs],
        }

    @staticmethod
    def from_json(data: dict) -> "WeierstrassFamily":
        if "catalogue_id" in data and data["catalogue_id"] and "q_coeffs" not in data:
            return catalogue_family(data["catalogue_id"], int(data.get("k", 1)))
        return WeierstrassFamily(
            y_degree=int(data["y_degree"]),
            params=data.get("params", ()),
            p_coeffs=data.get("p_coeffs", ()),
            q_coeffs=data["q_coeffs"],
            catalogue_id=data.get("catalogue_id"),
        )


def refine_roots(
    coeffs: np.ndarray,
    roots: np.ndarray,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    max_iter: int = 24,
) -> np.ndarray:
    """Newton-polish roots of the polynomial with the given coefficients.

    Residuals are measured relative to sum_i |c_i| |z|^i, so the criterion
    is scale invariant.  Raises if a root fails to converge.
    """
    deriv = npoly.polyder(coeffs)
    z = np.array(roots, dtype=complex)
    scale_coeffs = np.abs(coeffs)
    for _ in range(max_iter):
        vals = npoly.polyval(z, coeffs)
        scale = npoly.polyval(np.abs(z), scale_coeffs) + 1e-300
        rel = np.abs(vals) / scale
        if np.all(rel < residual_tol):
            return z
        dvals = npoly.polyval(z, deriv)
        bad = np.abs(dvals) < 1e-300
        if np.any(bad & (rel >= residual_tol)):
            raise DegenerateConfigurationError("Newton step hit a critical point")
        step = np.where(bad, 0.0, vals / np.where(bad, 1.0, dvals))
        z = z - step
    raise DegenerateConfigurationError("root refinement did not converge")


def solve_roots(coeffs: np.ndarray, residual_tol: float = DEFAULT_RESIDUAL_TOL) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    lead = np.abs(coeffs)
    if lead.max() == 0:
        raise ValueError("zero polynomial has no root set")
    if abs(coeffs[-1]) < 1e-13 * lead.max():
        raise DegenerateConfigurationError("leading coefficient vanished: degree dropped")
    raw = npoly.polyroots(coeffs)
    return refine_roots(coeffs, raw, residual_tol)


def min_pairwise_distance(points: np.ndarray) -> float:
    pts = np.asarray(points)
    if len(pts) < 2:
        return math.inf
    diff = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(diff, math.inf)
    return float(diff.min())


@dataclasses.dataclass(frozen=True)
class BranchConfiguration:
    """Branch points in label order: x_1 is nearest to 1, the rest follow
    by increasing argument measured from x_1's ray."""

    points: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.points)

    def point(self, label: int) -> complex:
        return self.points[label - 1]

    def min_gap(self) -> float:
        return min_pairwise_distance(np.array(self.points))


def label_points(points: Iterable[complex]) -> tuple[complex, ...]:
    pts = list(points)
    anchor = min(pts, key=lambda z: abs(z - 1))
    base_arg = cmath.phase(anchor)

    def key(z: complex):
        rel = (cmath.phase(z) - base_arg) % (2 * math.pi)
        if rel > 2 * math.pi - 1e-9:
            rel = 0.0
        return (rel, abs(z))

    return tuple(sorted(pts, key=key))


def branch_points(
    family: WeierstrassFamily,
    t: dict[str, complex],
    collision_tol: float = DEFAULT_COLLISION_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> BranchConfiguration:
    """All branch points at parameter t, labeled; degenerate configurations
    (a pair closer than the collision tolerance) raise."""
    roots = solve_roots(family.branch_coeffs(t), residual_tol)
    if min_pairwise_distance(roots) < collision_tol:
        raise DegenerateConfigurationError(
            f"branch points collide at parameters {t}"
        )
    return BranchConfiguration(label_points(roots))


# ---------------------------------------------------------------------------
# Catalogued families


def _monomial_q(k: int, shift: str | complex = 0, linear: str | complex = 0) -> list:
    """Coefficient array of x^k + linear * x + shift."""
    if k < 1:
        raise ValueError("x-degree must be positive")
    if k == 1:
        if linear != 0:
            raise ValueError("cannot merge a linear term into x^1")
        return [shift, 1]
    return [shift, linear] + [0] * (k - 2) + [1]


def catalogue_family(name: str, k: int = 1) -> WeierstrassFamily:
    """Families used by the catalogued monodromy computations.

    cusp            y^3 - 3 lam y + 2 x                     (branch: lam^3 = x^2)
    tangency        y^2 - x^2 + lam                         (branch: x^2 = lam)
    base            y^3 - 3 y + 2 x^k                       (branch: x^2k = 1)
    ray             y^3 - 3 y + 2 (x^k - lam - k mu x)      (ray-confined degenerations)
    circle          y^3 - 3 (1 - lam) y + 2 (x^k - i lam)   (circle-confined points)
    cusp_merge      y^3 + mu y + 2 (x^k - i - mu)           (local cusp at each root of x^k = i)
    double_point    y^3 - 3 eps (x - alpha) y + 2 (x^k - i) (single double branch point)
    pair_merge      p = 1 - t1 + t1 s0 (x - alpha), q = x^k - i t2 - w
    tame            y^2 - x^k + k x + lam                   (full braid group on k points)
    """
    if name == "cusp":
        return WeierstrassFamily(3, ("lam",), ("lam",), (0, 1),
                                 catalogue_id="cusp", degenerations="lam = 0")
    if name == "tangency":
        return WeierstrassFamily(2, ("lam",), (), ("lam", 0, -1),
                                 catalogue_id="tangency", degenerations="lam = 0")
    if name == "base":
        return WeierstrassFamily(3, (), (1,), _monomial_q(k),
                                 catalogue_id=f"base:{k}", degenerations=None)
    if name == "ray":
        return WeierstrassFamily(
            3, ("lam", "mu"), (1,), _monomial_q(k, "-lam", f"-{k}*mu"),
            catalogue_id=f"ray:{k}",
            degenerations="critical values of x^k - k mu x meet lam + 1 or lam - 1",
        )
    if name == "circle":
        return WeierstrassFamily(
            3, ("lam",), ("1 - lam",), _monomial_q(k, "-I*lam"),
            catalogue_id=f"circle:{k}", degenerations="lam = 1",
        )
    if name == "cusp_merge":
        return WeierstrassFamily(
            3, ("mu",), ("-mu/3",), _monomial_q(k, "-I - mu"),
            catalogue_id=f"cusp_merge:{k}", degenerations="mu = 0",
        )
    if name == "double_point":
        return WeierstrassFamily(
            3, ("eps", "alpha"), ("-eps*alpha", "eps"), _monomial_q(k, "-I"),
            catalogue_id=f"double_point:{k}",
            degenerations="eps = 0 and a finite bad set",
        )
    if name == "pair_merge":
        return WeierstrassFamily(
            3, ("t1", "t2", "w", "s0", "alpha"),
            ("1 - t1 - t1*s0*alpha", "t1*s0"),
            _monomial_q(k, "-I*t2 - w"),
            catalogue_id=f"pair_merge:{k}",
            degenerations="t1 = 1, w = 0 (double point at alpha)",
        )
    if name == "tame":
        coeffs = [0] * (k + 1)
        coeffs[0] = "lam"
        coeffs[1] = k
        coeffs[k] = -1
        return WeierstrassFamily(2, ("lam",), (), coeffs,
                                 catalogue_id=f"tame:{k}",
                                 degenerations="lam a critical value of x^k - k x")
    raise ValueError(f"unknown catalogue family {name!r}")
