from unittest import mock

import pytest

from braidwork import families
from braidwork.geometry import (
    circle_confinement,
    cusp_exponent,
    double_root_uniqueness,
    ray_confinement,
)


def test_ray_confinement_k2():
    confined, merge = ray_confinement(2)
    assert confined.passed and merge.passed
    assert confined.witness["max_ray_deviation"] < 1e-9


def test_circle_confinement_k2():
    modulus, monotone = circle_confinement(2)
    assert modulus.passed and monotone.passed
    assert modulus.witness["max_modulus_spread"] < 1e-9


def test_double_root_uniqueness_k2():
    # the row is verified only when every eps on the grid passes
    (unique,) = double_root_uniqueness(2)
    assert unique.passed
    assert unique.witness["grid"] == "16 angles x 3 magnitudes"


def test_cusp_exponent_fits_three():
    (fit,) = cusp_exponent(2)
    assert fit.passed
    assert abs(fit.witness["fitted_exponent"] - 3.0) < 0.15



@pytest.mark.parametrize("k", range(1, 9))
def test_the_double_root_grid_keeps_its_companion_roots(k):
    """solve_roots polishes every row, and on the double-root grid no row
    fails the polish's first residual test: each row's roots are its
    companion roots, bit for bit, so the near-double pair is never moved
    by Newton steps."""
    calls = []
    companion_roots = families._companion_roots

    def record(coeffs):
        calls.append((coeffs, companion_roots(coeffs)))
        return calls[-1][1]

    with mock.patch.object(families, "_companion_roots", record):
        (unique,) = double_root_uniqueness(k)
    assert unique.passed
    assert len(calls) == 48
    assert _hex(families.solve_roots(coeffs) for coeffs, _ in calls) == _hex(
        roots for _, roots in calls)


def _hex(solved):
    """Every real and imaginary part of every root list, as ``float.hex``."""
    return [[(z.real.hex(), z.imag.hex()) for z in roots] for roots in solved]
