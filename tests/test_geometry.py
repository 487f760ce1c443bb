import math

from braidwork.geometry import (
    circle_confinement,
    cusp_exponent,
    double_root_uniqueness,
    permutation_closure,
    ray_confinement,
)


def test_ray_confinement_k2():
    report = ray_confinement(2)
    assert report.passed
    assert report.metrics["max_ray_deviation"] < 1e-9


def test_circle_confinement_k2():
    report = circle_confinement(2)
    assert report.passed
    assert report.metrics["max_modulus_spread"] < 1e-9


def test_double_root_uniqueness_k2():
    report = double_root_uniqueness(2)
    assert report.passed
    assert all(row["ok"] for row in report.metrics["rows"])


def test_cusp_exponent_fits_three():
    report = cusp_exponent(2)
    assert report.passed
    assert abs(report.metrics["fitted_exponent"] - 3.0) < 0.15


def test_permutation_closure_small_cases():
    s3 = permutation_closure([(1, 0, 2), (0, 2, 1)])
    assert len(s3) == 6
    only_swap = permutation_closure([(1, 0, 2)])
    assert len(only_swap) == 2
    s4 = permutation_closure([(1, 0, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1)])
    assert len(s4) == math.factorial(4)
    assert permutation_closure([]) == set()
