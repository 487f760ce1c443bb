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

