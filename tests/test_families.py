import hashlib
import json
import math
import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from braidwork.cli import main
from braidwork.families import (
    BranchConfiguration,
    DegenerateConfigurationError,
    WeierstrassFamily,
    branch_points,
    catalogue_family,
    label_points,
    min_pairwise_distance,
    solve_roots,
)

# every catalogued (family, k); cusp and tangency do not depend on k
CATALOGUE = [("cusp", 1), ("tangency", 1)] + [
    (name, k)
    for name in ("base", "ray", "circle", "cusp_merge", "double_point", "pair_merge", "tame")
    for k in (1, 2, 3)
    if (name, k) != ("ray", 1)
]
PARAMS = ("lam", "mu", "eps", "alpha", "t1", "t2", "w", "s0")
POINTS = [
    dict(zip(PARAMS, rng.normal(size=len(PARAMS)) + 1j * rng.normal(size=len(PARAMS))))
    for rng in map(np.random.default_rng, (1, 2, 3))
]


def test_base_family_branch_points_are_roots_of_unity():
    for k in (2, 3):
        cfg = branch_points(catalogue_family("base", k), {})
        assert len(cfg) == 2 * k
        expected = [np.exp(1j * math.pi * m / k) for m in range(2 * k)]
        for label, want in enumerate(expected, start=1):
            assert abs(cfg.point(label) - want) < 1e-12


def test_tangency_and_cusp_branch_points():
    cfg = branch_points(catalogue_family("tangency"), {"lam": 1.0})
    assert sorted(z.real for z in cfg.points) == pytest.approx([-1.0, 1.0])
    cfg = branch_points(catalogue_family("cusp"), {"lam": 1.0})
    assert sorted(z.real for z in cfg.points) == pytest.approx([-1.0, 1.0])


def test_labeling_starts_nearest_one_and_runs_by_argument():
    pts = label_points([-1j, 1j, -1.0, 1.0])
    assert pts[0] == 1.0
    assert pts[1] == 1j
    assert pts[2] == -1.0
    assert pts[3] == -1j


def test_degenerate_configuration_is_flagged():
    with pytest.raises(DegenerateConfigurationError):
        branch_points(catalogue_family("tangency"), {"lam": 0.0})
    with pytest.raises(DegenerateConfigurationError):
        branch_points(catalogue_family("tangency"), {"lam": 1e-20})


def test_missing_parameter_is_an_error():
    with pytest.raises(ValueError):
        branch_points(catalogue_family("cusp"), {})


def test_refinement_residuals_are_tiny():
    family = catalogue_family("ray", 3)
    coeffs = family.branch_coeffs({"lam": 0.3, "mu": 0.1 + 0.05j})
    roots = solve_roots(coeffs)
    vals = np.polynomial.polynomial.polyval(roots, coeffs)
    scale = np.polynomial.polynomial.polyval(np.abs(roots), np.abs(coeffs))
    assert np.all(np.abs(vals) / scale < 1e-12)


def test_family_json_round_trip():
    custom = WeierstrassFamily(
        y_degree=3, params=("lam", "mu"),
        p_coeffs=(0.5, [1.5, -2], "lam*mu"),
        q_coeffs=([0, 1], "lam**2/4 - I*mu", 1e-3, 2),
    )
    assert custom.to_json()["p_coeffs"] == ["0.5", "(1.5-2j)", "lam*mu"]
    assert custom.to_json()["q_coeffs"] == ["1j", "lam**2/4 - I*mu", "0.001", "2"]
    for family in [catalogue_family(name, k) for name, k in CATALOGUE] + [custom]:
        data = family.to_json()
        rebuilt = WeierstrassFamily.from_json(json.loads(json.dumps(data)))
        assert rebuilt.to_json() == data
        for t in POINTS:
            assert np.array_equal(rebuilt.p_array(t), family.p_array(t))
            assert np.array_equal(rebuilt.q_array(t), family.q_array(t))
    family = catalogue_family("ray", 2)
    by_id = WeierstrassFamily.from_json({"catalogue_id": "ray", "k": 2})
    t = {"lam": 0.25, "mu": 0.1j}
    assert np.array_equal(by_id.branch_coeffs(t), family.branch_coeffs(t))


def test_custom_family_with_complex_entries():
    family = WeierstrassFamily(
        y_degree=2, params=("c",), q_coeffs=([0, 1], "c", 1)
    )
    arr = family.q_array({"c": 2.0})
    assert arr[0] == 1j and arr[1] == 2.0 and arr[2] == 1.0


def _closed_form(name, k, t):
    """p and q, low to high in x, from the formulas of catalogue_family."""
    lam, mu, eps, alpha, t1, t2, w, s0 = (t[name] for name in PARAMS)
    xk = npoly.polypow([0, 1], k)
    return {
        "cusp": ([lam], [0, 1]),
        "tangency": ([0], [lam, 0, -1]),
        "base": ([1], xk),
        "ray": ([1], npoly.polyadd(xk, [-lam, -k * mu])),
        "circle": ([1 - lam], npoly.polyadd(xk, [-1j * lam])),
        "cusp_merge": ([-mu / 3], npoly.polyadd(xk, [-1j - mu])),
        "double_point": ([-eps * alpha, eps], npoly.polyadd(xk, [-1j])),
        "pair_merge": ([1 - t1 - t1 * s0 * alpha, t1 * s0],
                       npoly.polyadd(xk, [-1j * t2 - w])),
        "tame": ([0], npoly.polysub([lam, k if k > 1 else 0], xk)),
    }[name]


@pytest.mark.parametrize("name, k", CATALOGUE)
def test_catalogue_coefficients_match_the_closed_forms(name, k):
    family = catalogue_family(name, k)
    for t in POINTS:
        p, q = _closed_form(name, k, t)
        np.testing.assert_allclose(family.p_array(t), p, rtol=1e-14, atol=0)
        np.testing.assert_allclose(family.q_array(t), q, rtol=1e-14, atol=0)


def test_catalogue_json_is_pinned():
    # the coefficient texts every catalogued certificate records; they
    # change only on purpose, with a note in CHANGES.md
    dump = json.dumps([catalogue_family(name, k).to_json() for name, k in CATALOGUE],
                      sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "2e5bc3d76704ee87f9c25a2bf7a594785664200cf52d3ab8202ec25cb5c2c39c"
    )


@pytest.mark.parametrize("text", [
    '__import__("os").getpid()',
    "sin(lam)",
    "lam.real",
    "1/lam",
    "lam**-1",
    "lam**lam",
    "lam**0.5",
    "lam**100000",
    "9**999999999",
    "mu",
    "lam +",
    "[lam]",
    "lambda: 1",
])
def test_hostile_and_non_polynomial_entries_are_rejected(text):
    with pytest.raises(ValueError, match=re.escape(f"coefficient '{text}':")):
        WeierstrassFamily(y_degree=2, params=("lam",), q_coeffs=(text, 1))


def test_a_family_file_cannot_run_code(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "y_degree": 3, "params": ["lam"], "p_coeffs": ["lam"],
        "q_coeffs": ['__import__("os").getpid()', 1],
    }))
    assert main(["monodromy", "--family-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: coefficient '__import__(\"os\").getpid()':")


def test_fiber_coefficients():
    family = catalogue_family("base", 2)
    coeffs = family.fiber_coeffs(0.0, {})
    roots = sorted(np.polynomial.polynomial.polyroots(coeffs).real)
    assert roots == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)])


def test_min_pairwise_distance():
    assert min_pairwise_distance(np.array([0.0, 3.0, 1.0])) == 1.0
    assert math.isinf(min_pairwise_distance(np.array([1.0])))
