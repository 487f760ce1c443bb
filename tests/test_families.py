import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import braidwork
from braidwork import families, tracking
from braidwork.cli import main
from braidwork.families import (
    NEWTON_STEPS,
    RESIDUAL_TOL,
    DegenerateConfigurationError,
    WeierstrassFamily,
    branch_points,
    catalogue_family,
    label_points,
    min_pairwise_distance,
    refine_roots,
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
            assert np.array_equal(rebuilt.p_at(t), family.p_at(t))
            assert np.array_equal(rebuilt.q_at(t), family.q_at(t))
    family = catalogue_family("ray", 2)
    by_id = WeierstrassFamily.from_json({"catalogue_id": "ray", "k": 2})
    t = {"lam": 0.25, "mu": 0.1j}
    assert np.array_equal(by_id.branch_coeffs(t), family.branch_coeffs(t))


def test_custom_family_with_complex_entries():
    family = WeierstrassFamily(
        y_degree=2, params=("c",), p_coeffs=(), q_coeffs=([0, 1], "c", 1)
    )
    arr = family.q_at({"c": 2.0})
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
        np.testing.assert_allclose(family.p_at(t), p, rtol=1e-14, atol=0)
        np.testing.assert_allclose(family.q_at(t), q, rtol=1e-14, atol=0)


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
        WeierstrassFamily(y_degree=2, params=("lam",), p_coeffs=(), q_coeffs=(text, 1))


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


# ---------------------------------------------------------------------------
# The Newton loop and branch coefficients against numpy.polynomial calls

EPS = np.finfo(float).eps


def _oracle_refine_roots(coeffs, roots):
    """refine_roots as written with numpy.polynomial calls."""
    deriv = npoly.polyder(coeffs)
    z = np.array(roots, dtype=complex)
    scale_coeffs = np.abs(coeffs)
    for _ in range(NEWTON_STEPS):
        vals = npoly.polyval(z, coeffs)
        scale = npoly.polyval(np.abs(z), scale_coeffs) + 1e-300
        rel = np.abs(vals) / scale
        if np.all(rel < RESIDUAL_TOL):
            return z
        dvals = npoly.polyval(z, deriv)
        bad = np.abs(dvals) < 1e-300
        if np.any(bad & (rel >= RESIDUAL_TOL)):
            raise DegenerateConfigurationError("Newton step hit a critical point")
        step = np.where(bad, 0.0, vals / np.where(bad, 1.0, dvals))
        z = z - step
    raise DegenerateConfigurationError("root refinement did not converge")


def _oracle_branch_coeffs(family, t):
    """WeierstrassFamily.branch_coeffs as written with numpy.polynomial
    calls, and the scale of each entry: the same sum over the moduli of the
    coefficients, so the sum of the moduli of the products that make it."""
    q = family.q_at(t)
    if family.y_degree == 2:
        return np.array(q), np.abs(q)
    p = family.p_at(t)
    return (npoly.polysub(npoly.polypow(p, 3), npoly.polypow(q, 2)),
            npoly.polyadd(npoly.polypow(np.abs(p), 3), npoly.polypow(np.abs(q), 2)))


def _assert_branch_coeffs_agree_with_numpy(family, t):
    """branch_coeffs at t as numpy.polynomial computes them, within
    rounding: each entry within 64 eps of its scale, which bounds the
    rounding of either summation order for the degrees drawn here; an
    entry one side trims as an exact zero counts as 0."""
    ours = np.array(family.branch_coeffs(t), dtype=complex)
    theirs, scale = _oracle_branch_coeffs(family, t)
    n = max(len(ours), len(theirs))
    ours, theirs = (np.pad(a, (0, n - len(a))) for a in (ours, theirs))
    assert (np.abs(ours - theirs) <= 64 * EPS * np.pad(scale, (0, n - len(scale)))).all()


def _bits(a):
    """The raw bits of a complex array: signed zeros and length count."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64).tolist()


def _refined(refine, coeffs, roots):
    """The roots ``refine`` gives, as a list, or its error message."""
    try:
        return np.asarray(refine(coeffs, roots), dtype=complex).tolist()
    except DegenerateConfigurationError as exc:
        return str(exc)


def _assert_agrees_with_numpy(coeffs, starts):
    """refine_roots ends as the numpy.polynomial loop ends: with the same
    error, or with as many roots, each as close to the loop's as two roots
    that pass the RESIDUAL_TOL test can be, 2 * RESIDUAL_TOL times the
    root's condition number sum_i |c_i| |z|^i / |f'(z)|."""
    ours = _refined(refine_roots, coeffs.tolist(), starts.tolist())
    theirs = _refined(_oracle_refine_roots, coeffs, starts)
    if isinstance(theirs, str):
        assert ours == theirs
        return
    assert not isinstance(ours, str) and len(ours) == len(theirs)
    z = np.array(theirs)
    condition = npoly.polyval(np.abs(z), np.abs(coeffs)) / np.abs(
        npoly.polyval(z, npoly.polyder(coeffs)))
    assert (np.abs(np.array(ours) - z) <= 2 * RESIDUAL_TOL * condition).all()


class _FixedFamily(WeierstrassFamily):
    """A cubic family whose p and q coefficients are given outright,
    signed zeros and trailing zeros included."""

    def __init__(self, p, q):
        super().__init__(3, (), (1,), (1,))
        self._p, self._q = (list(map(complex, p)), ()), (list(map(complex, q)), ())


_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    # magnitudes from 1e-6 to 100, so that polyroots stays finite
    st.floats(min_value=-100, max_value=100).filter(lambda x: abs(x) > 1e-6),
)
_entries = st.builds(complex, _parts, _parts)
_zeros = st.lists(st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j]),
                  max_size=3)


@st.composite
def _coefficients(draw, max_degree=12):
    """Degree 0 to max_degree, then up to three trailing exact zeros."""
    body = draw(st.lists(_entries, min_size=1, max_size=max_degree + 1))
    return np.array(body + draw(_zeros), dtype=complex)


@st.composite
def _polynomials_and_starts(draw):
    coeffs = draw(_coefficients())
    raw = npoly.polyroots(coeffs)  # the trimmed polynomial's roots, maybe none
    if len(raw) and draw(st.booleans()):
        return coeffs, raw + draw(st.sampled_from([0.0, 1e-9, 1e-3j, 0.1 - 0.1j]))
    return coeffs, np.array(draw(st.lists(_entries, min_size=1, max_size=13)), dtype=complex)


def _case(coeffs, starts):
    return np.array(coeffs, dtype=complex), np.array(starts, dtype=complex)


_coordinates = st.floats(min_value=-4, max_value=4)


@st.composite
def _simple_roots_and_starts(draw):
    """A polynomial with 1 to 8 simple roots, pairwise and from 0 at least
    0.1 apart, times a drawn scale, and starts near its roots: the
    companion roots moved by one shift.  Newton then follows the same path
    in either arithmetic; from arbitrary starts, or to a root at 0 or a
    multiple root, paths that differ by rounding may end differently."""
    roots = draw(st.lists(st.builds(complex, _coordinates, _coordinates),
                          min_size=1, max_size=8).filter(
        lambda r: min_pairwise_distance(r) >= 0.1 and min(map(abs, r)) >= 0.1))
    coeffs = npoly.polyfromroots(roots) * draw(_entries.filter(lambda c: c != 0))
    shift = draw(st.sampled_from([0.0, 1e-9, 1e-3j, 0.02 - 0.02j]))
    return coeffs, npoly.polyroots(coeffs) + shift


# kernel edge cases random draws may miss: a zero derivative, one at a
# root that has converged while another still moves, a Newton cycle
# (0 -> 1 -> 0), a constant, more starts than roots, and -0.0 imaginary
# parts at the top, where the padded derivative row begins
_EDGE_CASES = {
    "critical point": _case([1, 0, 1], [0]),
    "converged at a critical point": _case([1, -2, 1], [1, 3]),
    "Newton cycle": _case([2, -2, 0, 1], [0]),
    "degree 0": _case([3], [0, 1]),
    "more starts than roots": _case([-1, 0, 1], [0.5, -2, 1 + 1j, 3]),
    "signed zeros on top": _case([-2, complex(-1, -0.0), complex(1, -0.0)], [1.9, -1.1]),
}


@given(_simple_roots_and_starts())
@settings(max_examples=400, deadline=None)
def test_refine_roots_agrees_with_numpy_polynomial(case):
    with np.errstate(all="ignore"):
        _assert_agrees_with_numpy(*case)


@given(_polynomials_and_starts())
@settings(max_examples=400)
@example(_EDGE_CASES["critical point"])
@example(_EDGE_CASES["converged at a critical point"])
@example(_EDGE_CASES["Newton cycle"])
@example(_EDGE_CASES["degree 0"])
@example(_EDGE_CASES["more starts than roots"])
@example(_EDGE_CASES["signed zeros on top"])
@example(_case([1, 0, 1], [complex(1.3e308, 1.3e308)]))  # |z| beyond the float range
@example(_case([complex(1.3e308, 1.3e308), 1, 1], [1, -1]))  # |c_0| beyond it
def test_refine_roots_ends_in_passing_roots_or_its_own_errors(case):
    """From any start, refine_roots raises one of its two errors or gives
    a root per start, each passing the residual test as numpy.polynomial
    evaluates it, within a factor of 2 for rounding."""
    coeffs, starts = case
    with np.errstate(all="ignore"):
        result = _refined(refine_roots, coeffs.tolist(), starts.tolist())
        if isinstance(result, str):
            assert result in ("Newton step hit a critical point",
                              "root refinement did not converge")
            return
        z = np.array(result, dtype=complex)
        scale = npoly.polyval(np.abs(z), np.abs(coeffs)) + 1e-300
        assert len(z) == len(starts)
        assert (np.abs(npoly.polyval(z, coeffs)) / scale < 2 * RESIDUAL_TOL).all()


@pytest.mark.parametrize("name, outcome", [
    ("critical point", "Newton step hit a critical point"),
    ("converged at a critical point", 2),
    ("Newton cycle", "root refinement did not converge"),
    ("degree 0", "Newton step hit a critical point"),
    ("more starts than roots", 4),
    ("signed zeros on top", 2),
])
def test_refine_roots_edge_cases_reach_their_outcome(name, outcome):
    """Each pinned edge case ends as named: an error, or that many roots."""
    coeffs, starts = _EDGE_CASES[name]
    result = _refined(refine_roots, coeffs.tolist(), starts.tolist())
    if isinstance(outcome, str):
        assert result == outcome
    else:
        assert len(result) == outcome


@given(_coefficients(max_degree=6), _coefficients(max_degree=12))
@settings(max_examples=400)
def test_branch_coeffs_agrees_with_numpy_polynomial(p, q):
    _assert_branch_coeffs_agree_with_numpy(_FixedFamily(p, q), {})


_small = st.integers(min_value=-9, max_value=9)
_gaussian = st.builds(complex, _small, _small)
# an entry: a Gaussian integer, or one times a power of the parameter a
_integer_entries = st.one_of(
    _gaussian,
    st.builds(lambda c, e: f"({int(c.real)} + {int(c.imag)}*I)*a**{e}",
              _gaussian, st.integers(min_value=0, max_value=2)))


@given(st.sampled_from([2, 3]), st.lists(_integer_entries, min_size=1, max_size=7),
       st.lists(_integer_entries, min_size=1, max_size=13),
       st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)))
@settings(max_examples=300)
def test_integer_families_have_exact_branch_coeffs(y_degree, p, q, a):
    """On Gaussian integers every product and sum is exact in any order,
    so branch_coeffs equals numpy.polynomial's p^3 - q^2 (or q) entry for
    entry, trimmed to the same length."""
    family = WeierstrassFamily(y_degree, ("a",), p if y_degree == 3 else (), q)
    t = {"a": a}
    expected, _ = _oracle_branch_coeffs(family, t)
    assert family.branch_coeffs(t) == expected.tolist()


@pytest.mark.parametrize("name, k", CATALOGUE)
def test_catalogue_hot_path_is_bit_identical(name, k):
    """A trial's coefficients, from parameter values interpolated as
    lists in the family's order, have the bits of branch_coeffs at
    ParameterLoop.at's point, through a loop whose points name the
    parameters in reverse; both agree with numpy.polynomial."""
    family = catalogue_family(name, k)
    points = [{name: t[name] for name in reversed(family.params)} for t in POINTS]
    loop = tracking.ParameterLoop.polyline(points + points[:1])
    with mock.patch.object(tracking, "_track") as track:
        tracking.track_loop(family, loop)
    (trial_coeffs, _, _), _ = track.call_args
    for s in (0.0, 0.1, 1 / 3, 0.5, 0.9, 1.0):
        coeffs = trial_coeffs(s)
        assert _bits(coeffs) == _bits(family.branch_coeffs(loop.at(s)))
        assert all(type(c) is complex for c in coeffs)
    for t in POINTS:
        _assert_branch_coeffs_agree_with_numpy(family, t)


@pytest.mark.parametrize("name, k", CATALOGUE)
def test_catalogue_roots_agree_with_numpy_polynomial(name, k):
    family = catalogue_family(name, k)
    for t in POINTS:
        coeffs = family.branch_coeffs(t)
        starts = npoly.polyroots(coeffs)
        for shift in (0.0, 1e-6, 1e-2 + 1e-2j):
            _assert_agrees_with_numpy(np.array(coeffs), starts + shift)


# ---------------------------------------------------------------------------
# solve_roots against one polyroots and one refine_roots call per row


def one_row_solve(row):
    """The reference solve of one row: the solvable-row rule,
    numpy.polynomial's polyroots and refine_roots."""
    coeffs = families._solvable(row)
    return refine_roots(coeffs, npoly.polyroots(coeffs).tolist())


def _call_outcome(solve, row):
    try:
        return _outcome(solve(row))
    except (ValueError, DegenerateConfigurationError) as exc:  # LinAlgError is a ValueError
        return _outcome(exc)


def _outcome(result):
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return _bits(result)


# rows that fail as solve_roots solves them, found by searching random
# rows over exponents from -320 to 300, and rows with no roots to refine
_SOLVE_ROWS = {
    "zero polynomial": np.array([0j, complex(-0.0, 0.0), -0j]),
    "degree drop": np.array([1, 2, 1e-14], dtype=complex),
    "critical point": np.array([-3.2e-46 + 2.73e-45j, 1.84e-303 - 2.1e-304j, -3.3e38 + 1.69e39j,
                                -1.88e183 - 4.5e182j, 9.5e183 - 9.1e183j]),
    "no convergence": np.array([-1.07e-233 + 1.83e-233j, 2.02e-80 - 1.06e-80j,
                                3.7e104 - 6.7e104j]),
    "matrix not finite": np.array([np.nan, 1, 1], dtype=complex),
    "one root": np.array([2 - 1j, 1 + 1j]),
    "degree 0": np.array([3 + 0j]),
}


@pytest.mark.parametrize("name, outcome", [
    ("zero polynomial", ("ValueError", "zero polynomial has no root set")),
    ("degree drop", ("DegenerateConfigurationError",
                     "leading coefficient vanished: degree dropped")),
    ("critical point", ("DegenerateConfigurationError", "Newton step hit a critical point")),
    ("no convergence", ("DegenerateConfigurationError", "root refinement did not converge")),
    ("matrix not finite", ("ValueError", "the coefficients are not finite")),
    ("one root", 1),
    ("degree 0", 0),
])
def test_solve_rows_reach_their_outcome(name, outcome):
    """Each pinned row ends as named under solve_roots: an error, or that many roots."""
    with np.errstate(all="ignore"):
        result = _call_outcome(solve_roots, _SOLVE_ROWS[name])
    if isinstance(outcome, tuple):
        assert result == outcome
    else:
        assert len(result) == 2 * outcome


_rows = st.lists(
    st.one_of(_coefficients(max_degree=8), st.sampled_from(list(_SOLVE_ROWS.values()))),
    min_size=1, max_size=24,
)


@given(_rows)
@settings(max_examples=150, deadline=None)
@example(list(_SOLVE_ROWS.values()) * 3)
def test_solve_roots_is_bit_identical_to_one_row_solve(rows):
    """Rows of mixed lengths, failing rows among them: each row's roots,
    or its error, are one_row_solve's, bit for bit."""
    with np.errstate(all="ignore"):
        assert ([_call_outcome(solve_roots, row) for row in rows]
                == [_call_outcome(one_row_solve, row) for row in rows])
        # the companion step on its own, against polyroots, over the rows
        # solve_roots accepts
        for row in rows:
            try:
                coeffs = families._solvable(row)
            except (ValueError, DegenerateConfigurationError):
                continue
            assert (_call_outcome(families._companion_roots, coeffs)
                    == _call_outcome(npoly.polyroots, coeffs))


@given(_rows)
@settings(max_examples=50, deadline=None)
def test_solve_roots_polishes_with_one_refine_roots_call(rows):
    """A row the solvable-row rule accepts and whose companion step
    finishes is polished by one refine_roots call, from its companion
    roots; a row the rule refuses is never polished."""
    with np.errstate(all="ignore"):
        for row in rows:
            try:
                coeffs = families._solvable(row)
                expected = [repr((coeffs, npoly.polyroots(coeffs).tolist()))]
            except (ValueError, DegenerateConfigurationError):
                expected = []
            with mock.patch.object(families, "refine_roots", wraps=refine_roots) as spy:
                _call_outcome(solve_roots, row)
            assert [repr(call.args) for call in spy.call_args_list] == expected


# ---------------------------------------------------------------------------
# branch_roots against one reference solve and one gap per point


class _RowFamily:
    """Stands in for a family: its branch coefficients at {"row": k} are
    the k-th row given, and a row of None cannot be evaluated.  The rows
    asked for are kept in ``evaluated``, in order."""

    def __init__(self, rows):
        self.rows = rows
        self.evaluated = []

    def branch_coeffs(self, t):
        self.evaluated.append(t["row"])
        row = self.rows[t["row"]]
        if row is None:
            raise ValueError(f"row {t['row']} cannot be evaluated")
        return np.array(row, dtype=complex)


def _one_point_at_a_time(family, points):
    """branch_roots, with one_row_solve, the polyroots reference, as its
    solve: one solve and one min_pairwise_distance call per point, in
    input order."""
    out = []
    for t in points:
        row = family.branch_coeffs(t)
        try:
            roots = one_row_solve(row)
        except ValueError:
            if not np.isfinite(row).all():
                raise ValueError(f"the branch coefficients are not finite at parameters {t}")
            raise
        if not len(roots):
            raise ValueError(f"the family has no branch points at these parameters {t}")
        if min_pairwise_distance(roots) < families.COLLISION_TOL:
            raise DegenerateConfigurationError(f"branch points collide at parameters {t}")
        out.append(roots)
    return out


def _vertex_outcome(check, family, points):
    try:
        return [_bits(roots) for roots in check(family, points)]
    except (ValueError, DegenerateConfigurationError) as exc:  # LinAlgError is a ValueError
        return type(exc).__name__, str(exc)


def _lead_margin_rows():
    """Rows [M, 0, c] whose leading coefficient sits on the LEAD_TOL
    margin: LEAD_TOL * M is |c| (Python's abs) in the first row,
    which passes, and the next float above |c| in the second, where |c|
    is one ulp below the margin and reads as a dropped degree."""

    def scale_to(target):
        """The M whose product with LEAD_TOL rounds to target, if any."""
        top = target / families.LEAD_TOL
        for _ in range(8):
            if families.LEAD_TOL * top == target:
                return top
            top = np.nextafter(top, math.inf if families.LEAD_TOL * top < target else 0)
        return None

    rng = np.random.default_rng(11)
    while True:
        c = complex(*rng.normal(size=2))
        size = abs(c)
        on, below = scale_to(size), scale_to(np.nextafter(size, math.inf))
        if on is not None and below is not None:
            return [on, 0, c], [below, 0, c]


# rows branch_roots must refuse, each with its own error, next to good
# rows of the same and of other lengths
_VERTEX_ROWS = {
    "good quadratic": [2, -3, 1],
    "good cubic": [-1, 0.5j, 2, 1],
    "shorter good row": [1 - 1j, 2],
    "collision": [0, 0, -1],
    "triple collision": [0, 0, 0, 1],
    "degree drop": [1, 2, 1e-14],
    "zero polynomial": [0j, complex(-0.0, 0.0), -0j],
    "NaN": [np.nan, 1, 1],
    "inf under a finite top": [1, np.inf, 1],
    "no roots": [3],
    "cannot be evaluated": None,
}
_VERTEX_ROWS["lead margin, on it"], _VERTEX_ROWS["lead margin, one ulp below"] = (
    _lead_margin_rows())


@given(st.lists(st.one_of(_coefficients(max_degree=6), st.sampled_from(list(_VERTEX_ROWS.values()))),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
@example([_VERTEX_ROWS["good quadratic"]] * 3 + [_VERTEX_ROWS["collision"]])
@example([_VERTEX_ROWS["lead margin, one ulp below"], _VERTEX_ROWS["good quadratic"]])
@example([_VERTEX_ROWS["lead margin, on it"], _VERTEX_ROWS["good quadratic"],
          _VERTEX_ROWS["inf under a finite top"]])
@example([_VERTEX_ROWS["good cubic"], _VERTEX_ROWS["shorter good row"],
          _VERTEX_ROWS["triple collision"], _VERTEX_ROWS["degree drop"]])
def test_stacked_vertex_check_is_one_check_per_point(rows):
    """branch_roots raises what the same loop on the polyroots reference
    solve raises, type and message, at the same first failing point in
    input order, and otherwise returns the same roots bit for bit."""
    family, reference = _RowFamily(rows), _RowFamily(rows)
    points = [{"row": k} for k in range(len(rows))]
    with np.errstate(all="ignore"):
        assert (_vertex_outcome(families.branch_roots, family, points)
                == _vertex_outcome(_one_point_at_a_time, reference, points))
    assert family.evaluated == reference.evaluated


@pytest.mark.parametrize("names, error, evaluated", [
    (["good quadratic"] * 3 + ["collision"],
     ("DegenerateConfigurationError", "branch points collide at parameters {'row': 3}"), 4),
    (["lead margin, one ulp below", "good quadratic"],
     ("DegenerateConfigurationError", "leading coefficient vanished: degree dropped"), 1),
    (["lead margin, on it", "good quadratic", "inf under a finite top"],
     ("ValueError", "the branch coefficients are not finite at parameters {'row': 2}"), 3),
    (["good cubic", "shorter good row", "triple collision", "degree drop"],
     ("DegenerateConfigurationError", "branch points collide at parameters {'row': 2}"), 3),
    (["good cubic", "cannot be evaluated", "collision"],
     ("ValueError", "row 1 cannot be evaluated"), 2),
])
def test_the_first_failing_point_raises_its_pinned_error(names, error, evaluated):
    """branch_roots stops at the first failing point, with its error, and
    evaluates no point after it."""
    family = _RowFamily([_VERTEX_ROWS[name] for name in names])
    points = [{"row": k} for k in range(len(names))]
    with np.errstate(all="ignore"):
        assert _vertex_outcome(families.branch_roots, family, points) == error
    assert family.evaluated == list(range(evaluated))


@pytest.mark.parametrize("name, error", [
    ("collision", "branch points collide"),
    ("degree drop", "leading coefficient vanished"),
    ("zero polynomial", "zero polynomial"),
    ("NaN", "not finite"),
    ("inf under a finite top", "not finite"),
    ("no roots", "no branch points"),
    ("cannot be evaluated", "cannot be evaluated"),
    ("lead margin, on it", None),
    ("lead margin, one ulp below", "leading coefficient vanished"),
])
def test_each_vertex_row_reaches_its_outcome(name, error):
    """Each pinned row, between two good rows, fails as named, or passes."""
    good = _VERTEX_ROWS["good quadratic"]
    family = _RowFamily([good, _VERTEX_ROWS[name], good])
    points = [{"row": k} for k in range(3)]
    with np.errstate(all="ignore"):
        outcome = _vertex_outcome(families.branch_roots, family, points)
    if error is None:
        assert len(outcome) == 3
    else:
        assert error in outcome[1]


def test_a_row_whose_own_eigvals_fails_gives_that_error():
    """Where eigvals cannot finish a row's companion matrix, solve_roots
    raises that LinAlgError and other rows are solved; branch_roots raises
    it at that row's point once the points before it pass, and an earlier
    failing point raises first."""
    error = np.linalg.LinAlgError("Eigenvalues did not converge")
    eigvals = np.linalg.eigvals
    cube = np.array([1, 0, 0, 1], dtype=complex)  # x^3 + 1

    def not_the_cube(a):  # only x^3 + 1's companion matrix has a -1 at the top right
        if a[0, -1] == -1:
            raise error
        return eigvals(a)

    good = [np.array([-1, 0, 0, 1], dtype=complex), np.array([2, 0, 1], dtype=complex)]
    expected = [_call_outcome(one_row_solve, row) for row in good]
    with mock.patch.object(np.linalg, "eigvals", not_the_cube):
        with pytest.raises(np.linalg.LinAlgError) as raised:
            solve_roots(cube)
        assert raised.value is error
        assert [_call_outcome(solve_roots, row) for row in good] == expected
        family = _RowFamily([*good, cube, _VERTEX_ROWS["collision"]])
        with pytest.raises(np.linalg.LinAlgError) as raised:
            families.branch_roots(family, [{"row": k} for k in range(4)])
        assert raised.value is error
        assert family.evaluated == [0, 1, 2]
        family.evaluated.clear()
        with pytest.raises(DegenerateConfigurationError, match="collide"):
            families.branch_roots(family, [{"row": k} for k in (0, 3, 2)])
        assert family.evaluated == [0, 3]


def test_refining_no_roots_returns_no_roots():
    """No roots pass the residual test at once; solve_roots gives them as
    an empty list."""
    for coeffs in ([1, 0, 1], [3], [0, 1]):
        assert refine_roots([complex(c) for c in coeffs], []) == []
    assert solve_roots(np.array([3], dtype=complex)) == []
    assert solve_roots([3]) == []


@pytest.mark.parametrize("p", [(0,), ("-0.0",), (1,), (2, -1), (1, 0, 1)])
def test_constant_p_cube_is_kept_but_never_shared(p):
    """With a parameter-free p, branch_coeffs keeps p^3, as a tuple, but
    returns a fresh list each call: writing into one result changes no
    later one, and every result is exact (the values are dyadic), p = 0
    and p^3 of higher degree than q^2 included."""
    family = WeierstrassFamily(3, ("lam",), p, ("lam", 1))
    for lam in (0.5 - 0.25j, complex(-0.0, 0.0), 0j, 0.5 - 0.25j):
        t = {"lam": lam}
        expected = _oracle_branch_coeffs(family, t)[0].tolist()
        first = family.branch_coeffs(t)
        assert first == expected and isinstance(family._p_cube, tuple)
        first[:] = [7j] * len(first)
        assert family.branch_coeffs(t) == expected


# branch coefficients of seeded dense cubic families (every entry nonzero,
# p of degree 6 and q of degree 12), the cusp-exponent witnesses and the
# crossing times of the contractions for k = 1, 2, 3, as the hex of every
# float; run in this process and in one on other BLAS kernels
_KERNEL_PROBE = """
import json
from unittest import mock
import numpy as np
from braidwork import bifurcation
from braidwork.families import WeierstrassFamily
from braidwork.geometry import cusp_exponent
from braidwork.tracking import track_coefficients

rng = np.random.default_rng(20)
rows = []
for _ in range(40):
    p, q = (rng.normal(size=n) + 1j * rng.normal(size=n) for n in (7, 13))
    family = WeierstrassFamily(3, (), p.tolist(), q.tolist())
    rows.append([[z.real.hex(), z.imag.hex()] for z in family.branch_coeffs({})])
slopes = [check.witness["fitted_exponent"].hex() for k in (1, 2, 3)
          for check in cusp_exponent(k)]
traces = []

def kept(coeff_fn):
    traces.append(track_coefficients(coeff_fn))
    return traces[-1]

with mock.patch.object(bifurcation, "track_coefficients", kept):
    for k in (1, 2, 3):
        bifurcation.contraction_to_reference(bifurcation._catalogued_loops(k)[0])
contraction = [[c.time.hex() for c in trace.crossings] for trace in traces]
probed = {"rows": rows, "slopes": slopes, "contraction": contraction}
"""


def test_branch_coeffs_and_the_cusp_exponent_do_not_depend_on_the_blas_kernel():
    """OpenBLAS picks its kernels by CPU at run time, and numpy's complex
    convolution and least-squares fit run through them; branch_coeffs,
    the cusp-exponent slope and the contraction's polynomial use neither,
    so a process on OpenBLAS's generic kernels (Prescott) gives them, and
    the contraction's crossing times, bit for bit as this one does."""
    here = {}
    exec(_KERNEL_PROBE, here)
    src = pathlib.Path(braidwork.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_CORETYPE="Prescott",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _KERNEL_PROBE + "print(json.dumps(probed))"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == here["probed"]
