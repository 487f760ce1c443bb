import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from braidwork import families
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
    solve_stack,
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
        y_degree=2, params=("c",), p_coeffs=(), q_coeffs=([0, 1], "c", 1)
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
# The hot path against the numpy.polynomial calls it replaces


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
    """WeierstrassFamily.branch_coeffs as written with numpy.polynomial calls."""
    q = family.q_array(t)
    if family.y_degree == 2:
        return q
    p = family.p_array(t)
    return npoly.polysub(npoly.polypow(p, 3), npoly.polypow(q, 2))


def _bits(a):
    """The raw bits of a complex array: signed zeros and length count."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64).tolist()


def _outcome(refine, coeffs, roots):
    try:
        return _bits(refine(coeffs, roots))
    except DegenerateConfigurationError as exc:
        return str(exc)


class _FixedFamily(WeierstrassFamily):
    """A cubic family whose p and q arrays are given outright, signed
    zeros and trailing zeros included."""

    def __init__(self, p, q):
        super().__init__(3, (), (1,), (1,))
        self._fixed_p, self._fixed_q = p, q

    def p_array(self, t):
        return self._fixed_p.copy()

    def q_array(self, t):
        return self._fixed_q.copy()


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


@given(_polynomials_and_starts())
@settings(max_examples=400)
@example(_EDGE_CASES["critical point"])
@example(_EDGE_CASES["converged at a critical point"])
@example(_EDGE_CASES["Newton cycle"])
@example(_EDGE_CASES["degree 0"])
@example(_EDGE_CASES["more starts than roots"])
@example(_EDGE_CASES["signed zeros on top"])
def test_refine_roots_is_bit_identical_to_numpy_polynomial(case):
    coeffs, starts = case
    with np.errstate(all="ignore"):
        assert _outcome(refine_roots, coeffs, starts) == _outcome(
            _oracle_refine_roots, coeffs, starts)


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
    result = _outcome(refine_roots, *_EDGE_CASES[name])
    if isinstance(outcome, str):
        assert result == outcome
    else:
        assert len(result) == 2 * outcome  # two uint64 words per root


@given(_coefficients(max_degree=6), _coefficients(max_degree=12))
@settings(max_examples=400)
def test_branch_coeffs_is_bit_identical_to_numpy_polynomial(p, q):
    family = _FixedFamily(p, q)
    assert _bits(family.branch_coeffs({})) == _bits(_oracle_branch_coeffs(family, {}))


@pytest.mark.parametrize("name, k", CATALOGUE)
def test_catalogue_hot_path_is_bit_identical(name, k):
    family = catalogue_family(name, k)
    for t in POINTS:
        coeffs = family.branch_coeffs(t)
        assert _bits(coeffs) == _bits(_oracle_branch_coeffs(family, t))
        starts = npoly.polyroots(coeffs)
        for shift in (0.0, 1e-6, 1e-2 + 1e-2j):
            assert _outcome(refine_roots, coeffs, starts + shift) == _outcome(
                _oracle_refine_roots, coeffs, starts + shift)


# ---------------------------------------------------------------------------
# The stacked solve against one solve_roots or polyroots call per row


def _call_outcome(solve, row):
    try:
        return _stack_outcome(solve(row))
    except (ValueError, DegenerateConfigurationError) as exc:  # LinAlgError is a ValueError
        return _stack_outcome(exc)


def _stack_outcome(result):
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
    ("matrix not finite", ("LinAlgError", "Array must not contain infs or NaNs")),
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
def test_solve_stack_is_bit_identical_to_one_call_per_row(rows):
    """Mixed lengths, failing rows among good ones, and chunks of one row,
    of a few rows and of every row."""
    with np.errstate(all="ignore"):
        polished = [_call_outcome(solve_roots, row) for row in rows]
        for entries in (1, 60, families.STACK_ENTRIES):
            with mock.patch.object(families, "STACK_ENTRIES", entries):
                assert [_stack_outcome(r) for r in solve_stack(rows)] == polished
        # the companion step on its own, against polyroots, over the rows
        # solve_roots accepts, stacked by length
        by_length = {}
        for row in rows:
            try:
                coeffs = families._solvable(row)
            except (ValueError, DegenerateConfigurationError):
                continue
            by_length.setdefault(len(coeffs), []).append(coeffs)
        for same in by_length.values():
            assert ([_stack_outcome(r) for r in families._companion_roots(np.array(same))]
                    == [_call_outcome(npoly.polyroots, c) for c in same])


@st.composite
def _stacked_starts(draw, n=None):
    """Rows of one length, n or drawn, with n - 1 starts each, each row's
    starts its roots moved by its own shift or drawn outright, so the rows
    converge after different numbers of steps, or fail."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=8))
    coeffs, starts = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        row = np.array(draw(st.lists(_entries, min_size=n, max_size=n)), dtype=complex)
        raw = npoly.polyroots(row) if row[-1] != 0 else np.zeros(0)
        if len(raw) == n - 1 and draw(st.booleans()):
            shifted = raw + draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3j, 0.1 - 0.1j]))
        else:
            shifted = np.array(draw(st.lists(_entries, min_size=n - 1, max_size=n - 1)))
        coeffs.append(row)
        starts.append(np.asarray(shifted, dtype=complex))
    return np.array(coeffs), starts


@given(_stacked_starts())
@settings(max_examples=300, deadline=None)
@example((np.array([[1, 0, 1], [1, 2, 1], [-1, 0, 1]], dtype=complex),
          [np.array([0, 1j]), np.array([-1.5, -0.5], dtype=complex),
           np.array([1 + 1e-3, -1 - 0.1j])]))
def test_stacked_newton_pass_is_bit_identical_to_refine_roots(case):
    """The Newton pass of solve_stack over rows that converge after
    different numbers of steps, hit a critical point or never converge,
    against one refine_roots call per row."""
    coeffs, starts = case
    with np.errstate(all="ignore"):
        expected = [_call_outcome(lambda c: refine_roots(c, s), c)
                    for c, s in zip(coeffs, starts)]
        assert [_stack_outcome(r) for r in families._polish_rows(coeffs, starts)] == expected


def _passes_at_once(coeffs, starts):
    """Whether every start passes refine_roots' first residual test, as
    written with numpy.polynomial calls (their scale is finite here)."""
    scale = npoly.polyval(np.abs(starts), np.abs(coeffs)) + 1e-300
    assert np.isfinite(scale).all()
    return bool(np.all(np.abs(npoly.polyval(starts, coeffs)) / scale < RESIDUAL_TOL))


@st.composite
def _routed_stack(draw):
    """One stack of three kinds of row: x^(n-1) - 1 from its companion
    roots, which pass at once, and from shifted starts, which take steps;
    a pinned row whose companion roots hit a critical point or never
    converge; then drawn rows of the same length."""
    bad = _SOLVE_ROWS[draw(st.sampled_from(["critical point", "no convergence"]))]
    n = len(bad)
    unit = np.zeros(n, dtype=complex)
    unit[[0, -1]] = -1, 1
    coeffs, starts = draw(_stacked_starts(n))
    roots = npoly.polyroots(unit)
    return (np.vstack([unit, unit, bad, coeffs]),
            [roots, roots + 1e-3j, npoly.polyroots(bad)] + starts)


@given(_routed_stack())
@settings(max_examples=100, deadline=None)
def test_stacked_newton_pass_refines_only_the_rows_that_fail_the_first_test(case):
    """The stacked solve's polish tests every row in one pass and calls
    refine_roots once for each row whose starts do not all pass, and for
    no other; every outcome is that of one refine_roots call per row."""
    coeffs, starts = case
    with np.errstate(all="ignore"):
        failing = [g for g, (c, s) in enumerate(zip(coeffs, starts))
                   if not _passes_at_once(c, s)]
        assert failing[:2] == [1, 2]  # the kinds: 0 passes, 1 steps, 2 fails
        with mock.patch.object(families, "refine_roots", wraps=refine_roots) as spy:
            polished = families._polish_rows(coeffs, starts)
        called = [[g for g, s in enumerate(starts) if s is call.args[1]]
                  for call in spy.call_args_list]
        assert called == [[g] for g in failing]
        expected = [_call_outcome(lambda c: refine_roots(c, s), c)
                    for c, s in zip(coeffs, starts)]
    assert [_stack_outcome(r) for r in polished] == expected
    assert not isinstance(polished[1], Exception) and isinstance(polished[2], Exception)


def test_solve_stack_falls_back_to_one_row_when_a_stack_fails():
    """A stack eigvals cannot finish is solved a row at a time, as
    polyroots solves each row."""
    eigvals = np.linalg.eigvals

    def no_stacks(a):
        if np.ndim(a) > 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    rows = [_SOLVE_ROWS["critical point"], np.array([1, 0, 0, 1], dtype=complex),
            _SOLVE_ROWS["matrix not finite"], np.array([-1, 0, 0, 1], dtype=complex)]
    with np.errstate(all="ignore"):
        expected = [_call_outcome(solve_roots, row) for row in rows]
        with mock.patch.object(np.linalg, "eigvals", no_stacks):
            assert [_stack_outcome(r) for r in solve_stack(rows)] == expected


def test_chunks_bound_the_stack():
    """A chunk holds at most STACK_ENTRIES entries of companion matrices
    and Newton block, at least one row, whatever the number of rows."""
    sizes = []
    eigvals = np.linalg.eigvals

    def record(a):
        sizes.append(np.shape(a))
        return eigvals(a)

    rows = [np.array([-1, 0, 0, 0, 1], dtype=complex) * (1 + j) for j in range(50)]
    with mock.patch.object(np.linalg, "eigvals", record):
        for entries in (1, 200, families.STACK_ENTRIES):
            sizes.clear()
            with mock.patch.object(families, "STACK_ENTRIES", entries):
                solve_stack(rows)
            per_row = 4 * 4 + 3 * 5 * 4
            assert sum(shape[0] for shape in sizes) == 50
            assert max(shape[0] for shape in sizes) == max(1, min(50, entries // per_row))


# ---------------------------------------------------------------------------
# The stacked vertex check against one solve and one gap per point


class _RowFamily:
    """Stands in for a family: its branch coefficients at {"row": k} are
    the k-th row given, and a row of None cannot be evaluated."""

    def __init__(self, rows):
        self.rows = rows

    def branch_coeffs(self, t):
        row = self.rows[t["row"]]
        if row is None:
            raise ValueError(f"row {t['row']} cannot be evaluated")
        return np.array(row, dtype=complex)


def _one_point_at_a_time(family, points):
    """branch_roots as one solve_roots and one min_pairwise_distance call
    per point, in input order."""
    out = []
    for t in points:
        row = family.branch_coeffs(t)
        try:
            roots = solve_roots(row)
        except (ValueError, DegenerateConfigurationError):
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
    """Rows [M, 0, c] whose leading coefficient c sits on the LEAD_TOL
    margin: LEAD_TOL * M is the larger of numpy's scalar and array abs of
    c, which differ in the last bit, so the smaller one reads as a
    dropped degree.  One row where the scalar abs is the smaller, one
    where it is the larger."""
    rng = np.random.default_rng(11)
    found = {}
    while len(found) < 2:
        c = complex(*rng.normal(size=2))
        array_abs, scalar_abs = float(np.abs(np.array([c]))[0]), float(abs(np.complex128(c)))
        if array_abs == scalar_abs:
            continue
        larger = max(array_abs, scalar_abs)
        top = larger / families.LEAD_TOL
        for _ in range(8):  # the M whose product with LEAD_TOL rounds to the larger abs
            if families.LEAD_TOL * top == larger:
                found[scalar_abs < array_abs] = [top, 0, c]
                break
            top = np.nextafter(top, math.inf if families.LEAD_TOL * top < larger else 0)
    return found[True], found[False]


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
_VERTEX_ROWS["lead margin, scalar abs smaller"], _VERTEX_ROWS["lead margin, scalar abs larger"] = (
    _lead_margin_rows())


@given(st.lists(st.one_of(_coefficients(max_degree=6), st.sampled_from(list(_VERTEX_ROWS.values()))),
                min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
@example([_VERTEX_ROWS["good quadratic"]] * 3 + [_VERTEX_ROWS["collision"]])
@example([_VERTEX_ROWS["lead margin, scalar abs smaller"], _VERTEX_ROWS["good quadratic"]])
@example([_VERTEX_ROWS["lead margin, scalar abs larger"], _VERTEX_ROWS["good quadratic"],
          _VERTEX_ROWS["inf under a finite top"]])
@example([_VERTEX_ROWS["good cubic"], _VERTEX_ROWS["shorter good row"],
          _VERTEX_ROWS["triple collision"], _VERTEX_ROWS["degree drop"]])
def test_stacked_vertex_check_is_one_check_per_point(rows):
    """branch_roots raises what a loop of solve_roots and
    min_pairwise_distance over the same points raises, type and message,
    for the first failing point in input order, and otherwise returns
    the same roots bit for bit."""
    family = _RowFamily(rows)
    points = [{"row": k} for k in range(len(rows))]
    with np.errstate(all="ignore"):
        assert (_vertex_outcome(families.branch_roots, family, points)
                == _vertex_outcome(_one_point_at_a_time, family, points))


@pytest.mark.parametrize("name, error", [
    ("collision", "branch points collide"),
    ("degree drop", "leading coefficient vanished"),
    ("zero polynomial", "zero polynomial"),
    ("NaN", "not finite"),
    ("inf under a finite top", "not finite"),
    ("no roots", "no branch points"),
    ("cannot be evaluated", "cannot be evaluated"),
    ("lead margin, scalar abs smaller", "leading coefficient vanished"),
    ("lead margin, scalar abs larger", None),
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


def test_refining_no_roots_returns_no_roots():
    """The reductions of refine_roots never see an empty array."""
    for coeffs in ([1, 0, 1], [3], [0, 1]):
        out = refine_roots(np.array(coeffs, dtype=complex), np.zeros(0, dtype=complex))
        assert out.shape == (0,) and out.dtype == complex


@pytest.mark.parametrize("p", [(0,), ("-0.0",), (1,), (2, -1), (1, 0, 1)])
def test_constant_p_cube_is_kept_but_never_shared(p):
    """With a parameter-free p, branch_coeffs keeps p^3 but returns a
    fresh array each call: writing into one result changes no later one,
    and every result has the oracle's bits, p = 0 and p^3 of higher
    degree than q^2 included."""
    family = WeierstrassFamily(3, ("lam",), p, ("lam", 1))
    for lam in (0.5 - 0.25j, complex(-0.0, 0.0), 0j, 0.5 - 0.25j):
        t = {"lam": lam}
        first = family.branch_coeffs(t)
        assert _bits(first) == _bits(_oracle_branch_coeffs(family, t))
        first[:] = 7
        assert _bits(family.branch_coeffs(t)) == _bits(_oracle_branch_coeffs(family, t))
