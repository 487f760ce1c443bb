import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidwork import families, tracking
from braidwork.bifurcation import _catalogued_loops, _tame_critical
from braidwork.families import (
    COLLISION_TOL,
    DegenerateConfigurationError,
    WeierstrassFamily,
    branch_points,
    branch_roots,
    catalogue_family,
    min_pairwise_distance,
    solve_roots,
)
from braidwork.garside import equal
from braidwork.tracking import (
    MAX_STEP,
    ParameterLoop,
    TrackingError,
    circle_path,
    evenly_spaced,
    fiber_monodromy,
    lasso,
    loop_to_braid,
    star_basis,
    track_coefficients,
    track_loop,
)
from braidwork.words import BraidWord, compose, compose_all, invert, permutation_image
from test_families import one_row_solve

CUSP = catalogue_family("cusp")
TANGENCY = catalogue_family("tangency")
UNIT_LOOP = ParameterLoop.circle("lam", 0.0, 1.0)


def test_cusp_loop_is_the_triple_twist():
    trace = track_loop(CUSP, UNIT_LOOP)
    assert loop_to_braid(trace).letters == (1, 1, 1)


def test_tangency_loop_is_one_half_twist():
    trace = track_loop(TANGENCY, UNIT_LOOP)
    assert loop_to_braid(trace).letters == (1,)


def test_constant_loop_gives_empty_trace():
    loop = ParameterLoop.polyline([{"lam": 1.0}, {"lam": 1.0}])
    trace = track_loop(TANGENCY, loop)
    assert loop_to_braid(trace).letters == ()
    assert trace.final_matching == (0, 1)


def test_double_traversal_squares_the_braid():
    double = ParameterLoop.circle("lam", 0.0, 1.0, turns=2)
    w1 = loop_to_braid(track_loop(TANGENCY, UNIT_LOOP))
    w2 = loop_to_braid(track_loop(TANGENCY, double))
    assert equal(w2, compose(w1, w1))


def test_reversed_loop_inverts_the_braid():
    reverse = ParameterLoop.polyline(list(reversed(UNIT_LOOP.points)))
    w1 = loop_to_braid(track_loop(CUSP, UNIT_LOOP))
    w2 = loop_to_braid(track_loop(CUSP, reverse))
    assert equal(w2, invert(w1))


def test_loop_concatenation_composes_braids():
    # traverse the unit circle in two halves glued at lam = 1 and lam = -1
    path = list(UNIT_LOOP.points)
    mid = len(path) // 2
    first = ParameterLoop.polyline(path[: mid + 1] + [{"lam": 1.0}])
    # close the first half back along the diameter is not allowed (passes 0),
    # so compare the full loop against its two halves glued as one polyline
    glued = ParameterLoop.polyline(path)
    assert equal(
        loop_to_braid(track_loop(TANGENCY, glued)),
        loop_to_braid(track_loop(TANGENCY, UNIT_LOOP)),
    )
    del first


def test_matching_agrees_with_word_image():
    for family, loop in ((CUSP, UNIT_LOOP), (TANGENCY, UNIT_LOOP)):
        trace = track_loop(family, loop)
        assert permutation_image(loop_to_braid(trace)) == trace.final_matching


@given(
    st.lists(st.complex_numbers(max_magnitude=10), min_size=2, max_size=12),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_the_move_bound_makes_the_matching_unambiguous(points, data):
    # a trial that passes the move test, every root moved by at most a
    # quarter of the smallest gap, has an unambiguous matching, so the
    # tracker tests it no further: each corrected root lies nearer its own
    # previous root than half the distance from that root to any other
    # corrected root
    roots = np.array(points)
    gap = min_pairwise_distance(roots)
    assume(gap >= COLLISION_TOL)  # the tracker's gaps never fall below it
    m = len(roots)
    fractions = data.draw(st.lists(st.floats(0, 1), min_size=m, max_size=m))
    angles = data.draw(st.lists(st.floats(0, 2 * math.pi), min_size=m, max_size=m))
    new_roots = roots + np.array(
        [gap / 4 * f * complex(math.cos(a), math.sin(a)) for f, a in zip(fractions, angles)])
    assume(not np.abs(new_roots - roots).max() > gap / 4)
    dist = np.abs(roots[:, None] - new_roots[None, :])
    off = dist + np.diag([math.inf] * m)
    assert not (dist.diagonal() > 0.5 * off.min(axis=1)).any()


def test_loop_through_degeneration_raises():
    bad = ParameterLoop.polyline(
        [{"lam": 1.0}, {"lam": -1.0}, {"lam": 1.0}]  # crosses lam = 0
    )
    with pytest.raises(Exception) as err:
        track_loop(TANGENCY, bad)
    assert "degenerat" in str(err.value).lower() or "collide" in str(err.value).lower()


@pytest.mark.parametrize("turns", [0, 1.5, True, 101, -101, "1"])
def test_circle_turns_must_be_a_bounded_nonzero_integer(turns):
    with pytest.raises(ValueError, match="turns"):
        ParameterLoop.circle("lam", 0.0, 1.0, turns)


def test_circle_turns_bound_is_inclusive():
    for turns in (100, -100):
        loop = ParameterLoop.circle("lam", 0.0, 1.0, turns)
        assert len(loop.points) == 48 * 100 + 1


def test_loop_must_be_closed():
    with pytest.raises(ValueError):
        ParameterLoop.polyline([{"lam": 1.0}, {"lam": 2.0}])


def test_homotopy_invariance_under_resampling_and_jitter():
    rng = np.random.default_rng(20260810)
    reference = loop_to_braid(track_loop(TANGENCY, UNIT_LOOP))
    for _ in range(8):
        count = int(rng.integers(20, 90))
        pts = []
        for j in range(count):
            theta = 2 * math.pi * j / count
            jitter = 0.15 * (rng.standard_normal() + 1j * rng.standard_normal())
            pts.append({"lam": np.exp(1j * theta) + jitter})
        pts.append(pts[0])
        w = loop_to_braid(track_loop(TANGENCY, ParameterLoop.polyline(pts)))
        assert equal(w, reference)


def _discriminant(coeffs: np.ndarray) -> complex:
    """Disc_x of the polynomial with coefficients ``coeffs`` (low to high),
    up to a constant sign: the Sylvester determinant of B and B' over B's
    leading coefficient."""
    b = coeffs[::-1]
    db = np.polynomial.polynomial.polyder(coeffs)[::-1]
    n = len(b) - 1
    sylvester = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
    for i in range(n - 1):
        sylvester[i, i:i + n + 1] = b
    for i in range(n):
        sylvester[n - 1 + i, i:i + n] = db
    return complex(np.linalg.det(sylvester)) / b[0]


def _winding(f) -> float:
    """Turns of f(s) about 0 for s in [0, 1].  A step [s, s + h] counts
    only when f's phase moves by at most pi/4 on either half and f at the
    midpoint lies within a quarter of f's smallest modulus of the chord's
    midpoint; otherwise h halves.  The halves' phases always add up to the
    whole's when each is within pi/4, so that test alone let a step of
    1/64 on the k = 3 pair-merge loop skip a whole clockwise turn."""
    total, s, h, start = 0.0, 0.0, 1 / 64, f(0.0)
    while s < 1.0:
        h = min(h, 1.0 - s)
        mid, end = f(s + h / 2), f(s + h)
        first, second = cmath.phase(mid / start), cmath.phase(end / mid)
        if (max(abs(first), abs(second)) > math.pi / 4
                or abs(mid - (start + end) / 2) > min(abs(start), abs(mid), abs(end)) / 4):
            h /= 2
            assert h > 1e-12, f"f passes too close to 0 near s = {s}"
            continue
        total += first + second
        s, start, h = s + h, end, 2 * h
    return total / (2 * math.pi)


def _discriminant_turns(family: WeierstrassFamily, loop: ParameterLoop) -> int:
    """Oracle B: the winding of Disc_x(B_t) along the loop, less (2n - 2)
    times the winding of B_t's leading coefficient, for degree n.  It
    equals the exponent sum of the loop's braid, since a positive half
    twist turns (x_i - x_j)^2 once round 0; no root is read."""
    def reduced(s: float) -> complex:
        coeffs = family.branch_coeffs(loop.at(s))
        return _discriminant(coeffs) / coeffs[-1] ** (2 * len(coeffs) - 4)

    turns = _winding(reduced)
    assert abs(turns - round(turns)) < 1e-6
    return round(turns)


# the catalogued loops: the tangency anchor, and the cusp circle, the ray
# loops and the pair-merge loops of the bifurcation pipelines at k = 1..3
_ORACLE_LOOPS = [("tangency", TANGENCY, UNIT_LOOP)] + [
    (f"{loop_id}@k{k}", family, loop)
    for k in (1, 2, 3) for loop_id, family, loop in _catalogued_loops(k)[1]]


@pytest.mark.parametrize("family, loop", [entry[1:] for entry in _ORACLE_LOOPS],
                         ids=[entry[0] for entry in _ORACLE_LOOPS])
def test_a_tracked_braid_has_the_discriminant_winding(family, loop):
    letters = loop_to_braid(track_loop(family, loop)).letters
    turns = _discriminant_turns(family, loop)
    assert sum(1 if x > 0 else -1 for x in letters) == turns
    # mutation: the word with one letter's sign flipped fails the oracle
    mutated = list(letters)
    mutated[len(mutated) // 2] *= -1
    assert sum(1 if x > 0 else -1 for x in mutated) != turns


def test_vertical_alignment_triggers_projection_rotation():
    # two points fixed at +-i sqrt(1 - lam), vertically aligned throughout
    family = catalogue_family("ray", 2)
    loop = ParameterLoop.polyline(
        [{"lam": 0.0, "mu": 0.0}, {"lam": 0.5, "mu": 0.0}, {"lam": 0.0, "mu": 0.0}]
    )
    trace = track_loop(family, loop)
    assert trace.rotations >= 1
    assert loop_to_braid(trace).letters == ()


def test_synthetic_coefficients_tracking():
    # two points swapping by one counterclockwise half turn: sigma_1
    def coeffs(s):
        a = np.exp(1j * math.pi * s)
        return np.polynomial.polynomial.polyfromroots([a, -a])

    trace = track_coefficients(coeffs)
    assert loop_to_braid(trace).letters == (1,)
    # clockwise gives the inverse
    def coeffs_cw(s):
        a = np.exp(-1j * math.pi * s)
        return np.polynomial.polynomial.polyfromroots([a, -a])

    assert loop_to_braid(track_coefficients(coeffs_cw)).letters == (-1,)


def test_a_half_turn_of_twelve_points_is_the_half_twist():
    # a rigid counterclockwise half turn of m generic points is the half
    # twist (s1 ... s_{m-1})(s1 ... s_{m-2}) ... (s1); twice the roots of
    # the largest catalogued loop
    m = 12
    rng = np.random.default_rng(12)
    points = rng.normal(size=m) + 1j * rng.normal(size=m)
    trace = track_coefficients(lambda s: np.polynomial.polynomial.polyfromroots(
        points * cmath.exp(1j * math.pi * s)))
    delta = BraidWord(m, tuple(i for top in range(m - 1, 0, -1) for i in range(1, top + 1)))
    assert equal(loop_to_braid(trace), delta)


def test_a_secant_prediction_converges_at_once_on_a_linear_root_path(newton_passes):
    # roots on straight lines: from the second trial on, the secant through
    # the last accepted step predicts them to rounding, so each trial's
    # Newton loop stops at its first residual test.  That needs the first
    # trial to end at rounding too: roots accepted with a residual just
    # under RESIDUAL_TOL carry that error into the secant, which can cost
    # a second test (da = [0.4+0.3j, -0.2+0.5j, 0.3-0.1j, -0.5-0.4j] makes
    # 2, 1, 2, 1, ... passes after the first trial for that reason).
    a0 = np.array([1.0, 1j, -1.0, -1j])
    da = np.array([0.2, 0.1j, -0.3, 0.25j])
    with mock.patch.object(tracking, "refine_roots", wraps=tracking.refine_roots) as trials:
        track_coefficients(lambda s: np.polynomial.polynomial.polyfromroots(a0 + s * da))
    first, *rest = newton_passes[-trials.call_count:]  # the start's solve comes first
    assert first > 1 and len(rest) >= 16
    assert rest == [1] * len(rest)


def test_fiber_monodromy_around_labeled_points_follows_merge_rule():
    family = catalogue_family("base", 2)
    cfg = branch_points(family, {})
    loops = star_basis(cfg.points)
    matchings = []
    words = []
    for loop in loops:
        matching, braid = fiber_monodromy(family, {}, loop)
        matchings.append(matching)
        words.append(braid)
    # odd labels merge the two upper sheets, even labels the two lower ones
    assert matchings[0] == matchings[2] == (0, 2, 1)
    assert matchings[1] == matchings[3] == (1, 0, 2)
    assert [w.letters for w in words] == [(2,), (1,), (2,), (1,)]


def test_star_basis_product_is_the_boundary():
    family = catalogue_family("base", 2)
    cfg = branch_points(family, {})
    loops = star_basis(cfg.points)
    base = loops[0][0]
    words = [fiber_monodromy(family, {}, loop)[1] for loop in loops]
    product = compose_all(3, words)

    angle = math.atan2(base.imag, base.real)
    outward = [base + (2 * np.exp(1j * angle) - base) * j / 8 for j in range(9)]
    boundary = outward + circle_path(0, 2.0, angle, 1.0, 96)[1:] + outward[::-1][1:]
    _, boundary_word = fiber_monodromy(family, {}, boundary)
    assert equal(product, boundary_word)


def test_star_basis_single_point():
    loops = star_basis([1.0 + 0j])
    assert len(loops) == 1
    matching, braid = fiber_monodromy(catalogue_family("base", 1), {}, loops[0])
    assert len(matching) == 3


def test_star_basis_base_collision_is_rejected():
    # a configuration containing 0 puts the base on that point
    with pytest.raises(ValueError, match="base point collides"):
        star_basis([1.0 + 0j, 0j, -1.0 + 0j])


def test_constant_fiber_path_is_trivial():
    family = catalogue_family("base", 2)
    matching, braid = fiber_monodromy(family, {}, [0.2 + 0.1j, 0.2 + 0.1j])
    assert matching == (0, 1, 2)
    assert braid.letters == ()


def test_degree_drop_mid_path_raises():
    def coeffs(s):
        # leading coefficient passes through zero at s = 0.5
        return np.array([1.0, 0.5, complex(s - 0.5)], dtype=complex)

    with pytest.raises(TrackingError):
        track_coefficients(coeffs)


def test_degree_drop_through_trimming_raises():
    # p^3 - q^2 = c^6 (1 - x^2): the roots stay at +-1 for c != 0, and at
    # c = 0 every coefficient is an exact zero.  Only trimming shortens the
    # array there; untrimmed, the zero polynomial passes every test.
    family = WeierstrassFamily(3, ("c",), ("c**2",), (0, "c**3"))
    assert len(family.branch_coeffs({"c": 0j})) == 1
    loop = ParameterLoop.polyline([{"c": 1}, {"c": 0}, {"c": 1}])

    def coeffs(s):
        # the first half of the loop; a trace's last trial is exactly s = 1
        return family.branch_coeffs(loop.at(s / 2))

    with pytest.raises(TrackingError, match="degree dropped"):
        track_coefficients(coeffs)


def test_the_zero_branch_polynomial_raises():
    # q = c + c x is untrimmed for y_degree 2, so at c = 0 (the last trial)
    # the array keeps its length and every coefficient is an exact zero
    family = WeierstrassFamily(2, ("c",), (), ("c", "c"))
    with pytest.raises(TrackingError, match="degree dropped"):
        track_coefficients(lambda s: family.branch_coeffs({"c": 1 - s}))


def test_coefficients_that_turn_nan_raise_at_that_trial():
    # x^2 - 1 until s = 0.3, a NaN constant term after: the first trial
    # past 0.3 raises with its own time, and no step is halved towards it
    def coeffs(s):
        return np.array([-1 if s < 0.3 else math.nan, 0, 1], dtype=complex)

    with pytest.raises(TrackingError,
                       match="branch coefficients are not finite near parameter time") as info:
        track_coefficients(coeffs)
    assert "step underflow" not in str(info.value)
    time = float(re.search(r"parameter time (\S+)", str(info.value)).group(1))
    assert 0.3 <= time < 0.3 + MAX_STEP


def test_coefficients_with_no_roots_at_the_start_raise():
    # a nonzero constant has no root to track
    with pytest.raises(ValueError, match="no roots at s = 0"):
        track_coefficients(lambda s: np.array([7.0 + 0j]))


def test_a_loop_may_name_only_the_family_parameters():
    # branch points x^3 = 1 at every vertex; the family never reads lam
    family = WeierstrassFamily(3, (), (0, 1), (1,))
    with pytest.raises(ValueError, match=r"does not have: \['lam'\]"):
        track_loop(family, UNIT_LOOP)
    extra = ParameterLoop.circle("lam", 0.0, 1.0, fixed={"mu": 0.5})
    with pytest.raises(ValueError, match=r"does not have: \['mu'\]"):
        track_loop(CUSP, extra)


def _catalogued_loops_all():
    """The loops of the catalogued pipelines, as (family, loop), with their
    tame loops for k = 3 to 6 and off-centre circles that turn twice and
    backwards."""
    loops = [(family, circle) for family in (CUSP, TANGENCY) for circle in (
        UNIT_LOOP, ParameterLoop.circle("lam", 0.2j, 0.7, 2, start_angle=1.0),
        ParameterLoop.circle("lam", -0.1, 0.5, -1))]
    for k in (1, 2, 3):
        loops += [(family, loop) for _, family, loop in _catalogued_loops(k)[1]]
    for k in (3, 4, 5, 6):
        tame = catalogue_family("tame", k)
        for lam_c in _tame_critical(k):
            approach = [{"lam": 0.0}, {"lam": lam_c * (1 - 0.25)}]
            loops.append((tame, ParameterLoop.polyline(
                lasso(approach, lam_c, 0.25 * abs(lam_c), 48, "lam"))))
    return loops


def test_stacked_vertex_roots_are_the_roots_of_one_solve_per_vertex():
    """branch_roots, the tracker's fallback for a vertex its discs cannot
    certify, over each catalogued loop's vertices: every vertex's roots
    are, bit for bit, those of one polyroots and one refine_roots call."""

    def hexed(solved):
        return [[(z.real.hex(), z.imag.hex()) for z in roots] for roots in solved]

    count = 0
    for family, loop in _catalogued_loops_all():
        vertices = loop.points[:-1]
        solved = branch_roots(family, vertices)
        alone = [one_row_solve(family.branch_coeffs(t)) for t in vertices]
        assert hexed(solved) == hexed(alone)
        count += len(vertices)
    assert count > 1000


def test_the_first_degenerate_vertex_is_named():
    """Of two failing vertices, the earlier one raises, whichever way it
    fails: its branch points collide, its degree drops, its coefficients
    cannot be evaluated, or they are not finite (eigvals refuses a NaN,
    and an inf under a finite top would pass for a dropped degree).  A
    vertex with no branch point, and a collision after a vertex of
    another degree, raise what branch_roots over the vertices raises."""
    family = WeierstrassFamily(2, ("a", "lam"), (), ("lam", 0, "a"))
    collide = {"a": -1, "lam": 0}  # a double branch point at 0
    drop = {"a": 0, "lam": 1}  # the x^2 coefficient vanishes
    unreadable = {"a": -1, "lam": "one"}
    infinite, nan = {"a": -1, "lam": math.inf}, {"a": -1, "lam": math.nan}
    start, middle = {"a": -1, "lam": 1}, {"a": -1, "lam": 2}
    collision = re.escape(f"branch points collide at parameters {collide}")
    not_finite = "the branch coefficients are not finite at parameters "
    for first, second, error, message in [
        (collide, drop, DegenerateConfigurationError, collision),
        (drop, collide, DegenerateConfigurationError, "degree dropped"),
        (collide, unreadable, DegenerateConfigurationError, collision),
        (unreadable, collide, ValueError, "complex"),
        (infinite, collide, ValueError, re.escape(not_finite + str(infinite))),
        (nan, collide, ValueError, re.escape(not_finite + str(nan))),
        (collide, infinite, DegenerateConfigurationError, collision),
    ]:
        loop = ParameterLoop.polyline([start, first, middle, second, start])
        with pytest.raises(error, match=message):
            track_loop(family, loop)
    # a vertex with no branch point, first or after the start: 8 - (1 + a x)^2
    # trims to the constant 7 at a = 0
    constant = WeierstrassFamily(3, ("a",), [2], [1, "a"])
    no_roots = re.escape("the family has no branch points at these parameters {'a': 0}")
    # rows of different length: a^3 - (x + lam x^2)^2 has two branch points
    # at lam = 0, four elsewhere, and collides at a = 0, after the vertex
    # the trace's first trial refuses as a degree drop
    shorter = WeierstrassFamily(3, ("a", "lam"), ["a"], [0, 1, "lam"])
    collide = {"a": 0, "lam": 1}
    degrees = ParameterLoop.polyline(
        [{"a": 1, "lam": 0}, {"a": 1, "lam": 1}, collide, {"a": 1, "lam": 0}])
    with pytest.raises(TrackingError, match="degree dropped"):
        track_coefficients(lambda s: shorter.branch_coeffs(degrees.at(s)))
    for family, loop, error, message in [
        (constant, ParameterLoop.polyline([{"a": 0}, {"a": 1}, {"a": 0}]), ValueError, no_roots),
        (constant, ParameterLoop.polyline([{"a": 1}, {"a": 0}, {"a": 2}, {"a": 1}]),
         ValueError, no_roots),
        (shorter, degrees, DegenerateConfigurationError,
         re.escape(f"branch points collide at parameters {collide}")),
    ]:
        with pytest.raises(error, match=message):
            branch_roots(family, loop.points[:-1])
        with pytest.raises(error, match=message):
            track_loop(family, loop)


TOUCH = WeierstrassFamily(2, ("lam", "a"), (), ("lam", 0, "a"))  # y^2 + lam + a x^2


def test_a_loop_that_touches_the_discriminant_at_a_vertex_is_refused():
    """lam runs 1 -> 0 -> 2 -> 1 at a = -1: the two branch points +-sqrt(lam)
    meet at the vertex lam = 0 and retreat the way they came, so the trace
    passes with no crossing; the vertex check alone refuses the loop."""
    loop = ParameterLoop.polyline([{"lam": v, "a": -1} for v in (1, 0, 2, 1)])
    collide = re.escape(f"branch points collide at parameters {loop.points[1]}")
    with pytest.raises(DegenerateConfigurationError, match=collide):
        track_loop(TOUCH, loop)


def test_a_failing_vertex_is_named_before_the_traces_own_error():
    """The trace fails on the first segment, which crosses lam = 0; the
    degenerate vertex after it is what the loop is refused for."""
    collide = {"lam": 0, "a": -1}
    loop = ParameterLoop.polyline(
        [{"lam": 1, "a": -1}, {"lam": -1, "a": -1}, collide, {"lam": 1, "a": -1}])
    with pytest.raises(TrackingError):
        track_coefficients(lambda s: TOUCH.branch_coeffs(loop.at(s)))
    with pytest.raises(DegenerateConfigurationError, match=re.escape(str(collide))):
        track_loop(TOUCH, loop)


def test_a_loop_whose_vertices_differ_in_degree_raises_in_its_first_trial():
    """1 - (x + lam x^2)^2 has two branch points at lam = 0 and four
    elsewhere: every vertex passes branch_roots, and the trace raises."""
    family = WeierstrassFamily(3, ("lam",), ["1"], [0, 1, "lam"])
    loop = ParameterLoop.polyline([{"lam": 0}, {"lam": 1}, {"lam": 0}])
    with pytest.raises(TrackingError, match="degree dropped near parameter time 0.031250"):
        track_loop(family, loop)


def test_a_loop_with_no_degenerate_vertex_solves_only_its_start():
    """Every vertex of the k = 3 ray loop is certified by the discs of the
    step that passes it: the only root solve is the trace's start."""
    _, family, loop = _catalogued_loops(3)[1][0]
    with mock.patch.object(families, "_companion_roots",
                           wraps=families._companion_roots) as companion:
        track_loop(family, loop)
    assert companion.call_count == 1


def test_a_vertex_the_discs_cannot_certify_is_solved_alone():
    """With no vertex certified, each is solved by branch_roots, and the
    braid is the same."""
    _, family, loop = _catalogued_loops(2)[1][0]
    expected = track_loop(family, loop)
    with mock.patch.object(tracking, "_certified", return_value=False), \
            mock.patch.object(families, "_companion_roots",
                              wraps=families._companion_roots) as companion:
        assert track_loop(family, loop) == expected
    assert companion.call_count == len(loop.points) - 1


def _disc_case(lead, roots, start_shifts, moves, f):
    """The certificate's inputs for the row lead * prod (x - roots) and an
    accepted step from roots + start_shifts by moves of at most a quarter
    of its smallest gap, with the vertex at fraction f."""
    row = (lead * np.polynomial.polynomial.polyfromroots(roots)).tolist()
    start = [z + e for z, e in zip(roots, start_shifts)]
    gap = min_pairwise_distance(start)
    new = [z + gap / 4 * d for z, d in zip(start, moves)]
    return row, start, new, gap, min_pairwise_distance(new), f


_unit = st.builds(cmath.rect, st.floats(0, 1), st.floats(0, 2 * math.pi))


@st.composite
def _disc_cases(draw):
    m = draw(st.integers(2, 6))
    roots = draw(st.lists(st.complex_numbers(max_magnitude=2), min_size=m, max_size=m))
    if draw(st.booleans()):  # a double root
        roots[1] = roots[0]
    scale = 10.0 ** draw(st.integers(-12, 0))
    shifts = [scale * draw(_unit) for _ in range(m)]
    moves = [draw(_unit) for _ in range(m)]
    lead = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=10))
    return _disc_case(lead, roots, shifts, moves, draw(st.floats(0, 1, exclude_min=True)))


@given(_disc_cases())
@settings(max_examples=600, deadline=None)
def test_a_certified_vertex_has_one_root_in_each_disc(case):
    """Where the certificate accepts a vertex, the discs about the
    interpolated roots z_j of radius (apart - COLLISION_TOL) / 2, apart
    the certificate's lower bound on every |z_j - z_k|, each hold exactly
    one root of solve_roots, so the roots are at least COLLISION_TOL
    apart."""
    row, start, new, gap, new_gap, f = case
    assume(gap >= COLLISION_TOL and new_gap >= COLLISION_TOL)
    if not tracking._certified(row, start, new, gap, new_gap, f):
        return
    z = [a + (b - a) * f for a, b in zip(start, new)]
    apart = max(gap * (1 - f / 2), new_gap - (1 - f) * gap / 2)
    assert min_pairwise_distance(z) >= apart * (1 - 1e-12)
    roots = solve_roots(row)
    for x in z:
        assert sum(abs(r - x) <= (apart - COLLISION_TOL) / 2 for r in roots) == 1
    assert min_pairwise_distance(roots) >= COLLISION_TOL


@pytest.mark.parametrize("others", [[], [3], [3, 4j, -2 - 2j, 1 + 3j]])
def test_the_discs_refuse_a_double_root_between_two_points(others):
    """Points at +-a about a double root at 0, the others on their roots:
    the corrections are +-a/2 at +-a, and +-a/4 at +-a/2 after one
    correction, so the two discs of radius m |w| never part; at m = 2
    they just touch, and any smaller factor would certify the double
    root."""
    m = 2 + len(others)
    for a in (1e-6, 0.01, 0.5):
        row, start, new, gap, new_gap, f = _disc_case(
            1, [0, 0] + others, [a, -a] + [0] * len(others), [0] * m, 1.0)
        assert not tracking._certified(row, start, new, gap, new_gap, f)


def test_a_ray_loop_is_tracked_without_numpy_convolve(monkeypatch):
    """Branch coefficients are products of Python lists: the k = 3 ray
    loop's vertex check and every trial run with numpy.convolve refusing."""
    _, family, loop = _catalogued_loops(3)[1][0]
    expected = track_loop(family, loop)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.convolve was called")

    monkeypatch.setattr(np, "convolve", refuse)
    assert track_loop(family, loop) == expected


@pytest.mark.parametrize("start, stop, count", [(-0.99, 0.99, 100), (0.0, 0.99, 100),
                                                (0.1, 1.0, 10), (-5.0, -3.0, 13)])
def test_the_grids_in_use_are_numpys_linspace(start, stop, count):
    """The confinement grids, the merge loop's approach and the exponents
    of the cusp-exponent grid, bit for bit as numpy's linspace gives them."""
    assert ([x.hex() for x in evenly_spaced(start, stop, count)]
            == [float(x).hex() for x in np.linspace(start, stop, count)])


def test_trace_json_round_trip():
    trace = track_loop(CUSP, UNIT_LOOP)
    data = trace.to_json()
    assert data["word"] == {"n": 2, "word": [1, 1, 1]}
    assert data["final_matching"] == [1, 0]
