import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    fiber_monodromy,
    lasso,
    loop_to_braid,
    star_basis,
    track_coefficients,
    track_loop,
)
from braidwork.words import compose, compose_all, invert, permutation_image

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
    # prediction than half the distance from that prediction to any other
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

    with pytest.raises(TrackingError, match="near parameter time") as info:
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
    """track_loop's vertex check solves each catalogued loop in one stacked
    call; every vertex's roots are, byte for byte, those of solve_roots."""
    count = 0
    for family, loop in _catalogued_loops_all():
        vertices = loop.points[:-1]
        stacked = branch_roots(family, vertices)
        alone = [solve_roots(family.branch_coeffs(t)) for t in vertices]
        assert [r.tobytes() for r in stacked] == [r.tobytes() for r in alone]
        count += len(vertices)
    assert count > 1000


def test_the_first_degenerate_vertex_is_named():
    """Of two failing vertices, the earlier one raises, whichever way it
    fails: its branch points collide, its degree drops, its coefficients
    cannot be evaluated, or they are not finite (eigvals refuses a NaN,
    and an inf under a finite top would pass for a dropped degree)."""
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


def test_trace_json_round_trip():
    trace = track_loop(CUSP, UNIT_LOOP)
    data = trace.to_json()
    assert data["word"] == {"n": 2, "word": [1, 1, 1]}
    assert data["final_matching"] == [1, 0]
