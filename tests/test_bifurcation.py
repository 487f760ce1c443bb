import dataclasses
from unittest import mock

import pytest

from braidwork import bifurcation, tracking
from braidwork.bifurcation import (
    _full_symmetric_group_row,
    _merge_loop,
    _ray_critical,
    bifurcation_generators,
    contraction_to_reference,
    expected_generators,
    full_braid_monodromy_check,
)
from braidwork.families import branch_points, catalogue_family
from braidwork.tracking import ROTATION_STEP, TrackingError, track_loop
from braidwork.words import permutation_image


def test_ray_critical_values_k2():
    odd = _ray_critical(2, 1.9)
    assert sorted(round(m.imag, 6) for m in odd) == [
        -round(1.9**0.5, 6), round(1.9**0.5, 6)]
    even = _ray_critical(2, -0.1)
    assert sorted(round(m.real, 6) for m in even) == [
        -round(0.1**0.5, 6), round(0.1**0.5, 6)]


@pytest.mark.parametrize("k", [2, 3])
def test_the_merge_loop_starts_at_the_ray_base_configuration(k):
    # the pair-merge braid is rewritten with the ray family's contraction,
    # so both loops must start at the same branch points, bit for bit
    family, loop = _merge_loop(k)
    ray_base = branch_points(catalogue_family("ray", k), {"lam": 0.0, "mu": 0.0})
    assert branch_points(family, loop.points[0]).points == ray_base.points


def test_single_cusp_realizes_the_triple_twist():
    report = bifurcation_generators(1)
    assert report.passed
    assert report.outcomes[0].matched == "e_12"
    # tracked words, letter for letter
    assert report.contraction.letters == (-1,)
    assert report.outcomes[0].braid.letters == (1, 1, 1)


def test_degree_four_generators():
    report = bifurcation_generators(2)
    assert report.passed
    matched = {o.matched for o in report.outcomes}
    assert {"e_12", "e_13", "e_24"} <= matched
    # tracked words, letter for letter
    conj = (-1, -3, -2, -3, -1, -2, -3)
    prefix = (3, 2, 1, 3, 2)
    assert report.contraction.letters == conj
    assert [(o.loop_id, o.matched, o.braid.letters) for o in report.outcomes] == [
        ("ray-odd-0", "e_13", prefix + (2, 1, 3) + conj),
        ("ray-odd-1", "e_13", prefix + (2, 1, 3) + conj),
        ("ray-even-0", "e_24", prefix + (3, 1, 2) + conj),
        ("ray-even-1", "e_24", prefix + (3, 1, 2) + conj),
        ("pair-merge", "e_12", prefix + (3, 3, 3, -2, -3, -1, -2, -3)),
    ]


def test_degree_four_loops_give_transpositions():
    report = bifurcation_generators(2)
    for outcome in report.outcomes:
        perm = permutation_image(outcome.braid)
        moved = [i for i, x in enumerate(perm) if x != i]
        assert len(moved) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_generator_rows_are_the_expected_generators(k):
    ids = [r.id for r in bifurcation_generators(k).results]
    assert ids == [f"bifurcation/{name}@k{k}" for name in expected_generators(k)]


# the step controller's budget: trials of all tracked loops of one run,
# counted as calls to the tracker's own binding of refine_roots (once per
# trial); and the secant predictor's: Newton residual passes of the run
# (most in the trials; the start solves, and any vertex the inclusion discs
# cannot certify, polish their roots, one pass or more)
PASS_BUDGET = {2: 4700, 3: 9400}


@pytest.mark.parametrize("k, budget", [(2, 1500), (3, 3350)])
def test_the_generators_are_tracked_within_a_trial_budget(k, budget, newton_passes):
    with mock.patch.object(tracking, "refine_roots", wraps=tracking.refine_roots) as trials:
        assert bifurcation_generators(k).passed
    assert trials.call_count <= budget
    assert sum(newton_passes) <= PASS_BUDGET[k]


def test_full_braid_monodromy_degree_two():
    (row,) = full_braid_monodromy_check(3)
    assert row.id == "degtwo/full-symmetric-group@k3"
    assert row.passed
    assert row.witness == {"transpositions": [[2, 3], [1, 2]]}


# permutations as tuples of images of 0..k-1
@pytest.mark.parametrize("k, perms", [
    (3, [(1, 0, 2), (0, 2, 1)]),
    (3, [(0, 2, 1), (1, 0, 2)]),
    (4, [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]),
    (4, [(1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0)]),  # a star, not a path
])
def test_transpositions_whose_product_is_a_k_cycle_pass(k, perms):
    assert _full_symmetric_group_row(k, perms).passed


@pytest.mark.parametrize("k, perms", [
    # a repeated transposition: the product is the identity
    (3, [(1, 0, 2), (1, 0, 2)]),
    # a 3-cycle image; the products, (1 2 3) and (1 2 3)(3 4), are k-cycles
    (3, [(1, 2, 0)]),
    (4, [(1, 2, 0, 3), (0, 1, 3, 2)]),
    # two disjoint transpositions at k = 4
    (4, [(1, 0, 2, 3), (0, 1, 3, 2)]),
    # an image that is two disjoint transpositions; the product is a 4-cycle
    (4, [(1, 0, 3, 2), (0, 2, 1, 3)]),
])
def test_the_full_symmetric_group_row_fails_off_the_criterion(k, perms):
    row = _full_symmetric_group_row(k, perms)
    assert row.id == f"degtwo/full-symmetric-group@k{k}"
    assert row.status == "failed"


def test_the_contraction_of_no_points_names_the_cause():
    # its polynomial is the constant 1, which has no root to track
    with pytest.raises(ValueError, match="no roots at s = 0"):
        contraction_to_reference(())


def test_unsupported_degree_is_rejected():
    with pytest.raises(ValueError):
        bifurcation_generators(5)


# the run, the position and id of the loop whose trace is patched, and the
# step that composes words, with the number of its calls before that loop
@pytest.mark.parametrize("run, k, position, loop_id, composer, composed", [
    (bifurcation_generators, 2, 3, "ray-even-0", "conjugate_right", 2),
    (full_braid_monodromy_check, 3, 2, "tame-1", "_full_symmetric_group_row", 0),
])
def test_a_trace_read_in_another_projection_stops_the_run(
        run, k, position, loop_id, composer, composed):
    """One loop's trace recorded at another projection angle raises,
    naming the loop and both angles, before its word is composed."""
    traces = []

    def track(family, loop):
        trace = track_loop(family, loop)
        traces.append(trace)
        if len(traces) == position:
            return dataclasses.replace(
                trace, projection_angle=trace.projection_angle + ROTATION_STEP)
        return trace

    with mock.patch.object(bifurcation, "track_loop", track), \
            mock.patch.object(bifurcation, composer,
                              wraps=getattr(bifurcation, composer)) as spy:
        with pytest.raises(TrackingError) as exc:
            run(k)
    angle = traces[0].projection_angle
    assert str(exc.value) == (f"loop {loop_id} was read at projection angle "
                              f"{angle + ROTATION_STEP!r}, its run at {angle!r}")
    assert len(traces) == position
    assert spy.call_count == composed
