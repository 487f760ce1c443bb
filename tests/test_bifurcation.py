import pytest

from braidwork.bifurcation import (
    _merge_loop,
    _ray_critical,
    bifurcation_generators,
    full_braid_monodromy_check,
)
from braidwork.families import branch_points, catalogue_family
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


def test_full_braid_monodromy_degree_two():
    results = full_braid_monodromy_check(3)
    assert all(r.passed for r in results)
    assert results[0].witness["closure_size"] == 6


def test_unsupported_degree_is_rejected():
    with pytest.raises(ValueError):
        bifurcation_generators(5)
