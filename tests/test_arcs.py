import math

import pytest

from braidwork.arcs import ArcError, admissible, chord
from braidwork.families import branch_points, catalogue_family


@pytest.fixture(scope="module", params=[2, 3])
def base_setup(request):
    k = request.param
    family = catalogue_family("base", k)
    return k, family, branch_points(family, {})


def test_first_to_third_chord_is_braid_admissible(base_setup):
    k, family, cfg = base_setup
    report = admissible(family, {}, chord(cfg.point(1), cfg.point(3)))
    assert report.coxeter
    assert report.artin


def test_adjacent_chord_is_not_permutation_admissible(base_setup):
    k, family, cfg = base_setup
    report = admissible(family, {}, chord(cfg.point(1), cfg.point(2)))
    assert not report.coxeter
    assert not report.artin
    # oracle: the endpoint transpositions follow the sheet-merge rule,
    # alternating with the label parity
    assert report.start_matching == (0, 2, 1)
    assert report.end_matching == (1, 0, 2)


def test_nullhomotopic_detour_keeps_the_verdict():
    family = catalogue_family("base", 2)
    cfg = branch_points(family, {})
    a, b = cfg.point(1), cfg.point(3)
    straight = admissible(family, {}, chord(a, b))
    bumped = []
    for j in range(33):
        s = j / 32
        z = a + (b - a) * s
        bump = 0.18j * math.sin(math.pi * s) ** 2
        bumped.append(z + bump * (b - a))
    detoured = admissible(family, {}, bumped)
    assert (straight.coxeter, straight.artin) == (detoured.coxeter, detoured.artin)
    assert straight.start_matching == detoured.start_matching


def test_arc_through_a_branch_point_is_rejected():
    family = catalogue_family("base", 2)
    cfg = branch_points(family, {})
    # path from x_2 to x_4 along the imaginary axis passes near no point,
    # but a path from x_1 to x_3 bent through x_2 must be rejected
    bad = [cfg.point(1), cfg.point(2), cfg.point(3)]
    with pytest.raises(ArcError):
        admissible(family, {}, bad)


def test_endpoints_must_be_branch_points():
    family = catalogue_family("base", 2)
    with pytest.raises(ArcError):
        admissible(family, {}, chord(0.5 + 0j, -0.5 + 0j))


def test_vertical_chord_between_even_points():
    # x_2 -- x_4 chord: same merge type on both ends, expect admissible
    family = catalogue_family("base", 2)
    cfg = branch_points(family, {})
    report = admissible(family, {}, chord(cfg.point(2), cfg.point(4)))
    assert report.coxeter
    assert report.artin


def test_parameters_the_family_lacks_are_rejected():
    family = catalogue_family("base", 2)
    cfg = branch_points(family, {})
    with pytest.raises(ValueError, match=r"the parameter point names parameters the family "
                                         r"does not have: \['lam'\]"):
        admissible(family, {"lam": 1}, chord(cfg.point(1), cfg.point(3)))
