"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live).  Tolerances and runtime bounds are
pinned here; nothing is deferred to later calibration."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from braidwork.arcs import admissible, chord
from braidwork.bifurcation import bifurcation_generators
from braidwork.catalog import (
    artin_system,
    coxeter_system,
    half_twist_classification,
    tau_word,
    verify_identities,
    verify_stabilizer_tables,
)
from braidwork.families import branch_points, catalogue_family
from braidwork.garside import dynnikov, equal
from braidwork.geometry import (
    circle_confinement,
    cusp_exponent,
    double_root_uniqueness,
    ray_confinement,
)
from braidwork.groups import ARTIN3_A, ARTIN3_B, PERM3_R, PERM3_S, PERM3_T, artin_from_word
from braidwork.hurwitz import act_word, orbit, ordered_product
from braidwork.tracking import ParameterLoop, loop_to_braid, track_loop
from braidwork.words import BraidWord, compose, invert, word

from test_garside import normal_form


def report(num: int, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def orbit_c6():
    return orbit(coxeter_system(6))


def test_criterion_01_orbit_count(orbit_c6):
    start = time.perf_counter()
    table = orbit(coxeter_system(6))
    elapsed = time.perf_counter() - start
    words = {w.letters for w in table.transversal.values()}
    positive = all(all(x > 0 for x in ls) for ls in words)
    prefix_closed = all(ls[1:] in words for ls in words if ls)
    consistent = all(
        act_word(w, table.base) == elt for elt, w in table.transversal.items()
    )
    ok = len(table) == 240 and positive and prefix_closed and consistent and elapsed < 5
    report(1, ok, f"orbit size {len(table)}, {elapsed:.2f}s")


def test_criterion_02_conjugate_filter():
    start = time.perf_counter()
    results = half_twist_classification()
    elapsed = time.perf_counter() - start
    by_id = {r.id: r for r in results}
    ok = (
        by_id["conclass/distinct-18"].witness["nontrivial_classes"] == 18
        and all(r.passed for r in results)
        and elapsed < 120
    )
    report(2, ok, f"18 nontrivial conjugate classes matched, {elapsed:.1f}s")


def test_criterion_03_identity_ledger():
    start = time.perf_counter()
    results = verify_identities()
    elapsed = time.perf_counter() - start
    unflagged_ok = all(
        r.passed for r in results if not (r.witness and "verifying_variant" in r.witness)
    )
    flagged = [r for r in results if r.witness and "verifying_variant" in r.witness]
    flagged_ok = all(r.passed and r.witness["verifying_variant"] for r in flagged)
    ok = unflagged_ok and flagged_ok and elapsed < 30
    names = {r.id: r.witness["verifying_variant"] for r in flagged}
    report(3, ok, f"{len(results)} rows, {len(flagged)} adjudicated, {elapsed:.1f}s")
    print("  adjudications:", names)


def test_criterion_04_stabilizer_tables():
    results = verify_stabilizer_tables()
    s, t = PERM3_S, PERM3_T
    displayed = act_word(word(6, 2, -3, 4), coxeter_system(6)) == (s, s, t, t, t, t)
    ok = all(r.passed for r in results) and displayed
    report(4, ok, f"{len(results)} stabilizer checks")


def test_criterion_05_twist_action_law():
    a6 = artin_system(6)
    b2inv = artin_from_word("BB")
    a2inv = artin_from_word("AA")
    lhs1 = act_word(tau_word(1, 6), a6)
    rhs1 = tuple(b2inv * g * b2inv.inverse() for g in a6)
    lhs2 = act_word(tau_word(2, 6), a6)
    rhs2 = tuple(a2inv * g * a2inv.inverse() for g in a6)
    ok = lhs1 == rhs1 and lhs2 == rhs2
    report(5, ok, "tau_1 ~ b^-2, tau_2 ~ a^-2 overall conjugation, exact")


def _reduced_words(letter_count: int, max_len: int):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        step = []
        for w in frontier:
            for idx in range(letter_count):
                for sign in (1, -1):
                    if w and w[-1] == (idx, -sign):
                        continue
                    step.append(w + ((idx, sign),))
        out.extend(step)
        frontier = step
    return out


def test_criterion_06_free_action_desk_checks():
    start = time.perf_counter()
    squares = (artin_from_word("aa"), artin_from_word("bb"))
    specs = [w for w in _reduced_words(2, 6) if w]
    assert len(specs) == 1456
    a, b = ARTIN3_A, ARTIN3_B
    moved = 0
    for spec in specs:
        h = artin_from_word("")
        for idx, sign in spec:
            h = h * (squares[idx] if sign > 0 else squares[idx].inverse())
        conj_a = h * a * h.inverse()
        conj_b = h * b * h.inverse()
        if conj_a != a or conj_b != b:
            moved += 1
        # the full tuples differ for every length n = 2..6 exactly when
        # one of the two entries moves
        assert conj_a != a or conj_b != b
    taus = (tau_word(1, 6), tau_word(2, 6))
    images = {}
    a6 = artin_system(6)
    for spec in _reduced_words(2, 4):
        braid = word(6)
        for idx, sign in spec:
            braid = compose(braid, taus[idx] if sign > 0 else invert(taus[idx]))
        image = act_word(braid, a6)
        assert image not in images, f"collision {images[image]} vs {spec}"
        images[image] = spec
    elapsed = time.perf_counter() - start
    ok = moved == 1456 and len(images) == 161
    report(6, ok, f"1456 square-words move, 161 twist-word images distinct, {elapsed:.1f}s")


def test_criterion_07_monodromy_anchors():
    loop = ParameterLoop.circle("lam", 0.0, 1.0)
    start = time.perf_counter()
    cusp_word = loop_to_braid(track_loop(catalogue_family("cusp"), loop))
    cusp_time = time.perf_counter() - start
    start = time.perf_counter()
    tang_word = loop_to_braid(track_loop(catalogue_family("tangency"), loop))
    tang_time = time.perf_counter() - start
    ok = (
        cusp_word.letters == (1, 1, 1)
        and tang_word.letters == (1,)
        and cusp_time < 1
        and tang_time < 1
    )
    report(7, ok, f"cusp {list(cusp_word.letters)} in {cusp_time:.2f}s, "
                  f"tangency {list(tang_word.letters)} in {tang_time:.2f}s")


def test_criterion_08_geometry_checks():
    details = []
    ok = True
    for k in (2, 3):
        rows = {r.id.split("@")[0]: r for check in (
            ray_confinement, circle_confinement, double_root_uniqueness, cusp_exponent)
            for r in check(k)}
        ray = rows["geometry/ray-confinement"].witness["max_ray_deviation"]
        spread = rows["geometry/circle-modulus"].witness["max_modulus_spread"]
        exponent = rows["geometry/cusp-exponent"].witness["fitted_exponent"]
        ok &= all(r.passed for r in rows.values()) and len(rows) == 6
        ok &= ray < 1e-9 and spread < 1e-9 and abs(exponent - 3) < 0.15
        details.append(f"k={k}: ray {ray:.1e}, circle {spread:.1e}, exponent {exponent:.3f}")
    report(8, ok, "; ".join(details))


# sha256 of the JSON list [contraction letters, [loop id, match, letters]
# per outcome]: every tracked word is pinned letter for letter
TRACKED_WORDS_SHA256 = {
    1: "356dc8a5d762ec9c6ccbabdacebae5da5c3b41cfaf68bb65c6eeef18c8ccc5b3",
    2: "8753f4d7b8d33d67f01b9ac702e3e989d5641c967bd9b42d7a262d41aefd3c69",
    3: "ebccc064e36e49567328e4f51dc59d528c3d1d1547f560d6640e9ec26aebeacb",
}

# the same list with each word replaced by its Dynnikov coordinates: the
# braids themselves, which hold when the tracker's path moves a word's
# letters but not the braid it spells
TRACKED_BRAIDS_SHA256 = {
    1: "904c14c1ff31937b2253d5dda49f1bd081ed3b1675eab64d7c25c3ac6e3dfc92",
    2: "96718c6b742c1a763bde628ea09f511a19198726d0f9936f178965dde81c56e0",
    3: "190fdc93b4906e22358128a1b38de6db22d00fb5bac4db75c1368f747dcf1547",
}


def _digest(rep, spell) -> str:
    rows = [spell(rep.contraction)] + [
        [o.loop_id, o.matched, spell(o.braid)] for o in rep.outcomes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_criterion_09_generator_realization():
    start = time.perf_counter()
    details = []
    ok = True
    for k, expected in ((1, {"e_12"}),
                        (2, {"e_12", "e_13", "e_24"}),
                        (3, {"e_12", "e_13", "e_24", "e_35", "e_46"})):
        rep = bifurcation_generators(k)
        matched = {o.matched for o in rep.outcomes if o.matched}
        ok &= rep.passed and expected <= matched
        ok &= _digest(rep, lambda w: list(w.letters)) == TRACKED_WORDS_SHA256[k]
        ok &= _digest(rep, lambda w: list(dynnikov(w))) == TRACKED_BRAIDS_SHA256[k]
        details.append(f"k={k}: {sorted(matched)}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300
    report(9, ok, f"{'; '.join(details)}, {elapsed:.1f}s")


def test_criterion_10_admissibility():
    ok = True
    details = []
    for k in (2, 3):
        family = catalogue_family("base", k)
        cfg = branch_points(family, {})
        rep13 = admissible(family, {}, chord(cfg.point(1), cfg.point(3)))
        rep12 = admissible(family, {}, chord(cfg.point(1), cfg.point(2)))
        # oracle: merge types from the alternating sheet assignment
        oracle12 = rep12.start_matching != rep12.end_matching
        ok &= rep13.artin and not rep12.coxeter and oracle12
        details.append(f"k={k}: x1x3 artin={rep13.artin}, x1x2 coxeter={rep12.coxeter}")
    report(10, ok, "; ".join(details))


def test_criterion_11_property_suites(orbit_c6):
    rng = np.random.default_rng(1746)
    n_cases = 1000

    def random_word(n, max_len, allow_inverse=True):
        length = int(rng.integers(0, max_len + 1))
        letters = []
        for _ in range(length):
            i = int(rng.integers(1, n))
            sign = -1 if (allow_inverse and rng.random() < 0.5) else 1
            letters.append(sign * i)
        return BraidWord(n, tuple(letters))

    # braid-core congruence: relator insertion preserves the normal form
    relators = []
    n = 4
    for i in range(1, n - 1):
        relators.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, n):
        for j in range(i + 2, n):
            relators.append((i, j, -i, -j))
        relators.append((i, -i))
    for _ in range(n_cases):
        w = random_word(4, 18)
        rel = relators[int(rng.integers(0, len(relators)))]
        pos = int(rng.integers(0, len(w.letters) + 1))
        spliced = BraidWord(4, w.letters[:pos] + rel + w.letters[pos:])
        assert normal_form(spliced) == normal_form(w)

    # Hurwitz product invariant on random transposition tuples
    transpositions = (PERM3_S, PERM3_T, PERM3_R)
    for _ in range(n_cases):
        tup = tuple(
            transpositions[int(rng.integers(0, 3))] for _ in range(5)
        )
        w = random_word(5, 14)
        assert ordered_product(act_word(w, tup)) == ordered_product(tup)

    # action homomorphism, sampled on the 240-element orbit
    elements = list(orbit_c6.transversal.keys())
    for case in range(n_cases):
        u = random_word(6, 8)
        v = random_word(6, 8)
        tup = elements[int(rng.integers(0, len(elements)))]
        assert act_word(compose(u, v), tup) == act_word(u, act_word(v, tup))
    for case in range(40):
        u = random_word(6, 6)
        v = random_word(6, 4)
        padded = compose(compose(u, v), invert(v))
        assert equal(u, padded)
        for tup in elements:
            assert act_word(u, tup) == act_word(padded, tup)

    # tracking homotopy invariance: jittered resamplings of one loop
    family = catalogue_family("tangency")
    reference = loop_to_braid(track_loop(family, ParameterLoop.circle("lam", 0.0, 1.0)))
    for case in range(n_cases):
        count = int(rng.integers(16, 72))
        pts = []
        for j in range(count):
            theta = 2 * math.pi * j / count
            jitter = 0.15 * (rng.standard_normal() + 1j * rng.standard_normal())
            pts.append({"lam": np.exp(1j * theta) + jitter})
        pts.append(pts[0])
        braid = loop_to_braid(track_loop(family, ParameterLoop.polyline(pts)))
        assert equal(braid, reference)

    report(11, True, f"4 property suites x {n_cases} cases, fixed seed")
