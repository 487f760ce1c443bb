import pytest

from braidwork import catalog as catalog_module
from braidwork.catalog import (
    IdentityRecord,
    artin_system,
    build_e,
    catalog,
    conjugator_to_reference,
    coxeter_system,
    half_twist_classification,
    ledger_from_json,
    ledger_to_json,
    reference_system_generators,
    tau_word,
    verify_identities,
    verify_identity,
    verify_stabilizer_tables,
    verify_theorem_rows,
)
from braidwork.garside import dynnikov
from braidwork.groups import PERM3_R, PERM3_S, PERM3_T
from braidwork.hurwitz import act_word, orbit, stabilizes
from braidwork.words import compose, conjugate_right, word


def test_build_matrix_examples():
    # The alternating Coxeter matrix, read off as the exponent of s_i in
    # e_ij: m_ij = 3 when j - i is odd, else 1; n = 1 has no pair at all.
    assert build_e(2, 1, 2).letters.count(1) == 3
    assert build_e(6, 1, 3).letters.count(1) == 1
    for i in range(1, 7):
        for j in range(i + 1, 7):
            assert build_e(6, i, j).letters.count(i) == (3 if (j - i) % 2 else 1)
    with pytest.raises(ValueError):
        build_e(1, 1, 2)


def test_build_e_examples():
    assert build_e(2, 1, 2).letters == (1, 1, 1)
    assert build_e(6, 1, 2).letters == (1, 1, 1)
    assert build_e(6, 1, 3).letters == (2, 1, -2)
    assert build_e(6, 2, 4).letters == (3, 2, -3)
    assert build_e(6, 1, 4).letters == (3, 2, 1, 1, 1, -2, -3)
    assert build_e(6, 2, 6).letters == (5, 4, 3, 2, -3, -4, -5)
    for bad in [(6, 2, 2), (6, 3, 2), (6, 1, 7), (6, 0, 1), (1, 1, 2)]:
        with pytest.raises(ValueError):
            build_e(*bad)


def test_coxeter_systems_alternate_s_and_t():
    # the image of (a, b, a, ...) under Br_3 -> S3, against the literal tuple
    literal = (PERM3_S, PERM3_T, PERM3_S, PERM3_T, PERM3_S, PERM3_T, PERM3_S, PERM3_T)
    for n in range(1, 9):
        assert coxeter_system(n) == literal[:n]


def test_catalog_contents():
    assert [len(coxeter_system(n)) for n in range(2, 7)] == [2, 3, 4, 5, 6]
    assert coxeter_system(3) == (PERM3_S, PERM3_T, PERM3_S)
    assert build_e(6, 1, 3).n == 6
    assert tau_word(1, 5).n == 5
    assert conjugator_to_reference(6).n == 6
    assert len(reference_system_generators(6, "B")) == 7
    ids = {r.id for r in catalog()}
    assert "band-reduction/e14@6" in ids
    assert "twist-normality/e12-tau1@5" in ids
    assert "twist-normality/e12-tau1@6" in ids
    assert any(r.id.startswith("halftwist-transversal/row01") for r in catalog())


def test_verify_identity_pass_and_corrupted_fail():
    rec = next(r for r in catalog() if r.id == "band-reduction/e14@6")
    assert verify_identity(rec).status == "verified"
    corrupted = IdentityRecord(
        rec.id, rec.lhs, compose(rec.rhs, word(6, 1)), rec.source
    )
    result = verify_identity(corrupted)
    assert result.status == "failed"
    assert result.witness["lhs"] == list(corrupted.lhs.letters)
    assert result.witness["rhs"] == list(corrupted.rhs.letters)
    # the witness is each side's Dynnikov coordinates, and they differ
    coords = result.witness["dynnikov"]
    assert coords == {"lhs": list(dynnikov(corrupted.lhs)),
                      "rhs": list(dynnikov(corrupted.rhs))}
    assert coords["lhs"] != coords["rhs"]


def test_words_on_different_strand_counts_fail():
    # the words of a record fix its strand count; two that disagree fail
    result = verify_identity(IdentityRecord("x", word(3, 1), word(4, 1), "s"))
    assert result.status == "failed"
    assert result.witness == {"lhs": [1], "rhs": [1], "error": "strand-count mismatch"}


def test_the_result_ids_of_the_ledger_are_distinct():
    # 79 readings report as 70 rows, and the dump reads back unchanged
    assert len(catalog()) == 79
    ids = [r.id for r in verify_identities()]
    assert len(ids) == len(set(ids)) == 70
    assert tuple(ledger_from_json(ledger_to_json())) == catalog()


def test_full_ledger_verifies_and_flagged_rows_are_named():
    results = verify_identities()
    assert results and all(r.passed for r in results)
    flagged = {r.id: r for r in results if r.witness and "verifying_variant" in r.witness}
    # the two rows with a question in the source tables resolve as computed
    assert flagged["twist-normality/e56"].witness["verifying_variant"].startswith("as written")
    assert flagged["stab-gen/6-3"].witness["verifying_variant"].startswith("generator list")
    # five transversal-table rows and the twist-conjugate row carry emendations
    for rid in ("halftwist-transversal/row05", "halftwist-transversal/row09",
                "halftwist-transversal/row11", "halftwist-transversal/row14",
                "halftwist-transversal/row15", "halftwist-twist/e13-tau1inv@6"):
        assert flagged[rid].witness["verifying_variant"].startswith("emended")


def test_stabilizer_tables():
    results = verify_stabilizer_tables()
    assert results and all(r.passed for r in results)


def test_conjugator_displayed_computations():
    s, t, r = PERM3_S, PERM3_T, PERM3_R
    assert act_word(conjugator_to_reference(3), coxeter_system(3)) == (r, s, s)
    assert act_word(conjugator_to_reference(4), coxeter_system(4)) == (r, t, t, t)
    assert act_word(conjugator_to_reference(5), coxeter_system(5)) == (t, s, s, s, s)
    assert act_word(conjugator_to_reference(6), coxeter_system(6)) == (s, s, t, t, t, t)


def test_sigma2_conjugate_stabilizes_three_strand_system():
    assert stabilizes(word(3, 2, 1, -2), (PERM3_S, PERM3_T, PERM3_S))


def test_stabilizer_tables_hold_only_what_no_theorem_row_states():
    assert [r.id for r in verify_stabilizer_tables()] == (
        [f"stabilizers/conjugator-image@{n}" for n in range(3, 7)]
        + [f"stabilizers/reference-{kind}-generators@{n}"
           for kind in "AB" for n in range(2, 7)])


def test_an_empty_conjugator_fails_every_conjugator_image_row(monkeypatch):
    monkeypatch.setattr(catalog_module, "conjugator_to_reference", lambda n: word(n))
    rows = {r.id: r for r in verify_stabilizer_tables()}
    for n in range(3, 7):
        failed = rows.pop(f"stabilizers/conjugator-image@{n}")
        assert failed.status == "failed"
        assert failed.witness == {
            "computed": [g.render() for g in coxeter_system(n)],
            "expected": [g.render() for g in catalog_module.REFERENCE_IMAGES[n]]}
    assert all(r.passed and r.witness is None for r in rows.values())


def test_a_moving_generator_fails_every_reference_row_but_one(monkeypatch):
    listed = catalog_module.reference_system_generators
    monkeypatch.setattr(catalog_module, "reference_system_generators",
                        lambda n, kind: listed(n, kind) + [word(n, *range(1, n))])
    rows = [r for r in verify_stabilizer_tables() if "reference" in r.id]
    assert len(rows) == 10
    # sigma_1 fixes (s, s), and so does all of Br_2: no listed generator
    # can fail reference-B-generators@2
    assert [r.id for r in rows if r.passed] == ["stabilizers/reference-B-generators@2"]
    assert all(r.status == "failed" for r in rows if not r.passed)


def test_theorem_rows():
    assert all(r.passed for r in verify_theorem_rows())


def test_a_band_that_moves_the_artin_system_is_named(monkeypatch):
    bands = catalog_module._band_table

    def with_sigma1(n):
        table = bands(n)
        if n == 3:
            table[1, 2] = word(3, 1)
        return table

    monkeypatch.setattr(catalog_module, "_band_table", with_sigma1)
    rows = {r.id: r for r in verify_theorem_rows()}
    failed = rows.pop("theorem/bands-in-artin-stabilizer@3")
    assert failed.status == "failed"
    assert failed.witness == {"moving_bands": ["e_12"]}
    assert all(r.passed and r.witness is None for r in rows.values())


def test_a_twist_that_fixes_the_artin_system_fails_strictness(monkeypatch):
    monkeypatch.setattr(catalog_module, "tau_word", lambda k, n: build_e(n, 1, 3))
    rows = [r for r in verify_theorem_rows() if "strictness" in r.id]
    assert [r.id for r in rows] == [
        "theorem/strictness-tau1@5", "theorem/strictness-tau1@6", "theorem/strictness-tau2@6"]
    for r in rows:
        assert r.status == "failed"
        assert r.witness == {"fixes_coxeter": True, "moves_artin": False}


def test_half_twist_classification_counts():
    results = half_twist_classification()
    by_id = {r.id: r for r in results}
    assert by_id["conclass/orbit-240"].witness["orbit_size"] == 240
    assert by_id["conclass/distinct-18"].witness["nontrivial_classes"] == 18
    # the trivial class rides along
    assert by_id["conclass/distinct-18"].witness["including_trivial"] == 19
    assert all(r.passed for r in results)


def _replayed_stabilising_words() -> set[tuple[int, ...]]:
    """The transversal words gamma whose whole conjugate gamma^-1 e_13 gamma,
    replayed letter by letter, fixes the alternating Artin system: the
    reference for the classification's one-move-per-state test."""
    e13 = build_e(6, 1, 3)
    art = artin_system(6)
    return {gamma.letters for gamma in orbit(coxeter_system(6)).transversal.values()
            if stabilizes(conjugate_right(e13, gamma), art)}


def test_each_state_is_tested_on_its_image_of_the_artin_system(monkeypatch):
    tested = []

    def spy(w, system):
        fixed = stabilizes(w, system)
        tested.append((w, system, fixed))
        return fixed

    monkeypatch.setattr(catalog_module, "stabilizes", spy)
    half_twist_classification()
    transversal = list(orbit(coxeter_system(6)).transversal.values())
    assert len(tested) == len(transversal) == 240
    e13, art = build_e(6, 1, 3), artin_system(6)
    for gamma, (w, image, _) in zip(transversal, tested):
        assert w == e13
        assert image == act_word(gamma, art)
    stabilising = {gamma.letters for gamma, (_, _, fixed) in zip(transversal, tested) if fixed}
    assert len(stabilising) == 72
    assert stabilising == _replayed_stabilising_words()


def test_the_classification_makes_one_move_per_state_and_letter(hurwitz_moves):
    half_twist_classification()
    # one move per state from its parent's image, one per letter of e_13
    # (three) per state, and at most 36 S3 pair moves in orbit's memo;
    # replaying every whole conjugate took 2 963
    assert len(hurwitz_moves) <= 240 + 3 * 240 + 36


def test_e12_in_place_of_e13_fails_the_class_rows(monkeypatch):
    catalog()  # the ledger is cached before its bands are mutated
    bands = catalog_module._band_table

    def with_e12(n):
        table = bands(n)
        if n == 6:
            table[1, 3] = table[1, 2]
        return table

    monkeypatch.setattr(catalog_module, "_band_table", with_e12)
    rows = {r.id: r for r in half_twist_classification()}
    assert rows["conclass/orbit-240"].status == "verified"
    assert rows["conclass/distinct-18"].status == "failed"
    assert rows["conclass/distinct-18"].witness == {"nontrivial_classes": 17,
                                                   "including_trivial": 18}
    assert rows["conclass/rows-match-classes"].status == "failed"
    assert rows["conclass/rows-match-classes"].witness == {"verifying_rows": 18}


def test_a_constant_coxeter_system_fails_every_class_row(monkeypatch):
    monkeypatch.setattr(catalog_module, "coxeter_system", lambda n: (PERM3_S,) * n)
    rows = {r.id: r for r in half_twist_classification()}
    assert [r.status for r in rows.values()] == ["failed"] * 3
    assert rows["conclass/orbit-240"].witness == {"orbit_size": 1}
    assert rows["conclass/distinct-18"].witness == {"nontrivial_classes": 0,
                                                   "including_trivial": 1}


def test_tau_word_requires_enough_strands():
    with pytest.raises(ValueError):
        tau_word(1, 4)
    with pytest.raises(ValueError):
        tau_word(3, 8)
