import contextlib
import hashlib
import importlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidwork
from braidwork.catalog import verify_identities
from braidwork.cli import CHECKS, SCOPES, main
from braidwork.families import MAX_X_DEGREE
from braidwork.garside import dynnikov
from braidwork.words import MAX_STRANDS, BraidWord

SRC = pathlib.Path(braidwork.__file__).resolve().parents[1]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv + ["--format", "json"], capsys)
    return code, json.loads(out)


def test_verify_identities_exits_zero(capsys):
    code, cert = run_json(["verify", "identities"], capsys)
    assert code == 0
    assert cert["summary"]["failed"] == 0
    assert cert["summary"]["verified"] == len(cert["results"]) == len(verify_identities())


def test_verify_conclass_reports_counts(capsys):
    code, cert = run_json(["verify", "conclass"], capsys)
    assert code == 0
    by_id = {r["id"]: r for r in cert["results"]}
    assert by_id["conclass/orbit-240"]["witness"]["orbit_size"] == 240
    assert by_id["conclass/distinct-18"]["witness"]["nontrivial_classes"] == 18


def test_corrupted_ledger_fails_with_witness(tmp_path, capsys):
    ledger_path = tmp_path / "ledger.json"
    code, _ = run(["verify", "identities", "--dump-ledger", str(ledger_path)], capsys)
    assert code == 0
    rows = json.loads(ledger_path.read_text())
    rows[0]["rhs"].append(1)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(rows))
    code, cert = run_json(["verify", "identities", "--ledger", str(bad_path)], capsys)
    assert code == 1
    failed = [r for r in cert["results"] if r["status"] == "failed"]
    assert len(failed) == 1
    row = failed[0]
    assert row["id"] == "basics/braid-relation"
    assert row["lhs"] == [1, 2, 1]
    assert row["rhs"] == [2, 1, 2, 1]
    # each side's Dynnikov coordinates, which differ
    coords = row["witness"]["dynnikov"]
    assert coords == {"lhs": list(dynnikov(BraidWord(3, (1, 2, 1)))),
                      "rhs": list(dynnikov(BraidWord(3, (2, 1, 2, 1))))}
    assert coords["lhs"] != coords["rhs"]


def test_orbit_sizes(capsys):
    code, cert = run_json(["orbit", "--n", "6", "--coefficient", "s3"], capsys)
    assert code == 0
    assert cert["results"][0]["witness"]["orbit_size"] == 240
    code, cert = run_json(
        ["orbit", "--n", "2", "--coefficient", "s3", "--base", "s,s"], capsys
    )
    assert cert["results"][0]["witness"]["orbit_size"] == 1
    # oracle-backed size for n = 3
    code, cert = run_json(["orbit", "--n", "3", "--coefficient", "s3"], capsys)
    assert cert["results"][0]["witness"]["orbit_size"] == 8


def test_br3_orbit_requires_cap_and_reports_degenerate(capsys):
    code, _ = run(["orbit", "--n", "5", "--coefficient", "br3"], capsys)
    assert code == 2  # usage error: cap required
    code, cert = run_json(
        ["orbit", "--n", "5", "--coefficient", "br3", "--cap", "40"], capsys
    )
    assert code == 0
    assert cert["results"][0]["status"] == "degenerate"


def test_transversal_export(capsys):
    code, cert = run_json(["transversal", "--n", "3"], capsys)
    assert code == 0
    rows = cert["results"][0]["witness"]["transversal"]
    assert len(rows) == 8
    assert rows[0]["word"] == {"n": 3, "word": []}
    assert all(all(x > 0 for x in r["word"]["word"]) for r in rows)


def test_monodromy_anchor_and_expectation(capsys):
    code, cert = run_json(
        ["monodromy", "--family", "cusp", "--expect", '{"n":2,"word":[1,1,1]}'],
        capsys,
    )
    assert code == 0
    assert cert["results"][0]["witness"]["trace"]["word"]["word"] == [1, 1, 1]
    code, cert = run_json(
        ["monodromy", "--family", "cusp", "--expect", '{"n":2,"word":[1]}'], capsys
    )
    assert code == 1


def test_an_expected_word_on_other_strands_fails_the_row(capsys):
    code, cert = run_json(
        ["monodromy", "--family", "cusp", "--expect", '{"n":3,"word":[1]}'], capsys
    )
    assert code == 1
    (row,) = cert["results"]
    assert row["status"] == "failed"
    assert row["witness"]["expected"] == {"n": 3, "word": [1]}
    assert row["witness"]["trace"]["word"] == {"n": 2, "word": [1, 1, 1]}


def test_monodromy_through_degeneration_is_degenerate(capsys):
    loop = json.dumps(
        {"kind": "polyline", "points": [{"lam": [1, 0]}, {"lam": [-1, 0]}, {"lam": [1, 0]}]}
    )
    code, cert = run_json(["monodromy", "--family", "tangency", "--loop", loop], capsys)
    assert code == 0
    assert cert["results"][0]["status"] == "degenerate"


def test_admissible_chords(capsys):
    code, cert = run_json(
        ["admissible", "--family", "base", "--k", "2", "--arc", "1:3"], capsys
    )
    assert code == 0
    witness = cert["results"][0]["witness"]
    assert witness["coxeter"] and witness["artin"]
    code, cert = run_json(
        ["admissible", "--family", "base", "--k", "2", "--arc", "1:2"], capsys
    )
    witness = cert["results"][0]["witness"]
    assert not witness["coxeter"]


def test_certificates_are_reproducible(capsys):
    _, first = run_json(["verify", "theorem"], capsys)
    _, second = run_json(["verify", "theorem"], capsys)
    assert first["body_sha256"] == second["body_sha256"]
    stripped = {k: v for k, v in first.items() if k != "body_sha256"}
    for row in stripped["results"]:
        row.pop("timing_ms", None)
    for row in second["results"]:
        row.pop("timing_ms", None)
    assert stripped == {k: v for k, v in second.items() if k != "body_sha256"}


def test_output_file(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, _ = run(
        ["verify", "theorem", "--format", "json", "--out", str(out)], capsys
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["failed"] == 0


def test_verify_scopes_come_from_the_check_table(capsys):
    scopes = [scope for scope, _ in CHECKS if scope is not None]
    assert scopes == ["identities", "stabilizers", "theorem", "conclass"]
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "{" + ",".join(scopes + ["all"]) + "}" in capsys.readouterr().out


def test_verify_all_is_the_disjoint_union_of_the_scopes(capsys):
    per_scope = []
    for scope in SCOPES:
        code, cert = run_json(["verify", scope], capsys)
        assert code == 0
        per_scope += [r["id"] for r in cert["results"]]
    code, cert = run_json(["verify", "all"], capsys)
    assert code == 0
    ids = [r["id"] for r in cert["results"]]
    assert len(per_scope) == len(set(per_scope))
    assert sorted(ids) == sorted(per_scope)
    assert not any(i.startswith("catalog/") for i in ids)


@pytest.mark.parametrize("argv", [
    ["report", "--tolerance", "1e-6"],
    ["verify", "all", "--cap", "5"],
    # the collision tolerance is a constant, not an option
    ["monodromy", "--tolerance", "1e-6"],
    ["admissible", "--arc", "1:3", "--tolerance", "1e-6"],
])
def test_unused_numeric_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_monodromy_default_loop_is_the_unit_circle(capsys):
    code, cert = run_json(
        ["monodromy", "--family", "cusp", "--expect", '{"n":2,"word":[1,1,1]}'], capsys
    )
    assert code == 0
    assert cert["body_sha256"].startswith("ee96a4fd")


@pytest.mark.parametrize("argv", [
    ["orbit", "--n", "3", "--coefficient", "br3", "--cap", "0"],
    ["orbit", "--n", "3", "--coefficient", "s3", "--cap", "-1"],
])
def test_non_positive_cap_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: orbit cap must be at least 1")


# body hashes of orbit certificates over both coefficient groups; they
# change only on purpose, with a note in CHANGES.md
@pytest.mark.parametrize("argv, body_sha256", [
    (["orbit", "--n", "8"],
     "f2e88f584e9819c0afb4ce4f16cffd6b546c898d9bf42f3aabbe4b56be0aed02"),
    (["transversal", "--n", "6"],
     "d98e1a61c456b26d9fb750a54fa097ad9ebd02dcd98fbc5dc72abdacd002d84f"),
    (["transversal", "--n", "4", "--coefficient", "br3", "--cap", "100"],
     "c0eb4ee605996dcfe394464268e13d3a9fc37958907fdcaf38a8beba6ecd3b40"),
    (["orbit", "--n", "5", "--coefficient", "br3", "--cap", "1000"],
     "7e696d8e4a791f5ce32b15cb1d0ee7ffc1f0bc86f31ed8af93cd2d4fcbff9466"),
])
def test_orbit_certificates_are_pinned(argv, body_sha256, capsys):
    code, cert = run_json(argv, capsys)
    assert code == 0
    assert cert["body_sha256"] == body_sha256


# body hashes of the symbolic suites: every row, witness and word of the
# ledger, stabiliser, theorem and conjugacy-class checks
VERIFY_SHA256 = {
    "identities": "8f89cc3d394ecb6aa1b3f538f2fc5d0859d42632236ebf5cd167e0472ebd24f0",
    "stabilizers": "79b0cb997df6b22aa3098671f7cb5025e08ec0edae40366c8f24942d7443f21d",
    "theorem": "03d6432fc8c06cc7d1030244196a20c378237bb7c021e377867dce2f0b420900",
    "conclass": "5738203b7f9d868ac85e01823a3409e81cd9f79729c21124888698fa1bd47a93",
    "all": "c0eecf0df7bffd45997169586df6a74b1f4ec3a9ec48141e137ee59602ec0d02",
}


@pytest.mark.parametrize("scope, body_sha256", list(VERIFY_SHA256.items()))
def test_verify_certificates_are_pinned(scope, body_sha256, capsys):
    code, cert = run_json(["verify", scope], capsys)
    assert code == 0
    assert cert["body_sha256"] == body_sha256


def test_report_rows_are_pinned(capsys):
    # the (id, status) list, not the body hash: report's float witnesses
    # may differ in their last digits between numpy builds
    code, cert = run_json(["report"], capsys)
    assert code == 0
    rows = [[r["id"], r["status"]] for r in cert["results"]]
    assert len(rows) == 122
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "b876f33f42eaf7777d4b4b24cf2a04c011656d5768ddc3fc046581ef47e8e42d"


_HALF_CIRCLE = '{"kind":"circle","param":"lam","center":0,"radius":0.5%s}'


# body hashes of the numerical certificates: they move if a tracked loop
# or an arc's endpoint loops move, or if the tracker decides differently
NUMERICAL_SHA256 = {
    "admissible-base-k3-x1-x2": (
        ["admissible", "--family", "base", "--k", "3", "--arc", "1:2"],
        "cc4c5cda49419cafd9648c6e7ff7cfd014381c7fd2a8ea11d5fb5f0fb7373dab"),
    "admissible-base-k2-x1-x3": (
        ["admissible", "--family", "base", "--k", "2", "--arc", "1:3"],
        "77c7166c4ebb6ccaac25fa3a5d1812cdc1a3429927e7aa32d8dd6da0083c2d67"),
    "monodromy-tangency": (
        ["monodromy", "--family", "tangency"],
        "d578506e9db6f8b2f0df533d79ff70677fcd541a4ae3807acc32a8b408147eba"),
    "monodromy-circle-k2-r0.5": (
        ["monodromy", "--family", "circle", "--k", "2", "--loop", _HALF_CIRCLE % ""],
        "c1afedd823d7063ae59116ccd384db6f5e00ba00115c2d5608ad34f5aecdb0ed"),
    "monodromy-ray-k2-r0.5": (
        ["monodromy", "--family", "ray", "--k", "2", "--loop",
         _HALF_CIRCLE % ',"fixed":{"mu":0}'],
        "6de07c079081c325db7822ddbf50fcec1bea30a9dc1955e476faf122219b1c12"),
    "monodromy-cusp-r1-turns-2": (
        ["monodromy", "--family", "cusp", "--loop",
         '{"kind":"circle","param":"lam","center":0,"radius":1.0,"turns":-2}'],
        "a66873fb20a32310c58fe3039998440084bf4a4e5176b83a2c4e432ab3a14ccd"),
}


@pytest.mark.parametrize("argv, body_sha256", NUMERICAL_SHA256.values(), ids=NUMERICAL_SHA256)
def test_numerical_certificates_are_pinned(argv, body_sha256, capsys):
    """The six pins hold with and without numpy's FMA (X86_V3) loops, so
    CI's X86_V3-off step runs them all; there only the default loop's pin
    in ``test_monodromy_default_loop_is_the_unit_circle`` fails, by two
    crossing times in the 17th digit (a FOUND line in CHANGES.md), and
    that step deselects that one test."""
    code, cert = run_json(argv, capsys)
    assert code == 0
    assert cert["summary"]["verified"] == 1
    assert cert["body_sha256"] == body_sha256


@pytest.mark.parametrize("argv", [
    ["monodromy", "--family", "cusp", "--expect", '{"n":2,"word":[1,1,1]}'],
    *(argv for argv, _ in NUMERICAL_SHA256.values() if argv[0] == "monodromy"),
])
def test_a_monodromy_certificate_replays_from_its_own_inputs(argv, tmp_path, capsys):
    """inputs.family and inputs.loop, written to files as the certificate
    echoes them (the loop as a bare vertex list), rebuild the same body."""
    _, cert = run_json(argv, capsys)
    replay = ["monodromy"]
    for name in ("family", "loop"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cert["inputs"][name]))
        replay += [f"--{name}-file", str(path)]
    if "--expect" in argv:
        replay += argv[argv.index("--expect"):][:2]
    code, replayed = run_json(replay, capsys)
    assert code == 0
    assert replayed["body_sha256"] == cert["body_sha256"]


def test_transversal_does_not_depend_on_the_hash_seed():
    # permutations hash by identity, so hashes differ between processes;
    # the transversal order must not follow them
    hashes = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-m", "braidwork", "transversal", "--n", "6", "--format", "json"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        hashes.append(json.loads(out)["body_sha256"])
    assert hashes[0] == hashes[1]


def _write_malformed_inputs(tmp_path):
    (tmp_path / "family.json").write_text('{"y_degree": 3, "params": ["lam"]}')
    (tmp_path / "null_degree.json").write_text('{"y_degree": null, "q_coeffs": [0, 1]}')
    (tmp_path / "string_params.json").write_text(
        '{"y_degree": 3, "params": "lam", "p_coeffs": ["lam"], "q_coeffs": [0, 1]}')
    (tmp_path / "string_q.json").write_text('{"y_degree": 2, "params": ["lam"], "q_coeffs": "lam"}')
    (tmp_path / "string_k.json").write_text('{"catalogue_id": "ray", "k": "2"}')
    (tmp_path / "repeated_param.json").write_text(
        '{"y_degree": 3, "params": ["lam", "lam"], "p_coeffs": ["lam"], "q_coeffs": [0, 1]}')
    (tmp_path / "number_id.json").write_text(
        '{"catalogue_id": 5, "y_degree": 3, "params": ["lam"], "p_coeffs": ["lam"],'
        ' "q_coeffs": [0, 1]}')
    (tmp_path / "q66.json").write_text(json.dumps(
        {"y_degree": 3, "params": [], "p_coeffs": [1], "q_coeffs": [0] * 65 + [1]}))
    (tmp_path / "k65.json").write_text('{"catalogue_id": "base", "k": 65}')
    # p^3 - q^2 = 7: a nonzero constant, so there is no branch point; lam is
    # declared, unread, for the default loop
    (tmp_path / "no_branch_points.json").write_text(
        '{"y_degree": 3, "params": ["lam"], "p_coeffs": [2], "q_coeffs": [1, 0]}')
    # branch points x^3 = 1 everywhere, but no parameter for the default loop in lam
    (tmp_path / "no_params.json").write_text(
        '{"y_degree": 3, "params": [], "p_coeffs": [0, 1], "q_coeffs": [1]}')
    (tmp_path / "empty_row.json").write_text("[{}]")
    (tmp_path / "number_lhs.json").write_text('[{"id": "x", "n": 3, "lhs": 5, "rhs": []}]')
    (tmp_path / "object_ledger.json").write_text('{"id": "x", "n": 3, "lhs": [], "rhs": []}')
    (tmp_path / "huge_n.json").write_text(
        '[{"id": "x", "n": 1000000000, "lhs": [1, 2, 1], "rhs": [2, 1, 2]}]')
    (tmp_path / "zero_n.json").write_text('[{"id": "x", "n": 0, "lhs": [], "rhs": []}]')
    (tmp_path / "letter_out_of_range.json").write_text(
        '[{"id": "x", "n": 3, "lhs": [1, 5], "rhs": [2]}]')
    (tmp_path / "sigma1_is_sigma2.json").write_text(
        '[{"id": "x", "n": 3, "lhs": [1], "rhs": [2]}]')
    (tmp_path / "repeated_id.json").write_text(
        '[{"id": "a", "n": 3, "lhs": [1], "rhs": [1]}, {"id": "a", "n": 3, "lhs": [1], "rhs": [2]}]')
    (tmp_path / "row_is_an_id.json").write_text(
        '[{"id": "r", "n": 3, "lhs": [1], "rhs": [1]},'
        ' {"id": "r.2", "n": 3, "lhs": [1], "rhs": [2], "row": "r"}]')


_NOT_FINITE = " must be a finite number or an [re, im] pair, "


def _case_id(value):
    """Cases are named by the text they expect, a non-finite complex value's
    case by that text after its field name."""
    if isinstance(value, str) and _NOT_FINITE in value:
        return value.split(" must be a ", 1)[1]
    return None


@pytest.mark.parametrize("argv, named", [
    (["monodromy", "--family-file", "family.json"], "'q_coeffs'"),
    (["monodromy", "--loop", '{"kind":"circle","param":"lam"}'], "'radius'"),
    (["monodromy", "--expect", '{"n":2}'], "'word'"),
    (["admissible", "--family", "base", "--k", "2", "--arc", "1:9"], "label 9"),
    (["admissible", "--family", "base", "--k", "2", "--arc", "0:1"], "label 0"),
    # circle turns: a nonzero integer of at most MAX_TURNS either way
    (["monodromy", "--loop", _HALF_CIRCLE % ',"turns":1000000000'], "turns"),
    (["monodromy", "--loop", _HALF_CIRCLE % ',"turns":0'], "turns"),
    (["monodromy", "--loop", _HALF_CIRCLE % ',"turns":1.5'], "turns"),
    (["monodromy", "--loop", _HALF_CIRCLE % ',"turns":true'], "turns"),
    # JSON fields of the wrong type
    (["admissible", "--params", "[1]", "--arc", "1:3"], "--params"),
    (["admissible", "--arc", "5"], "--arc"),
    (["monodromy", "--loop", '{"kind":"polyline","points":[1]}'], "polyline point"),
    (["monodromy", "--loop", '{"kind":"polyline","points":{"lam":1}}'], "'points'"),
    (["monodromy", "--loop", '{"kind":"circle","param":"lam","radius":null}'], "'radius'"),
    (["monodromy", "--loop", _HALF_CIRCLE % ',"fixed":[0]'], "'fixed'"),
    (["monodromy", "--family-file", "null_degree.json"], "'y_degree'"),
    (["monodromy", "--family-file", "string_params.json"], "'params'"),
    (["monodromy", "--family-file", "string_q.json"], "'q_coeffs'"),
    (["monodromy", "--family-file", "string_k.json"], "'k'"),
    (["monodromy", "--expect", '{"n":2.5,"word":[1]}'], "'n'"),
    # the x-degree: 1 <= k <= MAX_X_DEGREE, at most MAX_X_DEGREE + 1 coefficients
    (["admissible", "--family", "base", "--k", "0", "--arc", "1:2"], "x-degree"),
    (["admissible", "--family", "base", "--k", "65", "--arc", "1:2"], "x-degree"),
    (["admissible", "--family", "base", "--k", "1000000000", "--arc", "1:2"], "x-degree"),
    (["monodromy", "--family", "tame", "--k", "0"], "x-degree"),
    (["monodromy", "--family-file", "k65.json"], "x-degree"),
    (["monodromy", "--family-file", "q66.json"], "q_coeffs"),
    # identity ledgers
    (["verify", "identities", "--ledger", "empty_row.json"], "'n'"),
    (["verify", "identities", "--ledger", "number_lhs.json"], "'lhs'"),
    (["verify", "identities", "--ledger", "object_ledger.json"], "a ledger"),
    # strand counts read from JSON: at most MAX_STRANDS
    (["verify", "identities", "--ledger", "huge_n.json"], "ledger row 0 field 'n'"),
    (["monodromy", "--expect", '{"n":65,"word":[1]}'], "strand count"),
    # a family without branch points
    (["monodromy", "--family-file", "no_branch_points.json"],
     "the family has no branch points at these parameters"),
    (["admissible", "--family-file", "no_branch_points.json", "--params", '{"lam":1}',
      "--arc", "1:2"],
     "the family has no branch points at these parameters"),
    # a loop in a parameter the family does not have
    (["monodromy", "--family-file", "no_params.json"], "does not have: ['lam']"),
    # a polyline whose vertices name different parameters
    (["monodromy", "--family", "cusp", "--loop",
      '{"kind":"polyline","points":[{"lam":1},{"lam":[0,1],"nu":5},{"lam":-1},'
      '{"lam":[0,-1]},{"lam":1}]}'],
     "vertex 1 names ['lam', 'nu'], vertex 0 names ['lam']"),
    # the strand count of a br3 orbit: at most MAX_STRANDS
    (["orbit", "--n", "3000000", "--coefficient", "br3", "--cap", "5"], "--n for br3 orbits"),
    (["transversal", "--n", str(MAX_STRANDS + 1), "--coefficient", "br3", "--cap", "5"],
     "--n for br3 orbits"),
    # JSON numbers that are not finite
    (["admissible", "--family", "base", "--k", "2", "--arc", "[[NaN,0],[1,0]]"],
     "--arc vertex 0 must be a finite number or an [re, im] pair, got [nan, 0]"),
    (["admissible", "--family", "cusp", "--params", '{"lam":Infinity}', "--arc", "1:2"],
     "--params field 'lam' must be a finite number or an [re, im] pair, got inf"),
    (["monodromy", "--loop", '{"kind":"circle","param":"lam","radius":NaN}'],
     "'radius' must be a finite number"),
    (["monodromy", "--loop", '{"kind":"circle","param":"lam","radius":-Infinity}'],
     "'radius' must be a finite number"),
    (["monodromy", "--loop", '{"kind":"circle","param":"lam","center":[0,Infinity],"radius":1}'],
     "circle loop spec field 'center' must be a finite number or an [re, im] pair, "
     "got [0, inf]"),
    (["monodromy", "--loop", _HALF_CIRCLE % ',"fixed":{"mu":NaN}'],
     "circle loop spec field 'fixed' entry 'mu' must be a finite number or an [re, im] "
     "pair, got nan"),
    (["monodromy", "--family", "cusp", "--loop",
      '{"kind":"polyline","points":[{"lam":1},{"lam":NaN},{"lam":-1},{"lam":1}]}'],
     "polyline point 1 field 'lam' must be a finite number or an [re, im] pair, got nan"),
    # an integer beyond the floating-point range
    (["monodromy", "--loop", '{"kind":"circle","param":"lam","radius":1%s}' % ("0" * 400)],
     "'radius' must be a finite number"),
    (["admissible", "--family", "cusp", "--params", '{"lam":1%s}' % ("0" * 400), "--arc", "1:2"],
     "--params field 'lam' must be a finite number or an [re, im] pair, got 1000"),
    # an --arc of the i:j form that is malformed
    (["admissible", "--family", "base", "--k", "2", "--arc", "1:2:3"],
     "--arc '1:2:3': expected 'i:j'"),
    (["admissible", "--family", "base", "--k", "2", "--arc", "1:x"],
     "--arc '1:x': expected 'i:j'"),
    # an --arc from a branch point to itself
    (["admissible", "--family", "base", "--k", "2", "--arc", "1:1"],
     "--arc '1:1': the two branch point labels are equal"),
    # ledger rows that would report under one result id
    (["verify", "identities", "--ledger", "repeated_id.json"],
     "ledger rows 0 and 1 share the id 'a'"),
    (["verify", "identities", "--ledger", "row_is_an_id.json"],
     "ledger row 1 field 'row' is 'r', the id of ledger row 0"),
    # a strand count below 1
    (["verify", "identities", "--ledger", "zero_n.json"], "ledger row 0 field 'n'"),
    # a letter out of range names the word's owner and field
    (["verify", "identities", "--ledger", "letter_out_of_range.json"],
     "ledger row 0 field 'lhs': letter 5 out of range for 3 strands"),
    (["monodromy", "--expect", '{"n":2,"word":[0]}'],
     "--expect field 'word': letter 0 out of range for 2 strands"),
    # --params naming a parameter the family does not have
    (["admissible", "--family", "base", "--k", "2", "--params", '{"lam":1}', "--arc", "1:3"],
     "--params names parameters the family does not have: ['lam']"),
    # a family spec naming a parameter twice, or with a catalogue_id that is not a string
    (["monodromy", "--family-file", "repeated_param.json"], "params names 'lam' twice"),
    (["monodromy", "--family-file", "number_id.json"],
     "family spec field 'catalogue_id' must be a string, got 5"),
    # a loop in a parameter the family does not have, named before any
    # vertex is evaluated
    (["monodromy", "--family", "cusp", "--loop", '{"kind":"circle","param":"zz","radius":1}'],
     "the loop names parameters the family does not have: ['zz']"),
    # branch coefficients that overflow
    (["monodromy", "--family", "cusp", "--loop",
      '{"kind":"circle","param":"lam","center":[1e308,1e308],"radius":1}'],
     "the branch coefficients are not finite at parameters {'lam': (1e+308+1e+308j)}"),
    (["admissible", "--family", "cusp", "--params", '{"lam":1e200}', "--arc", "1:2"],
     "the branch coefficients are not finite at parameters {'lam': (1e+200+0j)}"),
    # a bare list is a polyline's points; any other non-object is no loop spec
    (["monodromy", "--loop", "[1]"], "polyline point"),
    (["monodromy", "--loop", "5"], "loop spec other than a vertex list must be an object"),
    # --dump-ledger reads no --ledger, so a failing ledger cannot pass by it
    (["verify", "identities", "--ledger", "sigma1_is_sigma2.json", "--dump-ledger", "out.json"],
     "--dump-ledger writes the built-in ledger and reads no --ledger"),
    # a scope whose checks read no ledger
    (["verify", "stabilizers", "--ledger", "sigma1_is_sigma2.json"],
     "verify stabilizers reads no ledger"),
    (["verify", "theorem", "--ledger", "/nonexistent/x.json"], "verify theorem reads no ledger"),
    (["verify", "conclass", "--ledger", "sigma1_is_sigma2.json"],
     "verify conclass reads no ledger"),
    (["verify", "stabilizers", "--dump-ledger", "out.json"],
     "verify stabilizers reads no ledger; --dump-ledger is for "),
    (["verify", "theorem", "--dump-ledger", "out.json"],
     "verify theorem reads no ledger; --dump-ledger is for "),
    (["verify", "conclass", "--dump-ledger", "out.json"],
     "verify conclass reads no ledger; --dump-ledger is for "),
], ids=_case_id)
def test_malformed_inputs_are_usage_errors(argv, named, tmp_path, monkeypatch, capsys):
    _write_malformed_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ")
    assert named in err
    assert out == ""
    assert not (tmp_path / "out.json").exists()
    assert elapsed < 10


def test_a_usage_error_exits_two_without_a_traceback(tmp_path):
    _write_malformed_inputs(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "braidwork", "verify", "identities", "--ledger", "empty_row.json"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ledger row 0 is missing the field 'n'")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_the_largest_x_degree_is_accepted(capsys):
    code, cert = run_json(
        ["admissible", "--family", "base", "--k", str(MAX_X_DEGREE), "--arc", "1:2"], capsys)
    assert code == 0
    assert cert["inputs"]["family"]["catalogue_id"] == f"base:{MAX_X_DEGREE}"
    assert cert["summary"]["verified"] == 1


def test_the_largest_strand_count_is_accepted(tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(
        [{"id": "x", "n": MAX_STRANDS, "lhs": [1, 2, 1], "rhs": [2, 1, 2]}]))
    code, cert = run_json(["verify", "identities", "--ledger", str(path)], capsys)
    assert code == 0
    assert cert["summary"]["verified"] == 1


def test_a_long_ledger_row_verifies_within_a_cpu_budget(tmp_path, capsys):
    # a 4 000-letter word at the largest strand count, and the same word
    # with a braid relator inserted: linear in the letters, not in Garside
    rng = random.Random(64)
    lhs = [rng.choice([1, -1]) * rng.randint(1, MAX_STRANDS - 1) for _ in range(4000)]
    pos = rng.randint(0, len(lhs))
    rhs = lhs[:pos] + [5, 6, 5, -6, -5, -6] + lhs[pos:]
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps([{"id": "long", "n": MAX_STRANDS, "lhs": lhs, "rhs": rhs}]))
    start = time.process_time()
    code, cert = run_json(["verify", "identities", "--ledger", str(path)], capsys)
    elapsed = time.process_time() - start
    assert code == 0
    assert cert["summary"]["verified"] == 1
    assert elapsed < 2.0


def test_a_long_failing_ledger_row_fails_within_a_cpu_budget(tmp_path, capsys):
    # a 4 000-letter word at the largest strand count, and the same word
    # with one more letter: the witness is linear in the letters too
    rng = random.Random(64)
    lhs = [rng.choice([1, -1]) * rng.randint(1, MAX_STRANDS - 1) for _ in range(4000)]
    rhs = lhs + [1]
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps([{"id": "long", "n": MAX_STRANDS, "lhs": lhs, "rhs": rhs}]))
    start = time.process_time()
    code, cert = run_json(["verify", "identities", "--ledger", str(path)], capsys)
    elapsed = time.process_time() - start
    assert code == 1
    (row,) = cert["results"]
    assert row["status"] == "failed"
    coords = row["witness"]["dynnikov"]
    assert coords["lhs"] == list(dynnikov(BraidWord(MAX_STRANDS, tuple(lhs))))
    assert coords["lhs"] != coords["rhs"]
    assert elapsed < 2.0


# entry names of each group, and tokens neither group reads
_NAMES = {"s3": ["e", "s", "t", "r", "st", "ts"], "br3": ["a", "b", "A", "aB", "bbA", "1", ""]}
_JUNK = [" ", "x", "S", "s t", "ab1", "-1", "\u00e9", "aaaaaaaaaaaa"]
_SMALL_CAPS = ["0", "-1", "1", "2", "3", "37", "300"]


@st.composite
def _orbit_argv(draw):
    command = draw(st.sampled_from(["orbit", "transversal"]))
    coefficient = draw(st.sampled_from(["s3", "br3"]))
    n = draw(st.one_of(st.integers(min_value=1, max_value=8),
                       st.sampled_from([-1, 0, 9, MAX_STRANDS, MAX_STRANDS + 1])))
    argv = [command, f"--n={n}", f"--coefficient={coefficient}"]
    base = draw(st.sampled_from(["default", "names", "mixed"]))
    if base == "names":
        tokens = st.sampled_from(_NAMES[coefficient])
        length = max(n, 0)
    else:
        tokens = st.sampled_from(_NAMES["s3"] + _NAMES["br3"] + _JUNK)
        length = draw(st.sampled_from([max(n, 0), draw(st.integers(0, 9))]))
    if base != "default":
        entries = draw(st.lists(tokens, min_size=length, max_size=length))
        argv.append("--base=" + ",".join(entries))
    # a large cap (or the default one) only where every orbit is small:
    # s3 tuples of length at most 5, or a single entry
    caps = list(_SMALL_CAPS)
    if (coefficient == "s3" and n <= 5) or n <= 1:
        caps += [str(10**20), None]
    cap = draw(st.sampled_from(caps))
    if cap is not None:
        argv.append(f"--cap={cap}")
    return argv


@given(_orbit_argv())
@settings(max_examples=200, deadline=None)
def test_fuzzed_orbit_commands_exit_cleanly(argv):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert time.perf_counter() - start < 5


def test_the_cli_does_not_import_sympy():
    # the numerical modules are imported only when used, so import them too
    script = ('import braidwork.cli, braidwork.arcs, braidwork.bifurcation, sys; '
              'assert "sympy" not in sys.modules')
    subprocess.run([sys.executable, "-c", script],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=120)


def test_a_cli_start_does_not_import_numpy():
    script = ("import sys, braidwork.cli as cli; cli.catalog.catalog(); cli.build_parser(); "
              'assert "numpy" not in sys.modules')
    subprocess.run([sys.executable, "-c", script],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=120)


# runs the exact commands in an interpreter where importing numpy raises
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import braidwork, braidwork.cli as cli
cli.catalog.catalog()
cli.build_parser()
ledger = sys.argv[1]
codes, outputs = [], []
for argv in (["verify", "all", "--format", "json"],
             ["verify", "identities", "--dump-ledger", ledger],
             ["verify", "identities", "--ledger", ledger],
             ["orbit", "--n", "6"],
             ["orbit", "--n", "5", "--coefficient", "br3", "--cap", "40"],
             ["transversal", "--n", "3"]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        codes.append(cli.main(argv))
    outputs.append(text.getvalue())
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["--help"])
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps({"codes": codes, "verify_all": json.loads(outputs[0])["body_sha256"]}))
"""


def test_the_exact_commands_run_without_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path / "ledger.json")],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 7, "verify_all": VERIFY_SHA256["all"]}


# the package's exports, by the module that defines them
PACKAGE_EXPORTS = {
    "words": ("BraidWord", "compose", "conjugate_right", "invert", "reduce_free", "word"),
    "garside": ("NormalForm", "equal", "normal_form"),
    "groups": ("Artin3", "Perm3", "artin_from_word", "perm_from_name"),
    "hurwitz": ("OrbitTable", "act_letter", "act_word", "orbit", "schreier_generators",
                "stabilizes"),
    "catalog": ("build_e", "half_twist_classification", "verify_identities",
                "verify_stabilizer_tables"),
    "families": ("BranchConfiguration", "WeierstrassFamily", "branch_points",
                 "catalogue_family"),
    "tracking": ("BraidTrace", "ParameterLoop", "fiber_monodromy", "loop_to_braid",
                 "star_basis", "track_loop"),
    "arcs": ("admissible", "chord"),
    "bifurcation": ("bifurcation_generators",),
    "certificates": ("TOOL_VERSION", "Certificate"),
}


def test_the_package_exports_are_its_modules_names():
    assert sorted(braidwork.__all__) == sorted(
        name for names in PACKAGE_EXPORTS.values() for name in names)
    for module, names in PACKAGE_EXPORTS.items():
        defining = importlib.import_module(f"braidwork.{module}")
        for name in names:
            assert getattr(braidwork, name) is getattr(defining, name), name
    starred = {}
    exec("from braidwork import *", starred)
    assert all(starred[name] is getattr(braidwork, name) for name in braidwork.__all__)
    assert set(braidwork.__all__) <= set(dir(braidwork))
    with pytest.raises(AttributeError):
        braidwork.no_such_name
