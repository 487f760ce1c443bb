"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import batch  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = json.dumps(inputs.generate(workload, 11), sort_keys=True)
    assert first == json.dumps(inputs.generate(workload, 11), sort_keys=True)
    assert inputs.digest(inputs.generate(workload, 12)) != inputs.digest(json.loads(first))
    # and in another interpreter with another string-hash seed
    code = ("import inputs, json; print(json.dumps(inputs.generate("
            f"{workload!r}, 11), sort_keys=True))")
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == first


def test_batch_shape_does_not_depend_on_the_seed():
    def shape(data):
        if "pairs" in data:
            return [(p["n"], len(p["u"]), p["expect_equal"]) for p in data["pairs"]]
        if "jobs" in data:
            return [(j["group"], len(j["base"]), j["cap"]) for j in data["jobs"]]
        return data["pipelines"], [(lp["family"], lp.get("k"), lp.get("turns"))
                                   for lp in data["loops"]]

    for workload in inputs.WORKLOADS:
        assert shape(inputs.generate(workload, 1)) == shape(inputs.generate(workload, 2))


def test_engineered_pairs_have_the_intended_exponent_sums():
    for pair in inputs.generate("word-problem", 3)["pairs"]:
        diff = inputs.exponent_sum(pair["u"]) - inputs.exponent_sum(pair["v"])
        assert (diff == 0) == pair["expect_equal"]


# ---------------------------------------------------------------------------
# oracles reject wrong verdicts


def test_pair_oracle():
    pairs = inputs.generate("word-problem", 4)["pairs"]
    equal_pair, unequal_pair = pairs[0], pairs[1]
    assert oracles.check_pair(equal_pair, True) == []
    assert oracles.check_pair(equal_pair, False)
    assert oracles.check_pair(unequal_pair, False) == []
    assert oracles.check_pair(unequal_pair, True)
    assert oracles.check_pair(unequal_pair, None)


def test_pair_oracle_against_garside_on_a_small_batch():
    from braidwork.garside import equal
    from braidwork.words import BraidWord

    for pair in inputs.generate("word-problem", 5)["pairs"][:20]:
        verdict = equal(BraidWord(pair["n"], tuple(pair["u"])), BraidWord(pair["n"], tuple(pair["v"])))
        assert oracles.check_pair(pair, verdict) == []


def test_row_oracle():
    assert oracles.check_rows([{"id": "x", "status": "verified"}]) == []
    assert oracles.check_rows([{"id": "x", "status": "verified"}, {"id": "y", "status": "failed"}])


def _program_outcome(job):
    import workloads

    return workloads.outcomes("hurwitz-orbits", {"jobs": [job]},
                              [workloads._orbit_job(job["group"], job["base"], job["cap"])])[0]


def test_s3_orbit_oracle():
    job = inputs.generate("hurwitz-orbits", 6)["jobs"][0]  # the Coxeter system, 240 states
    rng = random.Random(0)
    right = _program_outcome(job)
    assert oracles.check_orbit(job, right, rng) == []
    assert oracles.check_orbit(job, dict(right, states=239), rng)
    assert oracles.check_orbit(job, dict(right, capped=True), rng)
    wrong_word = [[elt, word + [1]] for elt, word in right["transversal"]]
    assert oracles.check_orbit(job, dict(right, transversal=wrong_word), rng, replays=240)
    assert oracles.check_orbit(dict(job, published=243), right, rng)


def test_b3_orbit_oracle():
    jobs = {job["id"]: job for job in inputs.generate("hurwitz-orbits", 7)["jobs"]}
    rng = random.Random(0)
    finite = jobs["artin@n4"]
    right = _program_outcome(finite)
    assert right["states"] == 27
    assert oracles.check_orbit(finite, right, rng) == []
    moved = [[[w + [1, -1] for w in elt], word] for elt, word in right["transversal"]]
    assert oracles.check_orbit(finite, dict(right, transversal=moved), rng) == []
    shifted = [[[w + [1] for w in elt], word] for elt, word in right["transversal"]]
    assert oracles.check_orbit(finite, dict(right, transversal=shifted), rng)
    capped = jobs["b3@n5#0"]
    assert oracles.check_orbit(capped, {"capped": True, "states": capped["cap"]}, rng) == []
    assert oracles.check_orbit(capped, {"capped": True, "states": capped["cap"] - 1}, rng)
    assert oracles.check_orbit(capped, {"capped": False, "states": 27, "transversal": []}, rng)


def test_b3_key_is_faithful_on_relations():
    assert oracles.b3_key("aba") == oracles.b3_key("bab")
    assert oracles.b3_key("abaABA") == oracles.b3_key("")
    # Delta^4 maps to the identity matrix; the exponent sum tells it apart
    assert oracles.b3_key("aba" * 4)[0] == oracles.b3_key("")[0]
    assert oracles.b3_key("aba" * 4) != oracles.b3_key("")


def test_anchor_oracle():
    assert oracles.check_anchor("cusp", 2, {"n": 2, "word": [1] * 6}) == []
    assert oracles.check_anchor("cusp", 2, {"n": 2, "word": [1] * 3})
    assert oracles.check_anchor("tangency", -1, {"n": 2, "word": [-1]}) == []
    assert oracles.check_anchor("tangency", -1, {"n": 2, "word": [1]})


def test_tame_oracle():
    assert oracles.check_tame(4, {"n": 4, "word": [-2, 1, 2]}) == []
    assert oracles.check_tame(4, {"n": 4, "word": [1, 2]})  # a 3-cycle
    assert oracles.check_tame(4, {"n": 4, "word": [-1]})  # wrong sign
    assert oracles.check_tame(5, {"n": 4, "word": [1]})  # wrong strand count


# ---------------------------------------------------------------------------
# reference speed


def test_clock_scales_each_item_by_the_kernel_times_around_it(monkeypatch):
    import pace
    import workloads

    times = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(pace, "reference", lambda: next(times))
    monkeypatch.setattr(pace, "PACE_S", 0.0)  # time the kernel before every item
    clock = workloads.Clock()
    clock.run("a", lambda: None)
    clock.run("b", lambda: None)
    clock.finish()
    assert clock.refs == [0.004, 0.006, 0.010]
    first, second = clock.items
    assert first["norm_s"] == pytest.approx(first["s"] * pace.REF_S / 0.005)
    assert second["norm_s"] == pytest.approx(second["s"] * pace.REF_S / 0.008)


def test_kernel_is_fixed_work():
    import pace

    assert pace.kernel() == 480
    assert 0 < pace.reference_median() < 1


# ---------------------------------------------------------------------------
# tracer


def test_tracer_self_time_and_restore():
    from braidwork import catalog, garside
    from braidwork.words import BraidWord

    original = garside.normal_form
    tracer = Tracer()
    tracer.install()
    try:
        assert garside.normal_form is not original
        assert catalog.normal_form is not garside.normal_form  # one wrapper per site
        span = tracer.begin("item")
        assert catalog.equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
        tracer.finish(span)
    finally:
        tracer.uninstall()
    assert garside.normal_form is original and catalog.normal_form is original
    summary = tracer.summary()
    assert summary["garside.equal"]["calls"] == 1
    assert summary["garside.equal"]["sites"] == {"catalog": 1}
    assert summary["garside.normal_form.n3"]["calls"] == 2
    total = sum(entry["self_s"] for entry in summary.values())
    assert total == pytest.approx(summary["item"]["s"])
    for entry in summary.values():
        assert 0 <= entry["self_s"] <= entry["s"]


def test_tracer_skips_targets_the_program_no_longer_defines():
    import braidwork.garside  # noqa: F401

    tracer = Tracer()
    tracer.install(targets=(("garside", "no_such_function", "garside.x"),
                            ("garside", "NormalForm.no_such_method", "garside.y"),
                            ("no_such_module", "f", "z.f")))
    assert tracer.missing == ["garside.no_such_function", "garside.NormalForm.no_such_method",
                              "no_such_module.f"]
    assert not tracer._restore


# ---------------------------------------------------------------------------
# metric names


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(inputs.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(NAME.match(m["name"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_metric_is_computed():
    info = namedtuple("info", "hits misses currsize")(0, 0, 0)
    caches = {"_leftweight": info, "pinv": info}
    computed = set(batch.layer_metrics(Tracer(), caches, caches))
    from_run = {m["name"] for m in SPEC["per_layer"]
                if m["name"].startswith("setup.")
                or m["name"] in ("trace.overhead_frac", "machine.wall_over_cpu", "machine.speed")}
    assert computed | from_run == {m["name"] for m in SPEC["per_layer"]}
    assert not computed & from_run


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word-problem", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if line.split() and line.split()[0] in expected}
    assert printed == expected


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monodromy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
