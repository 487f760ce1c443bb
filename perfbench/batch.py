"""One batch of one workload, in a fresh interpreter.

    python3 perfbench/batch.py --workload NAME --seed N --trace 0|1

``run.py`` starts this once per batch, because braidwork's Garside caches
are process-global: a command-line user pays cold caches on every call,
and so does every batch here.  Prints one JSON object on stdout: set-up
times, per-item latencies and the batch's time (items plus building and
hashing its certificate) in CPU seconds at reference speed (``pace``),
peak RSS, the failures the known-answer checks
found per item, digests of inputs and outputs and, with ``--trace 1``,
the per-layer metrics derived from the spans.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import inputs
import oracles
import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def setup() -> dict:
    """Time what every command-line start pays: importing the CLI, building
    the catalogue and building the argument parser.  Times are CPU seconds
    at reference speed (``pace``), scaled by the reference kernel's median
    times just before and just after."""
    if not (SRC / "braidwork" / "__init__.py").is_file():
        raise SystemExit(f"braidwork sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    before = pace.reference_median()
    t0 = time.process_time()
    import braidwork.cli as cli
    t1 = time.process_time()
    cli.catalog.catalog()
    t2 = time.process_time()
    cli.build_parser()
    t3 = time.process_time()
    scale = pace.scale(before, pace.reference_median())
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported braidwork from {cli.__file__}, not from {SRC}")
    return {"import_s": scale * (t1 - t0), "catalog_s": scale * (t2 - t1),
            "parser_s": scale * (t3 - t2), "setup_s": scale * (t3 - t0)}


def check(workload: str, data: dict, outcomes: list[dict], seed: int) -> list[list[str]]:
    """Known-answer failures per item (empty lists for correct items)."""
    rng = random.Random(f"replay/{seed}")
    pipelines = data.get("pipelines", [])

    def known(i: int, o: dict) -> list[str]:
        if workload == "word-problem":
            pairs = data["pairs"]
            if i < len(pairs):
                return oracles.check_pair(pairs[i], o["equal"])
            return oracles.check_rows(o["rows"])
        if workload == "hurwitz-orbits":
            return oracles.check_orbit(data["jobs"][i], o, rng)
        if i < len(pipelines):
            found = oracles.check_rows(o["rows"])
            if pipelines[i].startswith("anchor-"):
                found += oracles.check_anchor(pipelines[i][len("anchor-"):], 1, o["word"])
            return found
        loop = data["loops"][i - len(pipelines)]
        if loop["family"] == "tame":
            return oracles.check_tame(loop["k"], o["word"])
        return oracles.check_anchor(loop["family"], loop["turns"], o["word"])

    return [[o["error"]] if "error" in o else known(i, o) for i, o in enumerate(outcomes)]


def layer_metrics(tracer, caches_before: dict, caches: dict) -> dict:
    """Per-layer metrics from the spans and counts of one traced batch."""
    spans = tracer.summary()
    counts = tracer.counts

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return 1e6 * get(name, "s") / calls if calls else 0.0

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))

    nf = [k for k in spans if k.startswith("garside.normal_form.n")]
    before, after = caches_before.get("_leftweight"), caches.get("_leftweight")
    hits = after.hits - before.hits if after else 0
    misses = after.misses - before.misses if after else 0
    orbit_s = {tag: get(f"hurwitz.orbit.{tag}", "s") for tag in ("s3", "b3")}
    loops = get("tracking.track_coefficients", "calls")
    # trial steps: refine_roots called through tracking's own binding
    trials = spans.get("families.refine_roots", {}).get("sites", {}).get("tracking", 0)
    out = {
        "garside.normal_form.calls": sum(get(k, "calls") for k in nf),
        "garside.normal_form.self_s": sum(get(k, "self_s") for k in nf),
        **{f"garside.normal_form.us_per_call.n{n}": per_call_us(f"garside.normal_form.n{n}")
           for n in (4, 6, 8)},
        "garside.equal.calls": get("garside.equal", "calls"),
        "garside.nf_mul.calls": get("garside.nf_mul", "calls"),
        "garside.nf_mul.self_s": get("garside.nf_mul", "self_s"),
        "garside.cache.entries": sum(info.currsize for info in caches.values()),
        "garside.leftweight.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "words.reduce_free.calls": get("words.reduce_free", "calls"),
        "words.reduce_free.self_s": get("words.reduce_free", "self_s"),
        "groups.artin3.mul.calls": get("groups.artin3.mul", "calls"),
        "groups.artin3.mul.self_s": get("groups.artin3.mul", "self_s"),
        "groups.artin3.inverse.calls": get("groups.artin3.inverse", "calls"),
        "groups.artin3.hash.calls": get("groups.artin3.hash", "calls"),
        "groups.perm3.mul.calls": get("groups.perm3.mul", "calls"),
        "groups.perm3.mul.self_s": get("groups.perm3.mul", "self_s"),
        "hurwitz.orbit.self_s": sum(get(f"hurwitz.orbit.{t}", "self_s") for t in orbit_s),
        "hurwitz.act_letter.calls": get("hurwitz.act_letter", "calls"),
        "hurwitz.states": counts["hurwitz.states.s3"] + counts["hurwitz.states.b3"],
        **{f"hurwitz.states_per_s.{t}": counts[f"hurwitz.states.{t}"] / s if s else 0.0
           for t, s in orbit_s.items()},
        "hurwitz.cap_hits": counts["hurwitz.cap_hits"],
        "hurwitz.stabilizes.calls": get("hurwitz.stabilizes", "calls"),
        "catalog.verify_identities.s": get("catalog.verify_identities", "s"),
        "catalog.verify_stabilizer_tables.s": get("catalog.verify_stabilizer_tables", "s"),
        "catalog.verify_theorem_rows.s": get("catalog.verify_theorem_rows", "s"),
        "catalog.half_twist_classification.s": get("catalog.half_twist_classification", "s"),
        "families.branch_coeffs.calls": get("families.branch_coeffs", "calls"),
        "families.branch_coeffs.self_s": get("families.branch_coeffs", "self_s"),
        "families.fiber_coeffs.calls": get("families.fiber_coeffs", "calls"),
        "families.refine_roots.calls": get("families.refine_roots", "calls"),
        "families.refine_roots.us_per_call": per_call_us("families.refine_roots"),
        "families.solve_roots.calls": get("families.solve_roots", "calls"),
        "tracking.track_coefficients.calls": loops,
        "tracking.track_coefficients.self_s": get("tracking.track_coefficients", "self_s"),
        "tracking.trials": trials,
        "tracking.trials_per_loop": trials / loops if loops else 0.0,
        "tracking.crossings": counts["tracking.crossings"],
        "tracking.rotations": counts["tracking.rotations"],
        "geometry.checks.s": get("geometry.checks", "s"),
        "arcs.admissible.self_s": get("arcs.admissible", "self_s"),
        **{f"bifurcation.generators.s.k{k}": get(f"bifurcation.generators.k{k}", "s")
           for k in (1, 2, 3)},
        "bifurcation.contraction.s": get("bifurcation.contraction", "s"),
        "certificates.build.s": get("certificates.build", "s"),
        "certificates.body_hash.s": get("certificates.body_hash", "s"),
        "trace.spans": len(tracer.start),
    }
    for layer in ("words", "garside", "groups", "hurwitz", "catalog", "families",
                  "tracking", "geometry", "arcs", "bifurcation", "certificates"):
        out[f"{layer}.self_s"] = layer_self(layer)
    return out


def garside_caches() -> dict:
    """``cache_info()`` of every ``lru_cache`` in garside, by name."""
    from braidwork import garside

    return {name: fn.cache_info() for name, fn in vars(garside).items()
            if hasattr(fn, "cache_info")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    timing = setup()
    import workloads
    from braidwork.certificates import Certificate

    data = inputs.generate(args.workload, args.seed)
    inputs_sha256 = inputs.digest(data)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(callers=(workloads,))
        caches_before = garside_caches()

    clock = workloads.Clock(tracer)
    start, start_cpu = time.perf_counter(), time.process_time()
    rows = workloads.RUNNERS[args.workload](data, clock)
    cert = Certificate.build(f"bench {args.workload}",
                             {"seed": args.seed, "inputs_sha256": inputs_sha256}, rows)
    body_sha256 = cert.body_hash()
    cpu_s = time.process_time() - start_cpu
    wall_s = time.perf_counter() - start
    # the certificate and the loop around the items, less the kernel timings
    rest_s = cpu_s - sum(item["s"] for item in clock.items) - sum(clock.refs)
    clock.finish()
    norm_s = (sum(item["norm_s"] for item in clock.items)
              + rest_s * clock.scale(len(clock.refs) - 2))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup": timing, "norm_s": norm_s, "wall_over_cpu": wall_s / cpu_s,
        "refs": clock.refs, "peak_rss_mb": peak_rss_mb,
        "items": clock.items, "inputs_sha256": inputs_sha256,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, caches_before, garside_caches())
        result["untraced_targets"] = tracer.missing
        dump_dir = ROOT / ".perfbench"
        dump_dir.mkdir(exist_ok=True)
        tracer.dump(dump_dir / f"spans-{args.workload}.npz")

    found = workloads.outcomes(args.workload, data, clock.outputs)
    result["failures"] = check(args.workload, data, found, args.seed)
    for entry in found:
        entry.pop("transversal", None)  # the sha256 of each transversal stays
    result["outputs_sha256"] = inputs.digest({"items": found, "body_sha256": body_sha256})
    result["body_sha256"] = body_sha256
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
