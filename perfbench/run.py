"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs batches of one workload back to back, each in a fresh interpreter
(``batch.py``), until ``--seconds`` have passed, and prints every metric by
name and unit, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
from untraced batches.  ``--trace 1`` alternates untraced and traced
batches and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Run it from the root of a checkout: the program is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
from inputs import WORKLOADS  # noqa: E402

BATCH_TIMEOUT_S = 150

# the items whose work counts: pairs, orbit states, seeded loops
WORK = {
    "word-problem": (("pair",), "pairs"),
    "hurwitz-orbits": (("s3", "b3"), "orbit states"),
    "monodromy": (("loop",), "seeded loops"),
}

# metric names and units are defined once, in BENCHMARK.json
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BatchError(RuntimeError):
    pass


def run_batch(workload: str, seed: int, trace: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # fixed hashing and single-threaded numerics, the same in every batch
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "batch.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BatchError(f"batch exceeded {BATCH_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BatchError(f"batch exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_batches(workload: str, seed: int, seconds: float, trace: int) -> tuple[list, list]:
    """Untraced and traced batches until the time is up; at least one
    untraced batch, and with tracing at least one of each.  No batch starts
    that would likely end more than half a batch after the deadline."""
    deadline = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        use_trace = trace and len(traced) < len(plain)
        started = time.monotonic()
        (traced if use_trace else plain).append(run_batch(workload, seed, int(use_trace)))
        now = time.monotonic()
        if now + (now - started) / 2 >= deadline and plain and (traced or not trace):
            return plain, traced


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload: str, plain: list[dict], every: list[dict]) -> tuple[dict, list[str]]:
    kinds = WORK[workload][0]
    rates = []
    for batch in plain:
        items = [it for it in batch["items"] if it["kind"] in kinds]
        rates.append(sum(it["work"] for it in items) / sum(it["norm_s"] for it in items))
    # Every batch repeats the same items, so each item's latency is its
    # median over the batches; a burst of machine noise that hits one item
    # in one batch does not move the percentiles.
    item_ms = [1000 * statistics.median(batch["items"][i]["norm_s"] for batch in plain)
               for i in range(len(plain[0]["items"]))]
    beyond_p90 = len(item_ms) - math.ceil(0.9 * len(item_ms))
    values = {
        "setup_s": statistics.median(b["setup"]["setup_s"] for b in every),
        "batch_norm_s": statistics.median(b["norm_s"] for b in plain),
        "work_per_norm_s": statistics.median(rates),
        "item_norm_ms.p50": percentile(item_ms, 0.5),
        "item_norm_ms.p90": percentile(item_ms, 0.9),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain),
    }
    notes = {
        "setup_s": f"median of {len(every)} fresh-interpreter set-ups",
        "batch_norm_s": f"median of {len(plain)} batches of {len(plain[0]['items'])} items",
        "work_per_norm_s": f"{WORK[workload][1]} per second, median of {len(plain)} batches",
        "item_norm_ms.p50": f"{len(item_ms)} items, each the median of {len(plain)} batches",
        "item_norm_ms.p90": f"{len(item_ms)} items, {beyond_p90} beyond p90",
        "peak_rss_mb": f"ru_maxrss of the batch process, median of {len(plain)}",
    }
    return values, [notes[name] for name in values]


def per_layer(plain: list[dict], traced: list[dict], every: list[dict]) -> tuple[dict, list[str]]:
    values, notes = {}, []
    for name in PER_LAYER:
        if name.startswith("setup."):
            values[name] = statistics.median(b["setup"][name[len("setup."):]] for b in every)
            notes.append(f"median of {len(every)} set-ups")
        elif name == "trace.overhead_frac":
            values[name] = (statistics.median(b["norm_s"] for b in traced)
                            / statistics.median(b["norm_s"] for b in plain) - 1)
            notes.append(f"traced over untraced batch time, {len(traced)} and {len(plain)} "
                         "batches")
        elif name == "machine.wall_over_cpu":
            values[name] = statistics.median(b["wall_over_cpu"] for b in plain)
            notes.append(f"untraced batches' wall time over CPU time, median of {len(plain)}")
        elif name == "machine.speed":
            values[name] = pace.REF_S / statistics.median(r for b in every for r in b["refs"])
            notes.append("reference kernel's REF_S over its median time")
        else:
            values[name] = statistics.median(b["layers"][name] for b in traced)
            notes.append(f"median of {len(traced)} traced batches")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "braidwork" / "__init__.py").is_file():
        print(f"error: no braidwork sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        plain, traced = run_batches(args.workload, args.seed, args.seconds, args.trace)
    except BatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = plain + traced
    failed = sum(1 for b in every for f in b["failures"] if f)
    attempted = sum(len(b["failures"]) for b in every)
    consistent = (len({b["inputs_sha256"] for b in every}) == 1
                  and len({b["outputs_sha256"] for b in every}) == 1)
    if args.trace:
        values, notes = per_layer(plain, traced, every)
        units = PER_LAYER
    else:
        values, notes = end_to_end(args.workload, plain, every)
        units = END_TO_END

    first = every[0]
    print(f"workload {args.workload}  seed {args.seed}  batches {len(plain)} untraced, "
          f"{len(traced)} traced  (closed loop, one caller)")
    print(f"inputs sha256 {first['inputs_sha256']}")
    print(f"outputs sha256 {first['outputs_sha256']}  certificate body_sha256 "
          f"{first['body_sha256']}  identical across batches: {consistent}")
    for missing in sorted({t for b in traced for t in b["untraced_targets"]}):
        print(f"not traced (no longer defined): {missing}")
    for batch in every:
        for item, found in enumerate(batch["failures"]):
            for message in found:
                print(f"FAILED item {item} ({batch['items'][item]['kind']}): {message}")
    print(f"failed_frac {failed / attempted:.6g}  ({failed} of {attempted} items)")
    for (name, value), note in zip(values.items(), notes):
        print(f"{name:40s} {value:>16.6f} {units[name]:12s} {note}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
