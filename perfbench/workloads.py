"""The three workloads, driven only through braidwork's public functions.

Each runner takes the generated inputs and a ``Clock``, issues its items
back to back on one thread (a closed loop with one caller) and returns the
certificate rows; the clock keeps each item's time and raw result.  Only
the calls into braidwork sit inside an item.  ``outcomes`` turns the raw
results into plain data for the known-answer checks (rendering
transversals, for instance) after the timed region.
"""

from __future__ import annotations

import time
import traceback
from pathlib import Path

from braidwork.arcs import admissible, chord
from braidwork.bifurcation import bifurcation_generators, full_braid_monodromy_check
from braidwork.catalog import (
    CheckResult,
    half_twist_classification,
    verify_identities,
    verify_stabilizer_tables,
    verify_theorem_rows,
)
from braidwork.families import branch_points, catalogue_family
from braidwork.garside import equal
from braidwork.geometry import (
    circle_confinement,
    cusp_exponent,
    double_root_uniqueness,
    ray_confinement,
)
from braidwork.groups import artin_from_word, perm_from_name
from braidwork.hurwitz import DEFAULT_ORBIT_CAP, OrbitCapExceeded, orbit
from braidwork.tracking import ParameterLoop, loop_to_braid, track_loop
from braidwork.words import BraidWord

import inputs
import pace


class Raised:
    """Stands in for the result of an item that raised."""

    def __init__(self, exc: BaseException):
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        self.error = (f"{type(exc).__name__}: {exc} "
                      f"(raised at {Path(frame.filename).name}:{frame.lineno})")


class Clock:
    """Runs and times items in CPU seconds of the process, keeping each
    item's raw result; with a tracer, each item is also a root span.

    Between items it times the reference kernel of ``pace`` at least every
    ``pace.PACE_S`` CPU seconds; ``finish`` times it once more, and then
    each item's ``norm_s`` is its time at reference speed, scaled by the
    kernel's times just before and just after it."""

    def __init__(self, tracer=None):
        self.items: list[dict] = []
        self.outputs: list = []
        self.tracer = tracer
        self.refs: list[float] = []
        self._paced_at = 0.0

    def pace(self, force: bool = False) -> None:
        if force or not self.refs or time.process_time() - self._paced_at >= pace.PACE_S:
            self.refs.append(pace.reference())
            self._paced_at = time.process_time()

    def scale(self, segment: int) -> float:
        """Reference-speed factor for work between kernel timings
        ``segment`` and ``segment + 1``."""
        return pace.scale(self.refs[segment], self.refs[segment + 1])

    def finish(self) -> None:
        self.pace(force=True)
        for item in self.items:
            item["norm_s"] = item["s"] * self.scale(item["segment"])

    def run(self, kind: str, fn, *args):
        self.pace()
        tracer = self.tracer
        if tracer is not None:
            tracer.current_item = len(self.items)
            span = tracer.begin("item")
        start = time.process_time()
        try:
            out = fn(*args)
        except Exception as exc:  # an unexpected failure is a failed item
            out = Raised(exc)
        seconds = time.process_time() - start
        if tracer is not None:
            tracer.finish(span)
        self.items.append({"kind": kind, "s": seconds, "work": 0,
                           "segment": len(self.refs) - 1})
        self.outputs.append(out)
        return out


def _results(out) -> list:
    return list(out.results if hasattr(out, "results") else out)


def _rows(clock: Clock, results) -> list[tuple]:
    per = clock.items[-1]["s"] * 1000 / max(1, len(results))
    return [(r, per) for r in results]


def _row_status(results) -> list[dict]:
    return [{"id": r.id, "status": r.status} for r in results]


# ---------------------------------------------------------------------------
# word-problem


def _equal_pair(n: int, u: list[int], v: list[int]) -> bool:
    return equal(BraidWord(n, tuple(u)), BraidWord(n, tuple(v)))


def word_problem(data: dict, clock: Clock) -> list[tuple]:
    rows = []
    for idx, pair in enumerate(data["pairs"]):
        verdict = clock.run("pair", _equal_pair, pair["n"], pair["u"], pair["v"])
        clock.items[-1]["work"] = 1
        if not isinstance(verdict, Raised):
            rows += _rows(clock, [CheckResult(f"pair/{idx:03d}@n{pair['n']}", "word-problem",
                                              "verified", {"equal": verdict})])
    # looked up at call time, so that a tracer's wrappers are the ones called
    for fn in (verify_identities, verify_stabilizer_tables, verify_theorem_rows,
               half_twist_classification):
        out = clock.run("battery", fn)
        if not isinstance(out, Raised):
            rows += _rows(clock, _results(out))
    return rows


# ---------------------------------------------------------------------------
# hurwitz-orbits


def _orbit_job(group: str, base: list[str], cap: int | None):
    parse = perm_from_name if group == "s3" else artin_from_word
    system = tuple(parse(x) for x in base)
    try:
        return orbit(system, cap if cap is not None else DEFAULT_ORBIT_CAP)
    except OrbitCapExceeded as exc:
        return exc


def hurwitz_orbits(data: dict, clock: Clock) -> list[tuple]:
    rows = []
    for job in data["jobs"]:
        out = clock.run(job["group"], _orbit_job, job["group"], job["base"], job["cap"])
        if isinstance(out, Raised):
            continue
        if isinstance(out, OrbitCapExceeded):
            clock.items[-1]["work"] = out.seen
            row = CheckResult(f"orbit/{job['id']}", "orbit-enumeration", "degenerate",
                              {"cap": out.cap, "seen": out.seen})
        else:
            clock.items[-1]["work"] = len(out)
            row = CheckResult(f"orbit/{job['id']}", "orbit-enumeration", "verified",
                              {"orbit_size": len(out)})
        rows += _rows(clock, [row])
    return rows


# ---------------------------------------------------------------------------
# monodromy


def _anchor(family_id: str, expected: tuple[int, ...]):
    word = loop_to_braid(track_loop(catalogue_family(family_id),
                                    ParameterLoop.circle("lam", 0.0, 1.0)))
    ok = equal(word, BraidWord(2, expected))
    return [CheckResult(f"monodromy/anchor-{family_id}", "loop-tracking",
                        "verified" if ok else "failed", {"word": word.to_json()})]


def _chord(k: int, lo: int, hi: int):
    family = catalogue_family("base", k)
    cfg = branch_points(family, {})
    report = admissible(family, {}, chord(cfg.point(lo), cfg.point(hi)))
    # the chord to x_3 is Artin-admissible; the chord to x_2 is not even
    # Coxeter-admissible
    ok = report.artin if hi == 3 else not report.coxeter
    return [CheckResult(f"admissible/chord-x{lo}-x{hi}@k{k}", "arc-admissibility",
                        "verified" if ok else "failed", report.to_json())]


def _pipeline(name: str):
    """The catalogued numerical pipeline with this benchmark name."""
    if name == "anchor-cusp":
        return lambda: _anchor("cusp", (1, 1, 1))
    if name == "anchor-tangency":
        return lambda: _anchor("tangency", (1,))
    base, k = name.split("@k")
    k = int(k)
    if base.startswith("admissible-"):
        lo, hi = (int(x[1:]) for x in base[len("admissible-"):].split("-"))
        return lambda: _chord(k, lo, hi)
    fn = {
        "ray_confinement": ray_confinement,
        "circle_confinement": circle_confinement,
        "double_root_uniqueness": double_root_uniqueness,
        "cusp_exponent": cusp_exponent,
        "bifurcation_generators": bifurcation_generators,
        "full_braid_monodromy_check": full_braid_monodromy_check,
    }[base]
    return lambda: fn(k)


def _track(loop: dict) -> BraidWord:
    if loop["family"] == "tame":
        family = catalogue_family("tame", loop["k"])
        points = inputs.tame_loop_points(loop["k"], loop["critical"], loop["rho"])
        path = ParameterLoop.polyline([{"lam": z} for z in points])
    else:
        family = catalogue_family(loop["family"])
        path = ParameterLoop.circle("lam", complex(*loop["center"]), loop["radius"],
                                    loop["turns"], start_angle=loop["start_angle"])
    return loop_to_braid(track_loop(family, path))


def monodromy(data: dict, clock: Clock) -> list[tuple]:
    rows = []
    for name in data["pipelines"]:
        out = clock.run("pipeline", _pipeline(name))
        if not isinstance(out, Raised):
            rows += _rows(clock, _results(out))
    for loop in data["loops"]:
        word = clock.run("loop", _track, loop)
        clock.items[-1]["work"] = 1
        if not isinstance(word, Raised):
            rows += _rows(clock, [CheckResult(f"loop/{loop['id']}", "loop-tracking",
                                              "verified", {"word": word.to_json()})])
    return rows


RUNNERS = {
    "word-problem": word_problem,
    "hurwitz-orbits": hurwitz_orbits,
    "monodromy": monodromy,
}


# ---------------------------------------------------------------------------
# Outcomes: the program's answers as plain data, built after the timed region


def _orbit_outcome(group: str, out) -> dict:
    if isinstance(out, OrbitCapExceeded):
        return {"capped": True, "states": out.seen, "transversal": None}
    if group == "s3":
        element = lambda elt: [g.render() for g in elt]  # noqa: E731
    else:
        element = lambda elt: [g.to_json()["word"] for g in elt]  # noqa: E731
    return {
        "capped": False,
        "states": len(out),
        "transversal": [[element(elt), list(w.letters)] for elt, w in out.transversal.items()],
        "transversal_sha256": inputs.digest(out.to_json(lambda g: g.render())),
    }


def outcomes(workload: str, data: dict, outputs: list) -> list[dict]:
    """One plain-data outcome per item, in item order."""
    result = []
    for idx, out in enumerate(outputs):
        if isinstance(out, Raised):
            result.append({"error": out.error})
        elif workload == "hurwitz-orbits":
            result.append(_orbit_outcome(data["jobs"][idx]["group"], out))
        elif workload == "word-problem" and idx < len(data["pairs"]):
            result.append({"equal": out if isinstance(out, bool) else repr(out)})
        elif workload == "monodromy" and idx >= len(data["pipelines"]):
            result.append({"word": out.to_json()})
        else:
            results = _results(out)
            entry = {"rows": _row_status(results)}
            if workload == "monodromy" and data["pipelines"][idx].startswith("anchor-"):
                entry["word"] = results[0].witness["word"]
            result.append(entry)
    return result
