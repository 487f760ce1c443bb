"""Command-line interface.

Subcommands:

    verify      run the symbolic verification suites
    orbit       enumerate a Hurwitz orbit and report its size
    transversal emit an orbit's positive Schreier transversal
    monodromy   track a parameter loop and report the resulting braid
    admissible  decide admissibility of an arc between branch points
    report      run every catalogued pipeline

All inputs and outputs are the JSON formats defined by the owning
modules; complex scalars in JSON are numbers or [re, im] pairs.  Exit
code is 0 exactly when no result failed.

Only the exact layer is imported here at module level.  ``monodromy``,
``admissible`` and the numerical checks of ``report`` import the
numerical layer, and with it numpy, inside the functions that run them,
so ``verify``, ``orbit``, ``transversal`` and ``--help`` start without
numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Callable

from . import catalog
from .certificates import Certificate, CheckResult
from .garside import equal
from .groups import artin_from_word, perm_from_name
from .hurwitz import DEFAULT_ORBIT_CAP, OrbitCapExceeded, orbit
from .words import MAX_STRANDS, BraidWord, json_field, json_value


def _loop_from_spec(spec: dict | list):
    from .families import complex_from_json
    from .tracking import ParameterLoop

    if isinstance(spec, list):  # a polyline's points, as a certificate's inputs.loop echoes them
        spec = {"kind": "polyline", "points": spec}
    json_value(spec, dict, "a loop spec other than a vertex list")
    kind = spec.get("kind", "polyline")
    if kind not in ("circle", "polyline"):
        raise ValueError(f"unknown loop kind {kind!r:.40}")
    owner = f"{kind} loop spec"
    if kind == "circle":
        param = json_field(spec, "param", str, owner)
        radius = json_field(spec, "radius", float, owner)
        fixed = json_field(spec, "fixed", dict, owner, {})
        return ParameterLoop.circle(
            param,
            complex_from_json(spec.get("center", 0), f"{owner} field 'center'"),
            float(radius),
            spec.get("turns", 1),
            {k: complex_from_json(v, f"{owner} field 'fixed' entry {k!r}")
             for k, v in fixed.items()},
        )
    points = [
        {k: complex_from_json(v, f"polyline point {idx} field {k!r}")
         for k, v in json_value(pt, dict, "a polyline point").items()}
        for idx, pt in enumerate(json_field(spec, "points", list, owner))
    ]
    return ParameterLoop.polyline(points)


def _family_from_args(args):
    from .families import WeierstrassFamily, catalogue_family

    if args.family_file:
        with open(args.family_file) as fh:
            return WeierstrassFamily.from_json(json.load(fh))
    return catalogue_family(args.family, args.k)


def _emit(cert: Certificate, args) -> int:
    if args.format == "json":
        payload = json.dumps(cert.to_json(), indent=2, sort_keys=True)
    else:
        payload = cert.render_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return cert.exit_code


def cmd_verify(args) -> int:
    checks = {scope: check for scope, check in CHECKS
              if scope is not None and args.scope in (scope, "all")}
    if args.ledger and args.dump_ledger:
        raise ValueError("--dump-ledger writes the built-in ledger and reads no --ledger; "
                         "give one of the two")
    option = "--ledger" if args.ledger else "--dump-ledger" if args.dump_ledger else None
    if option and "identities" not in checks:
        raise ValueError(f"verify {args.scope} reads no ledger; {option} is for "
                         "verify identities and verify all")
    if args.dump_ledger:
        with open(args.dump_ledger, "w") as fh:
            json.dump(catalog.ledger_to_json(), fh, indent=2)
        print(f"ledger written to {args.dump_ledger}")
        return 0
    inputs = {"scope": args.scope}
    if args.ledger:
        inputs["ledger"] = args.ledger
        with open(args.ledger) as fh:
            records = catalog.ledger_from_json(json.load(fh))
        checks["identities"] = lambda: catalog.verify_identities(records)
    cert = Certificate.build(f"verify {args.scope}", inputs, _run(checks.values()))
    return _emit(cert, args)


def _parse_base(text: str, coefficient: str, n: int):
    if not text:
        if coefficient == "s3":
            return catalog.coxeter_system(n)
        return catalog.artin_system(n)
    entries = [tok.strip() for tok in text.split(",")]
    if len(entries) != n:
        raise ValueError(f"base tuple must have {n} entries")
    if coefficient == "s3":
        return tuple(perm_from_name(tok) for tok in entries)
    return tuple(artin_from_word(tok) for tok in entries)


def cmd_orbit(args, emit_transversal: bool) -> int:
    coefficient = args.coefficient
    if coefficient == "s3" and not 2 <= args.n <= 8:
        raise ValueError("orbit enumeration over s3 supports 2 <= n <= 8")
    if coefficient == "br3" and not 1 <= args.n <= MAX_STRANDS:
        raise ValueError(f"--n for br3 orbits is from 1 to {MAX_STRANDS}, got {args.n}")
    if coefficient == "br3" and args.cap is None:
        raise ValueError("a --cap is required for br3 orbits")
    cap = args.cap if args.cap is not None else DEFAULT_ORBIT_CAP
    base = _parse_base(args.base, coefficient, args.n)
    inputs = {
        "n": args.n,
        "coefficient": coefficient,
        "cap": cap,
        "base": [g.render() for g in base],
    }

    def compute() -> tuple[str, dict]:
        table = orbit(base, cap)
        witness = {"orbit_size": len(table)}
        if emit_transversal:
            witness["transversal"] = table.to_json(lambda g: g.render())
        return "verified", witness

    command = "transversal" if emit_transversal else "orbit"
    return _run_one(args, command, inputs, f"orbit/{coefficient}@n{args.n}",
                    "orbit-enumeration", compute, (OrbitCapExceeded,), cap=cap)


def cmd_monodromy(args) -> int:
    from .families import DegenerateConfigurationError
    from .tracking import TrackingError, loop_to_braid, track_loop

    family = _family_from_args(args)
    if args.loop_file:
        with open(args.loop_file) as fh:
            spec = json.load(fh)
    else:
        spec = json.loads(args.loop)
    loop = _loop_from_spec(spec)
    expected = BraidWord.from_json(json.loads(args.expect), "--expect") if args.expect else None
    inputs = {"family": family.to_json(), "loop": loop.to_json()}

    def compute() -> tuple[str, dict]:
        trace = track_loop(family, loop)
        witness = {"trace": trace.to_json()}
        if expected is None:
            return "verified", witness
        witness["expected"] = expected.to_json()
        braid = loop_to_braid(trace)
        ok = braid.n == expected.n and equal(braid, expected)
        return "verified" if ok else "failed", witness

    return _run_one(args, "monodromy", inputs, "monodromy/loop", "loop-tracking", compute,
                    (TrackingError, DegenerateConfigurationError))


def _arc_from_spec(text: str, family, params) -> list[complex]:
    from .arcs import chord
    from .families import DegenerateConfigurationError, branch_points, complex_from_json

    if ":" in text and not text.strip().startswith("["):
        try:
            lo, hi = (int(tok) for tok in text.split(":"))
        except ValueError:
            raise ValueError(f"--arc {text!r:.40}: expected 'i:j' with integer labels i "
                             "and j, or a JSON list of [re, im] vertices") from None
        if lo == hi:
            raise ValueError(f"--arc {text!r:.40}: the two branch point labels are equal")
        try:
            cfg = branch_points(family, params)
        except DegenerateConfigurationError as exc:  # no labels to read the arc by
            raise ValueError(f"--arc {text!r:.40} labels branch points, but {exc}") from None
        return chord(cfg.point(lo), cfg.point(hi))
    vertices = json_value(json.loads(text), list, "--arc")
    if len(vertices) < 2:
        raise ValueError(f"--arc needs at least two vertices, got {len(vertices)}")
    return [complex_from_json(v, f"--arc vertex {idx}") for idx, v in enumerate(vertices)]


def cmd_admissible(args) -> int:
    from . import arcs
    from .families import DegenerateConfigurationError, complex_from_json
    from .tracking import TrackingError

    family = _family_from_args(args)
    params = json_value(json.loads(args.params or "{}"), dict, "--params")
    params = {k: complex_from_json(v, f"--params field {k!r}") for k, v in params.items()}
    family.check_names(params, "--params")
    arc = _arc_from_spec(args.arc, family, params)
    inputs = {
        "family": family.to_json(),
        "params": {k: [v.real, v.imag] for k, v in params.items()},
        "arc": [[z.real, z.imag] for z in arc],
    }

    def compute() -> tuple[str, dict]:
        report = arcs.admissible(family, params, arc)
        return "verified", report.to_json()

    return _run_one(args, "admissible", inputs, "admissible/arc", "arc-admissibility",
                    compute, (arcs.ArcError, TrackingError, DegenerateConfigurationError))


def cmd_report(args) -> int:
    cert = Certificate.build("report", {}, _run(check for _, check in CHECKS))
    return _emit(cert, args)


def _anchor_checks() -> list[CheckResult]:
    """The tangency loop's half twist; the cusp loop is e_12@k1's."""
    from .families import catalogue_family
    from .tracking import ParameterLoop, loop_to_braid, track_loop

    loop = ParameterLoop.circle("lam", 0.0, 1.0)
    word = loop_to_braid(track_loop(catalogue_family("tangency"), loop))
    ok = equal(word, BraidWord(2, (1,)))
    return [CheckResult("monodromy/anchor-tangency", "loop-tracking",
                        "verified" if ok else "failed", {"word": word.to_json()})]


def _admissibility_checks() -> list[CheckResult]:
    from .arcs import admissible, chord
    from .families import branch_points, catalogue_family

    out = []
    for k in (2, 3):
        family = catalogue_family("base", k)
        cfg = branch_points(family, {})
        rep13 = admissible(family, {}, chord(cfg.point(1), cfg.point(3)))
        rep12 = admissible(family, {}, chord(cfg.point(1), cfg.point(2)))
        out.append(CheckResult(
            f"admissible/chord-x1-x3@k{k}", "arc-admissibility",
            "verified" if rep13.artin else "failed", rep13.to_json()))
        out.append(CheckResult(
            f"admissible/chord-x1-x2@k{k}", "arc-admissibility",
            "verified" if not rep12.coxeter else "failed", rep12.to_json()))
    return out


def _geometry(name: str, k: int) -> tuple[CheckResult, ...]:
    from . import geometry
    return getattr(geometry, name)(k)


def _bifurcation_rows(k: int) -> tuple[CheckResult, ...]:
    from .bifurcation import bifurcation_generators
    return bifurcation_generators(k).results


def _full_braid_monodromy(k: int) -> tuple[CheckResult, ...]:
    from .bifurcation import full_braid_monodromy_check
    return full_braid_monodromy_check(k)


# Every catalogued check, once.  A check is a zero-argument callable that
# returns CheckResults.  Entries with a scope are the symbolic suites behind
# ``verify SCOPE``; entries without one are numerical, run only in
# ``report`` and import their module when they run.
CHECKS: tuple[tuple[str | None, Callable], ...] = (
    ("identities", catalog.verify_identities),
    ("stabilizers", catalog.verify_stabilizer_tables),
    ("theorem", catalog.verify_theorem_rows),
    ("conclass", catalog.half_twist_classification),
    *((None, partial(_geometry, name, k))
      for k in (2, 3)
      for name in ("ray_confinement", "circle_confinement",
                   "double_root_uniqueness", "cusp_exponent")),
    (None, _anchor_checks),
    *((None, partial(_bifurcation_rows, k)) for k in (1, 2, 3)),
    (None, partial(_full_braid_monodromy, 3)),
    (None, _admissibility_checks),
)
SCOPES = tuple(scope for scope, _ in CHECKS if scope)


def _run(checks) -> list[tuple[CheckResult, float]]:
    """Run each check; its rows share its time evenly."""
    rows: list[tuple[CheckResult, float]] = []
    for check in checks:
        start = time.perf_counter()
        results = check()
        ms = (time.perf_counter() - start) * 1000
        rows += [(r, ms / max(1, len(results))) for r in results]
    return rows


def _run_one(args, command: str, inputs: dict, row_id: str, source: str,
             compute: Callable[[], tuple[str, dict]], degenerate: tuple[type, ...],
             **degenerate_witness) -> int:
    """Emit the one-row certificate of ``command``: ``compute()`` gives the
    row's status and witness, and one of the ``degenerate`` exceptions
    makes it a degenerate row whose witness is the error plus
    ``degenerate_witness``."""
    def check() -> list[CheckResult]:
        try:
            status, witness = compute()
        except degenerate as exc:
            status, witness = "degenerate", {"error": str(exc), **degenerate_witness}
        return [CheckResult(row_id, source, status, witness)]

    return _emit(Certificate.build(command, inputs, _run([check])), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidwork",
        description="braid word problem, Hurwitz orbits and numerical "
                    "bifurcation braid monodromy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="write the certificate to a file")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("verify", help="run the symbolic verification suites")
    p.add_argument("scope", choices=SCOPES + ("all",))
    p.add_argument("--ledger", default=None,
                   help="verify an external identity ledger (JSON) instead "
                        "of the built-in one")
    p.add_argument("--dump-ledger", default=None,
                   help="write the built-in identity ledger to a file and exit")
    common(p)
    p.set_defaults(fn=cmd_verify)

    for name, helptext, transversal in (
        ("orbit", "enumerate a Hurwitz orbit", False),
        ("transversal", "emit an orbit transversal", True),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--coefficient", choices=("s3", "br3"), default="s3")
        p.add_argument("--base", default="",
                       help="comma-separated entries, e.g. 's,t,s' or 'a,b,a'")
        p.add_argument("--cap", type=int, default=None,
                       help="orbit state cap (required for br3 orbits)")
        common(p)
        p.set_defaults(fn=lambda a, t=transversal: cmd_orbit(a, t))

    p = sub.add_parser("monodromy", help="track a parameter loop to a braid")
    p.add_argument("--family", default="cusp",
                   help="catalogue family id (cusp, tangency, base, ray, ...)")
    p.add_argument("--family-file", default=None, help="JSON family spec file")
    p.add_argument("--k", type=int, default=1, help="x-degree for k-indexed families")
    p.add_argument("--loop",
                   default='{"kind": "circle", "param": "lam", "center": 0, "radius": 1.0}',
                   help="inline JSON loop spec (default: the unit circle in lam)")
    p.add_argument("--loop-file", default=None, help="JSON loop spec file")
    p.add_argument("--expect", default=None, help="expected braid word JSON")
    common(p)
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("admissible", help="decide admissibility of an arc")
    p.add_argument("--family", default="base")
    p.add_argument("--family-file", default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--params", default=None, help="JSON parameter values")
    p.add_argument("--arc", required=True,
                   help="'i:j' for the chord between branch points i and j, "
                        "or a JSON list of [re, im] vertices")
    common(p)
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("report", help="run every catalogued pipeline")
    common(p)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
