"""Spans around calls into braidwork, recorded from the benchmark's side.

``Tracer.install`` replaces each listed public function or method by a
wrapper in every braidwork module namespace that binds it (so
``tracking.refine_roots`` and ``families.refine_roots`` are wrapped
separately and each span records its call site).  Every call appends one
span -- name, start, end, parent span, item id -- to flat in-memory
columns; nothing is written until ``dump`` at the end of the batch.

Self time is derived from the spans alone: a span's duration minus the
durations of its direct children (calls nest, so children never
overlap).  No source file of the program is changed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (defining module, attribute, span name).  Methods are "Class.method".
TARGETS = (
    ("words", "reduce_free", "words.reduce_free"),
    ("garside", "normal_form", "garside.normal_form"),
    ("garside", "equal", "garside.equal"),
    ("garside", "NormalForm.__mul__", "garside.nf_mul"),
    ("garside", "NormalForm.inverse", "garside.nf_mul"),
    ("groups", "Artin3.__mul__", "groups.artin3.mul"),
    ("groups", "Artin3.inverse", "groups.artin3.inverse"),
    ("groups", "Artin3.__hash__", "groups.artin3.hash"),
    ("groups", "Perm3.__mul__", "groups.perm3.mul"),
    ("groups", "Perm3.inverse", "groups.perm3.inverse"),
    ("groups", "artin_from_word", "groups.artin_from_word"),
    ("groups", "perm_from_name", "groups.perm_from_name"),
    ("hurwitz", "orbit", "hurwitz.orbit"),
    ("hurwitz", "act_letter", "hurwitz.act_letter"),
    ("hurwitz", "act_word", "hurwitz.act_word"),
    ("hurwitz", "stabilizes", "hurwitz.stabilizes"),
    ("catalog", "verify_identities", "catalog.verify_identities"),
    ("catalog", "verify_stabilizer_tables", "catalog.verify_stabilizer_tables"),
    ("catalog", "verify_theorem_rows", "catalog.verify_theorem_rows"),
    ("catalog", "half_twist_classification", "catalog.half_twist_classification"),
    ("families", "WeierstrassFamily.branch_coeffs", "families.branch_coeffs"),
    ("families", "WeierstrassFamily.fiber_coeffs", "families.fiber_coeffs"),
    ("families", "refine_roots", "families.refine_roots"),
    ("families", "solve_roots", "families.solve_roots"),
    ("families", "branch_points", "families.branch_points"),
    ("families", "catalogue_family", "families.catalogue_family"),
    ("tracking", "track_coefficients", "tracking.track_coefficients"),
    ("tracking", "track_loop", "tracking.track_loop"),
    ("tracking", "fiber_monodromy", "tracking.fiber_monodromy"),
    ("geometry", "ray_confinement", "geometry.checks"),
    ("geometry", "circle_confinement", "geometry.checks"),
    ("geometry", "double_root_uniqueness", "geometry.checks"),
    ("geometry", "cusp_exponent", "geometry.checks"),
    ("geometry", "permutation_closure", "geometry.permutation_closure"),
    ("arcs", "admissible", "arcs.admissible"),
    ("bifurcation", "bifurcation_generators", "bifurcation.generators"),
    ("bifurcation", "full_braid_monodromy_check", "bifurcation.full_check"),
    ("bifurcation", "contraction_to_reference", "bifurcation.contraction"),
    ("certificates", "Certificate.build", "certificates.build"),
    ("certificates", "Certificate.body_hash", "certificates.body_hash"),
)


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _orbit_tag(*args, **kwargs) -> str:
    base = _first(args, kwargs, "base")
    return ".s3" if type(base[0]).__name__ == "Perm3" else ".b3"


def _orbit_observe(tracer, tag, out, exc):
    if exc is None:
        tracer.counts["hurwitz.states" + tag] += len(out)
    elif hasattr(exc, "seen"):
        tracer.counts["hurwitz.states" + tag] += exc.seen
        tracer.counts["hurwitz.cap_hits"] += 1


def _trace_observe(tracer, tag, out, exc):
    if exc is None:
        tracer.counts["tracking.crossings"] += len(out.crossings)
        tracer.counts["tracking.rotations"] += out.rotations


# span-name suffixes that split a function's spans by an argument, and
# observers that read counts off results
TAGS = {
    "garside.normal_form": lambda *a, **kw: f".n{_first(a, kw, 'w').n}",
    "hurwitz.orbit": _orbit_tag,
    "bifurcation.generators": lambda *a, **kw: f".k{_first(a, kw, 'k')}",
}
OBSERVERS = {
    "hurwitz.orbit": _orbit_observe,
    "tracking.track_coefficients": _trace_observe,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self.counts: Counter = Counter()
        self._open = [-1]
        self._restore: list[tuple] = []
        self.missing: list[str] = []  # targets the program no longer defines

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._open[-1])
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, site: str):
        """A wrapper recording one span named ``name|site`` per call."""
        tag = TAGS.get(name)
        observe = OBSERVERS.get(name)
        fixed = self.name_id(f"{name}|{site}")
        name_id, clock = self.name_id, time.perf_counter
        names, starts, ends, parents, items, open_ = (
            self.name, self.start, self.end, self.parent, self.item, self._open)

        # begin and finish inlined: this runs on every traced call
        def wrapper(*args, **kwargs):
            suffix = tag(*args, **kwargs) if tag is not None else ""
            idx = len(starts)
            names.append(name_id(f"{name}{suffix}|{site}") if suffix else fixed)
            parents.append(open_[-1])
            items.append(self.current_item)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                open_.pop()
                if observe is not None:
                    observe(self, suffix, None, exc)
                raise
            ends[idx] = clock()
            open_.pop()
            if observe is not None:
                observe(self, suffix, out, None)
            return out

        return functools.update_wrapper(wrapper, fn)

    def install(self, callers=(), targets=TARGETS) -> None:
        """Wrap the targets in every braidwork module and in each module of
        ``callers`` (the benchmark's own modules that bind them)."""
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in list(sys.modules.items())
                   if name == "braidwork" or name.startswith("braidwork.")}
        sites = dict(modules)
        sites.update({mod.__name__: mod for mod in callers})
        for module, attr, name in targets:
            owner = modules.get(module)
            cls_name, _, meth = attr.rpartition(".")
            scope = getattr(owner, cls_name, None) if cls_name else owner
            if scope is None or meth not in vars(scope):
                self.missing.append(f"{module}.{attr}")
                continue
            if cls_name:
                raw = vars(scope)[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(raw.__func__, name, module))
                else:
                    new = self.wrap(raw, name, module)
                self._restore.append((scope, meth, raw))
                setattr(scope, meth, new)
                continue
            original = vars(owner)[meth]
            for site, mod in sites.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, self.wrap(original, name, site))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name (site stripped): calls, inclusive and self seconds."""
        cols = self.columns()
        count = len(cols["start"])
        dur = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        child = np.bincount(cols["parent"][nested], weights=dur[nested], minlength=count)
        own = dur - child
        names = len(self.names)
        calls = np.bincount(cols["name"], minlength=names)
        total = np.bincount(cols["name"], weights=dur, minlength=names)
        selfs = np.bincount(cols["name"], weights=own, minlength=names)
        out: dict[str, dict] = {}
        for nid, full in enumerate(self.names):
            base = full.split("|")[0]
            entry = out.setdefault(base, {"calls": 0, "s": 0.0, "self_s": 0.0, "sites": {}})
            entry["calls"] += int(calls[nid])
            entry["s"] += float(total[nid])
            entry["self_s"] += float(selfs[nid])
            if "|" in full and calls[nid]:
                site = full.split("|")[1]
                entry["sites"][site] = entry["sites"].get(site, 0) + int(calls[nid])
        return out

    def dump(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())
