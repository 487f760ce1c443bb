"""Seeded input generation for the three benchmark workloads.

Everything here is plain Python data (ints, floats, strings, lists and
dicts) built from ``random.Random(seed)``; nothing imports braidwork, so
the program under test only ever sees the generated values.  The same
seed gives byte-identical inputs, and ``digest`` names them.

The *shape* of every batch is fixed: how many items there are of each
kind and size never depends on the seed.  The seed only chooses letters,
tuples, conjugators, radii, centres, angles and which critical value a
loop circles; the continuous loop parameters are drawn stratified, so
that each batch covers their ranges evenly.  This keeps the work per
batch close to constant across seeds, so that a change in a metric
reflects the program and not the draw.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

WORKLOADS = ("word-problem", "hurwitz-orbits", "monodromy")

# word-problem: (strands, base word length, pairs at that size)
WORD_SIZES = ((4, 20, 100), (6, 40, 100), (8, 80, 100))

# hurwitz-orbits: S3 tuple lengths and job counts; B3 jobs and their cap
S3_JOBS = ((6, 30), (7, 40), (8, 10))
B3_CAP = 200
B3_CONJUGATOR_LENGTH = 2
# Patterns over {a, b} whose Hurwitz orbits are infinite (every job then
# runs to the cap); constant tuples and the 27-state patterns at length 4
# are excluded so that the cost of a B3 job does not depend on the draw.
B3_PATTERNS = {
    4: ("aabb", "abba", "baab", "bbaa"),
    5: tuple("".join(p) for p in itertools.product("ab", repeat=5) if len(set(p)) > 1),
}
B3_JOBS = ((4, 12), (5, 12))
# The alternating systems with published outcomes.
ALTERNATING_JOBS = (
    {"id": "coxeter@n6", "group": "s3", "base": ["s", "t"] * 3, "cap": None, "published": 240},
    {"id": "artin@n4", "group": "b3", "base": ["a", "b"] * 2, "cap": 1000, "published": 27},
    {"id": "artin@n5", "group": "b3", "base": ["a", "b", "a", "b", "a"], "cap": 1000,
     "published": "cap"},
)

# monodromy: seeded loops per kind; turns are fixed per loop, never drawn
ANCHOR_TURNS = (1, -1, 2)
ANCHOR_LOOPS_PER_FAMILY = 45
TAME_DEGREES = (3, 4, 5, 6)
TAME_LOOPS_PER_DEGREE = 10
PIPELINES = (
    "anchor-cusp", "anchor-tangency",
    "ray_confinement@k2", "circle_confinement@k2", "double_root_uniqueness@k2",
    "cusp_exponent@k2",
    "ray_confinement@k3", "circle_confinement@k3", "double_root_uniqueness@k3",
    "cusp_exponent@k3",
    "bifurcation_generators@k1", "bifurcation_generators@k2", "bifurcation_generators@k3",
    "full_braid_monodromy_check@k3",
    "admissible-x1-x3@k2", "admissible-x1-x2@k2",
    "admissible-x1-x3@k3", "admissible-x1-x2@k3",
)

_INVERSE = {"a": "A", "b": "B", "A": "a", "B": "b"}


def digest(data) -> str:
    """sha256 of the canonical JSON form of generated inputs or outputs."""
    dump = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(dump.encode()).hexdigest()


def generate(workload: str, seed: int) -> dict:
    if workload == "word-problem":
        return word_problem(seed)
    if workload == "hurwitz-orbits":
        return hurwitz_orbits(seed)
    if workload == "monodromy":
        return monodromy(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# word-problem


def delta_letters(n: int) -> list[int]:
    """The half twist: (s_1 .. s_{n-1})(s_1 .. s_{n-2}) .. (s_1)."""
    return [i for top in range(n - 1, 0, -1) for i in range(1, top + 1)]


def exponent_sum(letters) -> int:
    return sum(1 if x > 0 else -1 for x in letters)


def _reduced_word(rng: random.Random, n: int, length: int) -> list[int]:
    out: list[int] = []
    while len(out) < length:
        x = rng.choice((1, -1)) * rng.randint(1, n - 1)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return out


def _insert_braid_relator(rng: random.Random, n: int, v: list[int]) -> list[int]:
    i = rng.randint(1, n - 2)
    i, j = (i, i + 1) if rng.random() < 0.5 else (i + 1, i)
    rel = [i, j, i, -j, -i, -j]
    if rng.random() < 0.5:
        rel = [-x for x in reversed(rel)]
    p = rng.randint(0, len(v))
    return v[:p] + rel + v[p:]


def _commute(rng: random.Random, n: int, v: list[int]) -> list[int]:
    """Swap one adjacent pair of far-apart letters, or insert a commutator."""
    spots = [p for p in range(len(v) - 1) if abs(abs(v[p]) - abs(v[p + 1])) >= 2]
    if spots:
        p = rng.choice(spots)
        return v[:p] + [v[p + 1], v[p]] + v[p + 2:]
    i = rng.randint(1, n - 3)
    j = rng.randint(i + 2, n - 1)
    p = rng.randint(0, len(v))
    return v[:p] + [i, j, -i, -j] + v[p:]


def _insert_cancelling_pair(rng: random.Random, n: int, v: list[int]) -> list[int]:
    x = rng.choice((1, -1)) * rng.randint(1, n - 1)
    p = rng.randint(0, len(v))
    return v[:p] + [x, -x] + v[p:]


def _conjugate_segment_by_delta(rng: random.Random, n: int, v: list[int]) -> list[int]:
    """Replace a segment w by Delta^-1 flip(w) Delta, where flip sends s_i
    to s_{n-i}; since Delta s_i Delta^-1 = s_{n-i} the element is unchanged."""
    p = rng.randint(0, len(v))
    q = rng.randint(p, len(v))
    delta = delta_letters(n)
    flipped = [(n - abs(x)) * (1 if x > 0 else -1) for x in v[p:q]]
    return v[:p] + [-x for x in reversed(delta)] + flipped + delta + v[q:]


EQUALITY_MOVES = (
    _insert_braid_relator,
    _commute,
    _insert_cancelling_pair,
    _conjugate_segment_by_delta,
)


def word_problem(seed: int) -> dict:
    """Pairs of words per size; even-indexed pairs are equal by construction,
    odd-indexed ones additionally get one extra letter, so their exponent
    sums differ by one."""
    rng = random.Random(f"word-problem/{seed}")
    pairs = []
    for n, length, count in WORD_SIZES:
        for idx in range(count):
            u = _reduced_word(rng, n, length)
            v = list(u)
            moves = list(EQUALITY_MOVES)
            rng.shuffle(moves)
            for move in moves:
                v = move(rng, n, v)
            expect_equal = idx % 2 == 0
            if not expect_equal:
                p = rng.randint(0, len(v))
                v = v[:p] + [rng.choice((1, -1)) * rng.randint(1, n - 1)] + v[p:]
            pairs.append({"n": n, "u": u, "v": v, "expect_equal": expect_equal})
    return {"workload": "word-problem", "seed": seed, "pairs": pairs}


# ---------------------------------------------------------------------------
# hurwitz-orbits


def _reduced_ab_word(rng: random.Random, length: int) -> str:
    out = ""
    while len(out) < length:
        c = rng.choice("abAB")
        if out and _INVERSE[c] == out[-1]:
            continue
        out += c
    return out


def conjugate_text(x: str, g: str) -> str:
    """g^-1 x g as a word over a, b (capitals are inverses)."""
    return "".join(_INVERSE[c] for c in reversed(g)) + x + g


def hurwitz_orbits(seed: int) -> dict:
    rng = random.Random(f"hurwitz-orbits/{seed}")
    jobs = [dict(job) for job in ALTERNATING_JOBS]
    for n, count in S3_JOBS:
        for idx in range(count):
            while True:
                base = [rng.choice("str") for _ in range(n)]
                if len(set(base)) > 1:  # a constant tuple is a one-point orbit
                    break
            jobs.append({"id": f"s3@n{n}#{idx}", "group": "s3", "base": base,
                         "cap": None, "published": None})
    for n, count in B3_JOBS:
        patterns = B3_PATTERNS[n]
        for idx in range(count):
            pattern = patterns[idx % len(patterns)]
            g = _reduced_ab_word(rng, B3_CONJUGATOR_LENGTH)
            jobs.append({"id": f"b3@n{n}#{idx}", "group": "b3",
                         "base": [conjugate_text(x, g) for x in pattern],
                         "cap": B3_CAP, "published": None})
    return {"workload": "hurwitz-orbits", "seed": seed, "jobs": jobs}


# ---------------------------------------------------------------------------
# monodromy


def _round(x: float) -> float:
    # keep generated floats short and exactly reproducible through JSON
    return round(x, 12)


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` draws from [lo, hi), one in each of ``count`` equal slices,
    in random order: every batch covers the whole range evenly."""
    slots = list(range(count))
    rng.shuffle(slots)
    return [lo + (hi - lo) * (slot + rng.random()) / count for slot in slots]


def monodromy(seed: int) -> dict:
    rng = random.Random(f"monodromy/{seed}")
    loops = []
    count = ANCHOR_LOOPS_PER_FAMILY // len(ANCHOR_TURNS)
    for family in ("cusp", "tangency"):
        for turns in ANCHOR_TURNS:
            radii = _stratified(rng, count, 0.5, 2.0)
            offsets = _stratified(rng, count, 0.0, 0.3)  # the centre stays well inside
            phis = _stratified(rng, count, 0.0, 2 * math.pi)
            starts = _stratified(rng, count, 0.0, 2 * math.pi)
            for idx, (radius, offset, phi, start) in enumerate(zip(radii, offsets, phis, starts)):
                loops.append({
                    "id": f"{family}@m{turns}#{idx}", "family": family,
                    "center": [_round(radius * offset * math.cos(phi)),
                               _round(radius * offset * math.sin(phi))],
                    "radius": _round(radius),
                    "start_angle": _round(start),
                    "turns": turns,
                })
    for k in TAME_DEGREES:
        first = rng.randrange(k - 1)
        rhos = _stratified(rng, TAME_LOOPS_PER_DEGREE, 0.15, 0.35)
        for idx, rho in enumerate(rhos):
            loops.append({
                "id": f"tame@k{k}#{idx}", "family": "tame", "k": k,
                "critical": (first + idx) % (k - 1),
                "rho": _round(rho),
            })
    return {"workload": "monodromy", "seed": seed, "pipelines": list(PIPELINES),
            "loops": loops}


def tame_critical_value(k: int, j: int) -> complex:
    """Critical values of x^k - k x are -(k-1) w^j with w^(k-1) = 1."""
    return -(k - 1) * complex(math.cos(2 * math.pi * j / (k - 1)),
                              math.sin(2 * math.pi * j / (k - 1)))


def tame_loop_points(k: int, j: int, rho: float, segments: int = 48) -> list[complex]:
    """Radially out from lam = 0 towards the j-th critical value, once
    counterclockwise around it at radius rho * |value|, and back."""
    centre = tame_critical_value(k, j)
    entry = centre * (1 - rho)
    start = math.atan2((entry - centre).imag, (entry - centre).real)
    radius = rho * abs(centre)
    circle = [centre + radius * complex(math.cos(start + 2 * math.pi * i / segments),
                                        math.sin(start + 2 * math.pi * i / segments))
              for i in range(1, segments)]
    return [0j, entry] + circle + [entry, 0j]
