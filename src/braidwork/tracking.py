"""Numerical braid monodromy: root tracking and crossing bookkeeping.

A trace follows the roots of a polynomial whose coefficients vary along a
path, with adaptive steps.  A trial step from parameter time s to
s + h is accepted only when

* every root's Newton correction converges (``families.refine_roots``:
  relative residual below ``families.RESIDUAL_TOL`` within
  ``families.NEWTON_STEPS`` iterations),
* no root moves more than a quarter of the smallest pairwise gap,
* no two corrected roots are closer than ``families.COLLISION_TOL``, and
* the rank order changes by at most disjoint adjacent swaps.

Newton starts from the secant prediction roots + (roots - prev) * h /
h_prev through the last accepted step (Allgower and Georg, ch. 2), and
from the roots themselves on a trace's first trial.  Only that start
moves: the move, its bound and its ratio are measured from the previous
accepted roots, and the bound makes their matching to the corrected ones
unambiguous without a test of its own: a root moved by at most gap/4
lies at least 3/4 gap from every other previous root, more than twice
its move.

A trace starts with h = ``INITIAL_STEP`` and sizes each next step by the
last trial's move ratio r = max move / (gap/4), the step-length control
of continuation and ODE solvers (Allgower and Georg, *Introduction to
Numerical Continuation Methods*; Hairer, Norsett and Wanner, *Solving
Ordinary Differential Equations I*, II.4).  A trial rejected by its move
scales h by max(``MIN_SHRINK``, ``TARGET_RATIO`` / r); an accepted one by
min(``MAX_GROWTH``, max(1, ``TARGET_RATIO`` / r)), or ``MAX_GROWTH`` when
r = 0, up to ``MAX_STEP``; every other rejection halves h.  The ratio
only places the trials: what a trial accepts is the four tests above.
h below ``MIN_STEP`` raises with the offending parameter time, as does a
trace needing more than ``MAX_STEPS`` trials.  A trial whose coefficients
are not finite raises at once, saying so; one whose coefficients
``families``' solvable-row rule refuses otherwise, or whose degree
changed, raises at once as a degree drop.

Strands are ordered by the real part of the rotated coordinate
z * exp(-i * angle), imaginary part breaking ties.  A crossing of
adjacent ranks emits the generator with positive sign when the strand
moving up in rank passes with the smaller imaginary part, which makes a
counterclockwise half turn of two points the positive generator.  A
trace starts at angle 0.  If two tracked points are vertically aligned
within tolerance at the start, or over a whole step, the whole trace is
recomputed from the same start roots with the projection rotated by
``ROTATION_STEP`` (the angle used is recorded on the trace), at most
``MAX_ROTATIONS`` times; the start is solved and checked once per trace.

The tracker takes no setting from its caller.  Each trial ranks its
corrected roots once, and the alignment test and the final matching
reuse that order.  Circles are sampled by ``circle_path`` alone, and
every catalogued loop round a point is a ``lasso``: out along an approach,
once round a circle drawn from where the approach ends, and back, in plain
points or in one parameter with the others held.

A trial works on lists of Python complex numbers, from parameter point to
roots.  ``track_loop`` turns the loop's vertices once into lists of values
in the family's parameter order; a trial interpolates them with
``ParameterLoop.at``'s arithmetic and takes the branch coefficients from
``WeierstrassFamily.branch_coeffs_of``.  Then ``families``' solvable-row
rule, the secant guess, the one ``families.refine_roots`` call (a Horner
loop per root for the polynomial, its residual scale and, when Newton
steps, its derivative), the move and its ratio, the smallest gap
(``min_pairwise_distance``, a loop over the pairs, reused as the next
step's move bound), the rotated ranks, the alignment test and the
crossings are plain Python, and no trial calls numpy.  The polynomials
are small (2 to 6 roots in the catalogued loops), where a numpy call
costs more than the arithmetic it does; a trial's cost grows with the
square of its root count, and so does the pair loop.  CPython's complex
arithmetic goes through neither numpy's CPU dispatch nor OpenBLAS's
kernels, so the crossing times do not depend on which of them the CPU
selects.

A loop may name only the family's parameters, and each of its vertices
must have branch points pairwise at least ``COLLISION_TOL`` apart.
``track_loop`` evaluates each vertex's branch row once, before tracking,
and applies the solvable-row rule to it.  The trace's start solve
(``solve_roots``) and its collision test check vertex 0.  Every other
vertex is checked as the trace passes it, with no root solve: an
accepted step from s to s + h passes the vertex at time t when
s < t <= s + h, and the roots interpolated at f = (t - s) / h are
z = roots + (new_roots - roots) * f.  Each root moved at most gap/4, so
every |z_j - z_k| is at least max(gap (1 - f/2), new_gap - (1 - f) gap/2).
If the inclusion discs D(z_j, m |w_j|) of the vertex's row
(``families._corrections``) are pairwise at least ``COLLISION_TOL``
apart by that bound, each holds one root and the vertex passes; if not,
the discs are tried once more about z - w.  A vertex neither certifies,
as a row of another length never is, is solved alone by
``families.branch_roots``, with its collision test and message.  Any
error, whether a vertex's values or row, the start solve, a vertex check
or the trace raises it, hands the loop to ``branch_roots`` over all
vertices, so of several failing vertices the first in input order
raises; a loop whose vertices all pass raises its own error.  No check
steers the trace, so it moves no crossing.  ``refine_roots``
in this module is called by the trials alone, once per trial.

Traces share no state.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Callable, Sequence

from .families import (
    COLLISION_TOL,
    DegenerateConfigurationError,
    WeierstrassFamily,
    _corrections,
    _solvable,
    branch_roots,
    min_pairwise_distance,
    refine_roots,
    solve_roots,
)
from .words import BraidWord, pinv

INITIAL_STEP = 1 / 32
MIN_STEP = 1e-12
MAX_STEP = 1 / 16
MAX_STEPS = 500_000
TARGET_RATIO = 0.8  # the move ratio a resized step aims at
MIN_SHRINK = 0.1  # the least factor a move rejection scales h by
MAX_GROWTH = 2  # the most an accepted step grows h by
ROTATION_STEP = 0.0737
MAX_ROTATIONS = 8

MAX_TURNS = 100  # turns of a circle loop, either way
SAMPLES_PER_TURN = 48  # vertices per turn of a circle loop
STAR_SAMPLES = 32  # vertices on each circle of a star basis
STAR_RADIUS_FACTOR = 0.2  # star-basis circle radius over the nearest distance


class TrackingError(RuntimeError):
    """Continuation failed; the message names the parameter region."""


@dataclasses.dataclass(frozen=True)
class Crossing:
    index: int  # 1-based adjacent-rank generator index
    sign: int
    time: float


@dataclasses.dataclass(frozen=True)
class BraidTrace:
    crossings: tuple[Crossing, ...]
    final_matching: tuple[int, ...]  # start rank -> end rank, 0-based; one per strand
    projection_angle: float
    rotations: int

    def to_json(self) -> dict:
        return {
            "strand_count": len(self.final_matching),
            "crossings": [[c.index, c.sign, c.time] for c in self.crossings],
            "final_matching": list(self.final_matching),
            "projection_angle": self.projection_angle,
            "word": loop_to_braid(self).to_json(),
        }


def loop_to_braid(trace: BraidTrace) -> BraidWord:
    """The braid word read off a trace: crossings in time order."""
    return BraidWord(len(trace.final_matching), tuple(c.sign * c.index for c in trace.crossings))


def _rank_order(rotated: list[complex]) -> list[int]:
    """Indices of the rotated points by real part, imaginary part breaking ties."""
    return sorted(range(len(rotated)), key=lambda j: (rotated[j].real, rotated[j].imag))


def _aligned(points: list[complex], rotated: list[complex], order: list[int]) -> bool:
    """Whether two points adjacent in rank ``order`` are vertically aligned."""
    scale = max(1.0, *map(abs, points))
    return any(
        abs(rotated[a].real - rotated[b].real) < 1e-7 * scale
        for a, b in zip(order, order[1:])
    )


def _step(
    coeffs: list[complex], roots: list[complex], guess: list[complex], gap: float,
    rot: complex, ranks: list[int],
) -> tuple[tuple[list[complex], list[complex], float, list[int]] | None, float | None]:
    """One trial, Newton starting from ``guess``: the corrected roots,
    their rotation, their smallest gap and the adjacent rank swaps from
    ``ranks``, or None if it is rejected; and beside it the move ratio
    max move / (gap/4) from ``roots``, or None if the trial was rejected
    for another reason than its move."""
    try:
        new_roots = refine_roots(coeffs, guess)
    except DegenerateConfigurationError:
        return None, None
    move = max(abs(a - b) for a, b in zip(new_roots, roots))
    ratio = move / (gap / 4)
    if move > gap / 4:
        return None, ratio
    new_gap = min_pairwise_distance(new_roots)
    if new_gap < COLLISION_TOL:
        return None, None
    new_rotated = [z * rot for z in new_roots]
    swaps = _adjacent_swaps(ranks, _rank_order(new_rotated))
    if swaps is None:
        return None, None
    return (new_roots, new_rotated, new_gap, swaps), ratio


def _certified(row: list[complex], roots: list[complex], new_roots: list[complex],
               gap: float, new_gap: float, f: float) -> bool:
    """Whether inclusion discs certify the coefficients ``row`` from the
    roots interpolated at fraction ``f`` of an accepted step, from
    ``roots`` (smallest gap ``gap``) to ``new_roots`` (``new_gap``), or
    else from those less their Weierstrass corrections: each disc holds
    one of its roots, and every two discs are at least ``COLLISION_TOL``
    apart."""
    if len(row) != len(roots) + 1:
        return False
    z = [a + (b - a) * f for a, b in zip(roots, new_roots)]
    # every root moved at most gap/4, which bounds each pair of z from below
    apart = max(gap * (1 - f / 2), new_gap - (1 - f) * gap / 2)
    try:
        for _ in range(2):  # at z, then at z less its corrections
            w = _corrections(row, z)
            sizes = [abs(c) for c in w]
            if all(len(z) * r <= (apart - COLLISION_TOL) / 2 for r in sizes):
                return True
            apart -= 2 * max(sizes)  # each point moves by its correction
            z = [x - c for x, c in zip(z, w)]
    except ArithmeticError:  # a product overflowed or vanished
        pass
    return False


def _track_once(
    coeff_fn: Callable[[float], Sequence], start: list[complex], gap: float, angle: float,
    rows: Sequence[list[complex]], check: Callable[[int], object] | None,
) -> tuple[list[Crossing], list[int]] | None:
    """The crossings of one trace from the roots ``start`` (smallest gap
    ``gap``) projected at ``angle``, and ``ranks``: ranks[r] is the strand
    that ends at rank r.  None if two points stay vertically aligned.
    Each accepted step certifies the vertices of ``rows`` it passes, or
    calls ``check`` on them (``_track``)."""
    rot = cmath.exp(-1j * angle)
    rotated = [z * rot for z in start]
    order = _rank_order(rotated)
    # strand j = start rank j
    roots, rotated = [start[j] for j in order], [rotated[j] for j in order]
    m = len(roots)

    # ranks[r] = strand currently at rank r; it is always the rank order of
    # the current roots
    ranks = list(range(m))
    if _aligned(roots, rotated, ranks):
        return None

    crossings: list[Crossing] = []
    s = 0.0
    h = INITIAL_STEP
    steps = 0
    prev_roots, h_prev = roots, 0.0  # the last accepted step: its start and length
    vertex = 1  # the next vertex to certify; vertex 0 is the start

    while s < 1.0 - 1e-15:
        steps += 1
        if steps > MAX_STEPS:
            raise TrackingError(f"step budget exhausted near parameter time {s:.6f}")
        h = min(h, 1.0 - s)
        trial = s + h

        coeffs = coeff_fn(trial)
        try:
            coeffs = _solvable(coeffs)
        except (ValueError, DegenerateConfigurationError):
            if not all(map(cmath.isfinite, coeffs)):
                raise TrackingError(
                    f"branch coefficients are not finite near parameter time {trial:.6f}"
                ) from None
            coeffs = None
        if coeffs is None or len(coeffs) - 1 != m:
            raise TrackingError(
                f"branch polynomial degree dropped near parameter time {trial:.6f}"
            )
        guess = ([z + (z - p) * (h / h_prev) for z, p in zip(roots, prev_roots)]
                 if h_prev else roots)
        step, ratio = _step(coeffs, roots, guess, gap, rot, ranks)
        if step is None:
            h = h / 2 if ratio is None else h * max(MIN_SHRINK, TARGET_RATIO / ratio)
            if h < MIN_STEP:
                raise TrackingError(
                    f"step underflow near parameter time {s:.6f}: "
                    "the path runs too close to a degeneration"
                )
            continue

        new_roots, new_rotated, new_gap, swaps = step
        if (not swaps and _aligned(new_roots, new_rotated, ranks)
                and _aligned(roots, rotated, ranks)):
            return None
        for r in swaps:
            strand_low, strand_high = ranks[r], ranks[r + 1]
            crossings.append(_emit(r, strand_low, strand_high, roots, new_roots, rot, s, h))
            ranks[r], ranks[r + 1] = ranks[r + 1], ranks[r]
        while vertex < len(rows) and vertex / len(rows) <= trial:
            f = (vertex / len(rows) - s) / h
            if not _certified(rows[vertex], roots, new_roots, gap, new_gap, f):
                check(vertex)
            vertex += 1

        prev_roots, h_prev = roots, h
        roots, rotated, gap = new_roots, new_rotated, new_gap
        s = trial
        growth = MAX_GROWTH if ratio == 0 else min(MAX_GROWTH, max(1, TARGET_RATIO / ratio))
        h = min(h * growth, MAX_STEP)

    return crossings, ranks


def _adjacent_swaps(old: list[int], new: list[int]) -> list[int] | None:
    """If new rank order differs from old by disjoint adjacent swaps,
    return the swap positions ascending, else None."""
    m = len(old)
    swaps = []
    r = 0
    while r < m:
        if old[r] == new[r]:
            r += 1
            continue
        if r + 1 < m and old[r] == new[r + 1] and old[r + 1] == new[r]:
            swaps.append(r)
            r += 2
            continue
        return None
    return swaps


def _emit(
    r: int,
    strand_low: int,
    strand_high: int,
    roots: list[complex],
    new_roots: list[complex],
    rot: complex,
    s: float,
    h: float,
) -> Crossing:
    a0, a1 = roots[strand_low] * rot, new_roots[strand_low] * rot
    b0, b1 = roots[strand_high] * rot, new_roots[strand_high] * rot
    d0 = b0.real - a0.real
    d1 = b1.real - a1.real
    denom = d0 - d1
    frac = 0.5 if abs(denom) < 1e-300 else min(max(d0 / denom, 0.0), 1.0)
    ya = a0.imag + frac * (a1.imag - a0.imag)
    yb = b0.imag + frac * (b1.imag - b0.imag)
    # strand_low moves up in rank; below the other strand means positive
    sign = 1 if ya < yb else -1
    return Crossing(index=r + 1, sign=sign, time=s + frac * h)


def track_coefficients(coeff_fn: Callable[[float], Sequence]) -> BraidTrace:
    """Track the root set of coeff_fn(s), coefficients low to high as a
    sequence of numbers, for s in [0, 1] from projection angle 0.
    Coefficients with no root at s = 0 raise ValueError."""
    return _track(coeff_fn, (), None)


def _track(coeff_fn: Callable[[float], Sequence], rows: Sequence[list[complex]],
           check: Callable[[int], object] | None) -> BraidTrace:
    """``track_coefficients``, certifying on the way the vertices of a
    loop of len(rows) segments: vertex i has the coefficients rows[i] at
    time i / len(rows).  Vertex 0 is the start, which is solved; any other
    vertex the inclusion discs of the step that passes it cannot certify
    is handed to ``check(i)``, which raises if it fails."""
    start = solve_roots(coeff_fn(0.0))
    if not start:
        raise ValueError("the coefficients have no roots at s = 0: there is nothing to track")
    gap = min_pairwise_distance(start)
    if gap < COLLISION_TOL:
        raise DegenerateConfigurationError("start configuration is degenerate")
    angle = 0.0
    for rotations in range(MAX_ROTATIONS + 1):
        tracked = _track_once(coeff_fn, start, gap, angle, rows, check)
        if tracked is not None:
            break
        angle += ROTATION_STEP
    else:
        raise TrackingError("projection rotation limit exceeded; points remain aligned")
    crossings, ranks = tracked
    return BraidTrace(
        crossings=tuple(crossings),
        final_matching=pinv(ranks),
        projection_angle=angle,
        rotations=rotations,
    )


# ---------------------------------------------------------------------------
# Parameter loops and x-paths


@dataclasses.dataclass(frozen=True)
class ParameterLoop:
    """A piecewise-linear closed path in parameter space."""

    points: tuple[dict[str, complex], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a loop needs at least two vertices")
        if self.points[0] != self.points[-1]:
            raise ValueError("loop is not closed: first and last vertices differ")
        first = self.points[0].keys()
        for idx, point in enumerate(self.points):
            if point.keys() != first:
                raise ValueError(
                    f"every loop vertex must name the same parameters: vertex {idx} "
                    f"names {sorted(point)}, vertex 0 names {sorted(first)}"
                )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.points[0].keys())

    def at(self, s: float) -> dict[str, complex]:
        return _interp_path(self.points, s)

    @staticmethod
    def circle(
        param: str,
        center: complex,
        radius: float,
        turns: int = 1,
        fixed: dict[str, complex] | None = None,
        start_angle: float = 0.0,
    ) -> "ParameterLoop":
        """``turns`` times round the circle in ``param`` (clockwise when
        negative), the other parameters held at ``fixed``."""
        if not (isinstance(turns, int) and not isinstance(turns, bool)
                and 0 < abs(turns) <= MAX_TURNS):
            raise ValueError(
                f"circle loop turns must be a nonzero integer from -{MAX_TURNS} "
                f"to {MAX_TURNS}, got {turns!r:.40}"
            )
        fixed = dict(fixed or {})
        circle = circle_path(center, radius, start_angle, turns, SAMPLES_PER_TURN)
        pts = [{**fixed, param: z} for z in circle]
        pts[-1] = pts[0]
        return ParameterLoop(tuple(pts))

    @staticmethod
    def polyline(points: Sequence[dict[str, complex]]) -> "ParameterLoop":
        return ParameterLoop(tuple(dict(p) for p in points))

    def to_json(self) -> list[dict]:
        return [
            {name: [v.real, v.imag] for name, v in pt.items()}
            for pt in [
                {k: complex(v) for k, v in point.items()} for point in self.points
            ]
        ]


def _interp_path(points: Sequence, s: float):
    """The point at time s of the polyline through ``points``: parameter
    dicts, lists of Python complex numbers or numbers; every entry is
    p0 * (1 - frac) + p1 * frac along its segment."""
    s = min(max(s, 0.0), 1.0)
    segments = len(points) - 1
    pos = s * segments
    idx = min(int(pos), segments - 1)
    frac = pos - idx
    p0, p1 = points[idx], points[idx + 1]
    if isinstance(p0, dict):
        return {
            name: complex(p0[name]) * (1 - frac) + complex(p1[name]) * frac
            for name in p0
        }
    if isinstance(p0, list):
        return [a * (1 - frac) + b * frac for a, b in zip(p0, p1)]
    return complex(p0) * (1 - frac) + complex(p1) * frac


def track_loop(family: WeierstrassFamily, loop: ParameterLoop) -> BraidTrace:
    """Track the branch points of the family along a closed parameter loop.
    Every vertex must stay clear of the degeneration locus: its branch
    points pairwise at least ``COLLISION_TOL`` apart.  The loop may name
    only the family's parameters."""
    family.check_names(loop.names, "the loop")
    vertices = loop.points[:-1]  # the last vertex is the first
    try:  # each vertex's values in order, its solvable branch row, and the trace
        values = [[complex(point[name]) for name in family.params] for point in loop.points]
        rows = [_solvable(family.branch_coeffs_of(v)) for v in values[:-1]]
        return _track(lambda s: family.branch_coeffs_of(_interp_path(values, s)), rows,
                      lambda i: branch_roots(family, [vertices[i]]))
    except Exception:  # a failing vertex raises before the trace's own error
        branch_roots(family, vertices)
        raise


def fiber_monodromy(
    family: WeierstrassFamily,
    t: dict[str, complex],
    path: Sequence[complex],
) -> tuple[tuple[int, ...], BraidWord]:
    """Endpoint matching and braid word of the fiber roots in y along a
    path in the x-plane."""
    vertices = [complex(z) for z in path]
    if len(vertices) < 2:
        raise ValueError("a path needs at least two vertices")

    def coeff_fn(s: float) -> list[complex]:
        return family.fiber_coeffs(_interp_path(vertices, s), t)

    trace = track_coefficients(coeff_fn)
    return trace.final_matching, loop_to_braid(trace)


# ---------------------------------------------------------------------------
# Geometric bases of loops around branch points


def circle_path(
    center: complex, radius: float, start_angle: float, turns: float, samples: int
) -> list[complex]:
    """Points of the circle from ``start_angle``, ``samples`` per turn;
    the last point closes the circle up to rounding."""
    count = int(samples * abs(turns))
    thetas = (start_angle + 2 * math.pi * turns * j / count for j in range(count + 1))
    return [center + radius * complex(math.cos(t), math.sin(t)) for t in thetas]


def evenly_spaced(start: float, stop: float, count: int) -> list[float]:
    """``count`` >= 2 values from ``start`` to ``stop`` by numpy's ``linspace``
    formula: i * step + start, and the last value ``stop`` itself."""
    step = (stop - start) / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def lasso(approach: list, center: complex, radius: float, samples: int,
          param: str | None) -> list:
    """The closed path out along ``approach``, once positively round the
    circle of ``radius`` about ``center`` in ``samples`` steps from the
    angle where the approach ends, and back along the approach.  With a
    ``param``, the vertices are parameter points and the circle runs in
    ``param`` with the other parameters held at the approach's end."""
    end = approach[-1]
    z = end if param is None else end[param]
    circle = circle_path(center, radius, cmath.phase(z - center), 1, samples)
    if param is not None:
        circle = [{**end, param: w} for w in circle]
    return approach + circle[1:] + approach[::-1][1:]


def loop_around(target: complex, base: complex, radius: float) -> list[complex]:
    """Radial approach from base, a positive circle around target, return;
    ``radius`` must be less than the distance from base to target."""
    direction = target - base
    dist = abs(direction)
    entry = target - radius * direction / dist
    approach_steps = max(2, int(8 * dist / max(radius, 1e-9)) // 4)
    approach = [base + (entry - base) * j / approach_steps for j in range(approach_steps)]
    return lasso(approach + [entry], target, radius, STAR_SAMPLES, None)


def star_basis(points: Sequence[complex]) -> list[list[complex]]:
    """Disjoint positive loops around each point, ordered so that their
    product is the boundary class of a large disc.

    The base sits at a small positive offset into the sector between the
    rays of the last and the first point; a configuration containing 0
    puts it on a point, which raises.
    """
    pts = [complex(z) for z in points]
    if len(pts) == 1:
        base = pts[0] - 0.5 * max(1.0, abs(pts[0]))
    else:
        a_first = math.atan2(pts[0].imag, pts[0].real) % (2 * math.pi)
        a_last = math.atan2(pts[-1].imag, pts[-1].real) % (2 * math.pi)
        if a_last <= a_first:
            a_last += 2 * math.pi
        # halfway through the empty sector from the last ray around to the
        # first ray
        mid = (a_last + a_first + 2 * math.pi) / 2
        scale = min(abs(z) for z in pts)
        base = 0.15 * scale * complex(math.cos(mid), math.sin(mid))
    if any(abs(z - base) < 1e-12 for z in pts):
        raise ValueError("base point collides with a configuration point")
    loops = []
    for z in pts:
        others = [abs(z - w) for w in pts if w != z]
        reach = min(others) if others else 2 * abs(z - base)
        radius = STAR_RADIUS_FACTOR * min(reach, abs(z - base))
        loops.append(loop_around(z, base, radius))
    return loops
