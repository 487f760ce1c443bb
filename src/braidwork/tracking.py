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

The move bound makes the predicted-to-corrected matching unambiguous
without a test of its own: a root moved by at most gap/4 lies at least
3/4 gap from every other root's prediction, more than twice its move.

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

Each trial evaluates the branch polynomial, its residual scale and its
derivative with ``families.refine_roots``, in one stacked Horner pass per
Newton iteration that keeps numpy ``polyval``'s operation order for each
of the three, and reuses the corrected roots' smallest gap as the next
step's move bound; a trace's roots, crossing times and words are bit for
bit those of the numpy.polynomial calls.  The polynomials are small, so a
trial costs its count of numpy calls more than its arithmetic.  A trial
makes one ``refine_roots`` call, whose Newton iterations each take one
Horner pass and one ``np.maximum.reduce`` convergence test, and, when they
step, one ``np.abs`` and one ``np.fmin.reduce`` critical-point test; the
solvable-row rule and the move bound take one ``np.abs`` and one
``np.maximum.reduce`` each, and ``min_pairwise_distance`` one subtraction,
``np.abs`` and ``np.minimum.reduce``.  Ranks and alignment are read from
the rotated roots' ``tolist()`` values in plain Python, which compares
the same floats.

A loop may name only the family's parameters, and its vertices are
checked before tracking, all in one ``families.branch_roots`` call: one
stacked solve, whose roots are bit for bit those of one ``solve_roots``
call per vertex.  The stacked solve tests every vertex's companion roots
in one Horner pass and polishes only a vertex whose roots fail it, with
``families``' own binding of ``refine_roots``; this module's binding is
called by the trials alone, once per trial.  The check's solvable-row
test runs once for all vertices of one coefficient length, and its
collision test once for all vertices of one root count.

Traces share no state.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .families import (
    COLLISION_TOL,
    DegenerateConfigurationError,
    WeierstrassFamily,
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


def _aligned(points: np.ndarray, rotated: list[complex], order: list[int]) -> bool:
    """Whether two points adjacent in rank ``order`` are vertically aligned."""
    scale = max(1.0, float(np.maximum.reduce(np.abs(points))))
    return any(
        abs(rotated[a].real - rotated[b].real) < 1e-7 * scale
        for a, b in zip(order, order[1:])
    )


def _step(
    coeffs: np.ndarray, roots: np.ndarray, gap: float, rot: complex, ranks: list[int]
) -> tuple[tuple[np.ndarray, list[complex], float, list[int]] | None, float | None]:
    """One trial: the corrected roots, their rotation (as Python complex
    numbers), their smallest gap and the adjacent rank swaps from
    ``ranks``, or None if it is rejected; and beside it the move ratio
    max move / (gap/4), or None if the trial was rejected for another
    reason than its move."""
    try:
        new_roots = refine_roots(coeffs, roots)
    except DegenerateConfigurationError:
        return None, None
    move = np.maximum.reduce(np.abs(new_roots - roots))
    ratio = float(move) / (gap / 4)
    if move > gap / 4:
        return None, ratio
    new_gap = min_pairwise_distance(new_roots)
    if new_gap < COLLISION_TOL:
        return None, None
    new_rotated = (new_roots * rot).tolist()
    swaps = _adjacent_swaps(ranks, _rank_order(new_rotated))
    if swaps is None:
        return None, None
    return (new_roots, new_rotated, new_gap, swaps), ratio


def _track_once(
    coeff_fn: Callable[[float], np.ndarray], start: np.ndarray, gap: float, angle: float
) -> tuple[list[Crossing], list[int]] | None:
    """The crossings of one trace from the roots ``start`` (smallest gap
    ``gap``) projected at ``angle``, and ``ranks``: ranks[r] is the strand
    that ends at rank r.  None if two points stay vertically aligned."""
    rot = np.exp(-1j * angle)
    rotated = (start * rot).tolist()
    order = _rank_order(rotated)
    roots, rotated = start[order], [rotated[j] for j in order]  # strand j = start rank j
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
            if not np.isfinite(coeffs).all():
                raise TrackingError(
                    f"branch coefficients are not finite near parameter time {trial:.6f}"
                ) from None
            coeffs = None
        if coeffs is None or len(coeffs) - 1 != m:
            raise TrackingError(
                f"branch polynomial degree dropped near parameter time {trial:.6f}"
            )
        step, ratio = _step(coeffs, roots, gap, rot, ranks)
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
    roots: np.ndarray,
    new_roots: np.ndarray,
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


def track_coefficients(coeff_fn: Callable[[float], np.ndarray]) -> BraidTrace:
    """Track the root set of coeff_fn(s) for s in [0, 1] from projection
    angle 0.  Coefficients with no root at s = 0 raise ValueError."""
    start = solve_roots(np.asarray(coeff_fn(0.0), dtype=complex))
    if not len(start):
        raise ValueError("the coefficients have no roots at s = 0: there is nothing to track")
    gap = min_pairwise_distance(start)
    if gap < COLLISION_TOL:
        raise DegenerateConfigurationError("start configuration is degenerate")
    angle = 0.0
    for rotations in range(MAX_ROTATIONS + 1):
        tracked = _track_once(coeff_fn, start, gap, angle)
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
    return complex(p0) * (1 - frac) + complex(p1) * frac


def track_loop(family: WeierstrassFamily, loop: ParameterLoop) -> BraidTrace:
    """Track the branch points of the family along a closed parameter loop.
    Every vertex must stay clear of the degeneration locus: its branch
    points pairwise at least ``COLLISION_TOL`` apart.  The loop may name
    only the family's parameters."""
    family.check_names(loop.names, "the loop")
    branch_roots(family, loop.points[:-1])  # the last vertex is the first

    def coeff_fn(s: float) -> np.ndarray:
        return family.branch_coeffs(loop.at(s))

    return track_coefficients(coeff_fn)


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

    def coeff_fn(s: float) -> np.ndarray:
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
