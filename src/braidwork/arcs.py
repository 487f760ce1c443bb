"""Admissibility of arcs between branch points.

An arc between two branch points is tested by computing the fiber
monodromy of small positive loops around each endpoint, both based at the
midpoint of the arc and approached along the arc itself.  The arc is
permutation-admissible when the two endpoint monodromies give the same
transposition of fiber sheets, and braid-admissible when they give the
same fiber braid; braid admissibility implies permutation admissibility.

The arc's interior must keep more than 0.45 of the smallest branch-point
gap from both endpoints at its midpoint, and each endpoint circle's
radius is at most 0.2 of that gap, so walking inwards from an endpoint
the arc leaves its circle by the midpoint at the latest.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .families import WeierstrassFamily, branch_points
from .garside import equal
from .tracking import fiber_monodromy, lasso
from .words import BraidWord

CHORD_SAMPLES = 16  # segments of a chord
APPROACH_SAMPLES = 24  # segments from the arc midpoint to an endpoint circle
ENDPOINT_SAMPLES = 48  # vertices on an endpoint circle
RADIUS_FACTOR = 0.2  # endpoint circle radius over the nearest distance


class ArcError(ValueError):
    """The arc violates an admissibility precondition."""


@dataclasses.dataclass(frozen=True)
class AdmissibilityReport:
    coxeter: bool
    artin: bool
    start_label: int
    end_label: int
    start_matching: tuple[int, ...]
    end_matching: tuple[int, ...]
    start_word: BraidWord
    end_word: BraidWord

    def to_json(self) -> dict:
        return {
            "coxeter": self.coxeter,
            "artin": self.artin,
            "endpoints": [self.start_label, self.end_label],
            "start_matching": list(self.start_matching),
            "end_matching": list(self.end_matching),
            "start_word": self.start_word.to_json(),
            "end_word": self.end_word.to_json(),
        }


def _cumulative(vertices: list[complex]) -> list[float]:
    acc = [0.0]
    for a, b in zip(vertices, vertices[1:]):
        acc.append(acc[-1] + abs(b - a))
    return acc


def _point_at(vertices: list[complex], lengths: list[float], s: float) -> complex:
    target = s * lengths[-1]
    for k in range(len(vertices) - 1):
        if lengths[k + 1] >= target - 1e-15:
            seg = lengths[k + 1] - lengths[k]
            frac = 0.0 if seg == 0 else (target - lengths[k]) / seg
            return vertices[k] + frac * (vertices[k + 1] - vertices[k])
    return vertices[-1]


def _resample(vertices: list[complex], lengths: list[float],
              s0: float, s1: float) -> list[complex]:
    return [
        _point_at(vertices, lengths, s0 + (s1 - s0) * j / APPROACH_SAMPLES)
        for j in range(APPROACH_SAMPLES + 1)
    ]


def chord(a: complex, b: complex) -> list[complex]:
    return [a + (b - a) * j / CHORD_SAMPLES for j in range(CHORD_SAMPLES + 1)]


def admissible(
    family: WeierstrassFamily,
    t: dict[str, complex],
    arc: Sequence[complex],
) -> AdmissibilityReport:
    """Decide permutation- and braid-admissibility of an embedded arc
    whose endpoints are branch points of the family at parameter t, which
    may name only the family's parameters."""
    family.check_names(t, "the parameter point")
    vertices = [complex(z) for z in arc]
    if len(vertices) < 2:
        raise ArcError("arc needs at least two vertices")
    cfg = branch_points(family, t)
    gap = cfg.min_gap()

    def nearest_label(z: complex) -> int:
        dists = [abs(z - p) for p in cfg.points]
        label = dists.index(min(dists)) + 1
        if dists[label - 1] > 0.05 * gap:
            raise ArcError(f"arc endpoint {z} is not a branch point")
        return label

    label_a = nearest_label(vertices[0])
    label_b = nearest_label(vertices[-1])
    if label_a == label_b:
        raise ArcError("arc endpoints coincide")
    point_a, point_b = cfg.point(label_a), cfg.point(label_b)

    # the endpoints lie within 0.05 gap of distinct branch points, so
    # lengths[-1] >= 0.9 gap > 0
    lengths = _cumulative(vertices)

    # interior must stay clear of the branch set away from its endpoints
    for j in range(257):
        s = j / 256
        z = _point_at(vertices, lengths, s)
        for label, p in enumerate(cfg.points, start=1):
            d = abs(z - p)
            if label == label_a:
                allowed = d > 0.45 * gap or s < 0.5
            elif label == label_b:
                allowed = d > 0.45 * gap or s > 0.5
            else:
                allowed = d > 0.2 * gap
            if not allowed:
                raise ArcError(
                    f"arc interior passes within {d:.3g} of branch point x_{label}"
                )

    # walking inwards from an endpoint, the arc leaves its circle at some
    # s = j/512, where the approach of the endpoint's loop ends exactly
    exits, loops = [], []
    for point, far_end, span in ((point_a, vertices[-1], range(513)),
                                 (point_b, vertices[0], range(512, -1, -1))):
        radius = RADIUS_FACTOR * min(gap, abs(point - far_end))
        exits.append(next(j / 512 for j in span
                          if abs(_point_at(vertices, lengths, j / 512) - point) >= radius))
        approach = _resample(vertices, lengths, 0.5, exits[-1])
        loops.append(lasso(approach, point, radius, ENDPOINT_SAMPLES, None))
    if not exits[0] < 0.5 < exits[1]:
        raise ArcError("endpoint circles overlap the arc midpoint")

    matching_a, word_a = fiber_monodromy(family, t, loops[0])
    matching_b, word_b = fiber_monodromy(family, t, loops[1])

    coxeter = matching_a == matching_b
    artin = coxeter and equal(word_a, word_b)
    return AdmissibilityReport(
        coxeter=coxeter,
        artin=artin,
        start_label=label_a,
        end_label=label_b,
        start_matching=matching_a,
        end_matching=matching_b,
        start_word=word_a,
        end_word=word_b,
    )
