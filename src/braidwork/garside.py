"""The braid word problem for Br_n, decided by Dynnikov coordinates.

Equality is decided by `dynnikov`, the piecewise-linear action of Br_n on
Z^(2n) (Dynnikov, On a Yang-Baxter map and the Dehornoy ordering, Russian
Math. Surveys 57, 2002).  The decision rests on one statement
(Dehornoy, Dynnikov, Rolfsen and Wiest, Ordering Braids, AMS Math.
Surveys and Monographs 148, 2008, ch. XII; Dehornoy, Efficient solutions
to the braid isotopy problem, Discrete Appl. Math. 156, 2008): a braid of
Br_n is trivial if and only if it fixes (0, 1, 0, 1, ..., 0, 1), the
coordinates of the trivial lamination.  As the letters act on the right,
(0, 1)^n . u = (0, 1)^n . v exactly when u v^-1 fixes that point, so two
words are equal exactly when their coordinates are.  That decides
`equal`, and keys the class set of `catalog.half_twist_classification`
and the band lookup of `bifurcation.bifurcation_generators`.  A word of
length L costs O(L) integer steps on integers of O(L) bits.

Garside normal forms, which also decide equality, are the tests' oracle
for `equal`; no module of the package builds one.

Everything here is a pure function of immutable values and safe for
unrestricted concurrent use.  A letter's coordinate step costs the same
at any strand count.
"""

from __future__ import annotations

from .words import BraidWord


def dynnikov(w: BraidWord) -> tuple[int, ...]:
    """The Dynnikov coordinates (x_1, y_1, ..., x_n, y_n) of the trivial
    lamination (0, 1)^n acted on by the letters of w, left to right.

    Write a+ = max(a, 0) and a- = min(a, 0).  A letter sigma_i^(+-1)
    changes only (x_i, y_i, x_(i+1), y_(i+1)), and every right-hand side
    reads the old values:

    sigma_i:    z = x_i - y_i- - x_(i+1) + y_(i+1)+,
                x_i <- x_i + y_i+ + (y_(i+1)+ - z)+,  y_i <- y_(i+1) - z+,
                x_(i+1) <- x_(i+1) + y_(i+1)- + (y_i- + z)-,  y_(i+1) <- y_i + z+;
    sigma_i^-1: z = x_i + y_i- - x_(i+1) - y_(i+1)+,
                x_i <- x_i - y_i+ - (y_(i+1)+ + z)+,  y_i <- y_(i+1) + z-,
                x_(i+1) <- x_(i+1) - y_(i+1)- - (y_i- - z)-,  y_(i+1) <- y_i - z-.

    Two words on n strands are the same braid exactly when their
    coordinates are equal: the action is faithful, and the stabiliser of
    (0, 1)^n is trivial (see the module docstring).
    """
    c = [0, 1] * w.n
    for letter in w.letters:
        k = 2 * abs(letter) - 2
        x1, y1, x2, y2 = c[k], c[k + 1], c[k + 2], c[k + 3]
        y1p, y1m = (y1, 0) if y1 > 0 else (0, y1)
        y2p, y2m = (y2, 0) if y2 > 0 else (0, y2)
        if letter > 0:
            z = x1 - y1m - x2 + y2p
            zp = z if z > 0 else 0
            a, b = y2p - z, y1m + z
            c[k] = x1 + y1p + (a if a > 0 else 0)
            c[k + 1] = y2 - zp
            c[k + 2] = x2 + y2m + (b if b < 0 else 0)
            c[k + 3] = y1 + zp
        else:
            z = x1 + y1m - x2 - y2p
            zm = z if z < 0 else 0
            a, b = y2p + z, y1m - z
            c[k] = x1 - y1p - (a if a > 0 else 0)
            c[k + 1] = y2 + zm
            c[k + 2] = x2 - y2m - (b if b < 0 else 0)
            c[k + 3] = y1 - zm
    return tuple(c)


def equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words represent the same element of Br_n: the same
    letters, or the same Dynnikov coordinates (the module docstring gives
    the faithfulness statement this relies on)."""
    if u.n != v.n:
        raise ValueError(f"strand-count mismatch: {u.n} vs {v.n}")
    return u.letters == v.letters or dynnikov(u) == dynnikov(v)
