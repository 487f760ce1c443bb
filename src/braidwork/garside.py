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

The coordinates live in two lists, x and y, indexed from 1 by |letter|.
A letter reads and writes four entries, x_i, y_i, x_(i+1) and y_(i+1),
and spends two sign tests on the y's, one on z and at most two more on
the clamped terms, and about ten integer additions: the same step at any
strand count, with no index arithmetic and no tuple built per letter.

Garside normal forms, which also decide equality, are the tests' oracle
for `equal`; no module of the package builds one.

Everything here is a pure function of immutable values and safe for
unrestricted concurrent use.
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

    Each sign of the letter has its update written out, split on the sign
    of z.  For sigma_i with z <= 0, y_(i+1)+ - z >= 0 and y_i- + z <= 0,
    so neither needs its clamp; likewise for sigma_i^-1 with z >= 0.

    Two words on n strands are the same braid exactly when their
    coordinates are equal: the action is faithful, and the stabiliser of
    (0, 1)^n is trivial (see the module docstring).
    """
    n = w.n
    x = [0] * (n + 1)
    y = [1] * (n + 1)
    for i in w.letters:
        if i > 0:
            j = i + 1
            x1 = x[i]
            y1 = y[i]
            x2 = x[j]
            y2 = y[j]
            if y1 > 0:
                y1p = y1
                y1m = 0
            else:
                y1p = 0
                y1m = y1
            if y2 > 0:
                y2p = y2
                y2m = 0
            else:
                y2p = 0
                y2m = y2
            z = x1 - y1m - x2 + y2p
            if z > 0:
                a = y2p - z
                b = y1m + z
                x[i] = x1 + y1p + a if a > 0 else x1 + y1p
                y[i] = y2 - z
                x[j] = x2 + y2m + b if b < 0 else x2 + y2m
                y[j] = y1 + z
            else:
                x[i] = x1 + y1p + y2p - z
                y[i] = y2
                x[j] = x2 + y2m + y1m + z
                y[j] = y1
        else:
            i = -i
            j = i + 1
            x1 = x[i]
            y1 = y[i]
            x2 = x[j]
            y2 = y[j]
            if y1 > 0:
                y1p = y1
                y1m = 0
            else:
                y1p = 0
                y1m = y1
            if y2 > 0:
                y2p = y2
                y2m = 0
            else:
                y2p = 0
                y2m = y2
            z = x1 + y1m - x2 - y2p
            if z < 0:
                a = y2p + z
                b = y1m - z
                x[i] = x1 - y1p - a if a > 0 else x1 - y1p
                y[i] = y2 + z
                x[j] = x2 - y2m - b if b < 0 else x2 - y2m
                y[j] = y1 - z
            else:
                x[i] = x1 - y1p - y2p - z
                y[i] = y2
                x[j] = x2 - y2m - y1m + z
                y[j] = y1
    c = [0] * (2 * n)
    c[0::2] = x[1:]
    c[1::2] = y[1:]
    return tuple(c)


def equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words represent the same element of Br_n: the same
    letters, or the same Dynnikov coordinates (the module docstring gives
    the faithfulness statement this relies on)."""
    if u.n != v.n:
        raise ValueError(f"strand-count mismatch: {u.n} vs {v.n}")
    return u.letters == v.letters or dynnikov(u) == dynnikov(v)
