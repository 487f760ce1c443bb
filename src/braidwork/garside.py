"""The braid word problem, and left-greedy Garside normal forms for Br_n.

Normal forms spell; Dynnikov coordinates decide.

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

Every braid is written as Delta^d f_1 ... f_k where Delta is the positive
half twist, d is an integer (the infimum) and the f_i are permutation
braids, none equal to the identity or to Delta, such that each adjacent
pair is left-weighted: no starting letter of f_{i+1} can be absorbed into
f_i.  Two words represent the same element of Br_n exactly when they have
identical normal forms, so Garside stays the tests' oracle for `equal`.
Normal forms give the canonical spelling behind `groups.Artin3.render`
and `to_json`, and nothing else in the package builds one.  Normal forms
are not multiplied or inverted; words are composed, and then normalized.

Permutation braids are stored as the permutations of `words`: plain
tuples ``p`` of 0-based images, multiplied by `words.pmul` in writing
order.

Normal forms are built from same-sign runs of letters: each run is cut,
left to right, into maximal segments that spell permutation braids
(ElRifai and Morton, Algorithms for positive braids, 1994).  Each such
simple factor is appended to a left-weighted list, and one right-to-left
sweep restores left-weightedness.  Nothing is cached, and nothing is
precomputed over S_n x S_n.

Everything here is a pure function of immutable values and safe for
unrestricted concurrent use.  Normal forms are designed for the small
strand counts (n <= 8) this package needs; a letter's coordinate step
costs the same at any strand count.
"""

from __future__ import annotations

import dataclasses

from .words import BraidWord, Perm, letter_perm, pinv, pmul, reduce_free


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def longest_perm(n: int) -> Perm:
    """The permutation of the half twist Delta: full reversal."""
    return tuple(range(n - 1, -1, -1))


def left_descents(p: Perm) -> frozenset[int]:
    """Indices i (1-based) with p = sigma_i * rest for a permutation braid p."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def right_descents(p: Perm) -> frozenset[int]:
    return left_descents(pinv(p))


def perm_word(p: Perm) -> tuple[int, ...]:
    """The shortlex-minimal positive word spelling the permutation braid p."""
    n = len(p)
    out: list[int] = []
    while True:
        descents = left_descents(p)
        if not descents:
            return tuple(out)
        s = min(descents)
        out.append(s)
        t = letter_perm(n, s)
        p = pmul(t, p)


def _leftweight(x: Perm, y: Perm) -> tuple[Perm, Perm]:
    """Left-weight the pair (x, y): move the left meet of y and x^-1 Delta into x.

    Slides sigma_i from the front of y to the back of x while i is a left
    descent of y and not a right descent of x.  A slide swaps two entries of
    x and of y and updates x's inverse; the scan then steps back one index,
    the only place where a new slide can open.  The moved prefix is unique,
    so the order of the slides does not change the result.
    """
    n = len(x)
    xs, ys = list(x), list(y)
    xinv = [0] * n
    for j, v in enumerate(xs):
        xinv[v] = j
    moved = False
    i = 1
    while i < n:
        if ys[i - 1] > ys[i] and xinv[i - 1] < xinv[i]:
            a, b = xinv[i - 1], xinv[i]
            xs[a], xs[b] = i, i - 1
            xinv[i - 1], xinv[i] = b, a
            ys[i - 1], ys[i] = ys[i], ys[i - 1]
            moved = True
            if i > 1:
                i -= 1
        else:
            i += 1
    if not moved:
        return x, y
    return tuple(xs), tuple(ys)


def _normalize_factors(n: int, factors: list[Perm]) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight a factor list; returns (power of Delta absorbed, factors).

    The factors are folded in one at a time.  Right-multiplying a
    left-weighted list by one simple element needs a single right-to-left
    sweep, which stops at the first pair whose left factor does not change
    (Epstein et al., Word Processing in Groups, ch. 9).  A factor absorbed
    whole leaves an identity at the back, which is dropped at once.
    """
    ident = identity_perm(n)
    out: list[Perm] = []
    for f in factors:
        out.append(f)
        i = len(out) - 2
        while i >= 0:
            x, y = _leftweight(out[i], out[i + 1])
            if x == out[i]:
                break
            out[i], out[i + 1] = x, y
            i -= 1
        if out[-1] == ident:
            out.pop()
    # after left-weighting, Delta factors sit at the front
    w0 = longest_perm(n)
    lo = 0
    while lo < len(out) and out[lo] == w0:
        lo += 1
    return lo, tuple(out[lo:])


def _flip(p: Perm) -> Perm:
    """Conjugation by Delta (an involution on permutation braids)."""
    n = len(p)
    return tuple(n - 1 - x for x in reversed(p))


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """Canonical form Delta^inf * factors of an element of Br_n."""

    n: int
    inf: int
    factors: tuple[Perm, ...]

    def spelled_word(self) -> BraidWord:
        """A braid word spelling this element: Delta^inf then factor words."""
        delta = perm_word(longest_perm(self.n))
        letters: list[int] = []
        if self.inf >= 0:
            letters.extend(delta * self.inf)
        else:
            letters.extend([-s for s in reversed(delta)] * (-self.inf))
        for f in self.factors:
            letters.extend(perm_word(f))
        return BraidWord(self.n, tuple(letters))

    def to_json(self) -> dict:
        return self.spelled_word().to_json()


def normal_form(w: BraidWord) -> NormalForm:
    """The left-greedy normal form of a braid word.

    The freely reduced letters are cut into groups, left to right, each a
    maximal same-sign segment that spells a permutation braid.  A positive
    group f takes sigma_i while f sigma_i is still simple; a negative run
    sigma_i1^-1 ... sigma_ir^-1 is R^-1 for R = sigma_ir ... sigma_i1, and
    R takes sigma_i on its left while sigma_i R is still simple.  Both
    tests read one list s, the inverse of f or R itself: sigma_i joins
    when s[i-1] < s[i], and joining swaps those two entries.  A negative
    group R^-1 is written Delta^-1 (Delta R^-1).  The Delta powers are
    pushed to the front; passing Delta^-1 leftwards over a factor flips
    it, so each factor is flipped by the parity of the negative groups to
    its right.
    """
    n = w.n
    groups: list[tuple[bool, list[int]]] = []
    s: list[int] = []
    negative = False
    for letter in reduce_free(w).letters:
        i = abs(letter)
        if not groups or (letter < 0) != negative or s[i - 1] > s[i]:
            negative = letter < 0
            s = list(range(n))
            groups.append((negative, s))
        s[i - 1], s[i] = s[i], s[i - 1]
    inverses = sum(negative for negative, _ in groups)  # the Delta^-1s
    right = inverses
    factors: list[Perm] = []
    for negative, s in groups:
        if negative:
            right -= 1
            f = pinv(s)[::-1]  # Delta R^-1 = pmul(w0, pinv(R)): a reversal
        else:
            f = pinv(s)
        factors.append(_flip(f) if right % 2 else f)
    extra, normalized = _normalize_factors(n, factors)
    return NormalForm(n, extra - inverses, normalized)


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
