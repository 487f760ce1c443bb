"""Left-greedy Garside normal forms for Br_n and the braid word problem.

Every braid is written as Delta^d f_1 ... f_k where Delta is the positive
half twist, d is an integer (the infimum) and the f_i are permutation
braids, none equal to the identity or to Delta, such that each adjacent
pair is left-weighted: no starting letter of f_{i+1} can be absorbed into
f_i.  Two words represent the same element of Br_n exactly when they have
identical normal forms, which is what makes normal forms usable as
dictionary keys for orbit enumeration.

Permutation braids are stored as plain tuples ``p`` of 0-based images,
with ``p[i]`` the end position of the strand starting at position i.
Products are taken in writing order (apply left, then right), matching
`words.permutation_image`.

Everything here is a pure function of immutable values and safe for
unrestricted concurrent use.  Designed for the small strand counts
(n <= 8) this package needs; tables are never precomputed over S_n x S_n.
"""

from __future__ import annotations

import dataclasses
import functools

from .words import BraidWord, reduce_free

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def longest_perm(n: int) -> Perm:
    """The permutation of the half twist Delta: full reversal."""
    return tuple(range(n - 1, -1, -1))


def letter_perm(n: int, i: int) -> Perm:
    """The transposition of sigma_i (1-based i)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for {n} strands")
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def pmul(p: Perm, q: Perm) -> Perm:
    """Composition in writing order: apply p, then q."""
    return tuple(q[x] for x in p)


@functools.lru_cache(maxsize=None)
def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


@functools.lru_cache(maxsize=None)
def left_descents(p: Perm) -> frozenset[int]:
    """Indices i (1-based) with p = sigma_i * rest for a permutation braid p."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def right_descents(p: Perm) -> frozenset[int]:
    return left_descents(pinv(p))


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _leftweight(x: Perm, y: Perm) -> tuple[Perm, Perm]:
    """Slide starting letters of y into x until the pair (x, y) is left-weighted."""
    n = len(x)
    while True:
        movable = left_descents(y) - right_descents(x)
        if not movable:
            return x, y
        t = letter_perm(n, min(movable))
        x = pmul(x, t)
        y = pmul(t, y)


def _normalize_factors(n: int, factors: list[Perm]) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight a factor list; returns (power of Delta absorbed, factors)."""
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = _leftweight(factors[i], factors[i + 1])
            if x != factors[i]:
                factors[i], factors[i + 1] = x, y
                changed = True
    # after left-weighting, Delta factors sit at the front and identities at the back
    w0 = longest_perm(n)
    ident = identity_perm(n)
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == w0:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return lo, tuple(factors[lo:hi])


@functools.lru_cache(maxsize=None)
def _flip(p: Perm) -> Perm:
    """Conjugation by Delta (an involution on permutation braids)."""
    n = len(p)
    w0 = longest_perm(n)
    return pmul(pmul(w0, p), w0)


def _assemble(n: int, items: list[tuple[int, Perm | None]]) -> "NormalForm":
    """Normal form of a product of terms Delta^d * f, given as (d, f) pairs.

    Delta powers are pushed to the front; passing Delta^d leftwards over a
    factor applies the flip automorphism d times, so each factor is flipped
    by the parity of the Delta power accumulated to its right.
    """
    acc = 0
    reversed_factors: list[Perm] = []
    for d, f in reversed(items):
        if f is not None:
            reversed_factors.append(_flip(f) if acc % 2 else f)
        acc += d
    factors = list(reversed(reversed_factors))
    extra, normalized = _normalize_factors(n, factors)
    return NormalForm(n, acc + extra, normalized)


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """Canonical form Delta^inf * factors of an element of Br_n."""

    n: int
    inf: int
    factors: tuple[Perm, ...]

    def spelled_word(self) -> BraidWord:
        """A braid word spelling this element: Delta^inf then factor words."""
        delta = _delta_word(self.n)
        letters: list[int] = []
        if self.inf >= 0:
            letters.extend(delta * self.inf)
        else:
            letters.extend([-s for s in reversed(delta)] * (-self.inf))
        for f in self.factors:
            letters.extend(perm_word(f))
        return BraidWord(self.n, tuple(letters))

    def __mul__(self, other: "NormalForm") -> "NormalForm":
        if self.n != other.n:
            raise ValueError(f"strand-count mismatch: {self.n} vs {other.n}")
        items: list[tuple[int, Perm | None]] = [(self.inf, None)]
        items += [(0, f) for f in self.factors]
        items.append((other.inf, None))
        items += [(0, f) for f in other.factors]
        return _assemble(self.n, items)

    def inverse(self) -> "NormalForm":
        # (Delta^d f_1 .. f_k)^-1 = f_k^-1 .. f_1^-1 Delta^-d,
        # and f^-1 = Delta^-1 * (Delta f^-1) with Delta f^-1 a permutation braid.
        w0 = longest_perm(self.n)
        items: list[tuple[int, Perm | None]] = [
            (-1, pmul(w0, pinv(f))) for f in reversed(self.factors)
        ]
        items.append((-self.inf, None))
        return _assemble(self.n, items)

    def permutation(self) -> Perm:
        p = longest_perm(self.n) if self.inf % 2 else identity_perm(self.n)
        for f in self.factors:
            p = pmul(p, f)
        return p

    def to_json(self) -> dict:
        return self.spelled_word().to_json()


@functools.lru_cache(maxsize=None)
def _delta_word(n: int) -> tuple[int, ...]:
    return perm_word(longest_perm(n))


def normal_form(w: BraidWord) -> NormalForm:
    """The left-greedy normal form of a braid word."""
    n = w.n
    w0 = longest_perm(n)
    items: list[tuple[int, Perm | None]] = []
    for letter in reduce_free(w).letters:
        t = letter_perm(n, abs(letter))
        if letter > 0:
            items.append((0, t))
        else:
            # sigma_i^-1 = Delta^-1 * (Delta sigma_i^-1)
            items.append((-1, pmul(w0, t)))
    return _assemble(n, items)


def equal(u: BraidWord, v: BraidWord) -> bool:
    """Whether two words represent the same element of Br_n."""
    if u.n != v.n:
        raise ValueError(f"strand-count mismatch: {u.n} vs {v.n}")
    ru, rv = reduce_free(u), reduce_free(v)
    if ru.letters == rv.letters:
        return True
    return normal_form(ru) == normal_form(rv)
