"""Words in the standard generators of the braid group Br_n.

A word is a finite sequence of signed generator letters: the integer +i
stands for the generator sigma_i (1 <= i <= n-1), -i for its inverse.
Composition is concatenation in writing order, so ``compose(u, v)`` means
"u then v".  ``(s)^b`` -- conjugation on the right -- is ``b^-1 s b``.

All values are immutable; every operation returns a fresh word.  The
canonical JSON form of a word is ``{"n": strand_count, "word": [..]}``
with the signed-letter encoding above, e.g. sigma_1^3 in Br_6 is
``{"n": 6, "word": [1, 1, 1]}``.

``json_value`` and ``json_field`` are the type checks every JSON reader
of the package applies to its input: a value of the wrong type raises
``ValueError`` naming the field, never a ``TypeError`` further in.  A
strand count read from JSON is from 1 to ``MAX_STRANDS``
(``json_strand_count``), and ``json_word`` reads the letters of one word
field, naming the field if a letter is out of range.

A permutation of the n strand positions is a tuple ``p`` of 0-based
images: ``p[i]`` is the end position of the strand starting at position
i.  ``pmul`` multiplies in writing order, as for words, so
``permutation_image`` is a homomorphism Br_n -> S_n (Epstein et al., Word
Processing in Groups, ch. 9).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import deque
from itertools import repeat
from typing import Iterable, Iterator

MAX_STRANDS = 64  # largest strand count a JSON word or ledger row may name


@dataclasses.dataclass(frozen=True, slots=True)
class BraidWord:
    """A word in the generators sigma_1 .. sigma_{n-1} of Br_n."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"strand count must be positive, got {self.n}")
        letters = self.letters
        if type(letters) is not tuple:
            letters = tuple(letters)
            object.__setattr__(self, "letters", letters)
        top = self.n - 1
        for letter in letters:
            if letter == 0 or abs(letter) > top:
                raise ValueError(f"letter {letter} out of range for {self.n} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __repr__(self) -> str:
        return f"BraidWord(n={self.n}, letters={list(self.letters)})"

    def to_json(self) -> dict:
        return {"n": self.n, "word": list(self.letters)}

    @staticmethod
    def from_json(data: dict, owner: str) -> "BraidWord":
        """The word ``data`` in its canonical JSON form; a malformed one
        raises ValueError naming ``owner`` and the field."""
        json_value(data, dict, owner)
        return json_word(data, "word", json_strand_count(data, owner), owner)


def _words_in_range(n: int, letters: list[tuple[int, ...]]) -> list[BraidWord]:
    """The words ``BraidWord(n, spelled)`` for each tuple ``spelled`` in
    ``letters``, without the letter check, for a caller that built each
    tuple from letters already in range for ``n`` strands.  The objects
    are made and their two slots filled by C-level ``map`` calls, with
    no Python frame per word."""
    words = list(map(object.__new__, repeat(BraidWord, len(letters))))
    deque(map(BraidWord.n.__set__, words, repeat(n)), 0)
    deque(map(BraidWord.letters.__set__, words, letters), 0)
    return words


_JSON_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
    list: ((list,), "an array"),
    dict: ((dict,), "an object"),
}
_REQUIRED = object()


def json_value(value, kind: type, name: str):
    """``value``, checked to be a JSON value of ``kind`` (int, float, str,
    list or dict; a bool is not a number, and a float is finite);
    otherwise ValueError naming it."""
    types, what = _JSON_KINDS[kind]
    if (not isinstance(value, types) or isinstance(value, bool)
            or (kind is float and not _finite(value))):
        raise ValueError(f"{name} must be {what}, got {value!r:.40}")
    return value


def _finite(x: int | float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the floating-point range
        return False


def json_field(data: dict, field: str, kind: type, owner: str, default=_REQUIRED):
    """``data[field]`` checked by ``json_value``; ``default`` if the field
    is absent, and ValueError naming it if it is absent and required."""
    if field not in data:
        if default is _REQUIRED:
            raise ValueError(f"{owner} is missing the field {field!r}")
        return default
    return json_value(data[field], kind, f"{owner} field {field!r}")


def json_strand_count(data: dict, owner: str) -> int:
    """The required field ``n`` of ``data``: an integer from 1 to
    ``MAX_STRANDS``, so that no input can ask for permutations of
    millions of points."""
    n = json_field(data, "n", int, owner)
    if not 1 <= n <= MAX_STRANDS:
        raise ValueError(f"{owner} field 'n': the strand count is at most {MAX_STRANDS} "
                         f"and positive, got {n}")
    return n


def json_word(data: dict, field: str, n: int, owner: str) -> BraidWord:
    """The word on ``n`` strands whose letters are the required list
    ``data[field]``; ValueError naming ``owner`` and the field."""
    letters = json_field(data, field, list, owner)
    letters = tuple(json_value(x, int, f"{owner} field {field!r} letter") for x in letters)
    try:
        return BraidWord(n, letters)
    except ValueError as exc:
        raise ValueError(f"{owner} field {field!r}: {exc}") from None


def word(n: int, *letters: int) -> BraidWord:
    """Shorthand constructor: ``word(3, 1, 2, -1)`` is sigma_1 sigma_2 sigma_1^-1."""
    return BraidWord(n, letters)


def identity(n: int) -> BraidWord:
    return BraidWord(n, ())


def _check_same_n(u: BraidWord, v: BraidWord) -> None:
    if u.n != v.n:
        raise ValueError(f"strand-count mismatch: {u.n} vs {v.n}")


def reduce_free(w: BraidWord) -> BraidWord:
    """Remove all adjacent cancelling pairs sigma_i sigma_i^-1 / sigma_i^-1 sigma_i."""
    stack: list[int] = []
    for letter in w.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(w.n, tuple(stack))


def compose(u: BraidWord, v: BraidWord) -> BraidWord:
    """Concatenation in writing order: u then v."""
    _check_same_n(u, v)
    return BraidWord(u.n, u.letters + v.letters)


def compose_all(n: int, words: Iterable[BraidWord]) -> BraidWord:
    out = identity(n)
    for w in words:
        out = compose(out, w)
    return out


def invert(u: BraidWord) -> BraidWord:
    """Reverse the letter sequence and flip every sign."""
    return BraidWord(u.n, tuple(-letter for letter in reversed(u.letters)))


def power(u: BraidWord, m: int) -> BraidWord:
    """u^m by letter repetition (powers are stored fully unrolled)."""
    base = u if m >= 0 else invert(u)
    return BraidWord(u.n, base.letters * abs(m))


def conjugate_right(s: BraidWord, b: BraidWord) -> BraidWord:
    """Right conjugation (s)^b = b^-1 s b, freely reduced."""
    _check_same_n(s, b)
    return reduce_free(compose(compose(invert(b), s), b))


# ---------------------------------------------------------------------------
# Permutations of n points

Perm = tuple[int, ...]


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


def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def permutation_image(w: BraidWord) -> Perm:
    """The image of w under Br_n -> S_n; a generator and its inverse
    induce the same transposition."""
    return functools.reduce(pmul, (letter_perm(w.n, abs(letter)) for letter in w.letters),
                            tuple(range(w.n)))
