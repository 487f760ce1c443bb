"""Coefficient groups acted on by the Hurwitz action.

Two groups are used throughout: the symmetric group on three letters,
generated by the transpositions s = (1 2) and t = (2 3) with r = (1 3)
the third transposition, and the three-strand braid group presented on
two generators a, b with a b a = b a b.  Both expose the same value
interface -- multiplication, inversion, equality and hashing -- so tuples
over either group can be enumerated and hashed by the orbit machinery.
Each type also states its group's ``order`` (None for the infinite
braid group), which bounds the value ids of ``hurwitz.orbit``.

Each group's values are the cheapest faithful key for equality and
hashing: the six permutations are interned objects, compared by
identity and multiplied by tables that ``words.pmul`` and ``words.pinv``
fill from the words spelling them (``_SPELLINGS``, the one place S3 is
written down); a three-strand braid is the key itself, a tuple of its
image in SL(2, Z) and its exponent sum, hashed and compared as a tuple
in C, multiplied as a 2x2 integer matrix, and spelled for output in its
Garside normal form, read off the key in one pass.

Elements are immutable values; all operations are pure.
"""

from __future__ import annotations

from operator import itemgetter

from .words import BraidWord, Perm, permutation_image, pinv, pmul

# S3's six elements, each spelled in sigma_1 -> s and sigma_2 -> t
_SPELLINGS = {
    "e": (),
    "s": (1,),
    "t": (2,),
    "r": (1, 2, 1),
    "st": (1, 2),
    "ts": (2, 1),
}


class Perm3:
    """A permutation of three points, as a 0-based ``words.Perm``:
    ``perm[i]`` is the image of i.

    There is exactly one instance per permutation: ``Perm3(perm)``
    returns it, so equality and hashing are object identity.  Hashes
    therefore differ between processes; nothing may depend on the
    iteration order of a hashed collection of permutations.
    """

    __slots__ = ("_perm",)
    order = len(_SPELLINGS)  # S3 has six elements

    def __new__(cls, perm) -> "Perm3":
        element = _PERM3_BY_PERM.get(tuple(perm))
        if element is None:
            raise ValueError(f"not a permutation of {{0, 1, 2}}: {perm}")
        return element

    @property
    def perm(self) -> Perm:
        return self._perm

    def __mul__(self, other: "Perm3") -> "Perm3":
        # writing order: apply self, then other
        return _PERM3_MUL[self][other]

    def inverse(self) -> "Perm3":
        return _PERM3_INV[self]

    def render(self) -> str:
        return _PERM3_NAMES[self]

    def __repr__(self) -> str:
        return f"Perm3({self.render()})"

    def __reduce__(self):
        return Perm3, (self._perm,)


_PERM3_NAMES: dict[Perm3, str] = {}
for _name, _letters in _SPELLINGS.items():
    _element = object.__new__(Perm3)
    _element._perm = permutation_image(BraidWord(3, _letters))
    _PERM3_NAMES[_element] = _name
_PERM3_BY_NAME = {name: element for element, name in _PERM3_NAMES.items()}
_PERM3_BY_PERM = {element.perm: element for element in _PERM3_NAMES}
_PERM3_MUL = {
    p: {q: _PERM3_BY_PERM[pmul(p.perm, q.perm)] for q in _PERM3_NAMES} for p in _PERM3_NAMES
}
_PERM3_INV = {p: _PERM3_BY_PERM[pinv(p.perm)] for p in _PERM3_NAMES}

PERM3_E = _PERM3_BY_NAME["e"]
PERM3_S = _PERM3_BY_NAME["s"]
PERM3_T = _PERM3_BY_NAME["t"]
PERM3_R = _PERM3_BY_NAME["r"]


def perm_from_name(name: str) -> Perm3:
    """The permutation named e, s = (1 2), t = (2 3), r = (1 3) = s t s,
    st or ts."""
    if name not in _PERM3_BY_NAME:
        raise ValueError(f"unknown permutation name {name!r}")
    return _PERM3_BY_NAME[name]


class Artin3(tuple):
    """An element of the two-generator group <a, b | a b a = b a b>.

    Realized inside Br_3 by a -> sigma_1, b -> sigma_2, a value is the
    key (p, q, r, s, e), a tuple of five ints: the image [[p, q], [r, s]]
    in SL(2, Z) under a -> [[1, 1], [0, 1]], b -> [[1, 0], [-1, 1]], and
    the exponent sum e.  The key is faithful: the kernel of
    Br_3 -> SL(2, Z) is generated by Delta^4, which is central with
    exponent sum 12, so two braids with the same matrix differ by a power
    of Delta^4 that e detects (Kassel-Turaev, Braid Groups, GTM 247).
    Products are taken in writing order.  ``render`` and ``to_json`` spell
    the element canonically, in its left normal form.

    As the value is its key, with no instance dict, equality and hashing
    are the tuple's own, in C, and a product or inverse is built by one
    ``tuple.__new__`` with no ``__init__`` run.  The fields are read by
    name through read-only properties, and pickling and copying rebuild
    a value from them (``__getnewargs__``).
    """

    __slots__ = ()
    order = None  # the group is infinite
    p = property(itemgetter(0))
    q = property(itemgetter(1))
    r = property(itemgetter(2))
    s = property(itemgetter(3))
    e = property(itemgetter(4))

    def __new__(cls, p: int, q: int, r: int, s: int, e: int) -> "Artin3":
        return tuple.__new__(cls, (p, q, r, s, e))

    def __getnewargs__(self) -> tuple[int, ...]:
        return tuple(self)

    def __mul__(self, other: "Artin3") -> "Artin3":
        p, q, r, s, e = self
        p2, q2, r2, s2, e2 = other
        return tuple.__new__(Artin3, (p * p2 + q * r2, p * q2 + q * s2,
                                      r * p2 + s * r2, r * q2 + s * s2, e + e2))

    def inverse(self) -> "Artin3":
        p, q, r, s, e = self
        return tuple.__new__(Artin3, (s, -q, -r, p, -e))

    def to_perm3(self) -> Perm3:
        """The image under the quotient a -> s, b -> t, which factors
        through SL(2, Z) -> SL(2, F_2), isomorphic to S3; the exponent
        sum e is not read."""
        p, q, r, s, _ = self
        if p * s - q * r != 1:
            raise _not_a_key(self)
        return _PERM3_OF_MOD2[p & 1, q & 1, r & 1, s & 1]

    def render(self) -> str:
        return "".join(_LETTER_NAMES[letter] for letter in _canonical(self)) or "1"

    def to_json(self) -> dict:
        return BraidWord(3, _canonical(self)).to_json()

    def __repr__(self) -> str:
        try:
            return f"Artin3({self.render()})"
        except ValueError:  # not a key: name the bare fields
            return f"Artin3{tuple(self)}"


# the letters of a word in a = sigma_1 and b = sigma_2; capitals are inverses
_LETTERS = {"a": 1, "A": -1, "b": 2, "B": -2}
_LETTER_NAMES = {letter: name for name, letter in _LETTERS.items()}
_DELTA = (1, 2, 1)  # a b a -> [[0, 1], [-1, 0]]; its square is -I


def _not_a_key(key: Artin3) -> ValueError:
    # the bare fields, as a key that is no braid has no spelling
    return ValueError(f"not the key of a three-strand braid: {tuple(key)}")


def _spell(key: Artin3) -> tuple[int, ...]:
    """A word in sigma_1 = a, sigma_2 = b for ``key``.

    Column operations (right multiplication by powers of a and b, and by
    Delta when the top-left entry vanishes) run Euclid's algorithm on the
    top row until [[p, q], [r, s]] becomes [[+-1, 0], [r', +-1]] =
    Delta^(0 or 2) b^k; the word is that, followed by the inverse of the
    column operations, followed by the power of Delta^4 that makes the
    exponent sum come out to e.
    """
    p, q, r, s, e = key
    if p * s - q * r != 1:
        raise _not_a_key(key)
    ops: list[int] = []  # letters right-multiplied so far
    while q:
        if p == 0:
            # times Delta: [[p, q], [r, s]] -> [[-q, p], [-s, r]]
            p, q, r, s = -q, p, -s, r
            ops.extend(_DELTA)
            continue
        k = q // p  # times a^-k
        q, s = q - k * p, s - k * r
        ops.extend([-1 if k > 0 else 1] * abs(k))
        if not q:
            break
        k = p // q  # times b^k
        p, r = p - k * q, r - k * s
        ops.extend([2 if k > 0 else -2] * abs(k))
    # now p = s = +-1 and the matrix is Delta^(1 - p) b^(-p r)
    letters = list(_DELTA * 2) if p < 0 else []
    letters.extend([2 if p * r < 0 else -2] * abs(r))
    letters.extend(-c for c in reversed(ops))
    twists, rest = divmod(e - sum(1 if c > 0 else -1 for c in letters), 12)
    if rest:
        raise _not_a_key(key)
    delta4 = _DELTA * 4 if twists > 0 else tuple(-c for c in _DELTA * 4)
    return tuple(letters) + delta4 * abs(twists)


def _canonical(key: Artin3) -> tuple[int, ...]:
    """The left normal form Delta^k w of ``key``, spelled as |k| copies of
    aba (of ABA when k < 0) and then w, the unique positive word with no
    factor aba or bab.  Such a word admits no braid relation, so Delta
    does not left-divide it (Garside 1969; Kassel-Turaev, Braid Groups,
    GTM 247).

    One pass over ``_spell(key)``.  A positive letter is appended to w;
    when w then ends in aba or bab, those three letters are one Delta,
    which moves to the front and swaps a and b in the rest of w.  A
    negative letter is Delta^-1 times two positive ones, A = Delta^-1 a b
    and B = Delta^-1 b a, and its Delta^-1 swaps a and b in w as it moves
    to the front.  The swaps are lazy: w holds each letter xor ``swap``
    (0 or 3, and 1 ^ 3 = 2), so a swap of all of w toggles ``swap``; aba
    and bab swap into each other, so the test reads the stored letters.
    """
    k, swap = 0, 0
    w: list[int] = []
    for letter in _spell(key):
        if letter < 0:
            k, swap = k - 1, swap ^ 3
        for x in (letter,) if letter > 0 else (-letter, 3 + letter):
            w.append(x ^ swap)
            if len(w) > 2 and w[-3] == w[-1] != w[-2]:
                del w[-3:]
                k, swap = k + 1, swap ^ 3
    delta = _DELTA if k > 0 else tuple(-c for c in _DELTA)
    return delta * abs(k) + tuple(x ^ swap for x in w)


ARTIN3_IDENTITY = Artin3(1, 0, 0, 1, 0)


def artin_from_braid(w: BraidWord) -> Artin3:
    if w.n != 3:
        raise ValueError("Artin3 values live in the three-strand group")
    p, q, r, s = 1, 0, 0, 1
    for letter in w.letters:
        # right multiplication by the letter's matrix
        if letter == 1:
            q, s = q + p, s + r
        elif letter == -1:
            q, s = q - p, s - r
        elif letter == 2:
            p, r = p - q, r - s
        else:
            p, r = p + q, r + s
    return Artin3(p, q, r, s, sum(1 if x > 0 else -1 for x in w.letters))


def artin_from_word(text: str) -> Artin3:
    """Parse a word over a, b, with capitals for inverses: 'abA' = a b a^-1.
    Spaces and the identity 1 are skipped."""
    letters = []
    for ch in text:
        if ch in _LETTERS:
            letters.append(_LETTERS[ch])
        elif ch not in " 1":
            raise ValueError(f"unknown generator letter {ch!r}")
    return artin_from_braid(BraidWord(3, tuple(letters)))


# the mod-2 image of each element's spelling, the key of ``to_perm3``
_PERM3_OF_MOD2 = {}
for _name, _letters in _SPELLINGS.items():
    _key = artin_from_braid(BraidWord(3, _letters))
    _PERM3_OF_MOD2[_key.p & 1, _key.q & 1, _key.r & 1, _key.s & 1] = _PERM3_BY_NAME[_name]


ARTIN3_A = artin_from_word("a")
ARTIN3_B = artin_from_word("b")
