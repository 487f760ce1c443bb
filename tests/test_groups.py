import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidwork.groups import (
    ARTIN3_A,
    ARTIN3_B,
    ARTIN3_IDENTITY,
    PERM3_E,
    PERM3_R,
    PERM3_S,
    PERM3_T,
    Artin3,
    Perm3,
    artin_from_braid,
    artin_from_word,
    perm_from_name,
)
from braidwork.words import BraidWord, permutation_image

from test_garside import normal_form


TRANSPOSITIONS = (PERM3_S, PERM3_T, PERM3_R)


def test_letter_conventions():
    assert perm_from_name("s") == Perm3((1, 0, 2))
    assert perm_from_name("t") == Perm3((0, 2, 1))
    assert perm_from_name("r") == Perm3((2, 1, 0))
    assert PERM3_S * PERM3_T * PERM3_S == PERM3_R
    assert PERM3_S * PERM3_S == PERM3_E
    assert PERM3_T * PERM3_T == PERM3_E
    st3 = PERM3_S * PERM3_T
    assert st3 * st3 * st3 == PERM3_E
    with pytest.raises(ValueError):
        perm_from_name("q")


def test_rendering_round_trip():
    for name in ("e", "s", "t", "r", "st", "ts"):
        assert perm_from_name(name).render() == name


# each element of S3 with a word in a -> s, b -> t that maps onto it
SPELLED = {"e": "", "s": "a", "t": "b", "r": "aba", "st": "ab", "ts": "ba"}


def test_the_quotient_is_a_homomorphism_on_every_pair_of_spellings():
    for x, y in itertools.product(SPELLED, repeat=2):
        u, v = artin_from_word(SPELLED[x]), artin_from_word(SPELLED[y])
        assert u.to_perm3() is perm_from_name(x)
        assert (u * v).to_perm3() is perm_from_name(x) * perm_from_name(y)
        assert artin_from_word(SPELLED[x] + SPELLED[y]).to_perm3() is (u * v).to_perm3()


def test_braid_relation_among_any_two_transpositions():
    for u, v in itertools.permutations(TRANSPOSITIONS, 2):
        assert u * v * u == v * u * v


def test_artin_presentation():
    assert ARTIN3_A * ARTIN3_B * ARTIN3_A == ARTIN3_B * ARTIN3_A * ARTIN3_B
    assert artin_from_word("aba") == artin_from_word("bab")
    assert artin_from_word("aA") == ARTIN3_IDENTITY
    assert artin_from_word("abbaBBA") == artin_from_word("BBabb")


def test_artin_from_braid_requires_three_strands():
    with pytest.raises(ValueError):
        artin_from_braid(BraidWord(4, (1,)))


def artin_words(max_len=10):
    return st.lists(
        st.sampled_from("abAB"), max_size=max_len
    ).map(lambda cs: "".join(cs))


@given(artin_words(), artin_words())
@settings(max_examples=200)
def test_quotient_map_is_a_homomorphism(u, v):
    mapped = {"a": "s", "b": "t", "A": "s", "B": "t"}

    def quotient(text):
        out = PERM3_E
        for ch in text:
            out = out * perm_from_name(mapped[ch])
        return out

    assert artin_from_word(u).to_perm3() == quotient(u)
    assert (artin_from_word(u) * artin_from_word(v)).to_perm3() == quotient(u) * quotient(v)


@given(artin_words(), artin_words())
@settings(max_examples=200)
def test_hash_respects_equality(u, v):
    x, y = artin_from_word(u), artin_from_word(v)
    if x == y:
        assert hash(x) == hash(y)
    # padding with a relator or a cancelling pair never splits hashes
    assert hash(artin_from_word(u + "aA")) == hash(x)
    assert hash(artin_from_word("aba" + u)) == hash(artin_from_word("bab" + u))


@given(artin_words())
@settings(max_examples=100)
def test_artin_inverse(u):
    x = artin_from_word(u)
    assert x * x.inverse() == ARTIN3_IDENTITY
    assert x.inverse().inverse() == x


# --- the SL(2, Z) key against the Garside oracle ----------------------------

LETTERS = {"a": 1, "A": -1, "b": 2, "B": -2}
DELTA = (1, 2, 1)
DELTA2 = DELTA * 2
DELTA4 = DELTA * 4
RELATORS = ((1, 2, 1, -2, -1, -2), (2, 1, 2, -1, -2, -1))


def reduced_letters(rng, length):
    out = []
    while len(out) < length:
        letter = rng.choice((1, -1, 2, -2))
        if not out or out[-1] != -letter:
            out.append(letter)
    return tuple(out)


def inverse_letters(letters):
    return tuple(-x for x in reversed(letters))


def garside_spelling(letters):
    return normal_form(BraidWord(3, tuple(letters))).spelled_word()


def names(w):
    """The letters of w named as ``Artin3.render`` names them."""
    return "".join("ab"[c - 1] if c > 0 else "AB"[-c - 1] for c in w.letters) or "1"


def test_key_equality_agrees_with_garside_on_random_pairs():
    rng = random.Random(20040)
    verdicts = set()
    for _ in range(2000):
        u = BraidWord(3, reduced_letters(rng, rng.randint(0, 6)))
        v = BraidWord(3, reduced_letters(rng, rng.randint(0, 6)))
        same = artin_from_braid(u) == artin_from_braid(v)
        assert same == (normal_form(u) == normal_form(v)), (u, v)
        verdicts.add(same)
    assert verdicts == {True, False}


def test_key_equality_on_engineered_equal_pairs():
    rng = random.Random(11)
    for _ in range(300):
        u = reduced_letters(rng, rng.randint(0, 12))
        i = rng.randint(0, len(u))
        relator = rng.choice(RELATORS)
        x = rng.choice((1, -1, 2, -2))
        central = rng.choice((DELTA2, DELTA4, inverse_letters(DELTA2), inverse_letters(DELTA4)))
        j = rng.randint(0, len(u))
        pairs = [
            (u[:i] + relator + u[i:], u),
            (u[:i] + inverse_letters(relator) + u[i:], u),
            (u[:i] + (x, -x) + u[i:], u),
            (central + u, u[:j] + central + u[j:]),
        ]
        for lhs, rhs in pairs:
            assert normal_form(BraidWord(3, lhs)) == normal_form(BraidWord(3, rhs))
            key_l, key_r = artin_from_braid(BraidWord(3, lhs)), artin_from_braid(BraidWord(3, rhs))
            assert key_l == key_r and hash(key_l) == hash(key_r)


def test_central_twists_are_told_apart():
    # x, x Delta^2 and x Delta^4 have the same matrix up to sign: only the
    # exponent sum separates x from x Delta^4
    rng = random.Random(12)
    for _ in range(200):
        u = reduced_letters(rng, rng.randint(0, 10))
        x = artin_from_braid(BraidWord(3, u))
        x2 = artin_from_braid(BraidWord(3, u + DELTA2))
        x4 = artin_from_braid(BraidWord(3, u + DELTA4))
        assert (x2.p, x2.q, x2.r, x2.s) == (-x.p, -x.q, -x.r, -x.s)
        assert (x4.p, x4.q, x4.r, x4.s) == (x.p, x.q, x.r, x.s)
        assert len({x, x2, x4}) == 3
        assert x * artin_from_braid(BraidWord(3, DELTA4)) == x4
        assert x4 * x.inverse() * x2.inverse() * x == artin_from_braid(BraidWord(3, DELTA2))


def test_render_and_quotient_agree_with_garside():
    rng = random.Random(13)
    words = [reduced_letters(rng, rng.randint(0, 30)) for _ in range(300)]
    words += [power * inverse_letters(DELTA) + w for power in (1, 2, 4, 7) for w in words[:20]]
    words += [(1, -2) * k for k in (15, 20, 25)]  # entries grow like Fibonacci numbers
    words += [(2, 2, -1) * 12 + inverse_letters(DELTA4) * 3]
    # Delta^k and Delta^-k for k up to 12, alone and around a word
    words += [delta * k + w for delta in (DELTA, inverse_letters(DELTA))
              for k in range(1, 13) for w in ((),) + tuple(words[:2])]
    words += [(1, 2) * k for k in range(1, 19)]  # each third letter makes a Delta
    # aba and bab right after a negative letter
    words += [w + (x,) + tail for w in words[:4] for x in (-1, -2)
              for tail in ((1, 2, 1), (2, 1, 2))]
    largest = 0
    for letters in words:
        x = artin_from_braid(BraidWord(3, letters))
        spelled = garside_spelling(letters)
        assert x.render() == names(spelled)
        assert x.to_json() == spelled.to_json()
        assert x.to_perm3() == Perm3(permutation_image(BraidWord(3, letters)))
        largest = max(largest, abs(x.p), abs(x.q), abs(x.r), abs(x.s))
    assert largest > 10**6


@pytest.mark.parametrize("fields", [(2, 0, 0, 1, 0), (1, 0, 0, 1, 5), (2, 1, 1, 2, 0)])
def test_render_rejects_a_key_that_is_no_braid(fields):
    # determinant 2, the identity matrix with an exponent sum that no
    # power of Delta^4 reaches, and determinant 3, whose entries mod 2 are
    # those of r
    key = Artin3(*fields)
    assert repr(key) == f"Artin3{fields}"  # the bare fields: there is no spelling
    with pytest.raises(ValueError, match="not the key"):
        key.render()
    if key.p * key.s - key.q * key.r != 1:
        with pytest.raises(ValueError, match="not the key"):
            key.to_perm3()
    else:  # the quotient does not read the exponent sum
        assert key.to_perm3() is PERM3_E


@given(artin_words(20))
@settings(max_examples=200)
def test_render_and_parse_round_trip(u):
    x = artin_from_word(u)
    assert artin_from_word(x.render()) == x
    assert x.render() == names(garside_spelling(LETTERS[c] for c in u))


def test_letter_names():
    for name, letter in (("a", 1), ("A", -1), ("b", 2), ("B", -2)):
        assert artin_from_word(name) == artin_from_braid(BraidWord(3, (letter,)))
    assert ARTIN3_A.render() == "a" and ARTIN3_B.render() == "b"
    assert ARTIN3_A.inverse().render() == "ABAab"  # Delta^-1 a b
    assert artin_from_word(" 1a b1 ") == artin_from_word("ab")
    for text, first in (("abxyA", "x"), ("aC", "C"), ("-a", "-"), ("a2", "2")):
        with pytest.raises(ValueError, match=re.escape(f"unknown generator letter {first!r}")):
            artin_from_word(text)


def test_the_orders_are_the_group_orders():
    found = {PERM3_E, PERM3_S, PERM3_T, PERM3_R}
    frontier = list(found)
    while frontier:
        g = frontier.pop()
        for h in [g.inverse()] + [g * x for x in found] + [x * g for x in found]:
            if h not in found:
                found.add(h)
                frontier.append(h)
    assert Perm3.order == len(found) == 6
    assert Artin3.order is None


def test_perm3_tables_match_tuple_composition():
    def compose(p, q):  # apply p, then q
        return tuple(q[x] for x in p)

    perms = list(itertools.permutations((0, 1, 2)))
    for p, q in itertools.product(perms, repeat=2):
        assert (Perm3(p) * Perm3(q)).perm == compose(p, q)
    for p in perms:
        assert Perm3(p).perm == p
        assert compose(Perm3(p).inverse().perm, p) == (0, 1, 2)
        assert Perm3(p) is Perm3(list(p))
        assert pickle.loads(pickle.dumps(Perm3(p))) is Perm3(p)
    assert Perm3((1, 0, 2)) is PERM3_S
    assert len({Perm3(p) for p in perms}) == 6
    for bad in ((0, 0, 1), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError):
            Perm3(bad)
    with pytest.raises(AttributeError):
        PERM3_S.perm = (0, 1, 2)
