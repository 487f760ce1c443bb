import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidwork.words import (
    MAX_STRANDS,
    BraidWord,
    _words_in_range,
    compose,
    conjugate_right,
    invert,
    permutation_image,
    power,
    reduce_free,
    word,
)


def letters_strategy(n, max_len=24):
    alphabet = [i for i in range(-(n - 1), n) if i != 0]
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(tuple)


def words_strategy(n, max_len=24):
    return letters_strategy(n, max_len).map(lambda ls: BraidWord(n, ls))


def test_letter_range_is_validated():
    with pytest.raises(ValueError):
        word(3, 3)
    with pytest.raises(ValueError):
        word(3, 0)
    with pytest.raises(ValueError):
        word(2, -2)


def reference_letter_check(n, letters):
    """The range check letter by letter: the first bad letter's message, or None."""
    for letter in letters:
        if letter == 0 or abs(letter) > n - 1:
            return f"letter {letter} out of range for {n} strands"
    return None


@given(st.integers(min_value=1, max_value=8).flatmap(
           lambda n: st.tuples(st.just(n), st.lists(st.integers(-n, n), max_size=12))),
       st.sampled_from([tuple, list, iter]))
@settings(max_examples=300)
def test_letter_check_matches_the_letter_by_letter_check(case, container):
    n, letters = case
    expected = reference_letter_check(n, letters)
    if expected is None:
        w = BraidWord(n, container(letters))
        assert type(w.letters) is tuple and w.letters == tuple(letters)
    else:
        with pytest.raises(ValueError) as info:
            BraidWord(n, container(letters))
        assert str(info.value) == expected


def test_reduce_free_examples():
    assert reduce_free(word(3, 1, -1)).letters == ()
    assert reduce_free(word(3, 1, 2, -2, 1)).letters == (1, 1)
    assert reduce_free(word(3, 1, 2, 1)).letters == (1, 2, 1)


def test_compose_and_invert_examples():
    assert compose(word(3, 1), word(3, 2)).letters == (1, 2)
    assert invert(word(3, 1, 2)).letters == (-2, -1)
    assert power(word(6, 1), 3).letters == (1, 1, 1)
    assert power(word(6, 1, 2), -2).letters == (-2, -1, -2, -1)


def test_strand_count_mismatch_is_an_error():
    with pytest.raises(ValueError):
        compose(word(3, 1), word(4, 1))
    with pytest.raises(ValueError):
        conjugate_right(word(3, 1), word(5, 1))


def test_conjugate_right_spells_the_seven_letter_twist():
    tau1 = conjugate_right(word(6, 1), word(6, 2, -3, 4))
    assert tau1.letters == (-4, 3, -2, 1, 2, -3, 4)


def test_json_round_trip():
    w = word(6, 1, 1, 1)
    assert w.to_json() == {"n": 6, "word": [1, 1, 1]}
    assert BraidWord.from_json(w.to_json(), "a braid word") == w


def test_json_strand_count_is_bounded():
    top = word(MAX_STRANDS, MAX_STRANDS - 1)
    assert BraidWord.from_json(top.to_json(), "a braid word") == top
    with pytest.raises(ValueError, match="strand count is at most"):
        BraidWord.from_json({"n": MAX_STRANDS + 1, "word": [1]}, "a braid word")


def test_a_word_is_a_slotted_frozen_value():
    w = word(5, 1, -4, 2)
    assert not hasattr(w, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.letters = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.n = 6
    for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert type(twin) is BraidWord
        assert twin == w and hash(twin) == hash(w)


@st.composite
def _strand_count_and_spellings(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    spelled = letters_strategy(n, max_len=12) if n > 1 else st.just(())
    return n, draw(st.lists(spelled, max_size=8))


@given(_strand_count_and_spellings())
@settings(max_examples=200)
def test_words_built_in_bulk_are_checked_words(case):
    # the bulk builder skips the letter check; each word must be the one
    # the checked constructor gives, and as frozen
    n, spellings = case
    built = _words_in_range(n, spellings)
    assert len(built) == len(spellings)
    for w, letters in zip(built, spellings):
        checked = BraidWord(n, letters)
        assert type(w) is BraidWord
        assert w == checked and hash(w) == hash(checked)
        assert repr(w) == repr(checked)
        twin = pickle.loads(pickle.dumps(w))
        assert type(twin) is BraidWord and twin == checked
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.n = n + 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.letters = ()


@given(words_strategy(4))
@settings(max_examples=200)
def test_reduce_free_has_no_cancelling_pairs(w):
    reduced = reduce_free(w)
    assert all(
        reduced.letters[k] != -reduced.letters[k + 1]
        for k in range(len(reduced.letters) - 1)
    )


@given(words_strategy(4), words_strategy(4))
@settings(max_examples=200)
def test_permutation_image_is_a_homomorphism(u, v):
    pu, pv = permutation_image(u), permutation_image(v)
    puv = permutation_image(compose(u, v))
    assert puv == tuple(pv[x] for x in pu)


@given(words_strategy(5))
@settings(max_examples=200)
def test_inverse_image_is_inverse_permutation(u):
    p = permutation_image(u)
    q = permutation_image(invert(u))
    assert tuple(q[x] for x in p) == tuple(range(5))
