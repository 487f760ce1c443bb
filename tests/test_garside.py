import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidwork.garside import equal, left_descents, normal_form, perm_word, pinv, pmul
from braidwork.words import BraidWord, compose, conjugate_right, invert, word

from test_words import words_strategy


# every Artin relator of Br_n, as a letter tuple that spells the identity
def relators(n):
    rels = []
    for i in range(1, n - 1):
        rels.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append((i, j, -i, -j))
    for i in range(1, n):
        rels.append((i, -i))
        rels.append((-i, i))
    return rels


def test_braid_relation_same_normal_form():
    assert normal_form(word(3, 1, 2, 1)) == normal_form(word(3, 2, 1, 2))


def test_far_commutation_same_normal_form():
    assert normal_form(word(4, 1, 3)) == normal_form(word(4, 3, 1))


def test_transversal_conjugate_sample_row():
    # (e_13)^(sigma_1 sigma_2) and (e_13)^(e_12^-1) agree in Br_6
    e13 = word(6, 2, 1, -2)
    e12 = word(6, 1, 1, 1)
    u = conjugate_right(e13, word(6, 1, 2))
    v = conjugate_right(e13, invert(e12))
    assert normal_form(u) == normal_form(v)


def test_presentation_equalities():
    assert equal(word(3, 1, 2, 1), word(3, 2, 1, 2))
    assert not equal(word(3, 1), word(3, 2))
    e13 = word(6, 2, 1, -2)
    tau2 = conjugate_right(word(6, 2), word(6, 3, -4, 5))
    assert equal(conjugate_right(e13, tau2), e13)


def test_equal_requires_matching_strand_count():
    with pytest.raises(ValueError):
        equal(word(3, 1), word(4, 1))


def test_normal_form_idempotent_on_spelled_word():
    for letters in [(1, -2, 3, 4, -5, 1, 1, 2), (2, 2, 2), (-1, -1, 5, -4), ()]:
        nf = normal_form(word(6, *letters))
        assert normal_form(nf.spelled_word()) == nf


def test_normal_form_factors_are_proper_and_left_weighted():
    nf = normal_form(word(5, 1, -2, 3, 4, -1, 2, 2, 3, -4, 1))
    n = nf.n
    ident = tuple(range(n))
    delta = tuple(range(n - 1, -1, -1))
    for f in nf.factors:
        assert f != ident and f != delta
    for x, y in zip(nf.factors, nf.factors[1:]):
        assert left_descents(y) <= left_descents(pinv(x))


@given(words_strategy(4, max_len=16), st.data())
@settings(max_examples=300)
def test_relator_insertion_preserves_normal_form(w, data):
    rel = data.draw(st.sampled_from(relators(4)))
    pos = data.draw(st.integers(min_value=0, max_value=len(w.letters)))
    spliced = BraidWord(4, w.letters[:pos] + rel + w.letters[pos:])
    assert normal_form(spliced) == normal_form(w)


@given(words_strategy(4, max_len=12), words_strategy(4, max_len=12))
@settings(max_examples=200)
def test_group_axioms_under_equal(u, v):
    n = 4
    assert equal(compose(u, invert(u)), word(n))
    assert equal(invert(invert(u)), u)
    assert equal(invert(compose(u, v)), compose(invert(v), invert(u)))


@given(words_strategy(4, max_len=10), words_strategy(4, max_len=10),
       words_strategy(4, max_len=10))
@settings(max_examples=150)
def test_equal_is_an_equivalence_on_engineered_triples(u, v, r):
    # u ~ u' and u' ~ u'' for words padded with trivial relators
    u1 = compose(compose(u, v), invert(v))
    u2 = compose(compose(u1, r), invert(r))
    assert equal(u, u)
    assert equal(u, u1) and equal(u1, u)
    assert equal(u, u1) and equal(u1, u2) and equal(u, u2)


@given(words_strategy(4, max_len=12), words_strategy(4, max_len=8),
       words_strategy(4, max_len=8))
@settings(max_examples=150)
def test_conjugation_is_an_action(s, b1, b2):
    lhs = conjugate_right(s, compose(b1, b2))
    rhs = conjugate_right(conjugate_right(s, b1), b2)
    assert equal(lhs, rhs)


def test_perm_word_spells_its_permutation():
    rng = random.Random(7)
    for _ in range(50):
        p = tuple(rng.sample(range(6), 6))
        spelled = perm_word(p)
        acc = tuple(range(6))
        for s in spelled:
            t = list(range(6))
            t[s - 1], t[s] = t[s], t[s - 1]
            acc = pmul(acc, tuple(t))
        assert acc == p


def test_delta_square_is_central():
    delta2 = word(3, 1, 2, 1, 1, 2, 1)
    for g in (word(3, 1), word(3, 2), word(3, 1, -2)):
        assert equal(compose(delta2, g), compose(g, delta2))
