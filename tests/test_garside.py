import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from braidwork.catalog import catalog
from braidwork.garside import dynnikov, equal
from braidwork.words import (
    BraidWord,
    compose,
    conjugate_right,
    invert,
    letter_perm,
    permutation_image,
    pinv,
    pmul,
    reduce_free,
    word,
)

from test_words import words_strategy


# ---------------------------------------------------------------------------
# The Garside oracle: left normal forms for Br_n
#
# Every braid is Delta^inf f_1 ... f_k, where Delta is the positive half
# twist and the f_i are permutation braids, none the identity or Delta,
# such that each adjacent pair is left-weighted: no starting letter of
# f_(i+1) can be absorbed into f_i.  Two words are the same braid exactly
# when their normal forms are identical (Garside 1969; ElRifai and Morton,
# Algorithms for positive braids, 1994), so normal forms decide equality
# independently of Dynnikov coordinates.  Permutation braids are the
# permutations of `words`, multiplied by `pmul` in writing order.


def longest_perm(n):
    """The permutation of the half twist Delta: full reversal."""
    return tuple(range(n - 1, -1, -1))


def left_descents(p):
    """Indices i (1-based) with p = sigma_i * rest for a permutation braid p."""
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def right_descents(p):
    return left_descents(pinv(p))


def perm_word(p):
    """The shortlex-minimal positive word spelling the permutation braid p."""
    out = []
    while True:
        descents = left_descents(p)
        if not descents:
            return tuple(out)
        s = min(descents)
        out.append(s)
        p = pmul(letter_perm(len(p), s), p)


def leftweight(x, y):
    """Left-weight the pair (x, y): slide sigma_i from the front of y to the
    back of x, one letter at a time, while i is a left descent of y and not
    a right descent of x."""
    n = len(x)
    while True:
        movable = left_descents(y) - right_descents(x)
        if not movable:
            return x, y
        t = letter_perm(n, min(movable))
        x, y = pmul(x, t), pmul(t, y)


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """The normal form Delta^inf * factors of an element of Br_n."""

    n: int
    inf: int
    factors: tuple

    def spelled_word(self):
        """Delta^inf, then each factor by `perm_word`."""
        delta = perm_word(longest_perm(self.n))
        if self.inf < 0:
            delta = tuple(-s for s in reversed(delta))
        letters = delta * abs(self.inf)
        for f in self.factors:
            letters += perm_word(f)
        return BraidWord(self.n, letters)


def normal_form(w):
    """The left normal form of w.  Each letter is one simple factor, with
    sigma_i^-1 written Delta^-1 (Delta sigma_i^-1); each Delta^-1 moves to
    the front, conjugating by Delta the factors it passes.  Passes of
    `leftweight` over adjacent pairs then run until none moves a letter,
    which leaves the Deltas in front and the identities at the back."""
    n = w.n
    w0 = longest_perm(n)
    inverses = 0
    factors = []
    for letter in reversed(reduce_free(w).letters):
        t = letter_perm(n, abs(letter))
        f = t if letter > 0 else pmul(w0, t)
        factors.append(pmul(pmul(w0, f), w0) if inverses % 2 else f)
        inverses += letter < 0
    factors.reverse()
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = leftweight(factors[i], factors[i + 1])
            if x != factors[i]:
                factors[i], factors[i + 1] = x, y
                changed = True
    ident = tuple(range(n))
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == w0:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return NormalForm(n, lo - inverses, tuple(factors[lo:hi]))


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


def words_on_common_strands(count, max_n=8, max_len=80):
    """`count` words on one strand count n, drawn from 2..max_n."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(*[words_strategy(n, max_len=max_len)] * count))


@given(words_on_common_strands(1))
@settings(max_examples=200, deadline=None)
def test_normal_form_factors_are_proper_and_left_weighted(words):
    (w,) = words
    # the check reads descents directly; it does not call leftweight
    nf = normal_form(w)
    n = nf.n
    ident = tuple(range(n))
    delta = tuple(range(n - 1, -1, -1))
    for f in nf.factors:
        assert sorted(f) == list(range(n))
        assert f != ident and f != delta
    for x, y in zip(nf.factors, nf.factors[1:]):
        assert left_descents(y) <= left_descents(pinv(x))


# ---------------------------------------------------------------------------
# Known answers at Delta


def delta_letters(n):
    """Delta = sigma_1 (sigma_2 sigma_1) ... (sigma_{n-1} ... sigma_1)."""
    return [j for k in range(1, n) for j in range(k, 0, -1)]


@pytest.mark.parametrize("n", [3, 4, 8])
def test_groups_at_delta_equal_one_factor_per_letter(n):
    delta = delta_letters(n)
    t1 = letter_perm(n, 1)
    cases = [
        (delta * 2, 2, ()),                               # Delta^2
        ([-x for x in delta] * 2, -2, ()),                # Delta^-2
        (delta + [1], 1, (t1,)),                          # a run ending at Delta
        ([-x for x in delta] + [-1], -2, (pmul(longest_perm(n), t1),)),
    ]
    for letters, inf, factors in cases:
        w = BraidWord(n, tuple(letters))
        nf = normal_form(w)
        assert (nf.n, nf.inf, nf.factors) == (n, inf, factors)


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


# ---------------------------------------------------------------------------
# Dynnikov coordinates against the Garside oracle


def all_words(n, max_len):
    letters = list(range(1, n)) + [-i for i in range(1, n)]
    return [BraidWord(n, t) for length in range(max_len + 1)
            for t in itertools.product(letters, repeat=length)]


@pytest.mark.parametrize("n, max_len, count", [(3, 7, 21845), (4, 5, 9331)])
def test_dynnikov_splits_short_words_into_the_normal_form_classes(n, max_len, count):
    words = all_words(n, max_len)
    assert len(words) == count
    keys = {(dynnikov(w), normal_form(w)) for w in words}
    # equal coordinates exactly when equal normal forms: each key of one
    # side meets one key of the other
    assert len(keys) == len({d for d, _ in keys}) == len({f for _, f in keys})


def commutator_of_squares(i):
    """[sigma_i^2, sigma_(i+1)^2]: a nontrivial pure braid of exponent sum 0."""
    return (i, i, i + 1, i + 1, -i, -i, -(i + 1), -(i + 1))


@st.composite
def engineered_pairs(draw, max_len=40):
    """Pairs on one strand count n in 2..8: two random words, or a word
    and a copy with a relator inserted (equal), a letter inserted
    (unequal), a nontrivial pure braid of exponent sum 0 inserted when
    n > 2 (unequal, same exponent sum and permutation), or two adjacent
    letters swapped (equal when they commute)."""
    n = draw(st.integers(min_value=2, max_value=8))
    u = draw(words_strategy(n, max_len=max_len))
    pos = draw(st.integers(min_value=0, max_value=len(u.letters)))
    index = st.integers(min_value=1, max_value=n - 1)
    kind = draw(st.sampled_from(["random", "relator", "letter", "swap"] + ["pure"] * (n > 2)))
    if kind == "random":
        return u, draw(words_strategy(n, max_len=max_len))
    if kind == "relator":
        piece = draw(st.sampled_from(relators(n)))
    elif kind == "letter":
        piece = (draw(index) * draw(st.sampled_from([1, -1])),)
    elif kind == "pure":
        piece = commutator_of_squares(draw(st.integers(min_value=1, max_value=n - 2)))
    else:
        ls = list(u.letters)
        if pos + 1 < len(ls):
            ls[pos], ls[pos + 1] = ls[pos + 1], ls[pos]
        return u, BraidWord(n, tuple(ls))
    return u, BraidWord(n, u.letters[:pos] + piece + u.letters[pos:])


@given(engineered_pairs())
@settings(max_examples=400, deadline=None)
def test_equal_agrees_with_the_garside_oracle(pair):
    u, v = pair
    assert equal(u, v) == (normal_form(u) == normal_form(v))


@given(words_on_common_strands(1, max_len=60))
@settings(max_examples=200, deadline=None)
def test_a_word_times_its_inverse_fixes_the_trivial_lamination(words):
    (w,) = words
    assert dynnikov(compose(w, invert(w))) == (0, 1) * w.n
    assert dynnikov(compose(invert(w), w)) == (0, 1) * w.n


@pytest.mark.parametrize("n", range(2, 9))
def test_every_relator_acts_trivially_after_a_random_prefix(n):
    rng = random.Random(n)
    for _ in range(20):
        prefix = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(30))
        start = dynnikov(BraidWord(n, prefix))
        for rel in relators(n):
            assert dynnikov(BraidWord(n, prefix + rel)) == start


@pytest.mark.parametrize("n", range(2, 9))
def test_the_full_twist_is_not_the_identity(n):
    twist = BraidWord(n, tuple(delta_letters(n)) * 2)
    assert dynnikov(twist) != (0, 1) * n
    assert not equal(twist, word(n))
    assert normal_form(twist).inf == 2


# ---------------------------------------------------------------------------
# The two-list kernel against the flat-list one it replaced


def reference_dynnikov(w):
    """`dynnikov` on one flat list (x_1, y_1, ..., x_n, y_n), each letter's
    four entries read at 2|letter| - 2 and the y's split into (y+, y-)
    pairs; the same rules, clamps written as conditional expressions."""
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


@st.composite
def run_words(draw, max_len=400):
    """A word on n strands, n in 1..10, of at most `max_len` letters, as
    runs of one letter repeated 1 to 60 times: long runs are Dehn twist
    powers, and alternating runs on adjacent strands grow the coordinates
    geometrically."""
    n = draw(st.integers(min_value=1, max_value=10))
    if n == 1:
        return BraidWord(1, ())
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda i: st.sampled_from([i, -i]))
    runs = draw(st.lists(st.tuples(letter, st.integers(min_value=1, max_value=60)),
                         max_size=max_len))
    letters = []
    for x, count in runs:
        letters += [x] * count
        if len(letters) >= max_len:
            break
    return BraidWord(n, tuple(letters[:max_len]))


def coordinate_bits(coords):
    return max(abs(c).bit_length() for c in coords)


@given(run_words())
@example(BraidWord(3, (1, -2) * 200))
@example(BraidWord(10, ((4,) * 3 + (-5,) * 3 + (8,) * 3 + (-9,) * 3) * 33))
@settings(max_examples=400, deadline=None)
def test_dynnikov_equals_the_flat_list_reference(w):
    coords = dynnikov(w)
    # steer towards words whose coordinates are hundreds of bits long
    target(float(coordinate_bits(coords)))
    assert coords == reference_dynnikov(w)


@pytest.mark.parametrize("n, letters, bits", [
    (3, (1, -2) * 200, 278),
    (4, ((1,) * 5 + (-2,) * 5) * 40, 191),
    (8, (-7, 6) * 150 + (2,) * 100, 209),
    (10, ((4,) * 3 + (-5,) * 3 + (8,) * 3 + (-9,) * 3) * 33, 115),
])
def test_alternating_runs_grow_the_coordinates_to_hundreds_of_bits(n, letters, bits):
    w = BraidWord(n, letters)
    coords = dynnikov(w)
    assert coordinate_bits(coords) == bits
    assert coords == reference_dynnikov(w)


# ---------------------------------------------------------------------------
# Hard negatives: unequal pairs with equal exponent sum and permutation,
# whose known answer comes from the unreduced Burau matrix at t = 2


def burau(w):
    """The unreduced Burau matrix of w at t = 2: sigma_i acts on columns
    i-1, i by [[1 - t, t], [1, 0]], sigma_i^-1 by its inverse."""
    t = Fraction(2)
    m = [[Fraction(int(r == c)) for c in range(w.n)] for r in range(w.n)]
    for letter in w.letters:
        i = abs(letter) - 1
        (a, b), (c, d) = ((1 - t, t), (1, 0)) if letter > 0 else ((0, 1), (1 / t, 1 - 1 / t))
        for row in m:
            x, y = row[i], row[i + 1]
            row[i], row[i + 1] = x * a + y * c, x * b + y * d
    return m


def exponent_sum(w):
    return sum(1 if x > 0 else -1 for x in w.letters)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_burau_at_two_is_a_representation(n):
    identity = burau(word(n))
    for rel in relators(n):
        assert burau(BraidWord(n, rel)) == identity


@pytest.mark.parametrize("n", [3, 4, 8])
def test_hard_negatives_are_unequal(n):
    # v = u [sigma_1^2, sigma_2^2]: Burau is a homomorphism, so a Burau
    # matrix of the commutator other than the identity makes u != v
    c = commutator_of_squares(1)
    rng = random.Random(n)
    for _ in range(10):
        u = BraidWord(n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(30)))
        v = BraidWord(n, u.letters + c)
        assert exponent_sum(u) == exponent_sum(v)
        assert permutation_image(u) == permutation_image(v)
        assert burau(u) != burau(v)
        assert not equal(u, v)
        assert normal_form(u) != normal_form(v)


@pytest.mark.parametrize("row", ["row14", "row15"])
def test_the_ledger_readings_that_agree_in_exponent_sum_and_permutation(row):
    record = {r.id: r for r in catalog()}[f"halftwist-transversal/{row}.printed"]
    u, v = record.lhs, record.rhs
    assert exponent_sum(u) == exponent_sum(v)
    assert permutation_image(u) == permutation_image(v)
    assert burau(u) != burau(v)
    assert not equal(u, v)
    assert normal_form(u) != normal_form(v)
