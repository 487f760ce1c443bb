import gc
import pickle
import random
import traceback
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidwork import hurwitz
from braidwork.catalog import artin_system, coxeter_system, tau_word
from braidwork.groups import (
    ARTIN3_A,
    ARTIN3_B,
    Artin3,
    PERM3_R,
    PERM3_S,
    PERM3_T,
    artin_from_word,
    perm_from_name,
)
from braidwork.hurwitz import (
    DEFAULT_ORBIT_CAP,
    OrbitCapExceeded,
    act_letter,
    act_word,
    orbit,
    ordered_product,
    schreier_generators,
    stabilizes,
)
from braidwork.garside import equal
from braidwork.words import BraidWord, compose, invert, word

from test_words import words_strategy

s, t, r = PERM3_S, PERM3_T, PERM3_R
a, b = ARTIN3_A, ARTIN3_B


# --- independent oracle ----------------------------------------------------
# Exhaustive closure over S_3^n computed from scratch: permutations as
# image tuples, composition written out directly, both generator signs.

def _mul(p, q):
    return tuple(q[x] for x in p)


def _inv(p):
    out = [0, 0, 0]
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def oracle_orbit_size(base):
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for tup in frontier:
            for i in range(len(tup) - 1):
                g, h = tup[i], tup[i + 1]
                images = [
                    tup[:i] + (_mul(_mul(g, h), _inv(g)), g) + tup[i + 2:],
                    tup[:i] + (h, _mul(_mul(_inv(h), g), h)) + tup[i + 2:],
                ]
                for im in images:
                    if im not in seen:
                        seen.add(im)
                        nxt.append(im)
        frontier = nxt
    return len(seen)


ORACLE_S = (1, 0, 2)
ORACLE_T = (0, 2, 1)


def oracle_alternating(n):
    return tuple(ORACLE_S if i % 2 == 0 else ORACLE_T for i in range(n))


# sizes computed by the oracle, frozen as regression values
ORACLE_ORBIT_SIZES = {2: 3, 3: 8, 4: 27, 5: 80, 6: 240}


def test_oracle_orbit_sizes_are_the_frozen_values():
    for n, expected in ORACLE_ORBIT_SIZES.items():
        assert oracle_orbit_size(oracle_alternating(n)) == expected


def test_orbit_sizes_match_oracle():
    for n, expected in ORACLE_ORBIT_SIZES.items():
        assert len(orbit(coxeter_system(n))) == expected


# --- action basics ---------------------------------------------------------

def test_act_letter_examples():
    assert act_letter(1, 1, (s, t, s)) == (r, s, s)
    tup = (s, t, r, s)
    assert act_letter(1, -1, act_letter(1, 1, tup)) == tup
    assert act_letter(2, 1, act_letter(2, -1, tup)) == tup


def test_act_letter_index_range():
    with pytest.raises(ValueError):
        act_letter(3, 1, (s, t, s))


def test_act_word_examples():
    assert act_word(word(4, -1, 2), (s, t, s, t)) == (r, t, t, t)
    assert act_word(word(4), (s, t, s, t)) == (s, t, s, t)
    tau1 = tau_word(1, 6)
    conj = artin_from_word("BB")
    expected = tuple(conj * g * conj.inverse() for g in artin_system(6))
    assert act_word(tau1, artin_system(6)) == expected
    assert expected[0] == artin_from_word("BBabb")


def test_act_word_arity_mismatch():
    with pytest.raises(ValueError):
        act_word(word(5, 1), (s, t, s))


def test_stabilizes_examples():
    assert stabilizes(word(2, 1, 1, 1), (s, t))
    assert not stabilizes(word(2, 1), (s, t))
    assert stabilizes(tau_word(1, 6), coxeter_system(6))
    assert not stabilizes(tau_word(1, 6), artin_system(6))


def test_orbit_of_constant_tuple_is_a_point():
    assert len(orbit((s, s))) == 1
    assert len(orbit((t, t, t))) == 1


def test_orbit_cap_raises():
    with pytest.raises(OrbitCapExceeded):
        orbit(coxeter_system(6), cap=100)


@pytest.mark.parametrize("base", [coxeter_system(5), artin_system(4)])
def test_orbit_cap_boundary(base):
    size = len(orbit(base))
    assert len(orbit(base, cap=size)) == size
    with pytest.raises(OrbitCapExceeded) as info:
        orbit(base, cap=size - 1)
    assert (info.value.cap, info.value.seen) == (size - 1, size - 1)


@pytest.mark.parametrize("base", [coxeter_system(3), artin_system(3)])
@pytest.mark.parametrize("cap", [0, -1])
def test_orbit_rejects_a_non_positive_cap(base, cap):
    with pytest.raises(ValueError, match="cap"):
        orbit(base, cap=cap)


def test_orbit_rejects_an_empty_base():
    with pytest.raises(ValueError, match="orbit base"):
        orbit(())


def test_artin_orbit_needs_a_cap():
    # the length-5 alternating Artin system has an infinite orbit
    with pytest.raises(OrbitCapExceeded):
        orbit(artin_system(5), cap=50)


def test_short_artin_orbits_match_coxeter_orbits():
    # for lengths up to 4 the Artin and Coxeter stabilizers coincide,
    # so the orbits have the same size
    for n in (2, 3, 4):
        assert len(orbit(artin_system(n))) == ORACLE_ORBIT_SIZES[n]


def test_transversal_is_positive_prefix_closed_and_correct():
    table = orbit(coxeter_system(4))
    words = set(w.letters for w in table.transversal.values())
    for elt, w in table.transversal.items():
        assert all(letter > 0 for letter in w.letters)
        assert act_word(w, table.base) == elt
        if w.letters:
            # removing the letter applied last (the leftmost one) gives
            # another transversal word: the Schreier property in BFS order
            assert w.letters[1:] in words


@pytest.mark.parametrize("base", [coxeter_system(6), coxeter_system(8), artin_system(4)])
def test_transversal_meets_each_suffix_before_its_word(base):
    # the order half_twist_classification relies on: reading the
    # transversal in order, a word's letters[1:] has already been read
    met = set()
    for w in orbit(base).transversal.values():
        if w.letters:
            assert w.letters[1:] in met
        met.add(w.letters)


def test_schreier_generators_stabilize_and_count():
    table = orbit(coxeter_system(3))
    gens = schreier_generators(table)
    assert len(gens) == len(table) * 2
    for g in gens:
        assert stabilizes(g, table.base)


def test_schreier_generator_contains_triple_twist_for_two_strands():
    table = orbit(coxeter_system(2))
    gens = schreier_generators(table)
    assert any(equal(g, word(2, 1, 1, 1)) for g in gens)


# --- properties ------------------------------------------------------------

TRANSPOSITIONS = (s, t, r)


@given(words_strategy(5, max_len=16), st.lists(st.sampled_from(TRANSPOSITIONS),
                                               min_size=5, max_size=5))
@settings(max_examples=300)
def test_product_invariant(w, entries):
    tup = tuple(entries)
    assert ordered_product(act_word(w, tup)) == ordered_product(tup)


@given(words_strategy(5, max_len=10), words_strategy(5, max_len=10),
       st.lists(st.sampled_from(TRANSPOSITIONS), min_size=5, max_size=5))
@settings(max_examples=200)
def test_action_is_compatible_with_composition(u, v, entries):
    tup = tuple(entries)
    assert act_word(compose(u, v), tup) == act_word(u, act_word(v, tup))


@given(st.integers(min_value=1, max_value=4),
       st.lists(st.sampled_from(TRANSPOSITIONS), min_size=5, max_size=5))
@settings(max_examples=100)
def test_inverse_acts_like_square_on_transposition_tuples(i, entries):
    tup = tuple(entries)
    assert act_letter(i, -1, tup) == act_word(word(5, i, i), tup)


def reference_orbit(base, cap):
    """The plain search: a deque of states and one act_letter per image."""
    n = len(base)
    transversal = {base: BraidWord(n, ())}
    queue = deque([base])
    while queue:
        current = queue.popleft()
        current_word = transversal[current]
        for i in range(1, n):
            image = act_letter(i, 1, current)
            if image not in transversal:
                if len(transversal) >= cap:
                    raise OrbitCapExceeded(cap, len(transversal))
                transversal[image] = BraidWord(n, (i,) + current_word.letters)
                queue.append(image)
    return transversal


def _orbit_outcome(search, base, cap):
    try:
        return list(search(base, cap).items())
    except OrbitCapExceeded as exc:
        return ("cap", exc.cap, exc.seen)


S3_VALUES = tuple(perm_from_name(x) for x in ("e", "s", "t", "r", "st", "ts"))
B3_VALUES = st.text("aAbB", max_size=3).map(artin_from_word)


@st.composite
def _word_and_b3_tuple(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    values = draw(st.lists(B3_VALUES, min_size=n, max_size=n))
    return draw(words_strategy(n, max_len=12)), tuple(values)


@given(_word_and_b3_tuple())
@settings(max_examples=200)
def test_action_commutes_with_the_quotient_to_s3(case):
    # why a band that fixes artin_system(n) fixes coxeter_system(n), its image
    w, tup = case

    def image(values):
        return tuple(g.to_perm3() for g in values)

    assert act_word(w, image(tup)) == image(act_word(w, tup))


def _assert_words_are_checked_words(transversal):
    # orbit builds its words without the letter check; each must be the
    # word the checked constructor gives
    for w in transversal.values():
        checked = BraidWord(w.n, w.letters)
        assert type(w) is BraidWord
        assert w == checked and hash(w) == hash(checked)
        assert pickle.loads(pickle.dumps(w)) == checked


# caps of 1 to 3 make the id width min(n + cap, |G|).bit_length() tightest
@given(st.one_of(st.lists(st.sampled_from(S3_VALUES), min_size=1, max_size=8),
                 st.lists(B3_VALUES, min_size=1, max_size=8)),
       st.one_of(st.integers(min_value=1, max_value=3),
                 st.integers(min_value=1, max_value=300)))
@settings(max_examples=300, deadline=None)
def test_orbit_matches_the_reference_search(entries, cap):
    base = tuple(entries)
    fast = _orbit_outcome(lambda b, c: orbit(b, c).transversal, base, cap)
    assert fast == _orbit_outcome(reference_orbit, base, cap)
    if isinstance(fast, list):
        _assert_words_are_checked_words(dict(fast))


# under the default cap the id width comes from |S3| = 6, not from the cap
@pytest.mark.parametrize("n", range(2, 9))
def test_coxeter_orbits_under_the_default_cap_match_the_reference_search(n):
    base = coxeter_system(n)
    table = orbit(base)
    assert list(table.transversal.items()) == list(
        reference_orbit(base, DEFAULT_ORBIT_CAP).items())
    _assert_words_are_checked_words(table.transversal)


def eager_orbit(base, cap):
    """The packed search that builds each state's value tuple and word as
    the state joins the transversal: the reference for ``orbit``, which
    keeps only codes and letters until the search closes."""
    n = len(base)
    order = base[0].order
    width = (n + cap if order is None else min(n + cap, order)).bit_length()
    id_mask = (1 << width) - 1
    pair_mask = (1 << 2 * width) - 1
    ids, values = {}, []

    def intern(value):
        k = ids.setdefault(value, len(values))
        if k == len(values):
            values.append(value)
        return k

    code = sum(intern(g) << width * j for j, g in enumerate(base))
    transversal = {base: BraidWord(n, ())}
    seen = {code}
    queue = [(code, base, ())]
    moves = {}
    positions = [(i, width * (i - 1)) for i in range(1, n)]
    for code, current, prefix in queue:
        for i, shift in positions:
            pair = code >> shift & pair_mask
            try:
                flip = moves[pair]
            except KeyError:
                left, right = act_letter(1, 1, (values[pair & id_mask], values[pair >> width]))
                flip = moves[pair] = pair ^ (intern(left) | intern(right) << width)
            if not flip:
                continue
            image = code ^ flip << shift
            if image not in seen:
                if len(transversal) >= cap:
                    raise OrbitCapExceeded(cap, len(transversal))
                seen.add(image)
                ids_at = image >> shift
                moved = (values[ids_at & id_mask], values[ids_at >> width & id_mask])
                state = current[: i - 1] + moved + current[i + 1:]
                letters = (i,) + prefix
                transversal[state] = BraidWord(n, letters)
                queue.append((image, state, letters))
    return transversal


def _random_s3_base(n):
    rng = random.Random(n)
    return tuple(rng.choice(S3_VALUES) for _ in range(n))


def _sparse_base(n, entries, identity):
    """``entries`` at seeded positions of an n-tuple of ``identity``; with
    few entries that are not the identity, the orbit closes small at any n."""
    spots = sorted(random.Random(n).sample(range(n), len(entries)))
    base = [identity] * n
    for spot, g in zip(spots, entries):
        base[spot] = g
    return tuple(base)


@pytest.mark.parametrize("base, cap", [
    *[(coxeter_system(n), DEFAULT_ORBIT_CAP) for n in range(2, 9)],
    *[(_random_s3_base(n), DEFAULT_ORBIT_CAP) for n in (6, 7, 8)],
    *[(artin_system(n), 1000) for n in (2, 3, 4)],
    *[(artin_system(5), cap) for cap in (1, 40, 1000)],
    (coxeter_system(6), 240),
    (coxeter_system(6), 239),
    # three chunks of four entries: closing and capped S3 bases, a closing B3 base
    *[(coxeter_system(n), DEFAULT_ORBIT_CAP) for n in (9, 10)],
    *[(coxeter_system(n), 5000) for n in (11, 12)],
    *[(_random_s3_base(n), 3000) for n in (9, 12)],
    *[(_sparse_base(n, (s, t, r), S3_VALUES[0]), DEFAULT_ORBIT_CAP) for n in range(9, 13)],
    (_sparse_base(11, (a, b, a), artin_from_word("")), 5000),
])
def test_orbit_matches_the_eager_search(base, cap):
    # the transversal in order, or the cap and the states found at it
    fast = _orbit_outcome(lambda b, c: orbit(b, c).transversal, base, cap)
    assert fast == _orbit_outcome(eager_orbit, base, cap)
    if isinstance(fast, list):
        _assert_words_are_checked_words(dict(fast))


def test_the_coxeter_orbit_at_n6_closes_at_cap_240():
    assert len(orbit(coxeter_system(6), 240)) == 240
    with pytest.raises(OrbitCapExceeded) as info:
        orbit(coxeter_system(6), 239)
    assert (info.value.cap, info.value.seen) == (239, 239)


@pytest.mark.parametrize("cap", [40, 5000])
def test_a_capped_search_builds_no_word(cap, monkeypatch):
    built = []
    build = hurwitz._words_in_range

    def counted(n, letters):
        built.append(letters)
        return build(n, letters)

    monkeypatch.setattr(hurwitz, "_words_in_range", counted)
    with pytest.raises(OrbitCapExceeded) as info:
        orbit(artin_system(5), cap)
    assert (info.value.cap, info.value.seen) == (cap, cap)
    assert built == []
    # a search that closes builds one word per state, once
    assert len(orbit(artin_system(4), cap)) == 27
    assert [len(spelled) for spelled in built] == [27]


class _FailingProduct:
    """A group value whose product raises, to end a search by an error."""

    __slots__ = ()
    order = None

    def __mul__(self, other):
        raise ArithmeticError("no product")

    def inverse(self):
        return self


def _closes():
    assert len(orbit(coxeter_system(6))) == 240


def _hits_its_cap():
    with pytest.raises(OrbitCapExceeded):
        orbit(artin_system(5), 40)


def _fails_in_a_product():
    with pytest.raises(ArithmeticError, match="no product"):
        orbit((_FailingProduct(), _FailingProduct()))


@pytest.fixture
def restore_collector():
    """Puts the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("search", [_closes, _hits_its_cap, _fails_in_a_product],
                         ids=lambda search: search.__name__.strip("_"))
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_orbit_leaves_the_collector_as_it_found_it(search, enabled, restore_collector):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    search()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("base, cap", [(coxeter_system(5), DEFAULT_ORBIT_CAP),
                                       (artin_system(4), 100), (artin_system(5), 40)])
def test_the_search_runs_with_the_collector_paused(base, cap, restore_collector, monkeypatch):
    gc.enable()
    seen = []
    plain_act_letter = hurwitz.act_letter

    def observing_act_letter(*args):
        seen.append(gc.isenabled())
        return plain_act_letter(*args)

    monkeypatch.setattr(hurwitz, "act_letter", observing_act_letter)
    try:
        orbit(base, cap)
    except OrbitCapExceeded:
        pass
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collection_an_orbit_earns_runs_inside_the_call(enabled, restore_collector):
    gc.collect()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    if not enabled:
        gc.disable()
    gc.callbacks.append(count)
    try:
        table = orbit(coxeter_system(7))
        during = len(starts)
    finally:
        gc.callbacks.remove(count)
    assert len(table) > gc.get_threshold()[0]
    assert during == (1 if enabled else 0)


def test_a_capped_orbit_keeps_none_of_its_search_tables():
    with pytest.raises(OrbitCapExceeded) as caught:
        orbit(artin_system(5), 1000)
    assert caught.value.seen == 1000
    frames = [frame for frame, _ in traceback.walk_tb(caught.value.__traceback__)]
    assert frames[-1].f_code.co_name == "orbit"
    assert not any({"seen", "codes", "letters"} & frame.f_locals.keys() for frame in frames)


@pytest.mark.parametrize("n, cap", [(4, 1000), (5, 1000), (5, 1), (8, 3)])
def test_orbit_hashes_each_group_value_a_bounded_number_of_times(n, cap, monkeypatch):
    # n hashes per state for its tuple's transversal key, one per base
    # entry and two per computed move to intern the values; a search that
    # hashed a state's entries per move would make about n per move
    base = artin_system(n)
    calls = {"hash": 0, "act_letter": 0}
    plain_hash, plain_act_letter = Artin3.__hash__, hurwitz.act_letter

    def counting_hash(self):
        calls["hash"] += 1
        return plain_hash(self)

    def counting_act_letter(*args):
        calls["act_letter"] += 1
        return plain_act_letter(*args)

    monkeypatch.setattr(Artin3, "__hash__", counting_hash)
    monkeypatch.setattr(hurwitz, "act_letter", counting_act_letter)
    try:
        states = len(orbit(base, cap))
    except OrbitCapExceeded as exc:
        states = exc.seen
    assert calls["act_letter"] > 0
    assert calls["hash"] <= (n + 1) * states + 2 * n + 2 * calls["act_letter"]


def test_equal_words_act_identically_on_the_full_orbit():
    table = orbit(coxeter_system(6))
    pairs = [
        (word(6, 1, 2, 1), word(6, 2, 1, 2)),
        (word(6, 1, 3), word(6, 3, 1)),
        (word(6, 4, -4, 5), word(6, 5)),
    ]
    for u, v in pairs:
        assert equal(u, v)
        for elt in table.transversal:
            assert act_word(u, elt) == act_word(v, elt)


# --- desk-scale free-action checks ----------------------------------------

def reduced_words(letters, max_len):
    """Freely reduced words over the given letters and their inverses,
    as tuples of (index, sign)."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for idx in range(len(letters)):
                for sign in (1, -1):
                    if w and w[-1] == (idx, -sign):
                        continue
                    nxt.append(w + ((idx, sign),))
        out.extend(nxt)
        frontier = nxt
    return out


def test_squares_subgroup_moves_alternating_artin_systems():
    aa, bb = artin_from_word("aa"), artin_from_word("bb")
    letters = (aa, bb)
    for wspec in reduced_words(letters, max_len=3):
        if not wspec:
            continue
        h = artin_from_word("")
        for idx, sign in wspec:
            h = h * (letters[idx] if sign > 0 else letters[idx].inverse())
        for n in range(2, 7):
            system = artin_system(n)
            conjugated = tuple(h * g * h.inverse() for g in system)
            assert conjugated != system


def test_twist_words_act_freely_on_the_alternating_artin_system():
    tau1, tau2 = tau_word(1, 6), tau_word(2, 6)
    letters = (tau1, tau2)
    seen = {}
    for wspec in reduced_words(letters, max_len=2):
        braid = word(6)
        for idx, sign in wspec:
            braid = compose(braid, letters[idx] if sign > 0 else invert(letters[idx]))
        image = act_word(braid, artin_system(6))
        assert image not in seen, f"collision between {seen[image]} and {wspec}"
        seen[image] = wspec
