"""The Hurwitz action of Br_n on n-tuples over a coefficient group.

The generator sigma_i sends (..., g_i, g_{i+1}, ...) to
(..., g_i g_{i+1} g_i^-1, g_i, ...); its inverse sends the pair to
(g_{i+1}, g_{i+1}^-1 g_i g_{i+1}).  Words act with letters applied right
to left, so act_word(u * v, T) = act_word(u, act_word(v, T)); equal braid
words induce the same map.

Orbits of tuples over a finite (or effectively finite) group are
enumerated with a deterministic breadth-first search over the positive
generators only -- on a finite orbit every sigma_i acts as a bijection,
so positive words already reach everything and the transversal consists
of positive braids.  The search is serial and deterministic (generator
index ascending, FIFO queue); any parallel replacement must reproduce
its exact output.  Its queue is the list of states in the order they
enter the transversal, read front to back as it grows.

The search hashes group values only to intern them and to key the
transversal, never per move.  A value gets a small int id the first time
it is met, and a state is packed into one int, w bits per entry with
w = min(n + cap, |G|).bit_length(), which bounds every id (see
``orbit``); |G| is the coefficient type's ``order``, None for the
infinite B3, where w = (n + cap).bit_length().  Over S3, w <= 3, so a
state of length 8 fits in 24 bits.  The seen-set holds these ints.
Each Hurwitz move is computed once per distinct adjacent pair (g, h) by
``act_letter`` and then looked up by the pair's 2w-bit code, as the XOR
mask that turns the pair into its image: a memo local to one ``orbit``
call, at most 36 pairs over S3 and at most (n - 1) * cap pairs over B3.
A pair the move fixes (g = h) has mask 0 and is skipped.  The search
itself keeps only codes and letters, so a capped search builds no value
tuple and no word; once the queue is exhausted, the states are decoded
from their codes and their words are built in bulk, by C-level ``map``
calls with no Python call per state, and without a second letter
check, as their letters are in range by construction (a Schreier
vector: Holt, Eick and O'Brien, Handbook of Computational Group Theory,
section 4.1).

``orbit`` runs with CPython's cyclic garbage collector paused.  CPython
starts a young collection once the containers allocated since the last
one, less those freed, pass a threshold, whether or not they stay
tracked, and an orbit keeps a few per state; but nothing it builds can
form a cycle (see ``orbit``), so those collections would traverse the
growing tables and free nothing.
"""

from __future__ import annotations

import dataclasses
import gc
from operator import add
from typing import Callable

from .words import BraidWord, _words_in_range, compose, invert

System = tuple  # an n-tuple of coefficient-group values

DEFAULT_ORBIT_CAP = 10**6


class OrbitCapExceeded(RuntimeError):
    """Raised when orbit enumeration exceeds its state cap."""

    def __init__(self, cap: int, seen: int):
        super().__init__(f"orbit exceeded cap of {cap} states ({seen} found)")
        self.cap = cap
        self.seen = seen


def act_letter(i: int, sign: int, system: System) -> System:
    """Apply sigma_i (sign +1) or sigma_i^-1 (sign -1) to the tuple."""
    if not 1 <= i <= len(system) - 1:
        raise ValueError(f"generator index {i} out of range for length {len(system)}")
    g, h = system[i - 1], system[i]
    if sign > 0:
        pair = ((g * h) * g.inverse(), g)
    else:
        pair = (h, (h.inverse() * g) * h)
    return system[: i - 1] + pair + system[i + 1 :]


def act_word(w: BraidWord, system: System) -> System:
    """Apply a braid word, rightmost letter first."""
    if w.n != len(system):
        raise ValueError(f"arity mismatch: word on {w.n} strands, tuple of length {len(system)}")
    for letter in reversed(w.letters):
        system = act_letter(abs(letter), 1 if letter > 0 else -1, system)
    return system


def stabilizes(w: BraidWord, system: System) -> bool:
    return act_word(w, system) == system


def ordered_product(system: System):
    """The product g_1 g_2 ... g_n, which every Hurwitz move preserves."""
    out = system[0]
    for g in system[1:]:
        out = out * g
    return out


@dataclasses.dataclass(frozen=True)
class OrbitTable:
    """A Br_n orbit with a positive Schreier transversal.

    ``transversal`` maps each orbit element to the first-discovered
    positive word w with act_word(w, base) = element.  Words grow by
    prepending the applied generator (the leftmost letter acts last), so
    the word set is closed under removing the leftmost letter: every
    stage of a transversal word is again a transversal word.  The
    search inserts each word's suffix ``letters[1:]`` into
    ``transversal`` before the word itself, so reading the dict in order
    meets every word after its suffix.
    """

    base: System
    transversal: dict[System, BraidWord]

    def __len__(self) -> int:
        return len(self.transversal)

    def to_json(self, render: Callable) -> list[dict]:
        return [
            {"element": [render(g) for g in elt], "word": w.to_json()}
            for elt, w in self.transversal.items()
        ]


def orbit(base: System, cap: int = DEFAULT_ORBIT_CAP) -> OrbitTable:
    """Breadth-first closure of the base tuple under sigma_1 .. sigma_{n-1}.

    Each distinct group value gets a small id, in the order the search
    meets it (``ids`` and ``values``), and a state is packed into one int
    whose bits [w j, w j + w) hold entry j's id, so the seen-set holds
    ints and no group value is hashed per move.  Ids are below n + cap:
    the base gives at most n values, and a move's only new value,
    g h g^-1, puts a value no state has yet into its image, so it comes
    with a new state -- one of the at most cap - 1 states after the base,
    or the image that hits the cap and ends the search.  Ids are also
    below |G|, the ``order`` of the base's coefficient type, as they
    index ``values``, a list of distinct group values.  So
    w = min(n + cap, |G|).bit_length() bits hold them, with |G| infinite
    (``order`` None) for B3; over S3 that is at most 3 bits, whatever
    the cap.

    ``moves`` maps the 2w-bit code of each adjacent pair (g, h) met so
    far to the XOR mask that turns it into its sigma_1 image
    (g h g^-1, g), computed once by ``act_letter``; it lives for this
    call only and holds at most 36 pairs over S3, at most (n - 1) * cap
    over B3.  A pair the move fixes (g = h) has mask 0 and is skipped.

    ``codes`` and ``letters`` list the transversal's states in insertion
    order, as packed codes and as word letters (i,) + prefix, and are
    read front to back while the search appends to them, so together
    they are the FIFO queue.  The search builds no value tuple and no
    ``BraidWord``, so a capped search ends with nothing else built.
    Once the queue is exhausted, the codes are decoded four entries at
    a time: each distinct chunk code is read once into its tuple of
    ``values``, and a C-level ``map`` looks every state's chunk up in
    that dict and joins the chunks' tuples state by state with
    ``operator.add``.  The letters run from 1 to n - 1 by
    construction, so ``words._words_in_range`` builds all the words at
    once, by ``map`` and without ``BraidWord``'s letter check.

    The search, the decode and the word build run with the cyclic
    collector paused: ``gc.disable()`` inside the ``try``, and in the
    ``finally`` ``gc.enable()`` only if the collector was enabled on
    entry, so a caller that paused it finds it paused.  No cycle can
    arise meanwhile, as every object made refers only to objects made
    before it: int codes, letter tuples of ints, value tuples, the
    dicts and lists holding them, ``BraidWord``s of an int and a letter
    tuple, and group values, which are interned ``Perm3``s or
    ``Artin3`` tuples of ints.  ``intern`` refers to ``ids`` and
    ``values`` alone, and an exception raised out of the search refers
    to the search's frame, which never refers to it.  So a collection
    could free nothing here.  The search, decode and word build are
    ``_transversal``; ``orbit`` builds the ``OrbitTable``, or the
    ``OrbitCapExceeded``, only once the collector is back on.  That
    allocation starts the collection the search has earned, so it runs
    at the end of this call, and not at whatever allocation comes next
    in the caller's code.  A capped search returns None rather than
    raising, so the exception's traceback holds none of its tables.
    """
    if not base:
        raise ValueError("orbit base must have at least one entry, got an empty tuple")
    if cap < 1:
        raise ValueError(f"orbit cap must be at least 1, got {cap}")
    collecting = gc.isenabled()
    try:
        gc.disable()
        transversal = _transversal(base, cap)
    finally:
        if collecting:
            gc.enable()
    if transversal is None:
        raise OrbitCapExceeded(cap, cap)
    return OrbitTable(base=base, transversal=transversal)


def _transversal(base: System, cap: int) -> dict[System, BraidWord] | None:
    """The transversal of ``orbit``, or None once the search meets a
    state beyond the first ``cap``."""
    n = len(base)
    order = base[0].order
    width = (n + cap if order is None else min(n + cap, order)).bit_length()
    id_mask = (1 << width) - 1
    pair_mask = (1 << 2 * width) - 1
    ids: dict[object, int] = {}
    values: list = []

    def intern(value) -> int:
        k = ids.setdefault(value, len(values))
        if k == len(values):
            values.append(value)
        return k

    code = sum(intern(g) << width * j for j, g in enumerate(base))
    seen = {code}
    codes = [code]
    letters = [()]
    moves: dict[int, int] = {}
    positions = [(i, width * (i - 1)) for i in range(1, n)]
    for code, prefix in zip(codes, letters):
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
                if len(codes) >= cap:
                    return None
                seen.add(image)
                codes.append(image)
                letters.append((i,) + prefix)
    for start in range(0, n, 4):
        shift, size = width * start, min(4, n - start)
        mask = (1 << width * size) - 1
        chunks = [code >> shift & mask for code in codes]
        pieces = {c: tuple([values[c >> width * k & id_mask] for k in range(size)])
                  for c in set(chunks)}
        decoded = map(pieces.__getitem__, chunks)
        states = list(map(add, states, decoded)) if start else list(decoded)
    return dict(zip(states, _words_in_range(n, letters)))


def schreier_generators(table: OrbitTable) -> list[BraidWord]:
    """Stabilizer generators rep(sigma_i t)^-1 * (sigma_i t), one per
    (transversal word, generator) pair; every output fixes the base tuple."""
    n = len(table.base)
    out: list[BraidWord] = []
    for element, t_word in table.transversal.items():
        for i in range(1, n):
            image = act_letter(i, 1, element)
            extended = BraidWord(n, (i,) + t_word.letters)
            rep = table.transversal[image]
            out.append(compose(invert(rep), extended))
    return out
