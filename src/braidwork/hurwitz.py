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
enter the transversal, read front to back as it grows, and each Hurwitz
move is computed once per distinct adjacent pair (g, h) by
``act_letter`` and then looked up: a memo local to one ``orbit`` call,
at most 36 pairs over S3 and at most (n - 1) * cap pairs over B3.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Callable

from .words import BraidWord, compose, invert

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
    stage of a transversal word is again a transversal word.
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

    ``states`` lists the transversal's keys in insertion order and is read
    front to back while the search appends to it, so it is the FIFO queue.
    ``moves[g][h]`` is sigma_1's image (g h g^-1, g) of each adjacent pair
    (g, h) met so far, computed once by ``act_letter``; it lives for this
    call only and holds at most 36 pairs over S3, at most (n - 1) * cap
    over B3.
    """
    if cap < 1:
        raise ValueError(f"orbit cap must be at least 1, got {cap}")
    n = len(base)
    transversal: dict[System, BraidWord] = {base: BraidWord(n, ())}
    states = [base]
    moves: defaultdict[object, dict[object, System]] = defaultdict(dict)
    for current in states:
        prefix = transversal[current].letters
        for i in range(1, n):
            g, h = current[i - 1], current[i]
            row = moves[g]
            moved = row.get(h)
            if moved is None:
                moved = row[h] = act_letter(1, 1, (g, h))
            image = current[: i - 1] + moved + current[i + 1 :]
            if image not in transversal:
                if len(transversal) >= cap:
                    raise OrbitCapExceeded(cap, len(transversal))
                transversal[image] = BraidWord(n, (i,) + prefix)
                states.append(image)
    return OrbitTable(base=base, transversal=transversal)


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
