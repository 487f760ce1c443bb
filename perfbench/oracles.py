"""Known answers, computed without the code under test.

Each ``check_*`` function takes one generated input and the verdict the
program gave for it, and returns a list of failure messages (empty when
the verdict is right).  The answers come from facts that need none of
braidwork's algorithms:

* word pairs are equal by construction, or differ in exponent sum, which
  every braid relation preserves;
* Hurwitz orbits over S3 are enumerated again here with permutations as
  plain tuples, and over the three-strand group with the faithful key
  (image in SL(2, Z), exponent sum): a -> [[1,1],[0,1]], b -> [[1,0],[-1,1]];
  the kernel of B3 -> SL(2, Z) is generated by Delta^4, which has exponent
  sum 12, so the pair is injective;
* loops of the cusp and tangency families give s_1^(3m) and s_1^m on two
  strands, where Br_2 is infinite cyclic and the exponent sum decides;
* a positive loop around one simple critical value of x^k - k x is a
  conjugate of a generator: exponent sum 1 and a transposition.
"""

from __future__ import annotations

import random
from collections import deque

from inputs import exponent_sum

# ---------------------------------------------------------------------------
# word-problem


def check_pair(pair: dict, verdict) -> list[str]:
    su, sv = exponent_sum(pair["u"]), exponent_sum(pair["v"])
    if pair["expect_equal"]:
        if su != sv:
            return [f"generator error: equal pair with exponent sums {su} != {sv}"]
        expected = True
    else:
        if su == sv:
            return ["generator error: unequal pair with equal exponent sums"]
        expected = False
    if verdict is not expected:
        return [f"equal() returned {verdict!r}, known answer {expected!r}"]
    return []


def check_rows(rows: list[dict]) -> list[str]:
    """Every catalogued row must come back verified."""
    return [f"row {row['id']} is {row['status']}" for row in rows
            if row["status"] != "verified"]


# ---------------------------------------------------------------------------
# Hurwitz action over S3 (tuples of images) and B3 (SL(2, Z) keys)

S3_NAMES = {
    (1, 2, 3): "e", (2, 1, 3): "s", (1, 3, 2): "t", (3, 2, 1): "r",
    (3, 1, 2): "st", (2, 3, 1): "ts",
}
S3_BY_NAME = {name: p for p, name in S3_NAMES.items()}


def s3_mul(p, q):
    """Writing order: apply p, then q."""
    return tuple(q[x - 1] for x in p)


def s3_inv(p):
    out = [0, 0, 0]
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


_GEN = {"a": ((1, 1), (0, 1)), "b": ((1, 0), (-1, 1)),
        "A": ((1, -1), (0, 1)), "B": ((1, 0), (1, 1))}


def _mm(x, y):
    return ((x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
            (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]))


def b3_key(text: str):
    """(matrix, exponent sum) of a word over a, b with capitals as inverses."""
    m, e = ((1, 0), (0, 1)), 0
    for c in text:
        m = _mm(m, _GEN[c])
        e += 1 if c in "ab" else -1
    return m, e


def b3_key_of_letters(letters) -> tuple:
    return b3_key("".join("ab"[abs(x) - 1] if x > 0 else "AB"[abs(x) - 1] for x in letters))


def b3_mul(g, h):
    return _mm(g[0], h[0]), g[1] + h[1]


def b3_inv(g):
    (a, b), (c, d) = g[0]
    return ((d, -b), (-c, a)), -g[1]


GROUPS = {
    "s3": (s3_mul, s3_inv, lambda name: S3_BY_NAME[name]),
    "b3": (b3_mul, b3_inv, b3_key),
}


def act_letter(group: str, i: int, sign: int, system: tuple) -> tuple:
    mul, inv, _ = GROUPS[group]
    g, h = system[i - 1], system[i]
    pair = (mul(mul(g, h), inv(g)), g) if sign > 0 else (h, mul(mul(inv(h), g), h))
    return system[: i - 1] + pair + system[i + 1:]


def act_word(group: str, letters, system: tuple) -> tuple:
    for x in reversed(letters):
        system = act_letter(group, abs(x), 1 if x > 0 else -1, system)
    return system


def orbit_size(group: str, base: tuple, cap: int | None) -> int | None:
    """Size of the orbit under the positive generators, or None when it
    has more than ``cap`` states."""
    seen = {base}
    queue = deque([base])
    while queue:
        current = queue.popleft()
        for i in range(1, len(base)):
            image = act_letter(group, i, 1, current)
            if image not in seen:
                if cap is not None and len(seen) >= cap:
                    return None
                seen.add(image)
                queue.append(image)
    return len(seen)


def check_orbit(job: dict, outcome: dict, rng: random.Random, replays: int = 32) -> list[str]:
    """``outcome`` is what the program reported: ``capped``, ``states``
    (orbit size, or states found when the cap was hit) and, for finite
    orbits, ``transversal``: [element, word letters] pairs where the
    element is a list of S3 names or of three-strand words (letters)."""
    group = job["group"]
    parse = GROUPS[group][2]
    base = tuple(parse(x) for x in job["base"])
    cap = job["cap"]
    size = orbit_size(group, base, cap)
    failures = []
    published = job.get("published")
    if published == "cap" and size is not None:
        failures.append(f"oracle disagrees with published outcome: finite orbit of {size}")
    elif isinstance(published, int) and size != published:
        failures.append(f"oracle size {size} differs from published {published}")
    if size is None:
        if not outcome["capped"] or outcome["states"] != cap:
            failures.append(f"expected the cap of {cap} to be hit, program reported {outcome}")
        return failures
    if outcome["capped"] or outcome["states"] != size:
        return failures + [f"expected orbit size {size}, program reported "
                           f"{'cap' if outcome['capped'] else outcome['states']}"]
    entries = outcome["transversal"]
    for element, letters in rng.sample(entries, min(replays, len(entries))):
        if group == "s3":
            expected = tuple(S3_BY_NAME[name] for name in element)
        else:
            expected = tuple(b3_key_of_letters(w) for w in element)
        if act_word(group, letters, base) != expected:
            failures.append(f"transversal word {letters} does not reach {element}")
            break
    return failures


# ---------------------------------------------------------------------------
# monodromy


def permutation_of(n: int, letters) -> tuple[int, ...]:
    perm = list(range(n))
    for x in letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def check_anchor(family: str, turns: int, word: dict) -> list[str]:
    expected = (3 if family == "cusp" else 1) * turns
    got = exponent_sum(word["word"])
    if word["n"] != 2 or got != expected:
        return [f"{family} loop with {turns} turns gave {word}, known answer s_1^{expected}"]
    return []


def check_tame(k: int, word: dict) -> list[str]:
    perm = permutation_of(word["n"], word["word"])
    moved = sum(1 for i, p in enumerate(perm) if i != p)
    if word["n"] != k or exponent_sum(word["word"]) != 1 or moved != 2:
        return [f"tame loop for k={k} gave {word}: known answer is a conjugate of a "
                "generator (exponent sum 1, a transposition)"]
    return []
