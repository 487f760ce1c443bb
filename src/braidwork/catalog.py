"""Catalogue of named braids, distinguished systems and word identities.

The catalogue carries, in machine-readable form, the band generators
e_ij built from the alternating Coxeter matrix, the extra stabilizers
tau_1 and tau_2, the conjugating elements relating alternating systems
to the reference systems, the generator lists for the reference-system
stabilizers, and every tabulated word identity used to certify the
stabilizer structure, together with verifier pipelines.

Some table rows are transcribed in several readings: the source tables
contain a handful of single-symbol discrepancies, and this module's job
is to adjudicate them, not to silently pick a side.  Such rows carry an
"as written" record plus one or more emended variants sharing a row id;
the verifier reports which reading holds.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from .garside import equal, normal_form
from .groups import (
    ARTIN3_A,
    ARTIN3_B,
    PERM3_R,
    PERM3_S,
    PERM3_T,
    Artin3,
    Perm3,
)
from .hurwitz import act_word, orbit, stabilizes
from .words import (
    BraidWord,
    compose_all,
    conjugate_right,
    invert,
    power,
    word,
)


# ---------------------------------------------------------------------------
# Coxeter matrix and band generators


@dataclasses.dataclass(frozen=True)
class CoxeterMatrix:
    """The alternating n x n matrix: m_ij = 3 for i != j mod 2, else 1."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i - 1][j - 1]


def build_matrix(n: int) -> CoxeterMatrix:
    if n < 2:
        raise ValueError("matrix size must be at least 2")
    entries = tuple(
        tuple(1 if i == j else (3 if (i - j) % 2 else 1) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return CoxeterMatrix(n, entries)


def build_e(i: int, j: int, matrix: CoxeterMatrix) -> BraidWord:
    """The band generator e_ij = s_{j-1}..s_{i+1} s_i^{m_ij} s_{i+1}^-1..s_{j-1}^-1."""
    if not 1 <= i < j <= matrix.n:
        raise ValueError(f"need 1 <= i < j <= {matrix.n}, got ({i}, {j})")
    prefix = list(range(j - 1, i, -1))
    core = [i] * matrix[i, j]
    suffix = [-k for k in range(i + 1, j)]
    return word(matrix.n, *(prefix + core + suffix))


# ---------------------------------------------------------------------------
# Distinguished systems


def coxeter_system(n: int) -> tuple[Perm3, ...]:
    """The alternating tuple (s, t, s, t, ...) of length n."""
    return tuple(PERM3_S if i % 2 == 0 else PERM3_T for i in range(n))


def artin_system(n: int) -> tuple[Artin3, ...]:
    """The alternating tuple (a, b, a, b, ...) of length n."""
    return tuple(ARTIN3_A if i % 2 == 0 else ARTIN3_B for i in range(n))


def tau_word(k: int, n: int) -> BraidWord:
    """tau_1 = (sigma_1)^(sigma_2 sigma_3^-1 sigma_4), tau_2 the shift by one."""
    if k not in (1, 2):
        raise ValueError("only tau_1 and tau_2 are catalogued")
    if n < 4 + k:
        raise ValueError(f"tau_{k} needs at least {4 + k} strands")
    return conjugate_right(word(n, k), word(n, k + 1, -(k + 2), k + 3))


def conjugator_to_reference(n: int) -> BraidWord:
    """The element carrying the alternating system of length n (3 <= n <= 6)
    onto a reference system with a single repeated-letter block."""
    table = {
        3: (1,),
        4: (-1, 2),
        5: (1, -2, 3),
        6: (2, -3, 4),
    }
    if n not in table:
        raise ValueError(f"no catalogued conjugator for length {n}")
    return word(n, *table[n])


REFERENCE_IMAGES: dict[int, tuple[Perm3, ...]] = {
    3: (PERM3_R, PERM3_S, PERM3_S),
    4: (PERM3_R, PERM3_T, PERM3_T, PERM3_T),
    5: (PERM3_T, PERM3_S, PERM3_S, PERM3_S, PERM3_S),
    6: (PERM3_S, PERM3_S, PERM3_T, PERM3_T, PERM3_T, PERM3_T),
}


def reference_system_generators(n: int, kind: str) -> list[BraidWord]:
    """Generators of the stabilizer of (s,t,t,...,t) (kind "A") or
    (s,s,t,...,t) (kind "B"), per the surface-mapping-class presentation."""
    if kind == "A":
        gens = [word(n, 1, 1, 1)] + [word(n, i) for i in range(2, n)]
        if n >= 5:
            gens.append(conjugate_right(word(n, 4), word(n, 3, 2, 1, 1, 2, 3, 3, 2, 1)))
        return gens
    if kind == "B":
        gens = [word(n, 1)]
        if n >= 3:
            gens.append(word(n, 2, 2, 2))
        gens += [word(n, i) for i in range(3, n)]
        if n >= 6:
            gens.append(conjugate_right(word(n, 5), word(n, 4, 3, 2, 2, 3, 4, 4, 3, 2)))
        if n >= 4:
            gens.append(conjugate_right(word(n, 3), word(n, -2, -1, -1, 2, 2, 1)))
        return gens
    raise ValueError(f"unknown reference-system kind {kind!r}")


@dataclasses.dataclass(frozen=True)
class NamedBraid:
    name: str
    word: BraidWord
    source: str


@dataclasses.dataclass(frozen=True)
class IdentityRecord:
    """One reading of a tabulated identity lhs = rhs in Br_n.

    Rows with several readings share a ``row`` id and differ in
    ``variant``; exactly one reading per row is expected to verify.
    """

    id: str
    strand_count: int
    lhs: BraidWord
    rhs: BraidWord
    source: str
    variant: str = "as written"
    row: str | None = None

    @property
    def flagged(self) -> bool:
        return self.row is not None


@dataclasses.dataclass(frozen=True)
class CheckResult:
    id: str
    source: str
    status: str  # verified | failed | degenerate | skipped
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "verified"


@dataclasses.dataclass(frozen=True)
class Catalog:
    coxeter_systems: dict[int, tuple[Perm3, ...]]
    artin_systems: dict[int, tuple[Artin3, ...]]
    named_braids: dict[str, NamedBraid]
    identities: tuple[IdentityRecord, ...]


# ---------------------------------------------------------------------------
# Catalogue assembly


def _band_table(n: int) -> dict[tuple[int, int], BraidWord]:
    matrix = build_matrix(n)
    return {
        (i, j): build_e(i, j, matrix)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


def _named_braids() -> dict[str, NamedBraid]:
    out: dict[str, NamedBraid] = {}

    def add(name: str, source: str, braid: BraidWord):
        out[name] = NamedBraid(name, braid, source)

    for n in range(2, 7):
        for (i, j), band in _band_table(n).items():
            add(f"e_{i}{j}@{n}", "band-generators", band)
    for n in (5, 6):
        add(f"tau_1@{n}", "extra-stabilizers", tau_word(1, n))
    add("tau_2@6", "extra-stabilizers", tau_word(2, 6))
    for n in range(3, 7):
        add(f"c_{n}", "system-conjugators", conjugator_to_reference(n))
    for n in range(2, 7):
        for kind in ("A", "B"):
            for idx, gen in enumerate(reference_system_generators(n, kind), start=1):
                add(f"bw{kind}{n}_{idx}", "reference-stabilizer-generators", gen)
    return out


def _identities() -> tuple[IdentityRecord, ...]:
    records: list[IdentityRecord] = []

    def ctx(n: int):
        e = _band_table(n)

        def sig(*letters: int) -> BraidWord:
            return word(n, *letters)

        def conj(base: BraidWord, *ws: BraidWord) -> BraidWord:
            return conjugate_right(base, compose_all(n, ws))

        return e, sig, conj

    def add(id_: str, n: int, lhs: BraidWord, rhs: BraidWord, source: str,
            variant: str = "as written", row: str | None = None):
        records.append(IdentityRecord(id_, n, lhs, rhs, source, variant, row))

    # -- three-strand basics
    e, sig, conj = ctx(3)
    add("basics/braid-relation", 3, sig(1, 2, 1), sig(2, 1, 2), "three-strand-basics")
    add("basics/conj-chain-1", 3, sig(1, 2, 2, 1, -2, -2, -1), sig(1, 2, -1, 2, 1, -2, -1),
        "three-strand-basics")
    add("basics/conj-chain-2", 3, sig(1, 2, -1, 2, 1, -2, -1), sig(-2, 1, 2, 2, -2, -1, 2),
        "three-strand-basics")
    add("basics/conj-chain-3", 3, sig(-2, 1, 2, 2, -2, -1, 2), sig(-2, 1, 2, -1, 2),
        "three-strand-basics")
    add("basics/conj-chain-4", 3, sig(-2, 1, 2, -1, 2), sig(-2, -2, 1, 2, 2),
        "three-strand-basics")

    # -- stabilizer-generator expressions (lengths 3..6)
    e, sig, conj = ctx(3)
    add("stab-gen/3-1", 3, sig(1, 1, 1), e[1, 2], "stabilizer-generator-table")
    add("stab-gen/3-2", 3, conjugate_right(sig(2), sig(1)), e[1, 3], "stabilizer-generator-table")

    e, sig, conj = ctx(4)
    add("stab-gen/4-1", 4, conjugate_right(sig(1, 1, 1), sig(2)),
        conj(e[1, 2], invert(e[2, 3]), invert(e[1, 3])), "stabilizer-generator-table")
    add("stab-gen/4-2", 4, conjugate_right(sig(2), sig(-1, 2)),
        conj(e[1, 3], e[2, 3]), "stabilizer-generator-table")
    add("stab-gen/4-3", 4, conjugate_right(sig(3), sig(2)), e[2, 4],
        "stabilizer-generator-table")

    e, sig, conj = ctx(5)
    tau1_5 = tau_word(1, 5)
    add("stab-gen/5-1", 5, conjugate_right(sig(1, 1, 1), sig(-2, 3)),
        conj(e[3, 4], invert(e[1, 3])), "stabilizer-generator-table")
    add("stab-gen/5-2", 5, conjugate_right(sig(2), sig(1, -2, 3)),
        conj(e[2, 4], e[3, 4], invert(e[1, 3])), "stabilizer-generator-table")
    add("stab-gen/5-3", 5, conjugate_right(sig(3), sig(-2, 3)),
        conj(e[2, 4], e[3, 4]), "stabilizer-generator-table")
    add("stab-gen/5-4", 5, conjugate_right(sig(4), sig(3)), e[3, 5],
        "stabilizer-generator-table")
    add("stab-gen/5-5", 5,
        conjugate_right(sig(4), sig(3, 2, 1, 1, 2, 3, 3, 2, 1, 1, -2, 3)),
        conj(tau1_5, e[3, 5], e[4, 5], e[3, 4], invert(e[1, 5])),
        "stabilizer-generator-table")

    e, sig, conj = ctx(6)
    tau1 = tau_word(1, 6)
    tau2 = tau_word(2, 6)
    add("stab-gen/6-1", 6, conjugate_right(sig(2, 2, 2), sig(-3, 4)),
        conj(e[4, 5], invert(e[2, 4])), "stabilizer-generator-table")
    add("stab-gen/6-2", 6, conjugate_right(sig(3), sig(2, -3, 4)),
        conj(e[3, 5], e[4, 5], invert(e[2, 4])), "stabilizer-generator-table")
    # row with a generator-list/table-column mismatch: both readings encoded
    add("stab-gen/6-3.generator-list", 6, conjugate_right(sig(4), sig(-3, 4)),
        conj(e[3, 5], e[4, 5]), "stabilizer-generator-table",
        variant="generator list: conjugated sigma_4", row="stab-gen/6-3")
    add("stab-gen/6-3.table-column", 6, conjugate_right(sig(2), sig(-3, 4)),
        conj(e[3, 5], e[4, 5]), "stabilizer-generator-table",
        variant="table column: conjugated sigma_2", row="stab-gen/6-3")
    add("stab-gen/6-4", 6, conjugate_right(sig(5), sig(4)), e[4, 6],
        "stabilizer-generator-table")
    add("stab-gen/6-5", 6,
        conjugate_right(sig(5), sig(4, 3, 2, 2, 3, 4, 4, 3, 2, 2, -3, 4)),
        conj(tau2, e[4, 6], e[5, 6], e[4, 5], invert(e[2, 6])),
        "stabilizer-generator-table")
    add("stab-gen/6-6", 6, conjugate_right(sig(1), sig(2, -3, 4)), tau1,
        "stabilizer-generator-table")
    add("stab-gen/6-7", 6,
        conjugate_right(sig(3), sig(-2, -1, -1, 2, 2, 1, 2, -3, 4)), e[1, 3],
        "stabilizer-generator-table")

    # -- band-generator reduction relations, instantiated at n=6
    e, sig, conj = ctx(6)
    reductions = {
        (1, 4): conj(e[1, 2], invert(e[2, 4])),
        (1, 5): conj(e[1, 3], invert(e[3, 5])),
        (1, 6): conj(e[1, 2], invert(e[2, 4]), invert(e[4, 6])),
        (2, 3): conj(e[1, 2], e[1, 3]),
        (2, 5): conj(e[1, 2], e[1, 3], invert(e[3, 5])),
        (2, 6): conj(e[2, 4], invert(e[4, 6])),
        (3, 4): conj(e[1, 2], e[1, 3], e[2, 4]),
        (3, 6): conj(e[1, 2], e[1, 3], e[2, 4], invert(e[4, 6])),
        (4, 5): conj(e[1, 2], e[1, 3], e[2, 4], e[3, 5]),
        (5, 6): conj(e[1, 2], e[1, 3], e[2, 4], e[3, 5], e[4, 6]),
    }
    for (i, j), rhs in reductions.items():
        add(f"band-reduction/e{i}{j}@6", 6, e[i, j], rhs, "band-reduction")

    # -- normality of the band subgroup under tau conjugation
    for n in (5, 6):
        e, sig, conj = ctx(n)
        t1 = tau_word(1, n)
        add(f"twist-normality/e12-tau1@{n}", n, conj(e[1, 2], invert(t1)),
            conj(e[4, 5], invert(e[2, 4])), "twist-normality-table")
        add(f"twist-normality/e13-tau1@{n}", n, conj(e[1, 3], invert(t1)),
            conj(e[1, 3], invert(e[1, 2]), e[2, 4], e[4, 5], invert(e[2, 4])),
            "twist-normality-table")
        add(f"twist-normality/e24-tau1@{n}", n, conj(e[2, 4], invert(t1)), e[2, 4],
            "twist-normality-table")
        add(f"twist-normality/e35-tau1@{n}", n, conj(e[3, 5], invert(t1)),
            conj(e[3, 5], e[1, 5], invert(e[1, 2]), invert(e[1, 5]), invert(e[1, 2]), e[4, 5]),
            "twist-normality-table")

    e, sig, conj = ctx(6)
    add("twist-normality/e23-tau2@6", 6, conj(e[2, 3], invert(tau2)),
        conj(e[5, 6], invert(e[3, 5])), "twist-normality-table")
    add("twist-normality/e24-tau2@6", 6, conj(e[2, 4], invert(tau2)),
        conj(e[2, 4], invert(e[2, 3]), e[3, 5], e[5, 6], invert(e[3, 5])),
        "twist-normality-table")
    add("twist-normality/e35-tau2@6", 6, conj(e[3, 5], invert(tau2)), e[3, 5],
        "twist-normality-table")
    add("twist-normality/e46-tau2@6", 6, conj(e[4, 6], invert(tau2)),
        conj(e[4, 6], e[2, 6], invert(e[2, 3]), invert(e[2, 6]), invert(e[2, 3]), e[5, 6]),
        "twist-normality-table")
    add("twist-normality/e12-tau2@6", 6, conj(e[1, 2], invert(tau2)),
        conj(e[5, 6], invert(e[3, 5]), invert(e[1, 3])), "twist-normality-table")
    # row printed in the tau_2 block but spelled with tau_1: both readings
    rhs_e56 = conj(e[1, 2], invert(e[1, 5]), invert(e[1, 2]), e[4, 5], e[4, 6])
    add("twist-normality/e56.tau1", 6, conj(e[5, 6], invert(tau1)), rhs_e56,
        "twist-normality-table", variant="as written: conjugation by tau_1",
        row="twist-normality/e56")
    add("twist-normality/e56.tau2", 6, conj(e[5, 6], invert(tau2)), rhs_e56,
        "twist-normality-table", variant="block placement: conjugation by tau_2",
        row="twist-normality/e56")

    # -- conjugates of e_13 by freely reduced twist words
    for n in (5, 6):
        e, sig, conj = ctx(n)
        t1 = tau_word(1, n)
        add(f"halftwist-twist/e13-tau1@{n}", n, conj(e[1, 3], t1),
            conj(e[1, 3], invert(e[3, 5]), e[4, 5], e[3, 5], e[4, 5], e[1, 3], invert(e[1, 2])),
            "halftwist-twist-table")
        # as printed the inverse row disagrees with the normality table; both encoded
        add(f"halftwist-twist/e13-tau1inv.printed@{n}", n, conj(e[1, 3], invert(t1)),
            conj(e[1, 3], invert(e[1, 2]), e[2, 3], e[4, 5], invert(e[2, 4])),
            "halftwist-twist-table", variant="as written: e_23 factor",
            row=f"halftwist-twist/e13-tau1inv@{n}")
        add(f"halftwist-twist/e13-tau1inv.emended@{n}", n, conj(e[1, 3], invert(t1)),
            conj(e[1, 3], invert(e[1, 2]), e[2, 4], e[4, 5], invert(e[2, 4])),
            "halftwist-twist-table", variant="emended: e_24 factor",
            row=f"halftwist-twist/e13-tau1inv@{n}")
    e, sig, conj = ctx(6)
    add("halftwist-twist/e13-tau2@6", 6, conj(e[1, 3], tau2), e[1, 3],
        "halftwist-twist-table")
    add("halftwist-twist/e13-tau2inv@6", 6, conj(e[1, 3], invert(tau2)), e[1, 3],
        "halftwist-twist-table")

    # -- the transversal conjugate table at n=6 (18 rows)
    e, sig, conj = ctx(6)

    def trow(idx: int, gamma: tuple[int, ...], rhs: BraidWord,
             alt: tuple[str, tuple[int, ...] | None, BraidWord | None] | None = None):
        rid = f"halftwist-transversal/row{idx:02d}"
        if alt is None:
            add(rid, 6, conjugate_right(e[1, 3], sig(*gamma)), rhs,
                "halftwist-transversal-table")
            return
        label, gamma2, rhs2 = alt
        add(f"{rid}.printed", 6, conjugate_right(e[1, 3], sig(*gamma)), rhs,
            "halftwist-transversal-table", variant="as written", row=rid)
        add(f"{rid}.emended", 6,
            conjugate_right(e[1, 3], sig(*(gamma2 if gamma2 is not None else gamma))),
            rhs2 if rhs2 is not None else rhs,
            "halftwist-transversal-table", variant=label, row=rid)

    trow(1, (3, 1), conj(e[2, 4], invert(e[1, 3])))
    trow(2, (1, 2), conj(e[1, 3], invert(e[1, 2])))
    trow(3, (3, 2, 2), conj(e[1, 3], e[2, 3], invert(e[2, 4])))
    trow(4, (2, 2, 3), conj(e[1, 3], e[2, 3], e[2, 4]))
    trow(5, (3, 3, 1, 2), conj(e[2, 4], e[1, 2], e[3, 4]),
         alt=("emended: transversal word sigma_3 sigma_3 sigma_1 sigma_1",
              (3, 3, 1, 1), None))
    trow(6, (3, 4, 1, 1), conj(e[2, 4], e[3, 4], e[3, 5], e[1, 2]))
    trow(7, (3, 3, 2, 1, 1), conj(e[2, 4], invert(e[1, 2]), invert(e[2, 4])))
    trow(8, (3, 2, 2, 3, 1), conj(e[2, 4], e[3, 4], power(e[1, 3], -2)))
    trow(9, (2, 2, 3, 3, 1), conj(e[2, 4], e[2, 3]),
         alt=("emended: conjugator e_34", None, conj(e[2, 4], e[3, 4])))
    trow(10, (2, 2, 3, 4, 1), conj(e[2, 4], e[3, 4], e[3, 5]))
    trow(11, (3, 3, 4, 4, 2), conj(e[1, 2], e[2, 3], invert(e[3, 5]), e[4, 5]),
         alt=("emended: base e_13", None,
              conj(e[1, 3], e[2, 3], invert(e[3, 5]), e[4, 5])))
    trow(12, (3, 3, 4, 5, 2), conj(e[1, 3], e[2, 3], invert(e[3, 5]), e[4, 5], e[4, 6]))
    trow(13, (3, 4, 4, 5, 2),
         conj(e[1, 3], e[2, 3], invert(e[3, 5]), e[4, 5], e[4, 6], e[2, 4]))
    trow(14, (3, 4, 4, 2, 1, 1), conj(e[3, 5], e[4, 5], invert(e[1, 3])),
         alt=("emended: conjugator e_13 to the first power", None,
              conj(e[3, 5], e[4, 5], e[1, 3])))
    trow(15, (3, 4, 5, 2, 1, 1), conj(e[3, 5], e[4, 5], invert(e[1, 3]), e[4, 6]),
         alt=("emended: conjugator e_13 to the first power", None,
              conj(e[3, 5], e[4, 5], e[1, 3], e[4, 6])))
    trow(16, (3, 4, 2, 3, 3, 1), conj(e[2, 4], e[3, 4], invert(e[3, 5])))
    trow(17, (3, 4, 5, 1, 1, 2),
         conj(e[1, 3], e[1, 2], invert(e[3, 5]), e[4, 5], invert(e[1, 3]),
              invert(e[1, 2]), e[4, 6]))
    trow(18, (3, 4, 4, 5, 5, 2, 3, 1),
         conj(e[4, 6], e[5, 6], e[2, 4], e[3, 5], e[5, 6]))

    return tuple(records)


_CATALOG: Catalog | None = None


def catalog() -> Catalog:
    """The full catalogue; built once and cached."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = Catalog(
            coxeter_systems={n: coxeter_system(n) for n in range(2, 7)},
            artin_systems={n: artin_system(n) for n in range(2, 7)},
            named_braids=_named_braids(),
            identities=_identities(),
        )
    return _CATALOG


# ---------------------------------------------------------------------------
# Verifier pipelines


def ledger_to_json(records: Iterable[IdentityRecord] | None = None) -> list[dict]:
    records = list(records) if records is not None else list(catalog().identities)
    out = []
    for r in records:
        row = {
            "id": r.id,
            "n": r.strand_count,
            "lhs": list(r.lhs.letters),
            "rhs": list(r.rhs.letters),
            "source": r.source,
            "variant": r.variant,
        }
        if r.row is not None:
            row["row"] = r.row
        out.append(row)
    return out


def ledger_from_json(rows: list[dict]) -> list[IdentityRecord]:
    out = []
    for row in rows:
        n = int(row["n"])
        out.append(
            IdentityRecord(
                id=row["id"],
                strand_count=n,
                lhs=BraidWord(n, tuple(row["lhs"])),
                rhs=BraidWord(n, tuple(row["rhs"])),
                source=row.get("source", "external-ledger"),
                variant=row.get("variant", "as written"),
                row=row.get("row"),
            )
        )
    return out


def verify_identity(record: IdentityRecord) -> CheckResult:
    """Check a single record by normal-form equality.  Results carry the
    two words; failed results additionally carry both normal forms."""
    witness = {
        "lhs": list(record.lhs.letters),
        "rhs": list(record.rhs.letters),
    }
    if record.lhs.n != record.rhs.n:
        witness["error"] = "strand-count mismatch"
        return CheckResult(record.id, record.source, "failed", witness)
    if equal(record.lhs, record.rhs):
        return CheckResult(record.id, record.source, "verified", witness)
    witness["witness_normal_forms"] = {
        "lhs": normal_form(record.lhs).to_json(),
        "rhs": normal_form(record.rhs).to_json(),
    }
    return CheckResult(record.id, record.source, "failed", witness)


def verify_identities(records: Iterable[IdentityRecord] | None = None) -> list[CheckResult]:
    """Verify the ledger.  Multi-reading rows are aggregated: the row is
    verified when at least one reading holds, and the verdict names it."""
    records = list(records) if records is not None else list(catalog().identities)
    results: list[CheckResult] = []
    rows: dict[str, list[tuple[IdentityRecord, CheckResult]]] = {}
    for record in records:
        result = verify_identity(record)
        if record.row is None:
            results.append(result)
        else:
            rows.setdefault(record.row, []).append((record, result))
    for row_id, variants in rows.items():
        passing = [rec.variant for rec, res in variants if res.passed]
        witness = {
            "variants": {rec.variant: res.status for rec, res in variants},
            "verifying_variant": passing[0] if passing else None,
        }
        status = "verified" if passing else "failed"
        source = variants[0][0].source
        results.append(CheckResult(row_id, source, status, witness))
    results.sort(key=lambda r: r.id)
    return results


def verify_stabilizer_tables() -> list[CheckResult]:
    """Stabilizer membership checks for all band generators, the extra
    twists, the reference-system generator lists, and the displayed
    conjugator computations."""
    cat = catalog()
    out: list[CheckResult] = []

    def check(id_: str, source: str, ok: bool, witness: dict | None = None):
        out.append(CheckResult(id_, source, "verified" if ok else "failed", witness))

    for n in range(2, 7):
        cox, art = cat.coxeter_systems[n], cat.artin_systems[n]
        bands = _band_table(n)
        check(f"stabilizers/bands-fix-coxeter@{n}", "band-generators",
              all(stabilizes(w, cox) for w in bands.values()))
        check(f"stabilizers/bands-fix-artin@{n}", "band-generators",
              all(stabilizes(w, art) for w in bands.values()))

    for n in (5, 6):
        t1 = tau_word(1, n)
        cox, art = cat.coxeter_systems[n], cat.artin_systems[n]
        check(f"stabilizers/tau1-fixes-coxeter@{n}", "extra-stabilizers",
              stabilizes(t1, cox))
        check(f"stabilizers/tau1-moves-artin@{n}", "extra-stabilizers",
              not stabilizes(t1, art))
    t2 = tau_word(2, 6)
    check("stabilizers/tau2-fixes-coxeter@6", "extra-stabilizers",
          stabilizes(t2, cat.coxeter_systems[6]))
    check("stabilizers/tau2-moves-artin@6", "extra-stabilizers",
          not stabilizes(t2, cat.artin_systems[6]))

    for n in range(3, 7):
        conj_word = conjugator_to_reference(n)
        image = act_word(conj_word, cat.coxeter_systems[n])
        expected = REFERENCE_IMAGES[n]
        check(f"stabilizers/conjugator-image@{n}", "system-conjugators",
              image == expected,
              None if image == expected else {
                  "computed": [g.render() for g in image],
                  "expected": [g.render() for g in expected],
              })

    for n in range(2, 7):
        for kind, ref in (("A", (PERM3_S,) + (PERM3_T,) * (n - 1)),
                          ("B", (PERM3_S, PERM3_S) + (PERM3_T,) * (n - 2))):
            gens = reference_system_generators(n, kind)
            check(f"stabilizers/reference-{kind}-generators@{n}",
                  "reference-stabilizer-generators",
                  all(stabilizes(g, ref) for g in gens))

    out.sort(key=lambda r: r.id)
    return out


def verify_theorem_rows() -> list[CheckResult]:
    """The headline containment and strictness rows: every band generator
    fixes the alternating Artin system (n = 2..6), and tau_1 / tau_2
    witness that the Coxeter stabilizer is strictly larger for n >= 5."""
    cat = catalog()
    out: list[CheckResult] = []
    for n in range(2, 7):
        art = cat.artin_systems[n]
        ok = all(stabilizes(w, art) for w in _band_table(n).values())
        out.append(CheckResult(f"theorem/bands-in-artin-stabilizer@{n}",
                               "stabilizer-theorem", "verified" if ok else "failed"))
    for n in (5, 6):
        t1 = tau_word(1, n)
        ok = stabilizes(t1, cat.coxeter_systems[n]) and not stabilizes(t1, cat.artin_systems[n])
        out.append(CheckResult(f"theorem/strictness-tau1@{n}", "stabilizer-theorem",
                               "verified" if ok else "failed"))
    ok = stabilizes(t2 := tau_word(2, 6), cat.coxeter_systems[6]) and \
        not stabilizes(t2, cat.artin_systems[6])
    out.append(CheckResult("theorem/strictness-tau2@6", "stabilizer-theorem",
                           "verified" if ok else "failed"))
    return out


@dataclasses.dataclass(frozen=True)
class HalfTwistReport:
    orbit_size: int
    stabilizing_word_count: int
    distinct_conjugates: int  # including the trivial class of e_13 itself
    nontrivial_conjugates: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def half_twist_classification() -> HalfTwistReport:
    """Enumerate the orbit transversal of the alternating Coxeter system
    on six strands, filter the transversal conjugates of e_13 that fix the alternating
    Artin system, and match the distinct nontrivial conjugates against the
    tabulated rows.

    The trivial class (e_13 itself, from the empty word and its coset
    mates) is reported separately; the tabulated count refers to the
    nontrivial classes.
    """
    cat = catalog()
    e13 = cat.named_braids["e_13@6"].word
    table = orbit(cat.coxeter_systems[6])
    art = cat.artin_systems[6]

    stabilizing: list[tuple[BraidWord, BraidWord]] = []
    for gamma in table.transversal.values():
        candidate = conjugate_right(e13, gamma)
        if stabilizes(candidate, art):
            stabilizing.append((gamma, candidate))

    classes: dict = {}
    for gamma, candidate in stabilizing:
        classes.setdefault(normal_form(candidate), []).append(gamma)
    trivial_nf = normal_form(e13)
    nontrivial = {nf: gs for nf, gs in classes.items() if nf != trivial_nf}

    results: list[CheckResult] = [
        CheckResult("conclass/orbit-240", "halftwist-transversal-table",
                    "verified" if len(table) == 240 else "failed",
                    {"orbit_size": len(table)}),
        CheckResult("conclass/distinct-18", "halftwist-transversal-table",
                    "verified" if len(nontrivial) == 18 else "failed",
                    {"nontrivial_classes": len(nontrivial),
                     "including_trivial": len(classes)}),
    ]

    # match classes against the verifying reading of each tabulated row
    row_values: dict[str, object] = {}
    for record in cat.identities:
        if record.source != "halftwist-transversal-table":
            continue
        row_id = record.row or record.id
        if row_id in row_values:
            continue
        if equal(record.lhs, record.rhs):
            row_values[row_id] = normal_form(record.lhs)
    matched = set(row_values.values())
    class_set = set(nontrivial.keys())
    results.append(CheckResult(
        "conclass/rows-match-classes", "halftwist-transversal-table",
        "verified" if matched == class_set and len(row_values) == 18 else "failed",
        {"verifying_rows": len(row_values)} if matched != class_set else None))

    return HalfTwistReport(
        orbit_size=len(table),
        stabilizing_word_count=len(stabilizing),
        distinct_conjugates=len(classes),
        nontrivial_conjugates=len(nontrivial),
        results=tuple(results),
    )
