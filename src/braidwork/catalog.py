"""Catalogued braids, distinguished systems and word identities.

Each catalogued object is built by one function: the band generators
e_ij from the alternating Coxeter matrix, the extra stabilizers tau_1
and tau_2, the conjugating elements relating alternating systems to the
reference systems, and the generator lists for the reference-system
stabilizers.  ``catalog()`` is the ledger of every tabulated word
identity used to certify the stabilizer structure.  The verifier
pipelines below are the checks: each returns ``CheckResult`` rows, and
each stabilizer fact is computed by exactly one of them.  The theorem
rows compute the band containment and the tau strictness themselves;
the stabilizer rows hold only the conjugator images and the
reference-system generator lists, which no theorem row states.

Some table rows are transcribed in several readings: the source tables
contain a handful of single-symbol discrepancies, and this module's job
is to adjudicate them, not to silently pick a side.  Such rows carry an
"as written" record plus one or more emended variants sharing a row id;
the verifier reports which reading holds.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable

from .certificates import CheckResult
from .garside import dynnikov, equal
from .groups import (
    ARTIN3_A,
    ARTIN3_B,
    PERM3_R,
    PERM3_S,
    PERM3_T,
    Artin3,
    Perm3,
)
from .hurwitz import act_letter, act_word, orbit, stabilizes
from .words import (
    BraidWord,
    compose_all,
    conjugate_right,
    invert,
    json_field,
    json_strand_count,
    json_value,
    json_word,
    power,
    word,
)


# ---------------------------------------------------------------------------
# Band generators


def build_e(n: int, i: int, j: int) -> BraidWord:
    """The band generator e_ij = s_{j-1}..s_{i+1} s_i^{m_ij} s_{i+1}^-1..s_{j-1}^-1
    of Br_n, for the alternating Coxeter matrix: m_ij = 3 when j - i is
    odd, else 1."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    prefix = list(range(j - 1, i, -1))
    core = [i] * (3 if (j - i) % 2 else 1)
    suffix = [-k for k in range(i + 1, j)]
    return word(n, *(prefix + core + suffix))


# ---------------------------------------------------------------------------
# Distinguished systems


def coxeter_system(n: int) -> tuple[Perm3, ...]:
    """The alternating tuple (s, t, s, t, ...) of length n: the image of
    ``artin_system(n)`` under the quotient Br_3 -> S3, a -> s, b -> t."""
    return tuple(g.to_perm3() for g in artin_system(n))


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
class IdentityRecord:
    """One reading of a tabulated identity lhs = rhs in Br_n.

    Rows with several readings share a ``row`` id and differ in
    ``variant``; exactly one reading per row is expected to verify.
    """

    id: str
    lhs: BraidWord
    rhs: BraidWord
    source: str
    variant: str = "as written"
    row: str | None = None


# ---------------------------------------------------------------------------
# Catalogue assembly


def _band_table(n: int) -> dict[tuple[int, int], BraidWord]:
    return {
        (i, j): build_e(n, i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


@functools.cache
def catalog() -> tuple[IdentityRecord, ...]:
    """The built-in identity ledger; built once and cached."""
    records: list[IdentityRecord] = []

    def ctx(n: int):
        e = _band_table(n)

        def sig(*letters: int) -> BraidWord:
            return word(n, *letters)

        def conj(base: BraidWord, *ws: BraidWord) -> BraidWord:
            return conjugate_right(base, compose_all(n, ws))

        return e, sig, conj

    def add(id_: str, lhs: BraidWord, rhs: BraidWord, source: str,
            variant: str = "as written", row: str | None = None):
        records.append(IdentityRecord(id_, lhs, rhs, source, variant, row))

    # -- three-strand basics
    e, sig, conj = ctx(3)
    add("basics/braid-relation", sig(1, 2, 1), sig(2, 1, 2), "three-strand-basics")
    add("basics/conj-chain-1", sig(1, 2, 2, 1, -2, -2, -1), sig(1, 2, -1, 2, 1, -2, -1),
        "three-strand-basics")
    add("basics/conj-chain-2", sig(1, 2, -1, 2, 1, -2, -1), sig(-2, 1, 2, 2, -2, -1, 2),
        "three-strand-basics")
    add("basics/conj-chain-3", sig(-2, 1, 2, 2, -2, -1, 2), sig(-2, 1, 2, -1, 2),
        "three-strand-basics")
    add("basics/conj-chain-4", sig(-2, 1, 2, -1, 2), sig(-2, -2, 1, 2, 2), "three-strand-basics")

    # -- stabilizer-generator expressions (lengths 3..6)
    e, sig, conj = ctx(3)
    add("stab-gen/3-1", sig(1, 1, 1), e[1, 2], "stabilizer-generator-table")
    add("stab-gen/3-2", conjugate_right(sig(2), sig(1)), e[1, 3], "stabilizer-generator-table")

    e, sig, conj = ctx(4)
    add("stab-gen/4-1", conjugate_right(sig(1, 1, 1), sig(2)),
        conj(e[1, 2], invert(e[2, 3]), invert(e[1, 3])), "stabilizer-generator-table")
    add("stab-gen/4-2", conjugate_right(sig(2), sig(-1, 2)),
        conj(e[1, 3], e[2, 3]), "stabilizer-generator-table")
    add("stab-gen/4-3", conjugate_right(sig(3), sig(2)), e[2, 4], "stabilizer-generator-table")

    e, sig, conj = ctx(5)
    tau1_5 = tau_word(1, 5)
    add("stab-gen/5-1", conjugate_right(sig(1, 1, 1), sig(-2, 3)),
        conj(e[3, 4], invert(e[1, 3])), "stabilizer-generator-table")
    add("stab-gen/5-2", conjugate_right(sig(2), sig(1, -2, 3)),
        conj(e[2, 4], e[3, 4], invert(e[1, 3])), "stabilizer-generator-table")
    add("stab-gen/5-3", conjugate_right(sig(3), sig(-2, 3)),
        conj(e[2, 4], e[3, 4]), "stabilizer-generator-table")
    add("stab-gen/5-4", conjugate_right(sig(4), sig(3)), e[3, 5], "stabilizer-generator-table")
    add("stab-gen/5-5",
        conjugate_right(sig(4), sig(3, 2, 1, 1, 2, 3, 3, 2, 1, 1, -2, 3)),
        conj(tau1_5, e[3, 5], e[4, 5], e[3, 4], invert(e[1, 5])),
        "stabilizer-generator-table")

    e, sig, conj = ctx(6)
    tau1 = tau_word(1, 6)
    tau2 = tau_word(2, 6)
    add("stab-gen/6-1", conjugate_right(sig(2, 2, 2), sig(-3, 4)),
        conj(e[4, 5], invert(e[2, 4])), "stabilizer-generator-table")
    add("stab-gen/6-2", conjugate_right(sig(3), sig(2, -3, 4)),
        conj(e[3, 5], e[4, 5], invert(e[2, 4])), "stabilizer-generator-table")
    # row with a generator-list/table-column mismatch: both readings encoded
    add("stab-gen/6-3.generator-list", conjugate_right(sig(4), sig(-3, 4)),
        conj(e[3, 5], e[4, 5]), "stabilizer-generator-table",
        variant="generator list: conjugated sigma_4", row="stab-gen/6-3")
    add("stab-gen/6-3.table-column", conjugate_right(sig(2), sig(-3, 4)),
        conj(e[3, 5], e[4, 5]), "stabilizer-generator-table",
        variant="table column: conjugated sigma_2", row="stab-gen/6-3")
    add("stab-gen/6-4", conjugate_right(sig(5), sig(4)), e[4, 6], "stabilizer-generator-table")
    add("stab-gen/6-5",
        conjugate_right(sig(5), sig(4, 3, 2, 2, 3, 4, 4, 3, 2, 2, -3, 4)),
        conj(tau2, e[4, 6], e[5, 6], e[4, 5], invert(e[2, 6])),
        "stabilizer-generator-table")
    add("stab-gen/6-6", conjugate_right(sig(1), sig(2, -3, 4)), tau1, "stabilizer-generator-table")
    add("stab-gen/6-7",
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
        add(f"band-reduction/e{i}{j}@6", e[i, j], rhs, "band-reduction")

    # -- normality of the band subgroup under tau conjugation
    for n in (5, 6):
        e, sig, conj = ctx(n)
        t1 = tau_word(1, n)
        add(f"twist-normality/e12-tau1@{n}", conj(e[1, 2], invert(t1)),
            conj(e[4, 5], invert(e[2, 4])), "twist-normality-table")
        add(f"twist-normality/e13-tau1@{n}", conj(e[1, 3], invert(t1)),
            conj(e[1, 3], invert(e[1, 2]), e[2, 4], e[4, 5], invert(e[2, 4])),
            "twist-normality-table")
        add(f"twist-normality/e24-tau1@{n}", conj(e[2, 4], invert(t1)), e[2, 4],
            "twist-normality-table")
        add(f"twist-normality/e35-tau1@{n}", conj(e[3, 5], invert(t1)),
            conj(e[3, 5], e[1, 5], invert(e[1, 2]), invert(e[1, 5]), invert(e[1, 2]), e[4, 5]),
            "twist-normality-table")

    e, sig, conj = ctx(6)
    add("twist-normality/e23-tau2@6", conj(e[2, 3], invert(tau2)),
        conj(e[5, 6], invert(e[3, 5])), "twist-normality-table")
    add("twist-normality/e24-tau2@6", conj(e[2, 4], invert(tau2)),
        conj(e[2, 4], invert(e[2, 3]), e[3, 5], e[5, 6], invert(e[3, 5])),
        "twist-normality-table")
    add("twist-normality/e35-tau2@6", conj(e[3, 5], invert(tau2)), e[3, 5],
        "twist-normality-table")
    add("twist-normality/e46-tau2@6", conj(e[4, 6], invert(tau2)),
        conj(e[4, 6], e[2, 6], invert(e[2, 3]), invert(e[2, 6]), invert(e[2, 3]), e[5, 6]),
        "twist-normality-table")
    add("twist-normality/e12-tau2@6", conj(e[1, 2], invert(tau2)),
        conj(e[5, 6], invert(e[3, 5]), invert(e[1, 3])), "twist-normality-table")
    # row printed in the tau_2 block but spelled with tau_1: both readings
    rhs_e56 = conj(e[1, 2], invert(e[1, 5]), invert(e[1, 2]), e[4, 5], e[4, 6])
    add("twist-normality/e56.tau1", conj(e[5, 6], invert(tau1)), rhs_e56,
        "twist-normality-table", variant="as written: conjugation by tau_1",
        row="twist-normality/e56")
    add("twist-normality/e56.tau2", conj(e[5, 6], invert(tau2)), rhs_e56,
        "twist-normality-table", variant="block placement: conjugation by tau_2",
        row="twist-normality/e56")

    # -- conjugates of e_13 by freely reduced twist words
    for n in (5, 6):
        e, sig, conj = ctx(n)
        t1 = tau_word(1, n)
        add(f"halftwist-twist/e13-tau1@{n}", conj(e[1, 3], t1),
            conj(e[1, 3], invert(e[3, 5]), e[4, 5], e[3, 5], e[4, 5], e[1, 3], invert(e[1, 2])),
            "halftwist-twist-table")
        # as printed the inverse row disagrees with the normality table; both encoded
        add(f"halftwist-twist/e13-tau1inv.printed@{n}", conj(e[1, 3], invert(t1)),
            conj(e[1, 3], invert(e[1, 2]), e[2, 3], e[4, 5], invert(e[2, 4])),
            "halftwist-twist-table", variant="as written: e_23 factor",
            row=f"halftwist-twist/e13-tau1inv@{n}")
        add(f"halftwist-twist/e13-tau1inv.emended@{n}", conj(e[1, 3], invert(t1)),
            conj(e[1, 3], invert(e[1, 2]), e[2, 4], e[4, 5], invert(e[2, 4])),
            "halftwist-twist-table", variant="emended: e_24 factor",
            row=f"halftwist-twist/e13-tau1inv@{n}")
    e, sig, conj = ctx(6)
    add("halftwist-twist/e13-tau2@6", conj(e[1, 3], tau2), e[1, 3], "halftwist-twist-table")
    add("halftwist-twist/e13-tau2inv@6", conj(e[1, 3], invert(tau2)), e[1, 3],
        "halftwist-twist-table")

    # -- the transversal conjugate table at n=6 (18 rows)
    e, sig, conj = ctx(6)

    def trow(idx: int, gamma: tuple[int, ...], rhs: BraidWord,
             alt: tuple[str, tuple[int, ...] | None, BraidWord | None] | None = None):
        rid = f"halftwist-transversal/row{idx:02d}"
        if alt is None:
            add(rid, conjugate_right(e[1, 3], sig(*gamma)), rhs, "halftwist-transversal-table")
            return
        label, gamma2, rhs2 = alt
        add(f"{rid}.printed", conjugate_right(e[1, 3], sig(*gamma)), rhs,
            "halftwist-transversal-table", variant="as written", row=rid)
        add(f"{rid}.emended",
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


# ---------------------------------------------------------------------------
# Verifier pipelines


def ledger_to_json() -> list[dict]:
    """The built-in identity ledger, in the format ``ledger_from_json`` reads."""
    out = []
    for r in catalog():
        row = {
            "id": r.id,
            "n": r.lhs.n,
            "lhs": list(r.lhs.letters),
            "rhs": list(r.rhs.letters),
            "source": r.source,
            "variant": r.variant,
        }
        if r.row is not None:
            row["row"] = r.row
        out.append(row)
    return out


def ledger_from_json(rows: list) -> list[IdentityRecord]:
    """Read a ledger written by ``ledger_to_json``; a malformed row raises
    ValueError naming the row and the field, two rows that would report
    under one result id raise naming both."""
    out = []
    for idx, row in enumerate(json_value(rows, list, "a ledger")):
        owner = f"ledger row {idx}"
        json_value(row, dict, owner)
        n = json_strand_count(row, owner)
        out.append(
            IdentityRecord(
                id=json_field(row, "id", str, owner),
                lhs=json_word(row, "lhs", n, owner),
                rhs=json_word(row, "rhs", n, owner),
                source=json_field(row, "source", str, owner, "external-ledger"),
                variant=json_field(row, "variant", str, owner, "as written"),
                row=json_field(row, "row", str, owner, None),
            )
        )
    # a row reports under its id, or under the ``row`` its readings share
    index: dict[str, int] = {}
    for idx, record in enumerate(out):
        if record.id in index:
            raise ValueError(f"ledger rows {index[record.id]} and {idx} share the id "
                             f"{record.id!r:.40}")
        index[record.id] = idx
    for idx, record in enumerate(out):
        other = index.get(record.row)
        if other is not None and out[other].row is None:
            raise ValueError(f"ledger row {idx} field 'row' is {record.row!r:.40}, the id "
                             f"of ledger row {other}; both would report under it")
    return out


def verify_identity(record: IdentityRecord) -> CheckResult:
    """Check a single record by `garside.equal`.  Results carry the two
    words; a failed result also carries, under ``dynnikov``, the two
    sides' coordinates by `garside.dynnikov`, which differ."""
    witness = {
        "lhs": list(record.lhs.letters),
        "rhs": list(record.rhs.letters),
    }
    if record.lhs.n != record.rhs.n:
        witness["error"] = "strand-count mismatch"
        return CheckResult(record.id, record.source, "failed", witness)
    if equal(record.lhs, record.rhs):
        return CheckResult(record.id, record.source, "verified", witness)
    witness["dynnikov"] = {
        "lhs": list(dynnikov(record.lhs)),
        "rhs": list(dynnikov(record.rhs)),
    }
    return CheckResult(record.id, record.source, "failed", witness)


def verify_identities(records: Iterable[IdentityRecord] | None = None) -> list[CheckResult]:
    """Verify the ledger.  Multi-reading rows are aggregated: the row is
    verified when at least one reading holds, and the verdict names it."""
    records = list(records) if records is not None else list(catalog())
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
    """The stabilizer facts that no theorem row states: each displayed
    conjugator carries the alternating Coxeter system onto its reference
    system, and the listed generators of each reference-system
    stabilizer fix that system."""
    out: list[CheckResult] = []
    for n in range(3, 7):
        image = act_word(conjugator_to_reference(n), coxeter_system(n))
        expected = REFERENCE_IMAGES[n]
        ok = image == expected
        out.append(CheckResult(
            f"stabilizers/conjugator-image@{n}", "system-conjugators",
            "verified" if ok else "failed",
            None if ok else {"computed": [g.render() for g in image],
                             "expected": [g.render() for g in expected]}))

    for n in range(2, 7):
        for kind, ref in (("A", (PERM3_S,) + (PERM3_T,) * (n - 1)),
                          ("B", (PERM3_S, PERM3_S) + (PERM3_T,) * (n - 2))):
            ok = all(stabilizes(g, ref) for g in reference_system_generators(n, kind))
            out.append(CheckResult(f"stabilizers/reference-{kind}-generators@{n}",
                                   "reference-stabilizer-generators",
                                   "verified" if ok else "failed"))

    out.sort(key=lambda r: r.id)
    return out


def verify_theorem_rows() -> list[CheckResult]:
    """The headline containment and strictness rows: every band generator
    fixes the alternating Artin system (n = 2..6), and tau_1 / tau_2 fix
    the alternating Coxeter system but move the Artin one, so the Coxeter
    stabilizer is strictly larger for n >= 5.

    The bands need no Coxeter row: ``coxeter_system(n)`` is
    ``artin_system(n)`` pushed through the quotient Br_3 -> S3, and the
    Hurwitz action uses only products and inverses, so it commutes with
    that quotient.  A failed row's witness names what failed."""
    out = []
    for n in range(2, 7):
        art = artin_system(n)
        moving = [f"e_{i}{j}" for (i, j), w in _band_table(n).items()
                  if not stabilizes(w, art)]
        out.append(CheckResult(f"theorem/bands-in-artin-stabilizer@{n}", "stabilizer-theorem",
                               "failed" if moving else "verified",
                               {"moving_bands": moving} if moving else None))
    for k, n in ((1, 5), (1, 6), (2, 6)):
        tau = tau_word(k, n)
        fixes = stabilizes(tau, coxeter_system(n))
        moves = not stabilizes(tau, artin_system(n))
        ok = fixes and moves
        out.append(CheckResult(f"theorem/strictness-tau{k}@{n}", "stabilizer-theorem",
                               "verified" if ok else "failed",
                               None if ok else {"fixes_coxeter": fixes, "moves_artin": moves}))
    return out


def half_twist_classification() -> list[CheckResult]:
    """Enumerate the orbit transversal of the alternating Coxeter system
    on six strands, filter the transversal conjugates of e_13 that fix the alternating
    Artin system, and match the distinct nontrivial conjugates against the
    tabulated rows.

    A conjugate gamma^-1 e_13 gamma fixes the Artin system A exactly
    when e_13 fixes act_word(gamma, A), so each transversal word is
    tested on its image of A, and only the conjugates that pass are
    built.  A word (i,) + rest is met after rest (see ``OrbitTable``),
    so its image is one Hurwitz move, sigma_i, from rest's image;
    ``images`` keys every image met so far by its word's letters.

    The trivial class (e_13 itself, from the empty word and its coset
    mates) is reported separately; the tabulated count refers to the
    nontrivial classes.
    """
    e13 = _band_table(6)[1, 3]
    table = orbit(coxeter_system(6))
    images = {(): artin_system(6)}

    classes = set()
    for gamma in table.transversal.values():
        letters = gamma.letters
        if letters:
            images[letters] = act_letter(letters[0], 1, images[letters[1:]])
        if stabilizes(e13, images[letters]):
            classes.add(dynnikov(conjugate_right(e13, gamma)))
    nontrivial = classes - {dynnikov(e13)}

    results: list[CheckResult] = [
        CheckResult("conclass/orbit-240", "halftwist-transversal-table",
                    "verified" if len(table) == 240 else "failed",
                    {"orbit_size": len(table)}),
        CheckResult("conclass/distinct-18", "halftwist-transversal-table",
                    "verified" if len(nontrivial) == 18 else "failed",
                    {"nontrivial_classes": len(nontrivial),
                     "including_trivial": len(classes)}),
    ]

    # the class of every verifying reading of each tabulated row; a row's
    # verifying readings are equal braids, so each row keeps one class
    row_values = {record.row or record.id: dynnikov(record.lhs) for record in catalog()
                  if record.source == "halftwist-transversal-table"
                  and equal(record.lhs, record.rhs)}
    matched = set(row_values.values())
    results.append(CheckResult(
        "conclass/rows-match-classes", "halftwist-transversal-table",
        "verified" if matched == nontrivial and len(row_values) == 18 else "failed",
        {"verifying_rows": len(row_values)} if matched != nontrivial else None))
    return results
