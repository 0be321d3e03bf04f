"""Exhaustive property and oracle suites behind ``lemmas`` and ``oracle-check``.

lemma_suite rechecks the sequence-statistics identities of the seqcomb layer
over every sequence up to a length and weight bound; oracle_suite replays
the brute-force character-theoretic oracle against the closed formulas for
b-invariants and truncated induction.  Both return report dataclasses whose
to_json output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import seqcomb as sc
from .errors import DomainError, OracleError, ValidationError
from .irreps import (
    FAMILIES,
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    b_invariant,
    is_special,
    label_str,
    special_reps,
)
from .jinduction import (
    EMBED_A_SPLIT,
    EMBED_B_SP_WQ,
    EMBED_B_WR_SP_WQ,
    EMBED_B_WR_WQ,
    EMBED_C_WR_WDQ,
    EMBED_D_SP_WDQ,
    EMBED_D_TRIPLE,
    Embedding,
    d_placements,
    j_induce,
    labels_match,
)
from .oracle import (
    b_oracle,
    character_table,
    induction_multiplicity,
    j_oracle,
    key_to_label,
)


@dataclass(frozen=True)
class SuiteCheck:
    """One exhaustive check of either suite (a lemma of the property suite,
    a block of the oracle suite) with its case count and failures."""

    name: str
    cases: int
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class LemmaSuiteReport:
    """Results of the exhaustive property suite up to the given bounds."""

    max_m: int
    max_weight: int
    checks: tuple[SuiteCheck, ...]

    def ok(self) -> bool:
        return all(not c.failures for c in self.checks)

    def to_json(self) -> dict:
        return {
            "max_m": self.max_m,
            "max_weight": self.max_weight,
            "ok": self.ok(),
            "checks": [c.to_json() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# sequence-combinatorics property suite


def _spaces(kind: str, max_m: int, max_weight: int) -> dict[int, list[sc.Seq]]:
    out: dict[int, list[sc.Seq]] = {}
    for m in range(max_m + 1):
        out[m] = [
            seq
            for n in range(max_weight + 1)
            for seq in sc.enumerate_space(kind, m, n)
        ]
    return out


def lemma_suite(max_m: int = 8, max_weight: int = 8) -> LemmaSuiteReport:
    """Exhaustively recheck the sequence-statistics identities.

    Covers signature parity, interval parity, the endpoint count, signature
    subadditivity with its equality characterization, completeness and shape
    of the plain and based split enumerations, the hat-decomposition round
    trip, and the symmetric-witness criterion (nonempty exactly when every
    interval has size one), over all sequences with length index at most
    max_m and deviation weight at most max_weight.
    """
    sc._ensure_int("max_m", max_m)
    sc._ensure_int("max_weight", max_weight)
    if max_m < 0 or max_weight < 0:
        raise DomainError("suite bounds must be nonnegative")
    checks: list[SuiteCheck] = []
    xs = _spaces("X", max_m, max_weight)
    ys = _spaces("Y", max_m, max_weight)

    cases = 0
    fails: list[str] = []
    for m, space in xs.items():
        for x in space:
            cases += 1
            if len(sc.frakS(x)) % 2 != (m - 1) % 2:
                fails.append(f"x={x}")
    checks.append(SuiteCheck("signature_parity", cases, tuple(fails)))

    par_cases = 0
    par_fails: list[str] = []
    cnt_fails: list[str] = []
    for m, space in ys.items():
        for y in space:
            par_cases += 1
            if len(sc.frakI_odd(y)) % 2 != (m - 1) % 2:
                par_fails.append(f"y={y}")
            if len(sc.R(y)) + len(sc.R0(y)) != 2 * len(sc.frakI(y)):
                cnt_fails.append(f"y={y}")
    checks.append(SuiteCheck("interval_parity", par_cases, tuple(par_fails)))
    checks.append(SuiteCheck("endpoint_count", par_cases, tuple(cnt_fails)))

    sub_cases = 0
    sub_fails: list[str] = []
    enum_cases = 0
    enum_fails: list[str] = []
    for m, yspace in ys.items():
        xspace = xs[m]
        for y in yspace:
            rset, r0set = sc.R(y), sc.R0(y)
            bound = 2 * len(sc.frakI(y))
            no_odd = not sc.frakI_odd(y)
            brute = set()
            for x in xspace:
                try:
                    xp = sc.seq_sub(y, x)
                    sc.ensure_xseq(xp)
                except ValidationError:
                    continue
                sub_cases += 1
                s1, s2 = sc.frakS(x), sc.frakS(xp)
                attained = (s1 | s2 == rset) and (s1 & s2 == r0set)
                if len(s1) + len(s2) > bound:
                    sub_fails.append(f"y={y} x={x}: bound exceeded")
                elif (len(s1) + len(s2) == bound) != attained:
                    sub_fails.append(f"y={y} x={x}: equality vs attainment")
                if sc.member_S(y, x, xp):
                    brute.add((x, xp))
            enum_cases += 1
            members = sc.enumerate_S(y)
            if not members:
                enum_fails.append(f"y={y}: empty split set")
                continue
            if set(members) != brute:
                enum_fails.append(f"y={y}: enumeration misses the direct filter")
            if sc.construct_one_S(y) not in brute:
                enum_fails.append(f"y={y}: constructed member not a member")
            for x, xp in members:
                s1, s2 = sc.frakS(x), sc.frakS(xp)
                if s1 | s2 != rset or s1 & s2 != r0set:
                    enum_fails.append(f"y={y} x={x}: endpoint cover broken")
                if no_odd and s2:
                    enum_fails.append(f"y={y} x={x}: spurious second signature")
    checks.append(SuiteCheck("signature_subadditivity", sub_cases, tuple(sub_fails)))
    checks.append(SuiteCheck("split_enumeration", enum_cases, tuple(enum_fails)))

    cases = 0
    fails = []
    for m in range(2, max_m + 1, 2):
        xspace = xs[m]
        based = [
            y
            for n in range(max_weight + 1)
            for y in sc.enumerate_space("YT", m, n)
            if y[0] == 0 and y[1] == 1
        ]
        for y in based:
            cases += 1
            members = sc.enumerate_tilde_S(y)
            if not members:
                fails.append(f"y={y}: empty based split set")
                continue
            brute = set()
            for x in xspace:
                try:
                    xp = sc.seq_sub(y, x)
                    sc.ensure_xtseq(xp)
                except ValidationError:
                    continue
                if sc.member_tilde_S(y, x, xp):
                    brute.add((x, xp))
            if set(members) != brute:
                fails.append(f"y={y}: enumeration misses the direct filter")
            ivs = sc.frakI(y)
            single_initial = len(ivs) == 1 and ivs[0][0] == 0
            offset_odd = any(lo != 0 for lo, _hi in sc.frakI_odd(y))
            for x, xp in members:
                s1, s2 = sc.frakS(x), sc.frakS(xp)
                if single_initial and (s1 != {ivs[0][1]} or s2 != {0}):
                    fails.append(f"y={y} x={x}: single-interval shape broken")
                if offset_odd and len(s2) < 3:
                    fails.append(f"y={y} x={x}: second signature below three")
    checks.append(SuiteCheck("based_split_enumeration", cases, tuple(fails)))

    cases = 0
    fails = []
    for m, space in xs.items():
        for x in space:
            cases += 1
            hat, e = sc.hat_decompose(x)
            try:
                sc.ensure_xseq(hat)
                sc.ensure_eseq(e)
            except ValidationError:
                fails.append(f"x={x}: decomposition leaves the spaces")
                continue
            if sc.seq_add(hat, e) != x or sc.frakS(hat) != sc.frakS(x):
                fails.append(f"x={x}: recomposition broken")
            hat2, e2 = sc.hat_decompose(hat)
            if hat2 != hat or any(e2):
                fails.append(f"x={x}: not idempotent")
    checks.append(SuiteCheck("hat_roundtrip", cases, tuple(fails)))

    cases = 0
    fails = []
    for m, space in ys.items():
        for y in space:
            cases += 1
            witnesses = sc.symmetric_decompositions(y)
            want = all(lo == hi for lo, hi in sc.frakI(y))
            if bool(witnesses) != want:
                fails.append(f"y={y}: witness presence vs interval sizes")
            for x, e in witnesses:
                mid = sc.seq_add(e, x)
                if sc.seq_add(x, mid) != y or sc.frakS(mid) != sc.frakS(x):
                    fails.append(f"y={y} x={x}: malformed witness")
    checks.append(SuiteCheck("symmetric_witness_equivalence", cases, tuple(fails)))

    return LemmaSuiteReport(max_m=max_m, max_weight=max_weight, checks=tuple(checks))


# ---------------------------------------------------------------------------
# oracle equivalence suite


@dataclass(frozen=True)
class OracleSuiteReport:
    """Results of the character-theoretic cross-checks."""

    blocks: tuple[SuiteCheck, ...]

    def ok(self) -> bool:
        return all(not b.failures for b in self.blocks)

    def to_json(self) -> dict:
        return {"ok": self.ok(), "blocks": [b.to_json() for b in self.blocks]}


_B_SCOPE = ((FAMILY_A, 6), (FAMILY_BC, 5), (FAMILY_D, 5))
_J_SCOPE = ((FAMILY_A, 6), (FAMILY_BC, 4), (FAMILY_D, 4))


def _all_labels(family: str, n: int) -> tuple[IrrLabel, ...]:
    table = character_table(family, n)
    return tuple(key_to_label(family, n, key) for key in table.irreps)


def _j_embeddings(family: str, cap: int) -> list[Embedding]:
    out: list[Embedding] = []
    for n in range(cap + 1):
        if family == FAMILY_A:
            out += [Embedding(EMBED_A_SPLIT, r=r, q=n - r) for r in range(n + 1)]
            continue
        if family == FAMILY_BC:
            out += [Embedding(EMBED_B_SP_WQ, p=p, q=n - p) for p in range(n + 1)]
            out += [Embedding(EMBED_B_WR_WQ, r=r, q=n - r) for r in range(n + 1)]
            out += [Embedding(EMBED_C_WR_WDQ, r=r, q=n - r) for r in range(n + 1)]
            out += [
                Embedding(EMBED_B_WR_SP_WQ, r=r, p=p, q=n - r - p)
                for r in range(n + 1)
                for p in range(n - r + 1)
            ]
            continue
        out += [Embedding(EMBED_D_SP_WDQ, p=p, q=n - p) for p in range(n + 1)]
        for r in range(n + 1):
            for p in range(n - r + 1):
                q = n - r - p
                for lam in d_placements(r, p, q):
                    out.append(Embedding(EMBED_D_TRIPLE, r=r, p=p, q=q, lam=lam))
    return out


def oracle_suite(family: str | None = None, max_rank: int | None = None) -> OracleSuiteReport:
    """Replay the brute-force cross-checks against the closed formulas.

    The b block compares the least symmetric-power degree from exact
    character arithmetic with the label-side invariant over all of Irr; the
    j block replays every supported embedding on every special factor tuple
    and demands the same image (degenerate outputs up to the documented
    gauge bit) with induction multiplicity exactly one.  A family outside
    FAMILIES raises DomainError, as does a negative max_rank; a max_rank
    that is not an int raises ValidationError.
    """
    if family is not None and family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if max_rank is not None:
        sc._ensure_nat("max_rank", max_rank)
    blocks: list[SuiteCheck] = []

    for fam, cap in _B_SCOPE:
        if family is not None and fam != family:
            continue
        if max_rank is not None:
            cap = min(cap, max_rank)
        cases = 0
        fails: list[str] = []
        for n in range(cap + 1):
            for label in _all_labels(fam, n):
                cases += 1
                got, mult = b_oracle(label)
                if got != b_invariant(label):
                    fails.append(f"{label_str(label)}: b {got} vs {b_invariant(label)}")
                if is_special(label) and mult != 1:
                    fails.append(f"{label_str(label)}: multiplicity {mult} at its degree")
        blocks.append(SuiteCheck(f"b_{fam}", cases, tuple(fails)))

    for fam, cap in _J_SCOPE:
        if family is not None and fam != family:
            continue
        if max_rank is not None:
            cap = min(cap, max_rank)
        cases = 0
        fails: list[str] = []
        for emb in _j_embeddings(fam, cap):
            pools = [
                [rep.label for rep in special_reps(ffam, rank)]
                for ffam, rank in emb.factor_signature()
            ]
            for combo in product(*pools):
                cases += 1
                want = j_induce(emb, combo)
                try:
                    got = j_oracle(emb, combo)
                except OracleError as exc:
                    fails.append(
                        f"{emb.kind} {tuple(label_str(c) for c in combo)}: {exc}"
                    )
                    continue
                if not labels_match(got, want):
                    fails.append(
                        f"{emb.kind} {tuple(label_str(c) for c in combo)}: "
                        f"{label_str(got)} vs {label_str(want)}"
                    )
                elif induction_multiplicity(emb, combo, got) != 1:
                    fails.append(
                        f"{emb.kind} {tuple(label_str(c) for c in combo)}: multiplicity != 1"
                    )
        blocks.append(SuiteCheck(f"j_{fam}", cases, tuple(fails)))

    return OracleSuiteReport(blocks=tuple(blocks))
