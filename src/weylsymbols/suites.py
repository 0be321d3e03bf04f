"""Exhaustive property and oracle suites behind ``lemmas`` and ``oracle-check``.

lemma_suite rechecks the sequence-statistics identities of the seqcomb layer
over every sequence up to a length and weight bound; oracle_suite replays
the brute-force character-theoretic oracle against the closed formulas for
b-invariants and truncated induction.  Both return report dataclasses whose
to_json output is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product
from math import comb

from . import seqcomb as sc
from .errors import DomainError, OracleError, ResourceError, ValidationError
from .irreps import (
    FAMILIES,
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    _a_value,
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


@dataclass(frozen=True, slots=True)
class SuiteCheck:
    """One exhaustive check of either suite (a lemma of the property suite,
    a block of the oracle suite) with its case count and failures."""

    name: str
    cases: int
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
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


def _a_labels(n: int) -> list[IrrLabel]:
    """Every BC label and every D label of kappa 0 of rank n, the BC rows
    at lengths (n + 2, n + 1) and the D rows at n + 1, long enough for
    any pair of partitions of total n."""
    k = n + 1
    out = []
    for w in range(n + 1):
        for z in sc.enumerate_space("Z", k, w):
            out += [IrrLabel(FAMILY_BC, n, z, zp)
                    for zp in sc.enumerate_space("Z", k - 1, n - w)]
        if 2 * w < n:
            continue
        # D rows: the heavier first, equal weights sorted
        for z in sc.enumerate_space("Z", k - 1, w):
            out += [IrrLabel(FAMILY_D, n, z, zp)
                    for zp in sc.enumerate_space("Z", k - 1, n - w)
                    if 2 * w > n or z <= zp]
    return out


def _partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n): the partition counts, one part size at a time."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p


def _irr_count(family: str, n: int) -> int:
    """|Irr W| of rank n for family BC or D: the bipartitions of n, and for
    D their unordered pairs, where a degenerate pair (two equal
    partitions of n / 2) names two irreducibles."""
    p = _partition_counts(n)
    bip = sum(p[k] * p[n - k] for k in range(n + 1))
    if family == FAMILY_BC:
        return bip
    half = p[n // 2] if n % 2 == 0 else 0
    return (bip - half) // 2 + 2 * half


def _family_count_failure(family: str, n: int) -> str | None:
    """Lusztig's family sizes, read off the f of each rank-n special of
    family BC or D, summed against |Irr W|.  A BC special with f = 2^d
    heads C(2d + 1, d) irreducibles, and a D special with f = 2^d heads
    C(2d + 2, d + 1) / 2, the same number; so f = 1 heads only itself, as
    a degenerate D special (equal rows) does."""
    total = 0
    for rep in special_reps(family, n):
        d = rep.f.bit_length() - 1
        if rep.f != 1 << d:
            return f"{family}{n}: {label_str(rep.label)} has f {rep.f}"
        total += comb(2 * d + 1, d)
    want = _irr_count(family, n)
    if total != want:
        return f"{family}{n}: families hold {total}, |Irr| is {want}"
    return None


def _ensure_suite_cap(max_m: int, max_weight: int) -> None:
    """Refuse (ResourceError), before any enumeration, bounds that would
    take one of the suite's enumerations past seqcomb.SIZE_CAP: the spaces
    run to length index max_m and statistic max_weight, a based split of
    length index m and statistic n has rho' = n + m / 2, and the label
    checks read special_reps("BC", r), merged at length index 2r + 2, up
    to rank r = min(max_m, max_weight)."""
    rank = min(max_m, max_weight)
    reach = max(max_m, max_weight,
                max_weight + max_m // 2 if max_m >= 2 else 0,
                2 * rank + 2 if rank >= 2 else 0)
    if reach > sc.SIZE_CAP:
        raise ResourceError(
            f"lemma suite bounds max_m={max_m} max_weight={max_weight} "
            f"reach past the enumeration size cap {sc.SIZE_CAP}")


def lemma_suite(max_m: int = 8, max_weight: int = 8) -> LemmaSuiteReport:
    """Exhaustively recheck the sequence-statistics identities.

    Covers signature parity, interval parity, the endpoint count, signature
    subadditivity with its equality characterization, completeness and shape
    of the plain and based split enumerations, the hat-decomposition round
    trip, and the symmetric-witness criterion (nonempty exactly when every
    interval has size one), over all sequences with length index at most
    max_m and deviation weight at most max_weight.  Last, specialness by
    Lusztig's a-function: over every BC label and every D label of kappa 0
    of ranks 2 to the lesser bound, a <= b, with equality exactly when the
    label is special.  Bounding the rank by both bounds keeps the label
    count, like every other check's case count, from growing with one
    bound alone.  Over the same ranks, the family sizes read off each BC
    and D special's f sum to |Irr W|, one case per family and rank.
    Bounds that would take an enumeration past the size cap raise
    ResourceError before any runs.
    """
    sc._ensure_int("max_m", max_m)
    sc._ensure_int("max_weight", max_weight)
    if max_m < 0 or max_weight < 0:
        raise DomainError("suite bounds must be nonnegative")
    _ensure_suite_cap(max_m, max_weight)
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

    cases = 0
    fails = []
    ranks = range(2, min(max_m, max_weight) + 1)
    for n in ranks:
        for label in _a_labels(n):
            cases += 1
            a, b = _a_value(label), b_invariant(label)
            if a > b or (a == b) != is_special(label):
                fails.append(f"{label_str(label)}: a {a}, b {b}, "
                             f"special {is_special(label)}")
    checks.append(SuiteCheck("a_function", cases, tuple(fails)))

    results = [_family_count_failure(family, n)
               for n in ranks for family in (FAMILY_BC, FAMILY_D)]
    checks.append(SuiteCheck("family_count", len(results),
                             tuple(f for f in results if f is not None)))

    return LemmaSuiteReport(max_m=max_m, max_weight=max_weight, checks=tuple(checks))


# ---------------------------------------------------------------------------
# oracle equivalence suite


@dataclass(frozen=True, slots=True)
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
    from .oracle import character_table, key_to_label

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
    # the oracle is loaded here, so the lemma suite never compiles it
    from .oracle import b_oracle, induction_multiplicity, j_oracle

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
