"""Oracle checks: exact tables, symmetric-power degrees, induced products."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

import pytest

from weylsymbols import oracle
from weylsymbols import seqcomb as sc
from weylsymbols.engine import _a_divisor_members, verify
from weylsymbols.errors import (
    DomainError,
    OracleError,
    ResourceError,
    ValidationError,
)
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    b_invariant,
    canonicalize,
    dimension,
    is_special,
    make_d_label,
    partition_to_z,
    special_reps,
    z_to_partition,
)
from weylsymbols.jinduction import (
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
)
from weylsymbols.oracle import (
    RANK_BOUNDS,
    ClassKey,
    IrrKey,
    b_oracle,
    character_table,
    induction_multiplicity,
    j_oracle,
    key_to_label,
    label_to_key,
)


def _partitions(n: int, cap: int | None = None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _labels(family: str, n: int, dagger_only: bool = False) -> list[IrrLabel]:
    if family == FAMILY_A:
        return [IrrLabel(family, n, partition_to_z(lam)) for lam in _partitions(n)]
    out: list[IrrLabel] = []
    for k in range(n + 1):
        for lam in _partitions(k):
            for mu in _partitions(n - k):
                length = max(len(lam), len(mu), 1)
                if family == FAMILY_BC:
                    out.append(
                        canonicalize(
                            IrrLabel(
                                family,
                                n,
                                partition_to_z(lam, length + 1),
                                partition_to_z(mu, length),
                            )
                        )
                    )
                    continue
                if (sum(lam), lam) < (sum(mu), mu):
                    continue
                rows = (partition_to_z(lam, length), partition_to_z(mu, length))
                if lam == mu and n:
                    out.append(canonicalize(make_d_label(n, *rows, 0)))
                    out.append(canonicalize(make_d_label(n, *rows, 1)))
                else:
                    lab = canonicalize(make_d_label(n, *rows))
                    if not dagger_only or lab.is_dagger:
                        out.append(lab)
    return out


def _trivial(family: str, n: int) -> IrrLabel:
    if family == FAMILY_A:
        return IrrLabel(family, n, partition_to_z((n,)) if n else (0,))
    if family == FAMILY_BC:
        return IrrLabel(family, n, partition_to_z((n,), 2) if n else (0, 1), (0,))
    if n == 0:
        return IrrLabel(family, n, (0,), (0,))
    return make_d_label(n, partition_to_z((n,)), (0,))


# ---------------------------------------------------------------------------
# tables

def test_table_textbook_shapes():
    t = character_table(FAMILY_A, 3)
    assert t.order == 6 and len(t.classes) == 3
    assert sorted(t.dims()) == [1, 1, 2]
    t = character_table(FAMILY_BC, 2)
    assert t.order == 8 and len(t.classes) == 5
    assert sorted(t.dims()) == [1, 1, 1, 1, 2]
    # construction re-checks column orthogonality, so building is the test
    t = character_table(FAMILY_D, 4)
    assert t.order == 192 and len(t.classes) == 13


def test_table_split_classes_family_d():
    t = character_table(FAMILY_D, 4)
    halves = {(c.alpha, c.half): sz for c, sz in zip(t.classes, t.sizes) if c.half is not None}
    assert halves == {
        ((4,), 0): 24,
        ((4,), 1): 24,
        ((2, 2), 0): 6,
        ((2, 2), 1): 6,
    }
    split_irreps = [k for k in t.irreps if k.sign]
    assert len(split_irreps) == 4
    assert {k.lam for k in split_irreps} == {(2,), (1, 1)}


def test_table_sizes_and_orders():
    for family, nmax in ((FAMILY_A, 7), (FAMILY_BC, 5), (FAMILY_D, 5)):
        for n in range(nmax + 1):
            t = character_table(family, n)
            assert sum(t.sizes) == t.order
            assert sum(d * d for d in t.dims()) == t.order
            assert len(t.irreps) == len(t.classes)
            assert t.classes[t.identity_index()] == ClassKey((1,) * n)
            assert t.sizes[t.identity_index()] == 1


def test_table_bounds_and_validation():
    with pytest.raises(ResourceError):
        character_table(FAMILY_A, 8)
    with pytest.raises(ResourceError):
        character_table(FAMILY_BC, 6)
    with pytest.raises(ResourceError):
        character_table(FAMILY_D, 6)
    with pytest.raises(DomainError):
        character_table("E", 2)
    with pytest.raises(DomainError):
        character_table(FAMILY_A, -1)


@pytest.mark.parametrize("family, n, bad", [
    (FAMILY_A, 2, (FAMILY_A, 2.0)),
    (FAMILY_BC, 1, (FAMILY_BC, True)),
    (FAMILY_D, 2, ([FAMILY_D], 2)),
])
def test_table_arguments_are_checked_with_the_cache_warm(family, n, bad):
    # a cached table must not answer for an argument equal to its key
    assert character_table(family, n).n == n
    with pytest.raises((ValidationError, DomainError)):
        character_table(*bad)


def test_oracle_entry_points_reject_what_is_not_a_label():
    emb = Embedding(EMBED_A_SPLIT, r=1, q=1)
    one = IrrLabel(FAMILY_A, 1, (1,))
    two = IrrLabel(FAMILY_A, 2, partition_to_z((2,)))
    for call in (
        lambda: b_oracle("x"),
        lambda: b_oracle(None),
        lambda: b_oracle(label_to_key(two)),
        lambda: j_oracle(emb, ["x", one]),
        lambda: j_oracle(emb, (one, 7)),
        lambda: j_oracle(emb, one),
        lambda: j_oracle("A_split", [one, one]),
        lambda: induction_multiplicity(emb, [one, "x"], two),
        lambda: induction_multiplicity(emb, [one, one], "x"),
        lambda: induction_multiplicity(None, [one, one], two),
    ):
        with pytest.raises(ValidationError):
            call()
    assert induction_multiplicity(emb, [one, one], two) == 1


def test_internal_partition_codecs_skip_the_boundary_checks(monkeypatch):
    # the key codec, the degree formula and the family-A divisor members
    # encode partitions they built themselves, and decode rows of labels
    # checked when they were built, through the unchecked kernels
    checked = []
    decoded = []
    inner, inner_row = sc._ensure_int, sc.ensure_zseq

    def counted(name, v):
        checked.append(name)
        inner(name, v)

    def counted_row(z):
        decoded.append(z)
        inner_row(z)

    monkeypatch.setattr(sc, "_ensure_int", counted)
    labels = []
    for family, n in ((FAMILY_A, 5), (FAMILY_BC, 3), (FAMILY_D, 4)):
        for key in character_table(family, n).irreps:
            labels.append((key, key_to_label(family, n, key)))
    monkeypatch.setattr(sc, "ensure_zseq", counted_row)
    for key, lab in labels:
        assert label_to_key(lab) == key
        dimension(lab)
    assert decoded == []
    a_labels = [lab for _, lab in labels if lab.family == FAMILY_A]
    for lab in a_labels:
        _a_divisor_members(lab, lab.n)
    # the divisor members are new labels, checked as they are built from
    # rows the kernel decoded without checking them again
    assert not any(z is lab.z for z in decoded for lab in a_labels)
    assert verify("A", 6).ok()
    assert "part" not in checked and "length" not in checked
    partition_to_z((2, 1), 3)
    assert checked[-3:] == ["part", "part", "length"]
    # the public decoder keeps its check
    assert z_to_partition((0, 3)) == (2,)
    assert decoded[-1] == (0, 3)
    with pytest.raises(ValidationError):
        z_to_partition((3, 1))


def test_dimensions_match_label_formula():
    for family, n in ((FAMILY_A, 6), (FAMILY_BC, 4), (FAMILY_D, 4)):
        t = character_table(family, n)
        i0 = t.identity_index()
        for lab in _labels(family, n):
            row = t.values[list(t.irreps).index(label_to_key(lab))]
            assert row[i0] == dimension(lab)


def test_label_codec_round_trip():
    for family, nmax in ((FAMILY_A, 5), (FAMILY_BC, 4), (FAMILY_D, 4)):
        for n in range(nmax + 1):
            seen = set()
            for lab in _labels(family, n):
                key = label_to_key(lab)
                assert key_to_label(family, n, key) == lab
                seen.add(key)
            assert seen == set(character_table(family, n).irreps)


# ---------------------------------------------------------------------------
# least symmetric-power degrees

def test_b_oracle_textbook_values():
    for n in range(8):
        assert b_oracle(_trivial(FAMILY_A, n)) == (0, 1)
    for n in range(1, 8):
        sign = IrrLabel(FAMILY_A, n, partition_to_z((1,) * n))
        assert b_oracle(sign) == (n * (n - 1) // 2, 1)
    for n in range(1, 6):
        sign = key_to_label(FAMILY_BC, n, IrrKey((), (1,) * n))
        assert b_oracle(sign) == (n * n, 1)
        assert b_oracle(_trivial(FAMILY_BC, n)) == (0, 1)


def test_b_oracle_matches_label_invariant_everywhere():
    for family, nmax in ((FAMILY_A, 6), (FAMILY_BC, 5), (FAMILY_D, 5)):
        for n in range(nmax + 1):
            for lab in _labels(family, n):
                b, mult = b_oracle(lab)
                assert b == b_invariant(lab)
                if family == FAMILY_A or is_special(lab):
                    assert mult == 1


def test_symmetric_power_rows_are_the_integers_of_the_power_sum_recursion():
    for family, nmax in ((FAMILY_A, 5), (FAMILY_BC, 4), (FAMILY_D, 4)):
        for n in range(nmax + 1):
            classes = character_table(family, n).classes
            want = [[Fraction(1)] * len(classes)]
            for i in range(1, n * n + 2):
                want.append([
                    sum(oracle._power_trace(family, c, k) * want[i - k][ci]
                        for k in range(1, i + 1)) / i
                    for ci, c in enumerate(classes)
                ])
                got = oracle._sym_power_row(family, n, i)
                assert all(type(v) is int for v in got)
                assert list(got) == want[i]


def test_a_symmetric_power_that_divides_with_a_remainder_raises(monkeypatch):
    # rows below degree 2 are cached with their true values first
    assert oracle._sym_power_row(FAMILY_A, 3, 1) == (-1, 0, 2)
    monkeypatch.setattr(oracle, "_power_trace", lambda family, c, k: 1)
    with pytest.raises(OracleError, match="non-integral symmetric power 2"):
        oracle._sym_power_row.__wrapped__(FAMILY_A, 3, 2)


def test_b_oracle_dagger_counterexample():
    # the rank-4 rotation pair {(2),(1,1)} repeats at its own degree
    lab = make_d_label(4, (0, 3), (1, 2))
    assert not is_special(lab)
    assert b_oracle(lab) == (4, 2)


def test_special_reps_all_have_unit_multiplicity():
    for family in (FAMILY_BC, FAMILY_D):
        for n in range(6):
            for rep in special_reps(family, n):
                b, mult = b_oracle(rep.label)
                assert (b, mult) == (rep.b, 1)


# ---------------------------------------------------------------------------
# induced products

def test_induction_trivial_factors():
    for emb in (
        Embedding(EMBED_A_SPLIT, r=2, q=2),
        Embedding(EMBED_B_SP_WQ, p=2, q=2),
        Embedding(EMBED_B_WR_WQ, r=2, q=2),
        Embedding(EMBED_C_WR_WDQ, r=2, q=2),
        Embedding(EMBED_D_SP_WDQ, p=2, q=2),
    ):
        factors = tuple(_trivial(f, rk) for f, rk in emb.factor_signature())
        target = _trivial(*emb.target())
        assert induction_multiplicity(emb, factors, target) == 1
        assert j_oracle(emb, factors) == target


def test_induction_two_dim_example():
    # sign x trivial on two plus one letters induces the standard rep
    emb = Embedding(EMBED_A_SPLIT, r=2, q=1)
    factors = (
        IrrLabel(FAMILY_A, 2, partition_to_z((1, 1))),
        IrrLabel(FAMILY_A, 1, partition_to_z((1,))),
    )
    target = IrrLabel(FAMILY_A, 3, partition_to_z((2, 1)))
    assert dimension(target) == 2
    assert induction_multiplicity(emb, factors, target) == 1
    assert j_oracle(emb, factors) == target


def test_induction_validation_errors():
    emb = Embedding(EMBED_B_WR_WQ, r=1, q=1)
    good = (_trivial(FAMILY_BC, 1), _trivial(FAMILY_BC, 1))
    with pytest.raises(DomainError):
        induction_multiplicity(emb, good[:1], _trivial(FAMILY_BC, 2))
    with pytest.raises(DomainError):
        induction_multiplicity(emb, (good[0], _trivial(FAMILY_A, 1)), _trivial(FAMILY_BC, 2))
    with pytest.raises(DomainError):
        induction_multiplicity(emb, good, _trivial(FAMILY_BC, 3))
    with pytest.raises(ResourceError):
        j_oracle(Embedding(EMBED_B_WR_WQ, r=3, q=3), (_trivial(FAMILY_BC, 3), _trivial(FAMILY_BC, 3)))


def test_j_oracle_agrees_with_formula_small_rank():
    embeddings = []
    for n in range(5):
        embeddings += [Embedding(EMBED_A_SPLIT, r=r, q=n - r) for r in range(n + 1)]
    for n in range(4):
        embeddings += [Embedding(EMBED_B_SP_WQ, p=p, q=n - p) for p in range(n + 1)]
        embeddings += [Embedding(EMBED_B_WR_WQ, r=r, q=n - r) for r in range(n + 1)]
        embeddings += [Embedding(EMBED_C_WR_WDQ, r=r, q=n - r) for r in range(n + 1)]
        embeddings += [Embedding(EMBED_D_SP_WDQ, p=p, q=n - p) for p in range(n + 1)]
        embeddings += [
            Embedding(EMBED_B_WR_SP_WQ, r=r, p=p, q=n - r - p)
            for r in range(n + 1)
            for p in range(n - r + 1)
        ]
    for emb in embeddings:
        pools = [
            _labels(fam, rk, dagger_only=(fam == FAMILY_D))
            for fam, rk in emb.factor_signature()
        ]
        for combo in itertools.product(*pools):
            got = j_oracle(emb, combo)
            want = j_induce(emb, combo)
            # degenerate outputs match up to the documented kappa gauge
            assert (got.z, got.zp) == (want.z, want.zp)
            if got.z != got.zp:
                assert got == want


def test_j_oracle_twisted_triples_swap_split_halves():
    # the twisted and untwisted symmetric-group block embeddings pick
    # opposite pieces of a degenerate image
    emb0 = Embedding(EMBED_D_TRIPLE, r=0, p=2, q=0, lam=0)
    emb3 = Embedding(EMBED_D_TRIPLE, r=0, p=2, q=0, lam=3)
    zero = _trivial(FAMILY_D, 0)
    sign = IrrLabel(FAMILY_A, 2, partition_to_z((1, 1)))
    a = j_oracle(emb0, (zero, sign, zero))
    b = j_oracle(emb3, (zero, sign, zero))
    assert a.z == b.z == a.zp
    assert {a.kappa, b.kappa} == {0, 1}
    assert j_induce(emb0, (zero, sign, zero)).z == a.z


def test_oracle_keys_are_plain_data():
    assert IrrKey((2, 1), (1,)) == IrrKey((2, 1), (1,), 0)
    assert ClassKey((2,)) == ClassKey((2,), (), None)
    assert RANK_BOUNDS[FAMILY_A] == 7


def _embeddings(family: str, cap: int) -> list[Embedding]:
    """Every embedding kind into the family, at target ranks up to cap."""
    out: list[Embedding] = []
    for n in range(cap + 1):
        if family == FAMILY_A:
            out += [Embedding(EMBED_A_SPLIT, r=r, q=n - r) for r in range(n + 1)]
        elif family == FAMILY_BC:
            for kind in (EMBED_B_SP_WQ, EMBED_B_WR_WQ, EMBED_C_WR_WDQ):
                part = "p" if kind == EMBED_B_SP_WQ else "r"
                out += [Embedding(kind, **{part: k, "q": n - k}) for k in range(n + 1)]
            out += [Embedding(EMBED_B_WR_SP_WQ, r=r, p=p, q=n - r - p)
                    for r in range(n + 1) for p in range(n - r + 1)]
        else:
            out += [Embedding(EMBED_D_SP_WDQ, p=p, q=n - p) for p in range(n + 1)]
            out += [Embedding(EMBED_D_TRIPLE, r=r, p=p, q=n - r - p, lam=lam)
                    for r in range(n + 1) for p in range(n - r + 1)
                    for lam in d_placements(r, p, n - r - p)]
    return out


def _multiplicity_by_class_tuples(emb, factors, target) -> Fraction:
    """The inner product summed one tuple of factor classes at a time, each
    tuple fused on its own, in Fractions."""
    sig = emb.factor_signature()
    tfam, tn = emb.target()
    ttab = character_table(tfam, tn)
    trow = ttab.values[ttab.irreps.index(label_to_key(target))]
    ftabs = [character_table(f, rank) for f, rank in sig]
    frows = [ft.values[ft.irreps.index(label_to_key(lab))]
             for ft, lab in zip(ftabs, factors)]
    total = Fraction(0)
    for combo in itertools.product(*(range(len(ft.classes)) for ft in ftabs)):
        weight = prod(ft.sizes[ci] for ft, ci in zip(ftabs, combo))
        val = prod(row[ci] for row, ci in zip(frows, combo))
        keys = tuple(ft.classes[ci] for ft, ci in zip(ftabs, combo))
        fused = ttab.classes.index(oracle._fused_class(emb, sig, keys, tfam, tn))
        total += Fraction(weight * val * trow[fused])
    return total / prod(ft.order for ft in ftabs)


def test_induction_multiplicity_is_the_sum_over_factor_class_tuples():
    cases = 0
    for family, cap in ((FAMILY_A, 4), (FAMILY_BC, 3), (FAMILY_D, 3)):
        for emb in _embeddings(family, cap):
            pools = [[rep.label for rep in special_reps(f, rank)]
                     for f, rank in emb.factor_signature()]
            targets = _labels(*emb.target())
            for combo in itertools.product(*pools):
                for target in targets:
                    want = _multiplicity_by_class_tuples(emb, combo, target)
                    assert induction_multiplicity(emb, combo, target) == want
                    cases += 1
    assert cases == 1875


def test_a_seen_embedding_is_fused_from_its_table(monkeypatch):
    fused = []
    inner = oracle._fused_class

    def counted(*args):
        fused.append(args)
        return inner(*args)

    monkeypatch.setattr(oracle, "_fused_class", counted)
    oracle._fusion.cache_clear()
    emb = Embedding(EMBED_D_TRIPLE, r=1, p=2, q=1)
    pools = [[rep.label for rep in special_reps(f, rank)]
             for f, rank in emb.factor_signature()]
    combos = list(itertools.product(*pools))
    j_oracle(emb, combos[0])
    # one fusion per tuple of factor classes, on the first product only
    assert len(fused) == prod(len(character_table(f, rank).classes)
                              for f, rank in emb.factor_signature())
    fused.clear()
    for combo in combos:
        induction_multiplicity(emb, combo, j_oracle(emb, combo))
    assert fused == []


def test_a_row_that_pairs_non_integrally_raises(monkeypatch):
    emb = Embedding(EMBED_A_SPLIT, r=2, q=1)
    factors = (_trivial(FAMILY_A, 2), _trivial(FAMILY_A, 1))
    target = _trivial(FAMILY_A, 3)
    # every table read below is cached with its true values first
    assert j_oracle(emb, factors) == target
    assert induction_multiplicity(emb, factors, target) == 1
    identity = character_table(FAMILY_A, 3).identity_index()
    row = oracle._row

    def off_by_one(family, n, key):
        values = list(row(family, n, key))
        if (family, n) == (FAMILY_A, 3):
            values[identity] += 1
        return tuple(values)

    monkeypatch.setattr(oracle, "_row", off_by_one)
    with pytest.raises(OracleError, match="non-integral induction multiplicity"):
        induction_multiplicity(emb, factors, target)
    with pytest.raises(OracleError, match="non-integral induction multiplicity"):
        j_oracle(emb, factors)
    with pytest.raises(OracleError, match="non-integral multiplicity"):
        oracle._b_of_key.__wrapped__(FAMILY_A, 3, label_to_key(target))
