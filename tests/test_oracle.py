"""Oracle checks: exact tables, symmetric-power degrees, induced products."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from collections import Counter
from fractions import Fraction
from math import prod
from operator import mul

import pytest

from weylsymbols import irreps, oracle, suites
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
    _label_key,
    b_oracle,
    character_table,
    induction_multiplicity,
    j_oracle,
    key_to_label,
)
from weylsymbols.suites import oracle_suite


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


def _replaced(table, **fields):
    """The table with the given fields replaced, each list made a tuple."""
    return dataclasses.replace(table, **{
        name: tuple(map(tuple, v)) if name == "values" else tuple(v)
        for name, v in fields.items()})


def _one_value_changed(t):
    # the column before the identity's, or the last when it comes first
    values = [list(row) for row in t.values]
    values[0][t.identity_index() - 1] += 1
    return _replaced(t, values=values)


def _one_size_changed(t):
    return _replaced(t, sizes=t.sizes[:-1] + (t.sizes[-1] + 1,))


def _identity_column_doubled(t):
    i0 = t.identity_index()
    values = [list(row) for row in t.values]
    for row in values:
        row[i0] *= 2
    return _replaced(t, values=values)


def _split_halves_swapped(t):
    # one split class's two pieces trade values on every split irreducible:
    # sizes, rows and columns all still check, the relative sign does not
    c0, c1 = (t.classes.index(ClassKey((4,), (), half)) for half in (0, 1))
    values = [list(row) for row in t.values]
    for key, row in zip(t.irreps, values):
        if key.sign:
            row[c0], row[c1] = row[c1], row[c0]
    return _replaced(t, values=values)


@pytest.mark.parametrize("family, n, corrupt, message", [
    (FAMILY_BC, 2, _one_value_changed, r"^row orthogonality fails in BC2$"),
    (FAMILY_BC, 2, _one_size_changed,
     r"^class sizes of BC2 miss the group order$"),
    (FAMILY_BC, 2, _identity_column_doubled,
     r"^degree squares of BC2 miss the group order$"),
    (FAMILY_D, 4, _split_halves_swapped,
     r"^split gauge fails for IrrKey\(.*\) in D4$"),
], ids=["value", "size", "identity-column", "split-halves"])
def test_the_table_gate_refuses_each_corruption(family, n, corrupt, message):
    t = character_table(family, n)
    oracle._verify_table(t)
    bad = corrupt(t)
    assert bad != t and len(bad.values) == len(t.values)
    with pytest.raises(OracleError, match=message):
        oracle._verify_table(bad)


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
        lambda: b_oracle(_label_key(two)),
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


def test_label_codec_arguments_are_checked_with_the_memo_warm():
    two = IrrLabel(FAMILY_A, 2, partition_to_z((2,)))
    key = IrrKey((1,), (1,))
    # the memo holds every argument below that compares equal to a bad one
    assert _label_key(two) == IrrKey((2,))
    assert _label_key(key_to_label(FAMILY_BC, 2, key)) == key
    assert key_to_label(FAMILY_BC, 1, IrrKey((1,), ())).n == 1
    for args, error in [
        ((FAMILY_BC, 2, 42), ValidationError),
        ((FAMILY_BC, 2, None), ValidationError),
        ((FAMILY_BC, 2.0, key), ValidationError),
        ((FAMILY_BC, True, IrrKey((1,), ())), ValidationError),
        (([FAMILY_BC], 2, key), DomainError),
        ((FAMILY_BC, -1, key), DomainError),
        ((FAMILY_BC, 2, IrrKey((1.0,), (1,))), ValidationError),
        ((FAMILY_BC, 2, IrrKey((True,), (1,))), ValidationError),
        ((FAMILY_BC, 2, IrrKey([1], (1,))), ValidationError),
        ((FAMILY_BC, 2, IrrKey((1,), ([1],))), ValidationError),
        ((FAMILY_BC, 2, IrrKey((1,), (1,), 0.0)), ValidationError),
        ((FAMILY_BC, 2, IrrKey((3,), ())), DomainError),
        ((FAMILY_BC, 2, IrrKey((2,))), DomainError),
        ((FAMILY_A, 2, key), DomainError),
        ((FAMILY_D, 2, key), DomainError),
    ]:
        with pytest.raises(error):
            key_to_label(*args)
    with pytest.raises(ResourceError):
        key_to_label(FAMILY_A, 8, IrrKey((8,)))


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
        assert _label_key(lab) == key
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
            row = t.values[list(t.irreps).index(_label_key(lab))]
            assert row[i0] == dimension(lab)


def test_label_codec_round_trip():
    for family, nmax in ((FAMILY_A, 5), (FAMILY_BC, 4), (FAMILY_D, 4)):
        for n in range(nmax + 1):
            seen = set()
            for lab in _labels(family, n):
                key = _label_key(lab)
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
            table = character_table(family, n)
            classes = table.classes
            want = [[Fraction(1)] * len(classes)]
            for i in range(1, n * n + 2):
                want.append([
                    sum(oracle._power_trace(family, c, k) * want[i - k][ci]
                        for k in range(1, i + 1)) / i
                    for ci, c in enumerate(classes)
                ])
            got = list(itertools.islice(oracle._sym_powers(table), n * n + 2))
            assert all(type(v) is int for row in got for v in row)
            assert [list(row) for row in got] == want


def test_a_symmetric_power_that_divides_with_a_remainder_raises(monkeypatch):
    # with p_1 = 0 and p_2 = 1 on every class, h_2 = (p_1 h_1 + p_2 h_0) / 2
    # is 1/2; the group build runs the same recursion
    table = character_table(FAMILY_A, 3)
    assert list(itertools.islice(oracle._sym_powers(table), 2)) == [
        (1, 1, 1), (-1, 0, 2)]
    monkeypatch.setattr(oracle, "_power_trace", lambda family, c, k: int(k == 2))
    with pytest.raises(OracleError, match="non-integral symmetric power 2 in A3"):
        list(itertools.islice(oracle._sym_powers(table), 3))
    with pytest.raises(OracleError, match="non-integral symmetric power 2 in A3"):
        oracle._group.__wrapped__(FAMILY_A, 3)


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
    trow = ttab.values[ttab.irreps.index(_label_key(target))]
    ftabs = [character_table(f, rank) for f, rank in sig]
    frows = [ft.values[ft.irreps.index(_label_key(lab))]
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


def _fuses_into_a_split_class(keys) -> bool:
    """Whether factor classes with these keys fuse into a split class of a
    family-D target: no negative cycle, every positive one even."""
    return any(k.alpha for k in keys) and all(
        not k.beta and all(v % 2 == 0 for v in k.alpha) for k in keys)


@pytest.fixture
def fused(monkeypatch) -> list[tuple]:
    """The arguments of each _fused_class call, in call order."""
    calls = []
    inner = oracle._fused_class

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(oracle, "_fused_class", counted)
    return calls


def test_a_seen_embedding_is_fused_from_its_table(fused):
    embs = [Embedding(EMBED_D_TRIPLE, r=0, p=2, q=2),
            Embedding(EMBED_D_TRIPLE, r=0, p=2, q=2, lam=1),
            Embedding(EMBED_D_SP_WDQ, p=0, q=4),
            Embedding(EMBED_B_WR_SP_WQ, r=1, p=2, q=1)]
    predicted = {}
    for emb in embs:
        classes = [character_table(f, rank).classes
                   for f, rank in emb.factor_signature()]
        predicted[emb] = sum(
            emb.target()[0] == FAMILY_D and _fuses_into_a_split_class(keys)
            for keys in itertools.product(*classes))
    assert [predicted[emb] for emb in embs] == [2, 2, 4, 0]
    for emb in embs:
        oracle._fusion.cache_clear()
        pools = [[rep.label for rep in special_reps(f, rank)]
                 for f, rank in emb.factor_signature()]
        combos = list(itertools.product(*pools))
        fused.clear()
        j_oracle(emb, combos[0])
        # the first product builds the table once, and only the tuples
        # fusing into a split class go through an explicit permutation
        assert oracle._fusion.cache_info().misses == 1
        assert len(fused) == predicted[emb]
        assert all(_fuses_into_a_split_class(args[2]) for args in fused)
        fused.clear()
        for combo in combos:
            induction_multiplicity(emb, combo, j_oracle(emb, combo))
        assert fused == []
        assert oracle._fusion.cache_info().misses == 1


def _window_embeddings() -> list[Embedding]:
    """Every embedding of the benchmark window: A <= 7, BC <= 5, D <= 5,
    each D_triple at every admissible lam."""
    return [emb for family, cap in ((FAMILY_A, 7), (FAMILY_BC, 5), (FAMILY_D, 5))
            for emb in _embeddings(family, cap)]


def test_each_fusion_table_fuses_tuple_by_tuple(fused):
    embs = _window_embeddings()
    assert len(embs) == 258
    oracle._fusion.cache_clear()
    tables = {emb: oracle._fusion(emb) for emb in embs}
    # only the tuples fusing into a split class take an explicit
    # permutation, each once, in build order; the rest fuse by cycle type
    split = [(emb, keys) for emb in embs if emb.target()[0] == FAMILY_D
             for keys in itertools.product(*(character_table(f, rank).classes
                                             for f, rank in emb.factor_signature()))
             if _fuses_into_a_split_class(keys)]
    assert [(args[0], args[2]) for args in fused] == split
    assert len(split) == 47
    # the reference: one ClassKey per tuple of factor classes, each fused
    # through _fused_class and looked up in the target's class index
    tuples = 0
    for emb in embs:
        sig = emb.factor_signature()
        tfam, tn = emb.target()
        index = oracle._group(tfam, tn).class_index
        classes = [character_table(f, rank).classes for f, rank in sig]
        want = tuple(index[oracle._fused_class(emb, sig, keys, tfam, tn)]
                     for keys in itertools.product(*classes))
        assert tables[emb] == want
        tuples += len(want)
    assert tuples == 2567


def test_the_folded_product_is_the_product_over_class_tuples():
    # the reference: each tuple of factor classes multiplied out on its own
    # and added into the class it fuses into
    cases = 0
    for emb in _window_embeddings():
        sig = emb.factor_signature()
        pools = [[rep.label for rep in special_reps(f, rank)] for f, rank in sig]
        for combo in itertools.product(*pools):
            keys = tuple(map(_label_key, combo))
            groups = [oracle._group(f, rank) for f, rank in sig]
            weighted = [g.weighted[g.irr_index[key]] for g, key in zip(groups, keys)]
            induced = [0] * len(character_table(*emb.target()).classes)
            for fused, vals in zip(oracle._fusion(emb), itertools.product(*weighted)):
                induced[fused] += prod(vals)
            want = (tuple(induced), prod(g.table.order for g in groups),
                    sum(b_oracle(lab)[0] for lab in combo))
            assert oracle._induced(emb, sig, keys) == want
            cases += 1
    assert cases == 1817


def test_oracle_suite_induces_each_j_case_once():
    # induction_multiplicity on the image j_oracle just returned pairs the
    # vector j_oracle induced
    oracle._induced.cache_clear()
    report = oracle_suite()
    j_cases = sum(b.cases for b in report.blocks if b.name.startswith("j_"))
    assert report.ok() and j_cases == 816
    assert oracle._induced.cache_info().misses == 816
    # one entry is kept, not one per case
    assert oracle._induced.cache_info().currsize == 1


def test_oracle_suite_builds_each_special_pool_once(monkeypatch):
    # the j blocks ask for a factor pool once per embedding and factor;
    # the special_reps memo builds each distinct (family, rank, m) once
    asked = []
    inner = suites.special_reps

    def counted(*args):
        asked.append(args)
        return inner(*args)

    monkeypatch.setattr(suites, "special_reps", counted)
    irreps._special_pool.cache_clear()
    assert oracle_suite().ok()
    info = irreps._special_pool.cache_info()
    assert (len(asked), len(set(asked))) == (437, 17)
    assert info.misses == info.currsize == 17


def test_a_cold_table_set_traces_each_class_power_once(monkeypatch):
    traced = Counter()
    inner = oracle._power_trace

    def counted(family, c, k):
        traced[family, c, k] += 1
        return inner(family, c, k)

    monkeypatch.setattr(oracle, "_power_trace", counted)
    oracle._group.cache_clear()
    for family, cap in RANK_BOUNDS.items():
        for n in range(cap + 1):
            character_table(family, n)
    assert traced and set(traced.values()) == {1}
    # each group is traced in whole rows: every class at k = 1, ..., top,
    # top its irreducibles' largest least degree
    for family, cap in RANK_BOUNDS.items():
        for n in range(cap + 1):
            classes = character_table(family, n).classes
            rows = {(c, k) for fam, c, k in traced
                    if fam == family and c in classes}
            top = max(b_oracle(key_to_label(family, n, key))[0]
                      for key in character_table(family, n).irreps)
            assert rows == {(c, k) for c in classes for k in range(1, top + 1)}


def test_a_cold_oracle_suite_builds_and_verifies_each_group_once(monkeypatch):
    verified = []
    verify_table = oracle._verify_table

    def counted_verify(table):
        verified.append((table.family, table.n))
        return verify_table(table)

    read = set()
    group = oracle._group

    def counted_group(family, n):
        read.add((family, n))
        return group(family, n)

    monkeypatch.setattr(oracle, "_verify_table", counted_verify)
    monkeypatch.setattr(oracle, "_group", counted_group)
    group.cache_clear()
    assert oracle_suite().ok()
    # the suite reads A <= 6, BC <= 5 and D <= 5
    assert len(verified) == len(set(verified)) == len(read) == 19
    assert set(verified) == read
    assert group.cache_info().misses == group.cache_info().currsize == 19


def test_each_group_record_keeps_its_weighted_rows_and_degree_index():
    for family, cap in RANK_BOUNDS.items():
        for n in range(cap + 1):
            group = oracle._group(family, n)
            t = group.table
            assert len(group.weighted) == len(t.values)
            for wrow, row in zip(group.weighted, t.values):
                assert wrow == tuple(sz * v for sz, v in zip(t.sizes, row))
            # at_degree partitions the irreducibles by least degree, each
            # part in table order
            assert sorted(i for part in group.at_degree.values()
                          for i in part) == list(range(len(t.irreps)))
            for degree, part in group.at_degree.items():
                assert part and list(part) == sorted(part)
                assert all(group.degrees[i][0] == degree for i in part)


# the image and its multiplicity for each of the 816 j-cases of oracle_suite,
# one repr line per case in suite order, sha256 of the lines joined by "\n"
_J_CASES_DIGEST = "18ed8cadfd551c3ee585ee1569063c12d2f73f59d5a1e9787d266dc7a207b4ef"


def test_oracle_suite_j_cases_keep_their_pinned_images():
    lines = []
    for fam, cap in suites._J_SCOPE:
        for emb in suites._j_embeddings(fam, cap):
            pools = [[rep.label for rep in special_reps(f, rank)]
                     for f, rank in emb.factor_signature()]
            for combo in itertools.product(*pools):
                got = j_oracle(emb, combo)
                mult = induction_multiplicity(emb, combo, got)
                lines.append(repr((emb, combo, got, mult)))
    assert len(lines) == 816
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _J_CASES_DIGEST


def test_interleaved_cases_keep_their_own_multiplicities():
    # the four twists of one factor product, and two products of one
    # twist, each paired with every target against the class-tuple sum
    e = Embedding(EMBED_D_TRIPLE, r=0, p=2, q=0)
    pools = [[rep.label for rep in special_reps(f, rank)]
             for f, rank in e.factor_signature()]
    cases = [(dataclasses.replace(e, lam=lam), combo)
             for lam in d_placements(0, 2, 0)
             for combo in itertools.product(*pools)]
    cases.append((Embedding(EMBED_A_SPLIT, r=2, q=1),
                  (_trivial(FAMILY_A, 2), _trivial(FAMILY_A, 1))))
    targets = {emb.target(): _labels(*emb.target()) for emb, _ in cases}
    want = {(i, target): _multiplicity_by_class_tuples(emb, combo, target)
            for i, (emb, combo) in enumerate(cases)
            for target in targets[emb.target()]}
    assert len(set(want.values())) > 1
    for i, (emb, combo) in enumerate(cases):
        for j, (other, other_combo) in enumerate(cases):
            got = j_oracle(emb, combo)
            for target in targets[other.target()]:
                assert (induction_multiplicity(other, other_combo, target)
                        == want[j, target])
            assert induction_multiplicity(emb, combo, got) == 1
            assert want[i, got] == 1


def test_a_row_that_pairs_non_integrally_raises(monkeypatch):
    emb = Embedding(EMBED_A_SPLIT, r=2, q=1)
    factors = (_trivial(FAMILY_A, 2), _trivial(FAMILY_A, 1))
    target = _trivial(FAMILY_A, 3)
    # every table read below is cached with its true values first
    assert j_oracle(emb, factors) == target
    assert induction_multiplicity(emb, factors, target) == 1
    group = oracle._group(FAMILY_A, 3)
    identity = group.table.identity_index()
    values = [list(row) for row in group.table.values]
    for row in values:
        row[identity] += 1
    bad = dataclasses.replace(group.table, values=tuple(map(tuple, values)))
    true_group, true_table = oracle._group, oracle._table
    monkeypatch.setattr(oracle, "_group", lambda family, n: (
        dataclasses.replace(group, table=bad) if (family, n) == (FAMILY_A, 3)
        else true_group(family, n)))
    with pytest.raises(OracleError, match="non-integral induction multiplicity"):
        induction_multiplicity(emb, factors, target)
    with pytest.raises(OracleError, match="non-integral induction multiplicity"):
        j_oracle(emb, factors)
    monkeypatch.undo()
    # a group built from the shifted table is refused by the gate, which
    # _group runs on what _table built; past the gate, the degree pass
    # fails at its least degrees
    monkeypatch.setattr(oracle, "_table", lambda family, n: (
        bad if (family, n) == (FAMILY_A, 3) else true_table(family, n)))
    true_group.cache_clear()
    with pytest.raises(OracleError, match="^degree squares of A3 miss"):
        b_oracle(target)
    monkeypatch.setattr(oracle, "_verify_table", lambda table: tuple(
        tuple(map(mul, table.sizes, row)) for row in table.values))
    with pytest.raises(OracleError, match="non-integral multiplicity"):
        b_oracle(target)
