"""Oracle checks: exact tables, symmetric-power degrees, induced products."""

from __future__ import annotations

import itertools

import pytest

from weylsymbols import seqcomb as sc
from weylsymbols.engine import verify
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
    # the key codec and the family-A divisor members encode partitions
    # they built themselves, through the unchecked kernel
    checked = []
    inner = sc._ensure_int

    def counted(name, v):
        checked.append(name)
        inner(name, v)

    monkeypatch.setattr(sc, "_ensure_int", counted)
    for family, n in ((FAMILY_A, 5), (FAMILY_BC, 3), (FAMILY_D, 4)):
        for key in character_table(family, n).irreps:
            assert label_to_key(key_to_label(family, n, key)) == key
    assert verify("A", 6).ok()
    assert "part" not in checked and "length" not in checked
    partition_to_z((2, 1), 3)
    assert checked[-3:] == ["part", "part", "length"]


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
