"""Truncated-induction checks: row splitting, frozen values, additivity,
preservation for the nested embeddings, transitivity chains."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from weylsymbols import seqcomb as sc
from weylsymbols.errors import DomainError, ValidationError
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    b_invariant,
    canonicalize,
    is_special,
    make_d_label,
    partition_to_z,
    shift,
    special_f,
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
    d_placements,
    double_dots,
    f_product,
    j_induce,
    j_induce_pool,
    labels_match,
    match_key,
)
from weylsymbols.oracle import character_table, key_to_label


def _a_label(partition: tuple[int, ...]) -> IrrLabel:
    return IrrLabel(FAMILY_A, sum(partition), partition_to_z(partition))


def _trivial(family: str, n: int) -> IrrLabel:
    reps = [rep for rep in special_reps(family, n) if rep.b == 0]
    assert len(reps) == 1
    return canonicalize(reps[0].label)


def _special_labels(family: str, n: int) -> list[IrrLabel]:
    return [rep.label for rep in special_reps(family, n)]


def _splits(n: int, parts: int) -> list[tuple[int, ...]]:
    return [
        combo
        for combo in itertools.product(range(n + 1), repeat=parts)
        if sum(combo) == n
    ]


# ---------------------------------------------------------------------------
# row splitting

def test_double_dots_frozen():
    assert double_dots((0, 1, 2, 3, 5)) == ((0, 1, 3), (0, 1))
    assert double_dots(sc.base_z(6)) == (sc.base_z(3), sc.base_z(2))
    assert double_dots((0, 1, 2, 3)) == ((0, 1), (0, 1))
    assert double_dots((0,)) == ((0,), ())


@st.composite
def _zseqs(draw):
    values = draw(
        st.sets(st.integers(min_value=0, max_value=24), min_size=1, max_size=9)
    )
    return tuple(sorted(values))


@settings(max_examples=100, deadline=None)
@given(_zseqs())
def test_double_dots_preserves_deviation_sum(u):
    first, second = double_dots(u)
    total = sc.rho0(first) + (sc.rho0(second) if second else 0)
    assert total == sc.rho0(u)


def test_double_dots_rejects_non_row():
    with pytest.raises(ValidationError):
        double_dots((0, 0, 1))


# ---------------------------------------------------------------------------
# embedding validation

def test_embedding_validation():
    with pytest.raises(ValidationError):
        Embedding("B_WqWr")
    with pytest.raises(ValidationError):
        Embedding(EMBED_B_WR_WQ, r=-1, q=1)
    with pytest.raises(ValidationError):
        Embedding(EMBED_B_WR_WQ, r=1, p=1, q=1)  # unused part
    with pytest.raises(ValidationError):
        Embedding(EMBED_B_SP_WQ, p=1, q=1, lam=1)  # lam outside D_triple
    with pytest.raises(ValidationError):
        Embedding(EMBED_D_TRIPLE, r=1, p=2, q=0, lam=1)  # lam=1 needs r=0
    with pytest.raises(ValidationError):
        Embedding(EMBED_D_TRIPLE, r=0, p=1, q=1, lam=1)  # lam=1 needs p>=2
    with pytest.raises(ValidationError):
        Embedding(EMBED_D_TRIPLE, r=0, p=2, q=1, lam=3)  # lam=3 needs q=0
    with pytest.raises(ValidationError):
        Embedding(EMBED_D_TRIPLE, r=0, p=2, q=0, lam=4)
    with pytest.raises(ValidationError):
        Embedding(EMBED_D_TRIPLE, r=0, p=2, q=0, lam=True)  # a bool, not an int
    with pytest.raises(ValidationError):
        Embedding(EMBED_B_WR_WQ, r=1, q=1, lam=0.0)
    Embedding(EMBED_D_TRIPLE, r=0, p=2, q=0, lam=1)
    Embedding(EMBED_D_TRIPLE, r=1, p=2, q=0, lam=2)
    Embedding(EMBED_D_TRIPLE, r=0, p=3, q=0, lam=3)
    e = Embedding(EMBED_D_TRIPLE, r=1, p=2, q=3, lam=0)
    assert e.n == 6
    assert e.to_json() == {"kind": "D_triple", "r": 1, "p": 2, "q": 3, "lambda": 0}
    assert Embedding(EMBED_A_SPLIT, r=2, q=1).to_json() == {
        "kind": "A_split",
        "r": 2,
        "p": 0,
        "q": 1,
    }


def test_factor_mismatch_errors():
    e = Embedding(EMBED_B_SP_WQ, p=2, q=1)
    sign = _a_label((1, 1))
    wq = _trivial(FAMILY_BC, 1)
    with pytest.raises(DomainError):
        j_induce(e, [sign])  # arity
    with pytest.raises(DomainError):
        j_induce(e, [wq, sign])  # families swapped
    with pytest.raises(DomainError):
        j_induce(e, [_a_label((3,)), wq])  # rank mismatch
    nondagger = make_d_label(4, (0, 2, 3), (0, 1, 4))
    with pytest.raises(DomainError):
        j_induce(Embedding(EMBED_D_SP_WDQ, p=0, q=4), [_a_label(()), nondagger])


# ---------------------------------------------------------------------------
# frozen values

def test_a_split_frozen():
    e = Embedding(EMBED_A_SPLIT, r=2, q=1)
    out = j_induce(e, [_a_label((1, 1)), _a_label((1,))])
    assert out == canonicalize(IrrLabel(FAMILY_A, 3, (0, 2, 4)))
    assert b_invariant(out) == 1


def test_b_spwq_sign_through_symmetric_part():
    e = Embedding(EMBED_B_SP_WQ, p=2, q=0)
    out = j_induce(e, [_a_label((1, 1)), _trivial(FAMILY_BC, 0)])
    assert out == IrrLabel(FAMILY_BC, 2, (0, 2), (1,))
    assert b_invariant(out) == 1


def test_trivial_factors_stay_trivial():
    cases = [
        (Embedding(EMBED_A_SPLIT, r=2, q=3), FAMILY_A, (FAMILY_A, FAMILY_A)),
        (Embedding(EMBED_B_SP_WQ, p=2, q=3), FAMILY_BC, (FAMILY_A, FAMILY_BC)),
        (Embedding(EMBED_B_WR_WQ, r=2, q=3), FAMILY_BC, (FAMILY_BC, FAMILY_BC)),
        (
            Embedding(EMBED_B_WR_SP_WQ, r=1, p=2, q=2),
            FAMILY_BC,
            (FAMILY_BC, FAMILY_A, FAMILY_BC),
        ),
        (Embedding(EMBED_C_WR_WDQ, r=2, q=3), FAMILY_BC, (FAMILY_BC, FAMILY_D)),
        (Embedding(EMBED_D_SP_WDQ, p=2, q=3), FAMILY_D, (FAMILY_A, FAMILY_D)),
        (
            Embedding(EMBED_D_TRIPLE, r=2, p=2, q=2),
            FAMILY_D,
            (FAMILY_D, FAMILY_A, FAMILY_D),
        ),
    ]
    for e, target_family, factor_families in cases:
        sig = e.factor_signature()
        assert tuple(f for f, _ in sig) == factor_families
        factors = [_trivial(f, rank) for f, rank in sig]
        out = j_induce(e, factors)
        assert out == _trivial(target_family, e.n)
        assert b_invariant(out) == 0


def test_identity_routes_preserve_label():
    # rank-0 complements leave the remaining factor unchanged
    for n in range(0, 5):
        for lab in _special_labels(FAMILY_BC, n):
            e = Embedding(EMBED_B_WR_WQ, r=0, q=n)
            assert j_induce(e, [_trivial(FAMILY_BC, 0), lab]) == canonicalize(lab)
        for lab in _special_labels(FAMILY_D, n):
            e = Embedding(EMBED_D_TRIPLE, r=0, p=0, q=n)
            out = j_induce(e, [_trivial(FAMILY_D, 0), _a_label(()), lab])
            assert out == canonicalize(lab)  # kappa carried through


# ---------------------------------------------------------------------------
# additivity, preservation, monotonicity

def _all_embeddings(n: int):
    for r, q in _splits(n, 2):
        yield Embedding(EMBED_A_SPLIT, r=r, q=q)
        yield Embedding(EMBED_B_SP_WQ, p=r, q=q)
        yield Embedding(EMBED_B_WR_WQ, r=r, q=q)
        yield Embedding(EMBED_C_WR_WDQ, r=r, q=q)
        yield Embedding(EMBED_D_SP_WDQ, p=r, q=q)
    for r, p, q in _splits(n, 3):
        yield Embedding(EMBED_B_WR_SP_WQ, r=r, p=p, q=q)
        yield Embedding(EMBED_D_TRIPLE, r=r, p=p, q=q)


def test_b_additivity_all_kinds():
    # j_induce asserts additivity internally; drive it over everything small
    for n in range(0, 5):
        for e in _all_embeddings(n):
            pools = [_special_labels(f, rank) for f, rank in e.factor_signature()]
            for combo in itertools.product(*pools):
                out = j_induce(e, combo)
                assert b_invariant(out) == sum(b_invariant(c) for c in combo)


# every (embedding, factors, image) over all kinds at targets A <= 8,
# BC <= 7 and D <= 7, every admissible lam included
_IMAGES_CASES = 7684
_IMAGES_SHA256 = "30fdb1e854696fdff73d9464e2895294402fa007a5e497b35e8f7c3d58347c90"


def test_images_of_every_kind_are_pinned():
    caps = {FAMILY_A: 8, FAMILY_BC: 7, FAMILY_D: 7}
    digest = hashlib.sha256()
    cases = 0
    for n in range(0, 9):
        for e in _all_embeddings(n):
            if n > caps[e.target()[0]]:
                continue
            lams = d_placements(e.r, e.p, e.q) if e.kind == EMBED_D_TRIPLE else (0,)
            pools = [_special_labels(f, rank) for f, rank in e.factor_signature()]
            for lam in lams:
                twisted = dataclasses.replace(e, lam=lam)
                for combo in itertools.product(*pools):
                    case = {
                        "embedding": twisted.to_json(),
                        "factors": [f.to_json() for f in combo],
                        "image": j_induce(twisted, combo).to_json(),
                    }
                    digest.update(json.dumps(case, sort_keys=True).encode() + b"\n")
                    cases += 1
    assert cases == _IMAGES_CASES
    assert digest.hexdigest() == _IMAGES_SHA256


def test_pool_form_yields_j_induce_of_every_product_in_order():
    caps = {FAMILY_A: 6, FAMILY_BC: 5, FAMILY_D: 5}
    for n in range(0, 7):
        for e in _all_embeddings(n):
            if n > caps[e.target()[0]]:
                continue
            lams = d_placements(e.r, e.p, e.q) if e.kind == EMBED_D_TRIPLE else (0,)
            pools = [_special_labels(f, rank) for f, rank in e.factor_signature()]
            for lam in lams:
                twisted = dataclasses.replace(e, lam=lam)
                want = [(combo, j_induce(twisted, combo))
                        for combo in itertools.product(*pools)]
                assert list(j_induce_pool(twisted, pools)) == want


def test_factor_padding_leaves_the_image_unchanged():
    # a factor row longer than the target's is canonicalized before it is
    # aligned, a shorter one is aligned as it is; every padding gives one
    # image
    for n in range(0, 5):
        for e in _all_embeddings(n):
            pools = [_special_labels(f, rank) for f, rank in e.factor_signature()]
            for combo in itertools.product(*pools):
                want = j_induce(e, combo)
                assert j_induce(e, [canonicalize(f) for f in combo]) == want
                for t in (1, n + 3):
                    assert j_induce(e, [shift(f, t) for f in combo]) == want


def test_pool_form_checks_every_label_before_the_first_product():
    e = Embedding(EMBED_B_WR_WQ, r=1, q=2)
    good = [_special_labels(FAMILY_BC, 1), _special_labels(FAMILY_BC, 2)]
    with pytest.raises(DomainError, match="factor 1 must be family BC rank 2"):
        j_induce_pool(e, [good[0], good[1] + [_trivial(FAMILY_BC, 3)]])
    with pytest.raises(DomainError, match="takes 2 factors, got 1"):
        j_induce_pool(e, good[:1])


def test_labels_match_is_equality_of_match_keys():
    labels = [
        lab
        for n in range(0, 5)
        for key in character_table(FAMILY_D, n).irreps
        for lab in (key_to_label(FAMILY_D, n, key),
                    shift(key_to_label(FAMILY_D, n, key), 1))
    ]
    assert sum(lab.degenerate for lab in labels) >= 8
    for a, b in itertools.product(labels, repeat=2):
        rows_match = (a.degenerate and b.degenerate
                      and (a.n, a.z, a.zp) == (b.n, b.z, b.zp))
        assert labels_match(a, b) == (match_key(a) == match_key(b))
        assert labels_match(a, b) == (a == b or rows_match)


def test_nested_embeddings_preserve_specialness_and_f():
    nested = []
    for n in range(0, 6):
        for a, b in _splits(n, 2):
            nested.append(Embedding(EMBED_A_SPLIT, r=a, q=b))
            nested.append(Embedding(EMBED_B_SP_WQ, p=a, q=b))
            nested.append(Embedding(EMBED_D_SP_WDQ, p=a, q=b))
    for e in nested:
        pools = [_special_labels(f, rank) for f, rank in e.factor_signature()]
        for combo in itertools.product(*pools):
            out = j_induce(e, combo)
            assert is_special(out)
            assert f_product(combo) <= special_f(out)


def test_general_parahoric_products_can_leave_special_set():
    e = Embedding(EMBED_B_WR_WQ, r=1, q=1)
    sign = _special_labels(FAMILY_BC, 1)[-1]
    assert b_invariant(sign) == 1
    out = j_induce(e, [sign, sign])
    assert canonicalize(out) == IrrLabel(FAMILY_BC, 2, (0, 1), (2,))
    assert not is_special(out)


def test_f_multiplicativity_on_products():
    for n in range(0, 5):
        for r, q in _splits(n, 2):
            for a, b in itertools.product(
                _special_labels(FAMILY_BC, r), _special_labels(FAMILY_BC, q)
            ):
                assert f_product([a, b]) == special_f(a) * special_f(b)


# ---------------------------------------------------------------------------
# the degenerate kappa convention

def test_degenerate_kappa_convention_reaches_both_values():
    trivial0 = _trivial(FAMILY_D, 0)
    sign2 = _a_label((1, 1))
    outs = {}
    for lam in (0, 3):
        e = Embedding(EMBED_D_TRIPLE, r=0, p=2, q=0, lam=lam)
        outs[lam] = j_induce(e, [trivial0, sign2, trivial0])
    assert outs[0].z == outs[0].zp == (1,)
    assert outs[0].degenerate and outs[3].degenerate
    assert {outs[0].kappa, outs[3].kappa} == {0, 1}


def _unchecked(label: IrrLabel, **changes) -> IrrLabel:
    """A copy of label with fields changed past IrrLabel's validation."""
    out = object.__new__(IrrLabel)
    for name, value in {**dataclasses.asdict(label), **changes}.items():
        object.__setattr__(out, name, value)
    return out


def test_labels_match_relaxes_kappa_only_on_degenerate_d():
    deg = IrrLabel(FAMILY_D, 2, (0, 2), (0, 2), 0)
    flipped = dataclasses.replace(deg, kappa=1)
    assert deg != flipped
    assert labels_match(deg, flipped) and labels_match(flipped, deg)
    assert not labels_match(deg, IrrLabel(FAMILY_D, 4, (0, 3), (0, 3), 0))
    # a non-degenerate D label compares in full, kappa included; IrrLabel
    # itself refuses kappa there, so the twisted copy bypasses validation
    plain = IrrLabel(FAMILY_D, 3, (0, 3), (0, 2))
    with pytest.raises(ValidationError):
        dataclasses.replace(plain, kappa=1)
    assert labels_match(plain, IrrLabel(FAMILY_D, 3, (0, 3), (0, 2)))
    assert not labels_match(plain, _unchecked(plain, kappa=1))
    assert not labels_match(plain, deg)
    # families A and BC: plain equality
    a = IrrLabel(FAMILY_A, 2, (0, 3))
    assert labels_match(a, IrrLabel(FAMILY_A, 2, (0, 3)))
    assert not labels_match(a, IrrLabel(FAMILY_A, 2, (1, 2)))
    bc = IrrLabel(FAMILY_BC, 2, (0, 1, 2, 4), (0, 1, 3))
    assert labels_match(bc, IrrLabel(FAMILY_BC, 2, (0, 1, 2, 4), (0, 1, 3)))
    assert not labels_match(bc, IrrLabel(FAMILY_BC, 2, (0, 1, 3, 4), (0, 1, 2)))


def test_d_placements_are_the_admissible_twists():
    assert d_placements(0, 2, 0) == (0, 1, 2, 3)
    assert d_placements(1, 2, 0) == (0, 2)
    assert d_placements(0, 1, 0) == (0, 3)
    assert d_placements(2, 3, 1) == (0,)
    for r, p, q in _splits(4, 3):
        for lam in range(5):
            if lam in d_placements(r, p, q):
                Embedding(EMBED_D_TRIPLE, r=r, p=p, q=q, lam=lam)
            else:
                with pytest.raises(ValidationError):
                    Embedding(EMBED_D_TRIPLE, r=r, p=p, q=q, lam=lam)


def test_d_spwdq_matches_triple_with_empty_left():
    for n in range(0, 5):
        for p, q in _splits(n, 2):
            e1 = Embedding(EMBED_D_SP_WDQ, p=p, q=q)
            e2 = Embedding(EMBED_D_TRIPLE, r=0, p=p, q=q)
            left = _trivial(FAMILY_D, 0)
            for u, d in itertools.product(
                _special_labels(FAMILY_A, p), _special_labels(FAMILY_D, q)
            ):
                assert j_induce(e1, [u, d]) == j_induce(e2, [left, u, d])
    # likewise B_SpWq is B_WrSpWq with r = 0, and B_WrWq is B_WrSpWq with p = 0
    empty_w, empty_s = _trivial(FAMILY_BC, 0), _trivial(FAMILY_A, 0)
    for n in range(0, 5):
        for a, b in _splits(n, 2):
            sp_wq = Embedding(EMBED_B_SP_WQ, p=a, q=b)
            sp_triple = Embedding(EMBED_B_WR_SP_WQ, r=0, p=a, q=b)
            for u, w in itertools.product(
                _special_labels(FAMILY_A, a), _special_labels(FAMILY_BC, b)
            ):
                assert j_induce(sp_wq, [u, w]) == j_induce(sp_triple, [empty_w, u, w])
            wr_wq = Embedding(EMBED_B_WR_WQ, r=a, q=b)
            wr_triple = Embedding(EMBED_B_WR_SP_WQ, r=a, p=0, q=b)
            for v, w in itertools.product(
                _special_labels(FAMILY_BC, a), _special_labels(FAMILY_BC, b)
            ):
                assert j_induce(wr_wq, [v, w]) == j_induce(wr_triple, [v, empty_s, w])


# ---------------------------------------------------------------------------
# transitivity

def test_compose_b_chains():
    # W_r x (S_p x W_q) inside W_r x W_{p+q} agrees with W_r x S_p x W_q
    for n in range(0, 6):
        for r, p, q in _splits(n, 3):
            inner = Embedding(EMBED_B_SP_WQ, p=p, q=q)
            outer = Embedding(EMBED_B_WR_WQ, r=r, q=p + q)
            direct = Embedding(EMBED_B_WR_SP_WQ, r=r, p=p, q=q)
            pools = [
                _special_labels(FAMILY_BC, r),
                _special_labels(FAMILY_A, p),
                _special_labels(FAMILY_BC, q),
            ]
            checked = 0
            for combo in itertools.product(*pools):
                composed = j_induce(outer, [combo[0], j_induce(inner, combo[1:])])
                assert labels_match(composed, j_induce(direct, combo)), combo
                checked += 1
            assert checked > 0


def test_compose_d_chains():
    # the middle factor of W'_r x S_0 x W'_{p+q} is the rank-0 trivial label
    empty = _trivial(FAMILY_A, 0)
    for n in range(0, 7):
        for r, p, q in _splits(n, 3):
            inner = Embedding(EMBED_D_SP_WDQ, p=p, q=q)
            outer = Embedding(EMBED_D_TRIPLE, r=r, p=0, q=p + q)
            direct = Embedding(EMBED_D_TRIPLE, r=r, p=p, q=q)
            pools = [
                _special_labels(FAMILY_D, r),
                _special_labels(FAMILY_A, p),
                _special_labels(FAMILY_D, q),
            ]
            for combo in itertools.product(*pools):
                mid = j_induce(inner, combo[1:])
                composed = j_induce(outer, [combo[0], empty, mid])
                assert labels_match(composed, j_induce(direct, combo)), combo


def test_compose_a_chains():
    for n in range(0, 7):
        for r, p, q in _splits(n, 3):
            inner = Embedding(EMBED_A_SPLIT, r=r, q=p)
            outer = Embedding(EMBED_A_SPLIT, r=r + p, q=q)
            direct_ok = True
            # flatten (r,p),q: direct must be a 2-factor A_split on (r, p)
            # followed by q; the flat signature has three factors, which
            # A_split cannot name, so compose only via the two-step check
            # against itself: associate the other way instead.
            other_inner = Embedding(EMBED_A_SPLIT, r=p, q=q)
            other_outer = Embedding(EMBED_A_SPLIT, r=r, q=p + q)
            pools = [
                _special_labels(FAMILY_A, r),
                _special_labels(FAMILY_A, p),
                _special_labels(FAMILY_A, q),
            ]
            for combo in itertools.product(*pools):
                left = j_induce(outer, [j_induce(inner, combo[:2]), combo[2]])
                right = j_induce(
                    other_outer, [combo[0], j_induce(other_inner, combo[1:])]
                )
                direct_ok = direct_ok and left == right
            assert direct_ok
