"""Label-level checks: frozen values, fiber counts, degrees, shifts."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsymbols import seqcomb as sc
from weylsymbols.errors import DomainError, ValidationError
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    align_row,
    b_invariant,
    canonicalize,
    dimension,
    is_special,
    make_d_label,
    partition_to_z,
    policy_m,
    shift,
    special_f,
    special_reps,
    xi,
    z_to_partition,
    zeta,
    zeta_inverse,
    zeta_tilde,
    zeta_tilde_inverse,
)
from weylsymbols.jinduction import double_dots
from weylsymbols.springer import (
    CLASS_FAMILIES,
    ClassLabel,
    class_policy_m,
    enumerate_classes,
)


def _partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def _a_label(partition: tuple[int, ...], length: int | None = None) -> IrrLabel:
    z = partition_to_z(partition, length)
    return IrrLabel(FAMILY_A, sum(partition), z)


def _bc_label(lam: tuple[int, ...], mu: tuple[int, ...], k: int) -> IrrLabel:
    n = sum(lam) + sum(mu)
    return IrrLabel(FAMILY_BC, n, partition_to_z(lam, k + 1), partition_to_z(mu, k))


def _all_bc_labels(n: int, k: int) -> list[IrrLabel]:
    out = []
    for j in range(n + 1):
        for z in sc.enumerate_space("Z", k, j):
            for zp in sc.enumerate_space("Z", k - 1, n - j):
                out.append(IrrLabel(FAMILY_BC, n, z, zp))
    return out


def _all_d_labels(n: int, k: int) -> list[IrrLabel]:
    out = []
    for j in range(n + 1):
        if j < n - j:
            continue
        for z in sc.enumerate_space("Z", k, j):
            for zp in sc.enumerate_space("Z", k, n - j):
                if j > n - j:
                    out.append(IrrLabel(FAMILY_D, n, z, zp))
                elif z == zp:
                    out.append(IrrLabel(FAMILY_D, n, z, zp, 0))
                    out.append(IrrLabel(FAMILY_D, n, z, zp, 1))
                elif z < zp:
                    out.append(make_d_label(n, z, zp))
    return out


# ---------------------------------------------------------------------------
# validation

def test_label_validation():
    with pytest.raises(ValidationError):
        IrrLabel("E8", 1, (0, 2))
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_A, 1, (0, 2), zp=(0,))
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_A, 2, (0, 2))  # rank mismatch
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_BC, 1, (0, 2))  # missing second row
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_BC, 1, (0, 2), (0, 1))  # bad row lengths
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_D, 1, (0, 1), (1,))  # unequal row lengths
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_D, 1, (0,), (1,))  # lighter row first
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_D, 1, (1,), (0,), kappa=1)  # kappa on distinct rows
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_D, 2, (1,), (1,), kappa=2)
    # the rank and kappa are ints, not bools or floats
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_A, True, (1,))
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_A, 2.0, (0, 3))
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_D, 2, (1,), (1,), kappa=True)
    IrrLabel(FAMILY_D, 2, (1,), (1,), kappa=1)  # degenerate pair is fine


@pytest.mark.parametrize("call, args", [
    (sc.rho0, ((0, 0, 1),)),
    (sc.rho0, ([0, 1],)),
    (sc.beta0, ((1, 0),)),
    (sc.beta0, ((0, -1),)),
    (sc.rho, ((0, 0, 0),)),
    (sc.rho, (None,)),
    (sc.frakS, ((0, 0, 0),)),
    (sc.frakS, ((),)),
    (zeta_inverse, (FAMILY_BC, (0, 0, 0))),
    (zeta_inverse, (FAMILY_D, (1, 0))),
    (zeta_inverse, (FAMILY_BC, (2,))),  # an XSeq, but no second row
    (special_reps, (FAMILY_BC, 0, 0)),
    (zeta_tilde_inverse, ((0, 0, 0),)),
    (align_row, ((0, 0), 3)),
    (align_row, ((0, True), 3)),
    (double_dots, ((2, 1),)),
    (double_dots, ((0, 1.5),)),
    (IrrLabel, (FAMILY_A, 1, (1, 1))),
    (IrrLabel, (FAMILY_BC, 1, (0, 2), (-1,))),
    (IrrLabel, (FAMILY_D, 1, (0, 2), (1, 1))),
], ids=lambda v: getattr(v, "__name__", None))
def test_public_entry_points_still_validate(call, args):
    with pytest.raises(ValidationError):
        call(*args)


@given(st.sampled_from([FAMILY_A, FAMILY_BC, FAMILY_D]),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=150, deadline=None)
def test_trusted_labels_equal_their_validated_rebuild(family, n, pad, data):
    if family == FAMILY_A:
        z = data.draw(st.sampled_from(sc.enumerate_space("Z", n + pad, n)))
        labels: tuple[IrrLabel, ...] = (IrrLabel(FAMILY_A, n, z),)
    else:
        m = policy_m(family, n) + 2 * pad
        x = data.draw(st.sampled_from(sc.enumerate_space("X", m, n)))
        labels = zeta_inverse(family, x)
        if family == FAMILY_D:
            labels += zeta_tilde_inverse((0,) + tuple(v + 1 for v in x))
    for lab in labels + tuple(canonicalize(lab) for lab in labels):
        rebuilt = IrrLabel(lab.family, lab.n, lab.z, lab.zp, lab.kappa)
        assert lab == rebuilt and hash(lab) == hash(rebuilt)


@pytest.mark.parametrize("family", CLASS_FAMILIES)
def test_trusted_classes_equal_their_validated_rebuild(family):
    # enumerate_classes builds its classes unchecked, at the policy length
    # and at a longer one alike
    for n in range(9):
        for m in (None, class_policy_m(family, n) + 2):
            for c in enumerate_classes(family, n, m):
                rebuilt = ClassLabel(c.family, c.n, c.y)
                assert c == rebuilt and hash(c) == hash(rebuilt)


def test_make_d_label_sorts_rows():
    lab = make_d_label(2, (0, 1), (1, 2))
    assert (lab.z, lab.zp) == ((1, 2), (0, 1))
    assert lab.is_dagger
    # equal weights, distinct rows: lex order, not dagger
    lab = make_d_label(4, (0, 2, 3), (0, 1, 4))
    assert (lab.z, lab.zp) == ((0, 1, 4), (0, 2, 3))
    assert not lab.is_dagger


# ---------------------------------------------------------------------------
# b-invariant

def test_b_sign_rep_family_A():
    assert b_invariant(IrrLabel(FAMILY_A, 3, (0, 2, 3, 4))) == 3
    for n in range(2, 7):
        sign = _a_label((1,) * n)
        assert b_invariant(sign) == n * (n - 1) // 2


def test_b_trivial_bc_is_zero():
    for n in range(0, 6):
        k = 2
        triv = IrrLabel(FAMILY_BC, n, (0, 1, 2 + n), (0, 1))
        assert b_invariant(triv) == 0


def test_b_bc_longest_contribution():
    # rank-2 label with rows ((0,1,2),(1,2)): 2*0 + 2*1 + 2 = 4
    lab = IrrLabel(FAMILY_BC, 2, (0, 1, 2), (1, 2))
    assert b_invariant(lab) == 4
    # and it is the sign representation: one-dimensional, not the trivial one
    assert dimension(lab) == 1
    assert z_to_partition(lab.z) == ()
    assert z_to_partition(lab.zp) == (1, 1)


# ---------------------------------------------------------------------------
# special enumeration and the interleaving maps

def test_special_reps_bc_counts():
    reps = special_reps(FAMILY_BC, 2)
    assert len(reps) == len(sc.enumerate_space("X", 6, 2))
    assert len({rep.label for rep in reps}) == len(reps)
    by_b = {rep.b: rep for rep in reps}
    assert by_b[0].f == 1  # trivial representation


def test_special_reps_a_is_all_irr():
    for n in range(0, 7):
        reps = special_reps(FAMILY_A, n)
        assert len(reps) == len(_partitions(n))
        assert all(rep.f == 1 for rep in reps)


def test_special_reps_d_degenerate_pairs():
    reps = special_reps(FAMILY_D, 4)
    by_x: dict = {}
    for rep in reps:
        by_x.setdefault(rep.xseq, []).append(rep)
    assert set(by_x) == set(sc.enumerate_space("X", 9, 4))
    for x, bucket in by_x.items():
        if not sc.frakS(x):
            assert sorted(rep.label.kappa for rep in bucket) == [0, 1]
            assert len({(rep.b, rep.f) for rep in bucket}) == 1
            assert all(rep.label.degenerate for rep in bucket)
        else:
            assert len(bucket) == 1


@pytest.mark.parametrize("family, n", [(FAMILY_BC, 7), (FAMILY_D, 7)])
def test_special_reps_trusts_its_enumerated_sequences(monkeypatch, family, n):
    checks = []
    inner = sc.ensure_xseq

    def counted(seq):
        checks.append(seq)
        inner(seq)

    monkeypatch.setattr(sc, "ensure_xseq", counted)
    reps = special_reps(family, n)
    assert checks == []
    monkeypatch.undo()
    # the same reps as the validating statistics give them
    assert [rep.xseq for rep in reps] == [
        x for x in sc.enumerate_space("X", policy_m(family, n), n)
        for _ in zeta_inverse(family, x)
    ]
    for rep in reps:
        assert rep.b == sc.beta(rep.xseq) == b_invariant(rep.label)
        assert rep.f == special_f(rep.label)
        assert zeta(rep.label) == rep.xseq


def test_special_reps_domain_errors():
    with pytest.raises(DomainError):
        special_reps(FAMILY_BC, 2, m=5)  # wrong parity
    with pytest.raises(DomainError):
        special_reps(FAMILY_D, 2, m=6)
    with pytest.raises(DomainError):
        special_reps("F", 2)
    with pytest.raises(DomainError):
        special_reps(FAMILY_A, -1)


def test_zeta_roundtrip_and_fibers():
    for family, nmax in ((FAMILY_BC, 4), (FAMILY_D, 5)):
        for n in range(0, nmax + 1):
            reps = special_reps(family, n)
            for rep in reps:
                assert zeta(rep.label) == rep.xseq
                fiber = zeta_inverse(family, rep.xseq)
                assert rep.label in fiber
                if family == FAMILY_BC:
                    assert len(fiber) == 1
                else:
                    want = 2 if not sc.frakS(rep.xseq) and n >= 2 else 1
                    assert len(fiber) == want
                assert rep.b == b_invariant(rep.label) == sc.beta(rep.xseq)
                assert rep.f == special_f(rep.label)


def test_zeta_rejects_nonspecial():
    lab = IrrLabel(FAMILY_BC, 2, (0, 1), (2,))
    with pytest.raises(DomainError):
        zeta(lab)
    assert not is_special(lab)


def test_zeta_tilde_matches_zeta():
    for n in range(0, 5):
        for rep in special_reps(FAMILY_D, n):
            xt = zeta_tilde(rep.label)
            assert xt == (0,) + tuple(v + 1 for v in rep.xseq)
            sc.ensure_xtseq(xt)
            assert sc.frakS(xt) == frozenset({0}) | {i + 1 for i in sc.frakS(rep.xseq)}
            assert sc.tilde_beta(xt) == rep.b
            count = len(sc.frakS(xt))
            assert 2 ** max((count - 3) // 2, 0) == rep.f
            fiber = zeta_tilde_inverse(xt)
            assert rep.label in fiber
            want = 2 if sc.frakS(xt) == frozenset({0}) and n >= 2 else 1
            assert len(fiber) == want


# ---------------------------------------------------------------------------
# deviation-profile codec

def test_xi_frozen_examples():
    codec = xi(2, 4)
    triv = _a_label((2,))
    sign = _a_label((1, 1))
    assert codec.forward(triv) == (0, 0, 0, 0, 2)
    assert codec.forward(sign) == (0, 0, 0, 1, 1)
    assert canonicalize(codec.backward((0, 0, 0, 0, 2))) == canonicalize(triv)
    assert canonicalize(codec.backward((0, 0, 0, 1, 1))) == canonicalize(sign)


def test_xi_zero_rank_and_errors():
    codec = xi(0, 3)
    triv = _a_label(())
    assert codec.forward(triv) == (0, 0, 0, 0)
    with pytest.raises(DomainError):
        xi(2, 4).backward((0, 0, 0, 0, 1))  # wrong total
    with pytest.raises(DomainError):
        xi(2, 4).backward((0, 0, 2))  # wrong length
    with pytest.raises(DomainError):
        xi(2, 4).forward(_a_label((3,)))  # wrong rank


@pytest.mark.parametrize("p, m, error", [
    (1.5, 2, ValidationError),
    (True, 3, ValidationError),
    (2, 4.0, ValidationError),
    ("a", 1, ValidationError),
    (2, None, ValidationError),
    (-1, 2, DomainError),
    (2, -1, DomainError),
])
def test_xi_rejects_malformed_arguments(p, m, error):
    # refused at the codec's construction, not later by a misleading
    # backward check or a bare TypeError
    with pytest.raises(error):
        xi(p, m)


def test_xi_roundtrip_exhaustive():
    for p in range(0, 5):
        codec = xi(p, 2 * p + 2)
        for e in sc.enumerate_space("E", 2 * p + 2, p):
            lab = codec.backward(e)
            assert codec.forward(lab) == e


# ---------------------------------------------------------------------------
# degrees

def test_dimension_frozen():
    assert dimension(_a_label(())) == 1
    assert dimension(_a_label((3,))) == 1
    assert dimension(_a_label((2, 1))) == 2  # the b = 1 label at n = 3
    assert dimension(_bc_label((2,), (), 2)) == 1
    assert dimension(IrrLabel(FAMILY_D, 2, (1,), (1,), 0)) == 1


def test_dimension_sum_of_squares_matches_group_order():
    for n in range(1, 6):
        total = sum(dimension(_a_label(p, n)) ** 2 for p in _partitions(n))
        assert total == math.factorial(n)
    for n in range(1, 6):
        total = sum(dimension(lab) ** 2 for lab in _all_bc_labels(n, n))
        assert total == 2**n * math.factorial(n)
    for n in range(1, 6):
        total = sum(dimension(lab) ** 2 for lab in _all_d_labels(n, n))
        assert total == 2 ** (n - 1) * math.factorial(n)


def test_irr_counts():
    # number of labels: sum of p(j) p(n-j) for BC; D halves the off-diagonal
    for n in range(1, 7):
        want = sum(
            len(_partitions(j)) * len(_partitions(n - j)) for j in range(n + 1)
        )
        assert len(_all_bc_labels(n, n)) == want


# ---------------------------------------------------------------------------
# shifts and canonical forms

def test_partition_codec_frozen():
    assert partition_to_z((2, 1), 3) == (0, 2, 4)
    assert z_to_partition((0, 2, 4)) == (2, 1)
    assert partition_to_z((), 3) == (0, 1, 2)
    assert partition_to_z((2, 1)) == (1, 3)
    with pytest.raises(DomainError):
        partition_to_z((1, 2))
    with pytest.raises(DomainError):
        partition_to_z((2, 1), 1)


@pytest.mark.parametrize("lam, length", [
    ((1.5,), None), ((2, True), None), (("2",), None), (3, None), (None, 2),
    ((2,), 2.0), ((2,), True), ((2,), "3"),
])
def test_partition_to_z_rejects_malformed_arguments(lam, length):
    with pytest.raises(ValidationError):
        partition_to_z(lam, length)


def test_partition_codec_roundtrip():
    for n in range(0, 7):
        for lam in _partitions(n):
            for length in (max(len(lam), 1), n + 1):
                z = partition_to_z(lam, length)
                assert z_to_partition(z) == lam


def test_shift_canonicalize_properties():
    labels: list[IrrLabel] = []
    for n in range(0, 5):
        labels.extend(rep.label for rep in special_reps(FAMILY_BC, n))
        labels.extend(rep.label for rep in special_reps(FAMILY_D, n))
        labels.extend(rep.label for rep in special_reps(FAMILY_A, n))
    labels.extend(_all_bc_labels(4, 4))
    labels.extend(_all_d_labels(4, 4))
    labels.extend(_all_bc_labels(5, 5))
    assert len(labels) >= 100
    for lab in labels:
        moved = shift(lab, 3)
        assert canonicalize(moved) == canonicalize(lab)
        assert b_invariant(moved) == b_invariant(lab)
        assert dimension(moved) == dimension(lab)
        assert is_special(moved) == is_special(lab)
        if is_special(lab) and lab.family != FAMILY_A:
            assert special_f(moved) == special_f(lab)
        assert shift(lab, 0).z == lab.z
    with pytest.raises(DomainError):
        shift(labels[0], -1)


def test_canonicalize_is_idempotent_and_minimal():
    for n in range(0, 5):
        for rep in special_reps(FAMILY_BC, n):
            lab = canonicalize(rep.label)
            assert canonicalize(lab) == lab
            assert not (len(lab.zp) > 1 and lab.z[0] == 0 and lab.zp[0] == 0)


def test_policy_m_values():
    assert policy_m(FAMILY_A, 5) == 5
    assert policy_m(FAMILY_BC, 5) == 12
    assert policy_m(FAMILY_D, 5) == 11


def test_label_json():
    lab = IrrLabel(FAMILY_D, 2, (1,), (1,), 1)
    assert lab.to_json() == {"family": "D", "n": 2, "z": [1], "zp": [1], "kappa": 1}
    lab = IrrLabel(FAMILY_A, 1, (1,))
    assert lab.to_json() == {"family": "A", "n": 1, "z": [1]}
