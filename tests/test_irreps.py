"""Label-level checks: frozen values, fiber counts, degrees, shifts."""

from __future__ import annotations

import dataclasses
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsymbols import (
    engine,
    exceptional,
    irreps,
    jinduction,
    oracle,
    springer,
    suites,
)
from weylsymbols import seqcomb as sc
from weylsymbols.errors import DomainError, ResourceError, ValidationError
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    align_row,
    aligned_rows,
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
    z_to_partition,
    zeta,
    zeta_inverse,
)
from weylsymbols.jinduction import f_product
from weylsymbols.springer import (
    CLASS_FAMILIES,
    ClassLabel,
    class_invariants,
    class_policy_m,
    enumerate_classes,
    shift_class,
    tau,
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
    (sc.beta, ((1, 0),)),
    (sc.beta, ((0, -1),)),
    (sc.rho, ((0, 0, 0),)),
    (sc.rho, (None,)),
    (sc.frakS, ((0, 0, 0),)),
    (sc.frakS, ((),)),
    (zeta_inverse, (FAMILY_BC, (0, 0, 0))),
    (zeta_inverse, (FAMILY_D, (1, 0))),
    (zeta_inverse, (FAMILY_BC, (0, True, 2))),  # a bool entry
    (special_reps, (FAMILY_BC, 0, 0.0)),  # m = 0 itself is a DomainError
    (sc.tilde_rho_prime, ((0, 0, 2),)),
    (align_row, ((0, 0), 3)),
    (align_row, ((0, True), 3)),
    (sc.rho_prime, ((0, 1, 1),)),
    (sc.frakI, ((0, 1.5),)),
    (IrrLabel, (FAMILY_A, 1, (1, 1))),
    (IrrLabel, (FAMILY_BC, 1, (0, 2), (-1,))),
    (IrrLabel, (FAMILY_D, 1, (0, 2), (1, 1))),
    (align_row, ((0, 1, 3), None)),
    (aligned_rows, (IrrLabel(FAMILY_BC, 1, (0, 2), (0,)), 1.5)),
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
    for lab in labels + tuple(canonicalize(lab) for lab in labels):
        rebuilt = IrrLabel(lab.family, lab.n, lab.z, lab.zp, lab.kappa)
        assert lab == rebuilt and hash(lab) == hash(rebuilt)


def test_d_rows_are_equal_exactly_when_no_position_is_strict():
    # _unmerge tells a degenerate D fiber by its equal rows: every D
    # XSeq up to the policy length, and every class sequence less its base
    # that tau_fiber splits, has equal rows exactly when frakS(x) is empty
    xs = [x for n in range(9) for m in range(1, policy_m(FAMILY_D, n) + 1, 2)
          for x in sc.enumerate_space("X", m, n)]
    xs += [sc.seq_sub(c.y, sc.base_x(len(c.y) - 1))
           for n in range(9) for c in enumerate_classes("D", n)]
    equal = [x for x in xs if x[0::2] == x[1::2]]
    assert equal == [x for x in xs if not sc._frakS(x)]
    assert len(xs) == 999 and len(equal) == 81


@pytest.mark.parametrize("family", CLASS_FAMILIES)
def test_trusted_classes_equal_their_validated_rebuild(family):
    # enumerate_classes builds its classes unchecked, at the policy length
    # and at a longer one alike
    for n in range(9):
        for m in (None, class_policy_m(family, n) + 2):
            for c in enumerate_classes(family, n, m):
                rebuilt = ClassLabel(c.family, c.n, c.y)
                assert c == rebuilt and hash(c) == hash(rebuilt)


def test_every_frozen_record_keeps_its_fields_in_slots():
    # no per-instance dict and no weakref slot: a trusted and a checked
    # label share one layout, the fields alone
    frozen = [cls for mod in (sc, irreps, springer, jinduction, engine,
                              exceptional, oracle, suites)
              for cls in vars(mod).values()
              if isinstance(cls, type) and cls.__module__ == mod.__name__
              and dataclasses.is_dataclass(cls)
              and cls.__dataclass_params__.frozen]
    assert len(frozen) == 19
    for cls in frozen:
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))
    checked = IrrLabel(FAMILY_D, 2, (0, 2), (0, 2), 1)
    trusted = irreps._trusted(IrrLabel, FAMILY_D, 2, (0, 2), (0, 2), 1)
    for label in (checked, trusted):
        assert not hasattr(label, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(label)
    assert trusted == checked and hash(trusted) == hash(checked)


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
    # a cold memo, so the pool is enumerated under the patch
    irreps._special_pool.cache_clear()
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


@pytest.mark.parametrize("args, error, message", [
    ((FAMILY_BC, 3, -1), DomainError,
     "m and n must be nonnegative, got m=-1 n=3"),
    ((FAMILY_D, 0, -2), DomainError,
     "m and n must be nonnegative, got m=-2 n=0"),
    ((FAMILY_BC, 3, 7), DomainError, "BC merge needs odd length, got m=7"),
    ((FAMILY_D, 3, 8), DomainError, "D merge needs even length, got m=8"),
    ((FAMILY_BC, 3, True), ValidationError, "m must be an int, got True"),
    ((FAMILY_D, 3, False), ValidationError, "m must be an int, got False"),
    ((FAMILY_BC, 3, 65), ResourceError,
     "enumeration capped at 64, got m=65 n=3"),
    ((FAMILY_D, 3, 10**12), ResourceError,
     "enumeration capped at 64, got m=1000000000000 n=3"),
    ((FAMILY_BC, 3, 0), DomainError, "a BC merge needs m >= 2, got m=0"),
], ids=["bc-negative", "d-negative", "bc-parity", "d-parity", "bc-bool",
        "d-bool", "bc-past-cap", "d-past-cap", "bc-one-entry"])
def test_special_reps_refuses_a_bad_length_index_by_type_and_message(
        args, error, message):
    # the size cap before the parity, as enumerate_space checked m first;
    # a one-entry BC merge leaves its second row empty
    with pytest.raises(error) as info:
        special_reps(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [0, 3])
def test_a_one_entry_bc_merge_is_refused_as_out_of_domain(n):
    # m = 0 is an int of the right parity for BC, but its merge has no
    # second row: a DomainError naming m, not a complaint about a value the
    # caller never passed
    with pytest.raises(DomainError, match=r"^a BC merge needs m >= 2, got m=0$"):
        special_reps(FAMILY_BC, n, 0)
    # zeta_inverse's one-entry argument is a well-formed XSeq whose merge
    # has the same missing second row: the same DomainError
    with pytest.raises(DomainError, match=r"^a BC merge needs m >= 2, got m=0$"):
        zeta_inverse(FAMILY_BC, (n,))


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
    # the based merge of a D special, zeta shifted up by one behind a 0 (as
    # a C class files its based complement): its weighted deviations from
    # base_xt give b, its strict positions f, and lowered back it is zeta's
    for n in range(0, 5):
        for rep in special_reps(FAMILY_D, n):
            xt = (0,) + tuple(v + 1 for v in zeta(rep.label))
            assert xt == (0,) + tuple(v + 1 for v in rep.xseq)
            sc.ensure_xtseq(xt)
            assert sc.frakS(xt) == frozenset({0}) | {i + 1 for i in sc.frakS(rep.xseq)}
            assert sc._weighted(xt) - sc._weighted(sc.base_xt(len(xt) - 1)) == rep.b
            count = len(sc.frakS(xt))
            assert 2 ** max((count - 3) // 2, 0) == rep.f
            fiber = zeta_inverse(FAMILY_D, tuple(v - 1 for v in xt[1:]))
            assert rep.label in fiber
            want = 2 if sc.frakS(xt) == frozenset({0}) and n >= 2 else 1
            assert len(fiber) == want


# ---------------------------------------------------------------------------
# deviation-profile codec

def _profile(label: IrrLabel, m: int) -> tuple[int, ...]:
    """The deviation profile of a family-A label at length index m: its row
    aligned to m + 1 entries less (0, 1, ..., m)."""
    return sc.seq_sub(align_row(label.z, m + 1), sc.base_z(m))


def test_xi_frozen_examples():
    # engine._a_label decodes a profile to its canonical family-A label
    triv = _a_label((2,))
    sign = _a_label((1, 1))
    assert _profile(triv, 4) == (0, 0, 0, 0, 2)
    assert _profile(sign, 4) == (0, 0, 0, 1, 1)
    assert engine._a_label((0, 0, 0, 0, 2), 2) == canonicalize(triv)
    assert engine._a_label((0, 0, 0, 1, 1), 2) == canonicalize(sign)


def test_xi_zero_rank_and_errors():
    # rank 0: the profile is all zero
    assert _profile(_a_label(()), 3) == (0, 0, 0, 0)
    assert engine._a_label((0, 0, 0, 0), 0) == canonicalize(_a_label(()))
    # a wrong total, a wrong length and a wrong rank all fall outside the
    # rank-2 profile space at m = 4 ...
    space = sc.enumerate_space("E", 4, 2)
    assert (0, 0, 0, 0, 1) not in space
    assert (0, 0, 2) not in space
    assert _profile(_a_label((3,)), 4) not in space
    # ... and a wrong total is refused by the validated label it would decode to
    with pytest.raises(ValidationError):
        IrrLabel(FAMILY_A, 2, sc.seq_add((0, 0, 0, 0, 1), sc.base_z(4)))


@pytest.mark.parametrize("p, m, error", [
    (1.5, 2, ValidationError),
    (True, 3, ValidationError),
    (2, 4.0, ValidationError),
    ("a", 1, ValidationError),
    (2, None, ValidationError),
    (-1, 2, DomainError),
    (2, -1, DomainError),
])
def test_the_profile_space_rejects_malformed_arguments(p, m, error):
    # the rank-p profiles at length index m, the codec's domain, are
    # refused where they are enumerated, not later by a bare TypeError
    with pytest.raises(error):
        sc.enumerate_space("E", m, p)


def test_xi_roundtrip_exhaustive():
    for p in range(0, 5):
        m = 2 * p + 2
        for e in sc.enumerate_space("E", m, p):
            assert _profile(engine._a_label(e, p), m) == e


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
        assert irreps._a_value(moved) == irreps._a_value(lab)
        if is_special(lab) and lab.family != FAMILY_A:
            assert special_f(moved) == special_f(lab)
        assert shift(lab, 0).z == lab.z
    with pytest.raises(DomainError):
        shift(labels[0], -1)


def test_a_value_spans_trivial_to_sign_and_meets_b_exactly_on_specials():
    # a runs from 0 at the trivial representation to the number of
    # reflections at the sign: n^2 for BC_n, n(n - 1) for D_n
    for n in range(2, 7):
        labels = suites._a_labels(n)
        for family, top in ((FAMILY_BC, n * n), (FAMILY_D, n * (n - 1))):
            values = [irreps._a_value(lab) for lab in labels
                      if lab.family == family]
            assert (min(values), max(values)) == (0, top)
        for lab in labels:
            a, b = irreps._a_value(lab), b_invariant(lab)
            assert a <= b and (a == b) == is_special(lab)
    # every irreducible of a symmetric group is special: a = b throughout
    for n in range(0, 7):
        for rep in special_reps(FAMILY_A, n):
            assert irreps._a_value(rep.label) == rep.b


def _check(report: suites.LemmaSuiteReport, name: str) -> suites.SuiteCheck:
    (check,) = [c for c in report.checks if c.name == name]
    return check


def test_a_function_check_fails_when_a_meets_b_off_the_specials(monkeypatch):
    monkeypatch.setattr(suites, "_a_value", b_invariant)
    check = _check(suites.lemma_suite(max_m=4, max_weight=4), "a_function")
    assert check.cases == 54
    # every label that is not special now fails the equality clause
    assert len(check.failures) == sum(
        not is_special(lab) for n in (2, 3, 4) for lab in suites._a_labels(n))
    assert check.failures


def test_a_function_ranks_stay_inside_both_suite_bounds():
    # the rank runs to the lesser bound: a wide weight bound alone adds no
    # label, and (3, 6) meets ranks 2 and 3 only
    assert _check(suites.lemma_suite(max_m=1, max_weight=40),
                  "a_function").cases == 0
    assert _check(suites.lemma_suite(max_m=3, max_weight=6),
                  "a_function").cases == sum(
        len(suites._a_labels(n)) for n in (2, 3))


def test_irr_count_is_the_oracle_character_table_size():
    # the partition formula for |Irr W| against the classes the oracle
    # builds its character tables on, at every rank it holds
    for family in (FAMILY_BC, FAMILY_D):
        for n in range(1, 6):
            assert suites._irr_count(family, n) == len(
                oracle.character_table(family, n).irreps), (family, n)


def test_family_count_check_holds_and_fails_when_f_is_off(monkeypatch):
    # one case per family and rank, ranks running as the a-function's do
    check = _check(suites.lemma_suite(max_m=4, max_weight=3), "family_count")
    assert (check.cases, check.failures) == (4, ())
    for n in range(2, 15):
        for family in (FAMILY_BC, FAMILY_D):
            assert suites._family_count_failure(family, n) is None
    # a doubled f moves every family's size, and an f that is not a power
    # of two heads no family: every case fails
    for scale in (2, 3):
        monkeypatch.setattr(suites, "special_reps", lambda family, n: tuple(
            dataclasses.replace(rep, f=scale * rep.f)
            for rep in special_reps(family, n)))
        check = _check(suites.lemma_suite(max_m=4, max_weight=4),
                       "family_count")
        assert check.cases == len(check.failures) == 6
    assert "has f 3" in check.failures[0]


def test_aligned_rows_refuses_a_family_a_label():
    # an explicit check, not an assert, so it holds under python -O too
    with pytest.raises(DomainError, match="single row"):
        aligned_rows(IrrLabel(FAMILY_A, 1, (1,)), 2)


def test_canonicalize_is_idempotent_and_minimal():
    for n in range(0, 5):
        for rep in special_reps(FAMILY_BC, n):
            lab = canonicalize(rep.label)
            assert canonicalize(lab) == lab
            assert not (len(lab.zp) > 1 and lab.z[0] == 0 and lab.zp[0] == 0)


def _linear_canonical_rows(z, zp):
    """The scan _canonical_rows replaced, kept as its reference: the common
    prefix 0, 1, ..., t-1 of the rows, one entry at a time."""
    last = len(z if zp is None else zp) - 1
    t = 0
    while t < last and z[t] == t and (zp is None or zp[t] == t):
        t += 1
    if t == 0:
        return z, zp
    z = tuple(v - t for v in z[t:])
    return z, None if zp is None else tuple(v - t for v in zp[t:])


def _assert_canonical_rows_match(z, zp):
    got, want = irreps._canonical_rows(z, zp), _linear_canonical_rows(z, zp)
    assert got == want, (z, zp)
    # canonicalize keeps the label itself when nothing is dropped
    assert (got[0] is z) == (want[0] is z), (z, zp)


def test_canonical_rows_bisection_matches_the_linear_scan():
    # every label, aligned to the tau length n + 1 and canonical: all of
    # Irr for BC and D at ranks 0-12, and for A at ranks 0-10
    labels: list[IrrLabel] = []
    for n in range(13):
        labels += _all_bc_labels(n, n + 1) + _all_d_labels(n, n + 1)
    for n in range(11):
        labels += [_a_label(lam, n + 1) for lam in _partitions(n)]
    assert len(labels) == 4882
    for lab in labels:
        _assert_canonical_rows_match(lab.z, lab.zp)
        lab = canonicalize(lab)
        _assert_canonical_rows_match(lab.z, lab.zp)


@pytest.mark.parametrize("z, zp", [
    ((0,), None), ((3,), None), ((0,), ()), ((4,), ()),
    ((0, 1, 2), None), ((0, 1, 2, 3), (0, 1, 2)), ((0, 1, 2), (0, 1, 2)),
    ((0, 1, 5), None), ((0, 1, 2, 9), (0, 1, 2)), ((0, 1, 2), (0, 1, 4)),
    ((0, 1, 2, 3), (0, 1, 5)), ((1, 2, 3), (0, 1, 2)), ((0, 2), (0, 2)),
])
def test_canonical_rows_bisection_matches_the_linear_scan_on_edge_rows(z, zp):
    # one-entry rows, rows that are all prefix, and one-row labels
    _assert_canonical_rows_match(z, zp)


def test_policy_m_values():
    assert policy_m(FAMILY_A, 5) == 5
    assert policy_m(FAMILY_BC, 5) == 12
    assert policy_m(FAMILY_D, 5) == 11


@pytest.mark.parametrize("call, args, error", [
    (policy_m, (FAMILY_D, -3), DomainError),
    (policy_m, (FAMILY_A, True), ValidationError),
    (policy_m, (FAMILY_BC, 2.0), ValidationError),
    (class_policy_m, ("B", 1.0), ValidationError),
    (class_policy_m, ("B", None), ValidationError),
    (class_policy_m, ("D", -1), DomainError),
], ids=["policy_m-negative", "policy_m-bool", "policy_m-float",
        "class_policy_m-float", "class_policy_m-None",
        "class_policy_m-negative"])
def test_length_policies_check_the_rank(call, args, error):
    with pytest.raises(error, match="rank must be"):
        call(*args)


@pytest.mark.parametrize("value", [True, None, "x"],
                         ids=["bool", "None", "str"])
@pytest.mark.parametrize("merge", [zeta], ids=["zeta"])
def test_merges_reject_a_value_that_is_not_a_label(merge, value):
    with pytest.raises(ValidationError, match="must be an IrrLabel"):
        merge(value)


@pytest.mark.parametrize("args, error", [
    ((FAMILY_BC, 3, 8.0), ValidationError),
    ((FAMILY_BC, 3, True), ValidationError),
    ((FAMILY_BC, True), ValidationError),
    (([FAMILY_BC], 3), DomainError),
    ((FAMILY_BC, 3, [8]), ValidationError),
    ((FAMILY_BC, 3, 7), DomainError),
], ids=["m-float", "m-bool", "n-bool", "family-list", "m-list",
        "m-wrong-parity"])
def test_a_warm_pool_memo_still_refuses_each_malformed_call(args, error):
    # 8.0 and True hash like 8 and 1, so they are refused before the memo;
    # a pool that fails to build is not kept
    assert special_reps(FAMILY_BC, 3) == special_reps(FAMILY_BC, 3, 8)
    before = irreps._special_pool.cache_info()
    for _ in range(2):
        with pytest.raises(error):
            special_reps(*args)
    after = irreps._special_pool.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)


@pytest.mark.parametrize("family, n", [(FAMILY_A, 5), (FAMILY_BC, 4),
                                       (FAMILY_D, 5)])
def test_a_repeated_pool_is_one_memo_entry_equal_to_a_fresh_build(family, n):
    first = special_reps(family, n)
    assert special_reps(family, n) is first
    # the policy length named or left out reads one entry
    assert special_reps(family, n, policy_m(family, n)) is first
    irreps._special_pool.cache_clear()
    fresh = special_reps(family, n)
    assert fresh is not first and fresh == first


def test_label_json():
    lab = IrrLabel(FAMILY_D, 2, (1,), (1,), 1)
    assert lab.to_json() == {"family": "D", "n": 2, "z": [1], "zp": [1], "kappa": 1}
    lab = IrrLabel(FAMILY_A, 1, (1,))
    assert lab.to_json() == {"family": "A", "n": 1, "z": [1]}


_LABEL_ENTRY_POINTS = {
    "b_invariant": b_invariant,
    "canonicalize": canonicalize,
    "dimension": dimension,
    "is_special": is_special,
    "special_f": special_f,
    "tau": lambda value: tau("B", value),
    "class_invariants": class_invariants,
    "f_product": f_product,
    "shift": lambda value: shift(value, 2),
    "shift_class": lambda value: shift_class(value, 2),
}


@pytest.mark.parametrize("value", [True, 1.5, None, "B", (1, 2)],
                         ids=["bool", "float", "None", "str", "tuple"])
@pytest.mark.parametrize("name", sorted(_LABEL_ENTRY_POINTS))
def test_label_and_class_entry_points_reject_a_value_of_another_type(name,
                                                                     value):
    # f_product takes a tuple or list of labels and checks each factor
    with pytest.raises(ValidationError,
                       match="must be an IrrLabel|must be a ClassLabel"
                             "|must be a tuple or list"):
        _LABEL_ENTRY_POINTS[name](value)
