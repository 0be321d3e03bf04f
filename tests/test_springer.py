"""Class-side checks: stratum maps, fibers, component-group data."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from weylsymbols import seqcomb as sc
from weylsymbols.engine import bar_S, fa, fc, verify
from weylsymbols.errors import DomainError, ValidationError
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    b_invariant,
    canonicalize,
    shift,
    special_reps,
)
from weylsymbols.springer import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    CLASS_FAMILIES,
    ClassInvariants,
    ClassLabel,
    _tau_fiber,
    class_invariants,
    class_policy_m,
    enumerate_classes,
    shift_class,
    tau,
    tau_fiber,
)


def _weighted(e: tuple[int, ...]) -> int:
    m = len(e) - 1
    return sum((m - i) * v for i, v in enumerate(e))


# ---------------------------------------------------------------------------
# validation

def test_class_label_validation():
    with pytest.raises(ValidationError):
        ClassLabel("E", 1, (0, 1))
    with pytest.raises(ValidationError):
        ClassLabel(CLASS_B, 1, (0, 0, 2, 3))  # odd length index
    with pytest.raises(ValidationError):
        ClassLabel(CLASS_D, 1, (0, 0, 2))  # even length index
    with pytest.raises(ValidationError):
        ClassLabel(CLASS_C, 1, (0, 0, 2))  # not based
    with pytest.raises(ValidationError):
        ClassLabel(CLASS_B, 3, (0, 0, 2))  # rank mismatch
    with pytest.raises(ValidationError):
        ClassLabel(CLASS_A, 1, (0, 0))
    with pytest.raises(ValidationError):
        ClassLabel(CLASS_B, 1.0, (0, 1, 2))  # the rank is an int
    with pytest.raises(ValidationError):
        ClassLabel(CLASS_B, True, (0, 1, 2))
    assert ClassLabel(CLASS_B, 1, (0, 1, 2)).to_json() == {
        "family": "B",
        "n": 1,
        "y": [0, 1, 2],
    }


@pytest.mark.parametrize("family", [CLASS_A, CLASS_B, CLASS_C, CLASS_D])
@pytest.mark.parametrize("y", [None, 5])
def test_class_label_rejects_a_non_sequence_as_invalid(family, y):
    with pytest.raises(ValidationError, match="nonempty tuple"):
        ClassLabel(family, 4, y)


# ---------------------------------------------------------------------------
# tau and its fibers

def test_tau_base_stratum_partner_is_flat():
    for n in (1, 2, 3):
        m = class_policy_m(CLASS_B, n)
        y = tuple(v + (2 * n if i == m else 0) for i, v in enumerate(sc.base_y(m)))
        fiber = tau_fiber(CLASS_B, y)
        assert len(fiber) == 1
    # the zero-deviation stratum pairs with the b = 0 label
    fiber = tau_fiber(CLASS_B, sc.base_y(6))
    assert len(fiber) == 1
    assert b_invariant(fiber[0]) == 0
    assert sc.beta_prime(sc.base_y(6)) == 0


def test_tau_family_a_is_identity():
    lab = IrrLabel(FAMILY_A, 4, (0, 1, 2, 7))
    c = tau(CLASS_A, lab)
    assert c.y == lab.z
    assert tau_fiber(CLASS_A, c.y) == (lab,)


def test_tau_fiber_rules_family_d():
    paired = tuple(2 * v for v in sc.base_x(9))  # frakI empty
    assert sc.frakI(paired) == ()
    fiber = tau_fiber(CLASS_D, paired)
    assert len(fiber) == 1  # rank 0
    y = (0, 0, 2, 2, 4, 4, 6, 6, 8, 10)
    if sc.frakI(y) == () and sc.rho_prime(y) >= 2:
        assert len(tau_fiber(CLASS_D, y)) == 2


def test_tau_round_trip_all_families():
    for family in CLASS_FAMILIES:
        for n in range(0, 8):
            for c in enumerate_classes(family, n):
                fiber = tau_fiber(family, c.y)
                assert len(fiber) in (1, 2)
                for lab in fiber:
                    assert tau(family, lab) == c
                if family == CLASS_D:
                    want = 2 if not sc.frakI(c.y) and n >= 2 else 1
                    assert len(fiber) == want
                else:
                    assert len(fiber) == 1


def test_tau_fiber_listings_are_pinned():
    # every fiber at B/C/D ranks 2-12 as tau_fiber returns it, at the
    # policy length (verify reports hold the canonicalized labels)
    rows = [
        (c.y, [lab.to_json() for lab in tau_fiber(family, c.y, n)])
        for family in (CLASS_B, CLASS_C, CLASS_D)
        for n in range(2, 13)
        for c in enumerate_classes(family, n)
    ]
    assert len(rows) == 3769
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "79fd545e0732e93c91282e5e4a464b53f186556762fb98265ecc22a0eb3c9ac9"


@pytest.mark.parametrize("family, y", [
    (CLASS_A, (0, 2)),
    (CLASS_B, (0, 0, 2, 2, 5)),
    (CLASS_C, (0, 1, 3)),
    (CLASS_D, (0, 0, 2, 3)),
])
def test_tau_fiber_checks_the_rank_in_every_family(family, y):
    assert all(lab.n == 1 for lab in tau_fiber(family, y, 1))
    with pytest.raises(DomainError, match=r"rank 7 != sequence statistic 1"):
        tau_fiber(family, y, 7)


@pytest.mark.parametrize("family, y, message", [
    (CLASS_B, (0, 0, 2, 3), "family B needs even length index, got 3"),
    (CLASS_D, (0, 0, 2), "family D needs odd length index, got 2"),
])
def test_tau_fiber_checks_y_as_class_label_does(family, y, message):
    with pytest.raises(ValidationError, match=message):
        ClassLabel(family, 1, y)
    with pytest.raises(ValidationError, match=message):
        tau_fiber(family, y)


def test_tau_counts_and_distinct_labels():
    # strata are in bijection with their fibers' label sets
    for family, nmax in ((CLASS_B, 5), (CLASS_C, 5), (CLASS_D, 5)):
        for n in range(2, nmax + 1):
            classes = enumerate_classes(family, n)
            labels = [lab for c in classes for lab in tau_fiber(family, c.y)]
            assert len(set(labels)) == len(labels)


def test_stratum_strictly_contains_special_image():
    # the B stratum at rank 2 has four classes but only three special labels
    classes = enumerate_classes(CLASS_B, 2)
    specials = special_reps(FAMILY_BC, 2)
    assert len(classes) == 4
    assert len(specials) == 3
    special_ys = {tau(CLASS_B, rep.label).y for rep in specials}
    assert special_ys < {c.y for c in classes}


def test_tau_rejects_labels_outside_domain():
    lab = IrrLabel(FAMILY_BC, 3, (0, 1), (3,))
    with pytest.raises(DomainError):
        tau(CLASS_B, lab)
    with pytest.raises(DomainError):
        tau(CLASS_B, IrrLabel(FAMILY_A, 1, (1,)))  # family mismatch
    with pytest.raises(DomainError):
        tau("E", IrrLabel(FAMILY_A, 1, (1,)))


def test_tau_special_partner_adds_base():
    # for special labels the stratum is the merged sequence plus the base
    for n in range(0, 5):
        for rep in special_reps(FAMILY_BC, n):
            y = tau(CLASS_B, rep.label).y
            assert y == sc.seq_add(rep.xseq, sc.base_x(len(rep.xseq) - 1))
            assert sc.beta_prime(y) == rep.b
        for rep in special_reps(FAMILY_D, n):
            y = tau(CLASS_D, rep.label).y
            assert y == sc.seq_add(rep.xseq, sc.base_x(len(rep.xseq) - 1))
            assert sc.beta_prime(y) == rep.b


# ---------------------------------------------------------------------------
# invariants

def test_class_invariants_frozen_examples():
    inv = class_invariants(ClassLabel(CLASS_B, 0, sc.base_y(6)))
    assert inv == ClassInvariants(bbar=0, z=1, ztilde_over_z=2)
    # family A trivial class at n = 4: deviations (0,...,0,4)
    inv = class_invariants(ClassLabel(CLASS_A, 4, (0, 1, 2, 3, 8)))
    assert inv.z == 1 and inv.ztilde_over_z == 4
    # family A regular-sign end: all deviations 1
    inv = class_invariants(ClassLabel(CLASS_A, 4, (1, 2, 3, 4)))
    assert inv.ztilde_over_z == 1
    # family D with empty interval set: third case
    y = tuple(2 * v for v in sc.base_x(9))
    inv = class_invariants(ClassLabel(CLASS_D, 0, y))
    assert inv.z == 1 and inv.ztilde_over_z == 2 and inv.uz_over_z == 1


def test_invariants_are_powers_of_two():
    for family, nmax in ((CLASS_B, 6), (CLASS_C, 6), (CLASS_D, 6)):
        for n in range(0, nmax + 1):
            for c in enumerate_classes(family, n):
                inv = class_invariants(c)
                assert inv.z & (inv.z - 1) == 0
                if family == CLASS_D:
                    assert inv.ztilde_over_z in (1, 2, 4)
                    assert inv.uz_over_z in (1, 2)
                else:
                    assert inv.ztilde_over_z in (1, 2)
                    assert inv.uz_over_z is None


def test_class_invariants_trust_their_class_label(monkeypatch):
    # the ClassLabel checked y when it was built; the invariants read it
    # through the kernels and validate nothing again
    classes = [c for family in CLASS_FAMILIES
               for c in enumerate_classes(family, 5)]
    want = [class_invariants(c) for c in classes]
    calls = []
    for name in ("ensure_yseq", "ensure_eseq", "ensure_zseq"):
        def counted(seq, name=name, inner=getattr(sc, name)):
            calls.append(name)
            return inner(seq)
        monkeypatch.setattr(sc, name, counted)
    assert [class_invariants(c) for c in classes] == want
    assert calls == []


def test_family_d_component_consistency():
    # uz/z = 2^delta and ztilde/uz = 2 iff all intervals singletons,
    # recombining to the published four-case list; exhaustive to rank 9
    for n in range(0, 10):
        for c in enumerate_classes(CLASS_D, n):
            inv = class_invariants(c)
            delta = 1 if sc.frakI_odd(c.y) else 0
            assert inv.uz_over_z == 2**delta
            sizes = [hi - lo + 1 for lo, hi in sc.frakI(c.y)]
            singles = all(s == 1 for s in sizes)
            assert inv.ztilde_over_z // inv.uz_over_z == (2 if singles else 1)


def test_family_a_gcd_values():
    # rank 4: ztilde over the five classes is gcd(4, parts scaled)
    values = sorted(
        class_invariants(c).ztilde_over_z for c in enumerate_classes(CLASS_A, 4)
    )
    assert values == [1, 1, 1, 2, 4]


def test_bbar_is_linear_in_decompositions():
    m = 6
    for x in sc.enumerate_space("X", m, 2):
        for xt in sc.enumerate_space("X", m, 2):
            y = sc.seq_add(x, xt)
            assert sc.beta_prime(y) == sc.beta(x) + sc.beta(xt)
    for x in sc.enumerate_space("X", m, 1):
        for e in sc.enumerate_space("E", m, 2):
            for xt in sc.enumerate_space("X", m, 1):
                y = sc.seq_add(sc.seq_add(x, e), xt)
                assert sc.beta_prime(y) == sc.beta(x) + _weighted(e) + sc.beta(xt)
    for x in sc.enumerate_space("X", m, 2):
        for xt in sc.enumerate_space("XT", m, 2):
            y = sc.seq_add(x, xt)
            assert sc.tilde_beta_prime(y) == sc.beta(x) + sc.tilde_beta(xt)


# ---------------------------------------------------------------------------
# enumeration and shifts

def test_enumerate_classes_counts_and_base_conditions():
    assert len(enumerate_classes(CLASS_A, 4)) == 5  # partitions of 4
    for c in enumerate_classes(CLASS_C, 3):
        assert c.y[0] == 0 and c.y[1] == 1
    classes = enumerate_classes(CLASS_B, 3)
    assert list(classes) == sorted(classes, key=lambda c: c.y)
    with pytest.raises(DomainError):
        enumerate_classes("E", 2)
    with pytest.raises(DomainError):
        enumerate_classes(CLASS_B, -1)


@pytest.mark.parametrize("family, m, message", [
    (CLASS_B, 5, "family B needs even length index, got 5"),
    (CLASS_B, 7, "family B needs even length index, got 7"),
    (CLASS_D, 4, "family D needs odd length index, got 4"),
    (CLASS_D, 0, "family D needs odd length index, got 0"),
])
def test_a_wrong_parity_length_index_is_refused_as_before(family, m, message):
    # enumerate_classes checks m once, with the message every ClassLabel
    # of the wrong length raises
    with pytest.raises(ValidationError) as info:
        enumerate_classes(family, 2, m)
    assert str(info.value) == message
    y = sc.enumerate_space("Y", m, 2)[0]
    with pytest.raises(ValidationError) as info:
        ClassLabel(family, 2, y)
    assert str(info.value) == message


def test_tau_fiber_kernel_matches_the_checked_map():
    for family in CLASS_FAMILIES:
        for n in range(9):
            for c in enumerate_classes(family, n):
                assert _tau_fiber(family, c.y, n) == tau_fiber(family, c.y, n)


@pytest.mark.parametrize("call, args", [
    (enumerate_classes, (CLASS_B, 2.0)),
    (tau_fiber, (CLASS_B, (0, 1, 2), True)),
    (tau_fiber, (CLASS_B, (0, 1, 2), 1.0)),
    (special_reps, (FAMILY_BC, True)),
    (verify, (CLASS_B, 3.0)),
    (bar_S, (CLASS_B, 3.0)),
    (fc, (IrrLabel(FAMILY_A, 3, (3,)), CLASS_A, 3.0)),
    (fa, (IrrLabel(FAMILY_BC, 3, (0, 4), (0,)), CLASS_B, 3.0)),
], ids=["enumerate_classes-float", "tau_fiber-bool", "tau_fiber-float",
        "special_reps-bool", "verify-float", "bar_S-float", "fc-float",
        "fa-float"])
def test_ranks_must_be_ints(call, args):
    with pytest.raises(ValidationError,
                       match=r"rank must be a nonnegative int, got ([123]\.0|True)"):
        call(*args)


@pytest.mark.parametrize("call, args, error", [
    (special_reps, (FAMILY_BC, 2, 6.0), ValidationError),
    (special_reps, (FAMILY_A, 2, True), ValidationError),
    (special_reps, (FAMILY_BC, 2, True), ValidationError),
    (enumerate_classes, (CLASS_B, 2, 6.0), ValidationError),
    (sc.enumerate_space, ("X", 2.0, 1), ValidationError),
    (sc.enumerate_space, ("X", 2, "1"), ValidationError),
    (special_reps, (FAMILY_A, 2, -1), DomainError),
    (enumerate_classes, (CLASS_B, 2, -2), DomainError),
    (shift, (IrrLabel(FAMILY_A, 1, (1,)), 1.5), ValidationError),
    (shift, (IrrLabel(FAMILY_A, 1, (1,)), True), ValidationError),
    (shift, (IrrLabel(FAMILY_A, 1, (1,)), -1), DomainError),
    (shift_class, (ClassLabel(CLASS_A, 1, (1,)), 1.5), ValidationError),
    (shift_class, (ClassLabel(CLASS_B, 1, (0, 0, 3)), True), ValidationError),
    (shift_class, (ClassLabel(CLASS_A, 1, (1,)), -1), DomainError),
], ids=["special_reps-float", "special_reps-bool", "special_reps-bool-odd",
        "enumerate_classes-float", "enumerate_space-float", "enumerate_space-str",
        "special_reps-negative", "enumerate_classes-negative", "shift-float",
        "shift-bool", "shift-negative", "shift_class-float", "shift_class-bool",
        "shift_class-negative"])
def test_length_indices_must_be_nonnegative_ints(call, args, error):
    with pytest.raises(error, match=r"must be (an int|nonnegative), got"):
        call(*args)


def test_shift_class_commutes_with_tau():
    pairs = [
        (CLASS_B, FAMILY_BC),
        (CLASS_C, FAMILY_BC),
        (CLASS_D, FAMILY_D),
    ]
    for cf, lf in pairs:
        for n in range(0, 4):
            for rep in special_reps(lf, n):
                lab = rep.label
                c = tau(cf, lab)
                moved = tau(cf, shift(lab, 2))
                # tau realigns to the policy length, so shifting the label
                # does not move the stratum; shift_class moves it instead
                assert moved == c
                grown = shift_class(c, 2)
                assert len(grown.y) == len(c.y) + 4
                assert class_invariants(grown).z == class_invariants(c).z
                assert (
                    class_invariants(grown).ztilde_over_z
                    == class_invariants(c).ztilde_over_z
                )


def test_shift_class_preserves_bbar_and_family_a():
    for n in range(0, 5):
        for c in enumerate_classes(CLASS_A, n):
            grown = shift_class(c, 3)
            assert class_invariants(grown).ztilde_over_z == (
                class_invariants(c).ztilde_over_z
            )
            assert class_invariants(grown).bbar == class_invariants(c).bbar
    for c in enumerate_classes(CLASS_B, 3):
        assert class_invariants(shift_class(c, 1)).bbar == class_invariants(c).bbar
    for c in enumerate_classes(CLASS_C, 3):
        assert class_invariants(shift_class(c, 1)).bbar == class_invariants(c).bbar
    for c in enumerate_classes(CLASS_D, 4):
        grown = shift_class(c, 1)
        assert class_invariants(grown).bbar == class_invariants(c).bbar
        assert class_invariants(grown).uz_over_z == class_invariants(c).uz_over_z
