"""Acceptance gate: the eight headline checks, exact at desk scale.

Each test is exhaustive over its stated range and carries the wall-clock
budget it must meet. Counting identities are recomputed from independent
combinatorics (partition enumeration) rather than from the enumerators
under test.
"""

from __future__ import annotations

import math
import time

from weylsymbols import seqcomb as sc
from weylsymbols.engine import fa, fc, verify
from weylsymbols.exceptional import load_tables, lookup, validate_tables
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    canonicalize,
    dimension,
    is_special,
    make_d_label,
    partition_to_z,
    policy_m,
    special_reps,
    z_to_partition,
)
from weylsymbols.springer import (
    LABEL_FAMILY,
    class_invariants,
    class_policy_m,
    enumerate_classes,
    shift_class,
    tau,
)
from weylsymbols.suites import lemma_suite, oracle_suite


def _partitions(total: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(rem: int, maxpart: int, acc: list[int]) -> None:
        if rem == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rem, maxpart), 0, -1):
            acc.append(part)
            rec(rem - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


def _bc_labels(n: int) -> list[IrrLabel]:
    labs = []
    for k in range(n + 1):
        for lam in _partitions(k):
            for mu in _partitions(n - k):
                length = max(len(lam), len(mu), 1)
                labs.append(
                    canonicalize(
                        IrrLabel(
                            FAMILY_BC,
                            n,
                            partition_to_z(lam, length + 1),
                            partition_to_z(mu, length),
                        )
                    )
                )
    return labs


def _d_labels(n: int) -> list[IrrLabel]:
    labs = []
    for k in range(n + 1):
        for lam in _partitions(k):
            for mu in _partitions(n - k):
                if (sum(lam), lam) < (sum(mu), mu):
                    continue
                length = max(len(lam), len(mu), 1)
                z, zp = partition_to_z(lam, length), partition_to_z(mu, length)
                if z == zp:
                    labs += [
                        canonicalize(make_d_label(n, z, zp, kap)) for kap in (0, 1)
                    ]
                else:
                    labs.append(canonicalize(make_d_label(n, z, zp)))
    return labs


def _assert_full_report(family: str, n: int) -> None:
    report = verify(family, n)
    assert report.image_in_stratum and report.stratum_in_image, (family, n)
    assert report.holds_b1 and report.holds_b2 and report.holds_b3, (family, n)
    assert all(r.witnesses_ok for r in report.rows), (family, n)
    assert report.ok(), (family, n)
    assert len(report.rows) > 0


def test_full_verification_family_b():
    t0 = time.monotonic()
    for n in range(2, 11):
        _assert_full_report("B", n)
    assert time.monotonic() - t0 < 60


def test_full_verification_families_c_and_d():
    t0 = time.monotonic()
    for n in range(3, 11):
        _assert_full_report("C", n)
    for n in range(4, 11):
        _assert_full_report("D", n)
    assert time.monotonic() - t0 < 300


def test_divisor_maximization_matches_gcd_family_a():
    t0 = time.monotonic()
    for n in range(2, 13):
        for rep in special_reps(FAMILY_A, n):
            parts = z_to_partition(rep.label.z)
            assert fc(rep.label, "A", n) == math.gcd(n, *parts), (n, rep.label)
    assert time.monotonic() - t0 < 5


def test_oracle_equivalence_over_all_irreducibles():
    t0 = time.monotonic()
    report = oracle_suite()
    assert report.ok(), [b for b in report.blocks if b.failures]
    # per-block exhaustive case counts over the stated rank windows
    assert {b.name: b.cases for b in report.blocks} == {
        "b_A": 30,
        "b_BC": 74,
        "b_D": 42,
        "j_A": 139,
        "j_BC": 417,
        "j_D": 260,
    }
    assert time.monotonic() - t0 < 600


def test_sequence_property_suite_is_exhaustive():
    t0 = time.monotonic()
    report = lemma_suite(max_m=8, max_weight=8)
    assert report.ok(), [c for c in report.checks if c.failures]
    assert {c.name: c.cases for c in report.checks} == {
        "signature_parity": 747,
        "interval_parity": 926,
        "endpoint_count": 926,
        "signature_subadditivity": 6894,
        "split_enumeration": 926,
        "based_split_enumeration": 400,
        "hat_roundtrip": 747,
        "symmetric_witness_equivalence": 926,
        "a_function": 652,
        "family_count": 14,
    }
    assert time.monotonic() - t0 < 120


def test_counting_identities():
    # special-label count equals the X-space size, family B labels
    for n in range(2, 11):
        specials = sum(1 for lab in set(_bc_labels(n)) if is_special(lab))
        xsize = len(sc.enumerate_space("X", policy_m(FAMILY_BC, n), n))
        assert specials == len(special_reps(FAMILY_BC, n)) == xsize, n

    # stratum count equals the Y-space size and the independent partition
    # count (odd total, even parts with even multiplicity)
    for n in range(2, 11):
        wanted = sum(
            1
            for lam in _partitions(2 * n + 1)
            if all(lam.count(p) % 2 == 0 for p in set(lam) if p % 2 == 0)
        )
        ysize = len(sc.enumerate_space("Y", class_policy_m("B", n), n))
        assert wanted == len(enumerate_classes("B", n)) == ysize, n

    # squared dimensions sum to the group order
    for n in range(2, 7):
        total_a = sum(
            dimension(IrrLabel(FAMILY_A, n, partition_to_z(lam))) ** 2
            for lam in _partitions(n)
        )
        assert total_a == math.factorial(n), n
        total_bc = sum(dimension(lab) ** 2 for lab in set(_bc_labels(n)))
        assert total_bc == 2**n * math.factorial(n), n
        total_d = sum(dimension(lab) ** 2 for lab in set(_d_labels(n)))
        assert total_d == 2 ** (n - 1) * math.factorial(n), n


def test_exceptional_tables():
    t0 = time.monotonic()
    tables = load_tables()
    assert {g: len(rows) for g, rows in tables.items()} == {
        "G2": 5,
        "F4": 16,
        "E6": 21,
        "E7": 45,
        "E8": 70,
    }
    assert lookup("F4", "12", 4).a == 24
    assert lookup("G2", "2", 1).a == 6
    assert lookup("E8", "4480_y", 16).a == 120
    assert {r.a_prime for r in tables["E6"]} == {1, 3}
    assert {r.a_prime for r in tables["E7"]} == {1, 2}
    for group in ("G2", "F4", "E8"):
        assert {r.a_prime for r in tables[group]} == {1}

    report = validate_tables()
    assert report.ok(), report.schema_findings
    statuses = {c.status for c in report.checks}
    assert "FAIL" not in statuses
    assert statuses <= {"PASS", "UNCHECKED", "AMBIGUOUS"}
    assert report.status_counts()["PASS"] > 0
    assert time.monotonic() - t0 < 5


def test_shift_stability_at_rank_six():
    for fam in ("B", "C", "D"):
        lab_fam = LABEL_FAMILY[fam]
        n = 6
        m0 = policy_m(lab_fam, n)
        reps0 = special_reps(lab_fam, n)
        reps2 = special_reps(lab_fam, n, m0 + 2)
        map0 = {canonicalize(r.label): r for r in reps0}
        map2 = {canonicalize(r.label): r for r in reps2}
        assert len(map0) == len(reps0)
        assert set(map0) == set(map2), fam
        for key, r0 in map0.items():
            r2 = map2[key]
            assert (r0.b, r0.f) == (r2.b, r2.f), (fam, key)
            assert fa(r0.label, fam, n) == fa(r2.label, fam, n), (fam, key)
            assert fc(r0.label, fam, n) == fc(r2.label, fam, n), (fam, key)
            # tau renormalizes to the policy length on its own
            assert tau(fam, r2.label) == tau(fam, r0.label), (fam, key)
        m0c = class_policy_m(fam, n)
        cls0 = enumerate_classes(fam, n)
        cls2 = enumerate_classes(fam, n, m0c + 2)
        assert {shift_class(c, 1) for c in cls0} == set(cls2), fam
        for c in cls0:
            assert class_invariants(c) == class_invariants(shift_class(c, 1)), c
