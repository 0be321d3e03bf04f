"""Verification-engine checks: subgroup shapes, symmetry orders,
member enumeration with replay, frozen small-rank reports, determinism."""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from weylsymbols import engine, jinduction, seqcomb as sc, springer
from weylsymbols.cli import main
from weylsymbols.engine import (
    RANK_FLOOR,
    ParahoricSpec,
    SpecialIndex,
    bar_S,
    enumerate_cz,
    fa,
    fc,
    verify,
)
from weylsymbols.errors import DomainError, InvariantError, ValidationError
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    canonicalize,
    make_d_label,
    partition_to_z,
    policy_m,
    shift,
    special_reps,
    z_to_partition,
)
from weylsymbols.jinduction import (
    EMBED_A_SPLIT,
    EMBED_B_WR_SP_WQ,
    EMBED_B_WR_WQ,
    EMBED_C_WR_WDQ,
    EMBED_D_TRIPLE,
    Embedding,
    f_product,
    j_induce,
    match_key,
)
from weylsymbols.springer import enumerate_classes, tau_fiber


def _member_image(spec: ParahoricSpec, factors):
    """Recompute a member's induction image through the public embeddings."""
    if spec.family == "A":
        acc = factors[0]
        step = spec.n // spec.d
        for h in range(1, spec.d):
            acc = j_induce(Embedding(EMBED_A_SPLIT, r=h * step, q=step),
                           (acc, factors[h]))
        return canonicalize(acc)
    if spec.family == "B":
        if spec.p == 0:
            return j_induce(Embedding(EMBED_B_WR_WQ, r=spec.r, q=spec.q),
                            factors)
        return j_induce(
            Embedding(EMBED_B_WR_SP_WQ, r=spec.r, p=spec.p, q=spec.q), factors
        )
    if spec.family == "C":
        return j_induce(Embedding(EMBED_C_WR_WDQ, r=spec.r, q=spec.q), factors)
    if len(factors) == 2:
        factors = (factors[0], IrrLabel(FAMILY_A, 0, (0,)), factors[1])
    return j_induce(
        Embedding(EMBED_D_TRIPLE, r=spec.r, p=spec.p, q=spec.q), factors
    )


def _stratum(family: str, n: int) -> list[IrrLabel]:
    out = []
    for c in enumerate_classes(family, n):
        out.extend(canonicalize(lab) for lab in tau_fiber(family, c.y, n))
    return out


# ---------------------------------------------------------------------------
# shapes and symmetry orders

def test_parahoric_spec_family_a():
    spec = ParahoricSpec("A", 6, d=3)
    assert spec.diagram_size() == 3
    assert not spec.is_maximal()
    assert ParahoricSpec("A", 6, d=1).is_maximal()
    # schema 2 keeps the constant coset key
    assert spec.to_json() == {"family": "A", "n": 6, "d": 3, "coset": 0}
    with pytest.raises(DomainError):
        ParahoricSpec("A", 6, d=4)
    with pytest.raises(DomainError):
        ParahoricSpec("A", 6, d=2, r=1, q=3)


def test_parahoric_spec_blocks():
    assert ParahoricSpec("B", 5, r=2, q=3).is_maximal()
    assert ParahoricSpec("B", 5, r=0, q=5).is_maximal()
    assert not ParahoricSpec("B", 5, r=1, p=2, q=2).is_maximal()
    assert ParahoricSpec("C", 5, r=2, q=3).is_maximal()
    assert ParahoricSpec("C", 5, r=5, q=0).is_maximal()
    assert not ParahoricSpec("C", 5, r=4, q=1).is_maximal()
    assert ParahoricSpec("D", 6, r=2, q=4).is_maximal()
    assert not ParahoricSpec("D", 6, r=1, q=5).is_maximal()
    assert not ParahoricSpec("D", 6, r=0, p=6, q=0).is_maximal()
    # schema 2 keeps the constant placement key on family D only
    assert ParahoricSpec("D", 6, r=2, p=2, q=2).to_json() == {
        "family": "D", "n": 6, "r": 2, "p": 2, "q": 2, "lam": 0}
    assert ParahoricSpec("B", 5, r=2, p=1, q=2).to_json() == {
        "family": "B", "n": 5, "r": 2, "p": 1, "q": 2}
    with pytest.raises(DomainError):
        ParahoricSpec("B", 5, r=2, q=2)
    with pytest.raises(DomainError):
        ParahoricSpec("C", 5, r=2, p=1, q=2)


@pytest.mark.parametrize("family, n, fields", [
    ("A", 6, {"d": 2.0}),
    ("B", True, {"r": 1}),
    ("B", 2, {"r": "1", "q": 1}),
    ("B", 2.0, {"r": 1, "q": 1}),
    ("D", 4, {"r": 2, "p": None, "q": 2}),
    ("C", 3, {"r": 1, "q": 2.0}),
])
def test_parahoric_spec_rejects_fields_that_are_not_ints(family, n, fields):
    with pytest.raises(ValidationError):
        ParahoricSpec(family, n, **fields)


@pytest.mark.parametrize("family, n, fields, message", [
    ("B", 0, {}, "rank must be positive, got 0"),
    ("B", -2, {}, "rank must be positive, got -2"),
    ("A", 6, {"d": 4}, "d must divide n, got d=4, n=6"),
    ("B", 3, {"r": -1, "q": 4},
     "block sizes must be nonnegative with r+p+q = 3, got (-1, 0, 4)"),
])
def test_parahoric_spec_keeps_its_domain_messages(family, n, fields, message):
    with pytest.raises(DomainError) as info:
        ParahoricSpec(family, n, **fields)
    assert str(info.value) == message


def test_omega_descriptor_orders():
    assert engine._omega_order("A", 6) == 6
    assert engine._omega_order("B", 4) == 2
    assert engine._omega_order("C", 4) == 2
    assert engine._omega_order("D", 4) == 4
    assert engine._omega_order("D", 5) == 4
    with pytest.raises(DomainError):
        engine._omega_order("D", 3)


def test_rank_floors():
    for family, floor in RANK_FLOOR.items():
        with pytest.raises(DomainError):
            verify(family, floor - 1)
        with pytest.raises(DomainError):
            bar_S(family, floor - 1)


# ---------------------------------------------------------------------------
# member enumeration

def test_enumerate_cz_rejects_labels_outside_the_stratum():
    lab = make_d_label(4, (0, 3), (1, 2))
    with pytest.raises(DomainError):
        enumerate_cz(lab, "D", 4)


def test_enumerate_cz_members_replay_to_their_label():
    for family, n in (("B", 3), ("C", 3), ("D", 4)):
        for lab in _stratum(family, n):
            for spec, factors in enumerate_cz(lab, family, n):
                assert spec.is_maximal()
                got = _member_image(spec, factors)
                if got.family == FAMILY_D and got.z == got.zp:
                    assert (got.z, got.zp) == (lab.z, lab.zp)
                else:
                    assert got == lab


def test_enumerate_cz_family_a_divisor_members():
    lab = IrrLabel(FAMILY_A, 4, partition_to_z((2, 2)))
    divisors = engine._a_divisor_members(lab, 4)
    assert [d for d, _ in divisors] == [1, 2]
    half = divisors[1][1]
    assert z_to_partition(half.z) == (1, 1)
    for d, tilde in divisors:
        spec = ParahoricSpec("A", 4, d=d)
        assert _member_image(spec, (tilde,) * d) == canonicalize(lab)


# ---------------------------------------------------------------------------
# invariants against hand-checked values

def test_family_a_symmetry_order_is_the_deviation_gcd():
    for n in range(2, 9):
        for rep in special_reps(FAMILY_A, n):
            part = z_to_partition(rep.label.z)
            assert fc(rep.label, "A", n) == math.gcd(n, *part)


def test_family_a_counts_and_f():
    for n in range(2, 9):
        for rep in special_reps(FAMILY_A, n):
            assert fa(rep.label, "A", n) == 1


def test_frozen_report_family_b_rank_two():
    rep = verify("B", 2)
    assert rep.ok()
    rows = [(r.y, r.label.z, r.label.zp, r.b_label, r.fa_value, r.fc_value)
            for r in rep.rows]
    assert rows == [
        ((0, 0, 2, 2, 4, 4, 8), (0, 3), (0,), 0, 1, 2),
        ((0, 0, 2, 2, 4, 5, 7), (0, 2), (1,), 1, 2, 1),
        ((0, 0, 2, 2, 4, 6, 6), (0, 1), (2,), 2, 1, 2),
        ((0, 0, 2, 3, 4, 5, 6), (0, 1, 2), (1, 2), 4, 1, 1),
    ]


def test_frozen_report_family_c_rank_three():
    rep = verify("C", 3)
    assert rep.ok()
    assert [(r.fa_value, r.fc_value) for r in rep.rows] == [
        (1, 2), (2, 2), (1, 1), (1, 2), (1, 2), (2, 1), (1, 2), (1, 1)
    ]


def test_frozen_report_family_d_rank_four():
    rep = verify("D", 4)
    assert rep.ok()
    assert [(r.fa_value, r.fc_value) for r in rep.rows] == [
        (1, 4), (1, 4), (1, 2), (1, 2), (1, 2), (2, 1),
        (1, 4), (1, 2), (1, 2), (1, 2), (1, 1), (1, 1),
    ]
    # split fibers appear once per kappa with identical invariants
    split = [r for r in rep.rows if r.label.z == r.label.zp]
    assert sorted(r.label.kappa for r in split) == [0, 1, 0, 1] or sorted(
        r.label.kappa for r in split
    ) == [0, 0, 1, 1]


def test_symmetry_witness_shapes_are_symmetric():
    for family, n in (("B", 4), ("D", 5)):
        rep = verify(family, n)
        assert rep.ok()
        for row in rep.rows:
            if row.fc_value == 1:
                continue
            spec, factors = row.witnesses[-1]
            if row.fc_value == 4 or family == "B":
                assert spec.r == spec.q
                assert factors[0] == factors[-1]


def test_bar_s_matches_the_stratum_size():
    for family, ns in (("B", (2, 3, 4)), ("C", (3, 4)), ("D", (4, 5))):
        for n in ns:
            assert len(bar_S(family, n)) == len(_stratum(family, n))


def test_fc_divides_the_symmetry_order():
    for family, n in (("B", 4), ("C", 4), ("D", 4), ("D", 5)):
        order = engine._omega_order(family, n)
        for lab in _stratum(family, n):
            assert order % fc(lab, family, n) == 0


# ---------------------------------------------------------------------------
# full verification

def test_verify_holds_on_small_ranks():
    for family, ns in (
        ("A", (2, 3, 4, 5)),
        ("B", (2, 3, 4, 5)),
        ("C", (3, 4, 5)),
        ("D", (4, 5, 6)),
    ):
        for n in ns:
            rep = verify(family, n)
            assert rep.ok(), (family, n)
            assert rep.holds_a and rep.holds_b1
            assert rep.holds_b2 and rep.holds_b3


def test_verify_row_count_tracks_the_fibers():
    for family, n in (("B", 4), ("C", 4), ("D", 4), ("D", 5)):
        rep = verify(family, n)
        assert len(rep.rows) == len(_stratum(family, n))


def test_every_maximal_member_respects_the_component_bound():
    for family, n in (("B", 4), ("C", 4), ("D", 5)):
        rep = verify(family, n)
        for row in rep.rows:
            members = enumerate_cz(row.label, family, n)
            assert all(
                f_product(factors) <= row.z_value for _, factors in members
            )
            assert row.fa_value == row.z_value


# case -> (family, rank, rows, sha256 of the compact sorted-key JSON of
# verify(family, rank)); a bare family name is rank 6
_VERIFY_DIGESTS = {
    "A": ("A", 6, 11,
          "4604fc5c746ca3083e181a59d8096fdbe9f998add47fb771f144bf6ff1513aa4"),
    "B": ("B", 6, 35,
          "6423096470b23c99c378e8b55cb95cd5b898c0f5d8e12a59faaf66b3cc6062b7"),
    "C": ("C", 6, 40,
          "5aa869f6f00180a05c1d0b08a83f2e91e3b237a0dfc2ae2699ffe21ad07eac57"),
    "D": ("D", 6, 31,
          "b81442f7fa45fd44f9fead04f259137cf8ddc4c8b861a7ac4f53d9026f7f20b2"),
    "A12": ("A", 12, 77,
            "7cfa3362f87bfb279e4f0b68aff4e0a90921206c140510d88fd91a00ef2fd7b2"),
    "A16": ("A", 16, 231,
            "8a5ad976be137e7624c757cb5ca31dd137c9712bad0f075889f13dc2ac95027b"),
    "A20": ("A", 20, 627,
            "e4ffe876df9211bc0535598867e1370021204b6f3157b2734fc495b3e199c200"),
    "A24": ("A", 24, 1575,
            "eadd130ca8b3028b6ddae241ea7b8c27dd26bb67d83f8960d491b4a1118260b7"),
    "B8": ("B", 8, 86,
           "0fec6e5da0b9d5b0926fec5290743371181af9670123d7babdbea9bdc3d8bbf7"),
    "C8": ("C", 8, 100,
           "7aff349a5e8335b538af80a18cb5043a4636ddbafa70887f0cebd3ce89f6045b"),
    "D8": ("D", 8, 75,
           "5e17ca132e719715271bffd4941f63b9f495ab09d588aac1fb5915d9c7492afe"),
}


@pytest.mark.parametrize("case", sorted(_VERIFY_DIGESTS))
def test_verify_reports_match_their_pinned_digests(case):
    family, n, rows, digest = _VERIFY_DIGESTS[case]
    report = verify(family, n)
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    assert len(report.rows) == rows
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, rows", [("B", 35), ("C", 40), ("D", 31)])
def test_each_row_enumerates_members_and_invariants_once(monkeypatch, family,
                                                         rows):
    # one split search per row feeds the maximal members, the B and D
    # symmetric witnesses and the C and D split witness
    calls = {"split_pairs": 0, "class_invariants": 0,
             "symmetric_decompositions": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sc, "split_pairs")
    counted(sc, "symmetric_decompositions")
    counted(engine, "class_invariants")
    assert len(verify(family, 6).rows) == rows
    assert calls == {"split_pairs": rows, "class_invariants": rows,
                     "symmetric_decompositions": 0}


def test_induction_graph_builds_each_distinct_image_once(monkeypatch):
    built = []
    inner = jinduction.IrrLabel

    def counted(*args, **kwargs):
        built.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(jinduction, "IrrLabel", counted)
    images = 0
    for family in "BCD":
        shapes = engine._maximal_shapes(family, 10)
        graph, _ = engine._induction_graph(family, 10, SpecialIndex(10), shapes)
        images += len(graph)
    # one validating build per distinct image, not one per product
    assert len(built) == images == 196 + 232 + 168


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_induction_graph_prepares_each_pool_label_once(monkeypatch, family):
    aligned = []
    inner = jinduction._factor_rows

    def counted(target, lengths, label):
        aligned.append(label)
        return inner(target, lengths, label)

    monkeypatch.setattr(jinduction, "_factor_rows", counted)
    index = SpecialIndex(8)
    shapes = engine._maximal_shapes(family, 8)
    engine._induction_graph(family, 8, index, shapes)
    keys = {key for spec in shapes.values()
            for key in engine._embedding(spec).factor_signature()}
    pooled = [label for key in keys for label in index.pool(*key)]
    # one alignment per distinct pool label, not one per shape using it
    assert len(set(pooled)) == len(pooled)
    assert sorted(aligned, key=repr) == sorted(pooled, key=repr)


def test_enumerated_classes_and_rows_are_checked_only_where_they_enter(
        monkeypatch):
    # enumerate_classes checks family, n and m once and verify and the
    # springer listing read the tau_fiber kernel: no enumerated y is checked
    # again, nor any symmetric witness's deviation profile, nor any
    # enumerated family-A row
    calls: dict[str, int] = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("ensure_yseq", "ensure_eseq"):
        counted(sc, name)
    counted(springer, "_class_rank")
    for family in ("B", "C", "D"):
        assert verify(family, 6).ok()
        assert main(["springer", "--family", family, "--rank", "6"]) == 0
    for family in ("A", "B", "C", "D"):
        assert enumerate_classes(family, 6)
    assert calls == {}
    counted(sc, "ensure_zseq")
    assert len(special_reps(FAMILY_A, 6)) == 11
    assert calls == {}


@pytest.mark.parametrize("family", ["C", "D"])
def test_verify_builds_each_special_pool_once(monkeypatch, family):
    pools: dict[tuple[str, int], int] = {}
    inner_reps = engine.special_reps

    def counted_reps(fam, rank, *args):
        pools[fam, rank] = pools.get((fam, rank), 0) + 1
        return inner_reps(fam, rank, *args)

    from_scratch = []
    inner_f = jinduction.special_f

    def counted_f(label):
        from_scratch.append(label)
        return inner_f(label)

    monkeypatch.setattr(engine, "special_reps", counted_reps)
    monkeypatch.setattr(jinduction, "special_f", counted_f)
    assert verify(family, 6).ok()
    assert pools and set(pools.values()) == {1}
    # every factor f-product is read from the index, none from special_f
    assert from_scratch == []


@pytest.mark.parametrize("family", ["C", "D"])
def test_a_fiber_short_of_one_member_fails_its_rows(monkeypatch, capsys,
                                                    family):
    build = engine._induction_graph
    cut = []

    def short_graph(fam, n, index, shapes):
        images, fibers = build(fam, n, index, shapes)
        key = max(fibers, key=lambda k: (len(fibers[k]), repr(k)))
        fibers[key].remove(min(fibers[key], key=repr))
        cut.append(key)
        return images, fibers

    monkeypatch.setattr(engine, "_induction_graph", short_graph)
    report = verify(family, 6)
    failed = [row for row in report.rows if not row.witnesses_ok]
    assert failed
    assert failed == [row for row in report.rows
                      if match_key(row.label) == cut[0]]
    assert not report.ok()
    assert main(["verify", "--family", family, "--rank", "6"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_replays_only_witnesses_outside_their_fiber(monkeypatch):
    calls = []
    inner = engine.j_induce

    def counted(e, factors):
        calls.append(e)
        return inner(e, factors)

    monkeypatch.setattr(engine, "j_induce", counted)
    graphs = {family: engine._induction_graph(
                  family, 10, SpecialIndex(10),
                  engine._maximal_shapes(family, 10))
              for family in "BCD"}
    assert calls == []
    for family, (images, _) in graphs.items():
        # bar_S induces product by product through the public j_induce
        assert bar_S(family, 10) == images
    assert calls
    calls.clear()
    outside = 0
    for family, (_, fibers) in graphs.items():
        for row in verify(family, 10).rows:
            # witnesses and fibers share the member form
            fiber = fibers[match_key(row.label)]
            outside += sum(member not in fiber for member in row.witnesses)
    assert len(calls) == outside == 110


def test_special_index_matches_f_product_and_rejects_nonspecial_factors():
    index = SpecialIndex(6)
    for family in (FAMILY_A, FAMILY_BC, FAMILY_D):
        for rank in range(5):
            pool = index.pool(family, rank)
            if family == FAMILY_A:
                assert pool == tuple(canonicalize(rep.label)
                                     for rep in special_reps(family, rank))
            else:
                # BC and D pools sit at the target's merged length
                assert pool == tuple(rep.label for rep in special_reps(
                    family, rank, policy_m(family, 6)))
            for label in pool:
                assert index.f_product((label,)) == f_product((label,))
    # a non-special label in the member form: rows of lengths (8, 7)
    with pytest.raises(InvariantError, match="not special"):
        index.f_product((shift(IrrLabel(FAMILY_BC, 2, (1, 2), (0,)), 6),))


@pytest.mark.parametrize("family", [FAMILY_BC, FAMILY_D])
def test_special_index_rejects_a_special_label_padded_differently(family):
    index = SpecialIndex(6)
    label = index.pool(family, 3)[-1]
    assert index.f_product((label,)) == f_product((label,))
    for other in (canonicalize(label), shift(label, 1)):
        assert other != label
        with pytest.raises(InvariantError, match="not special"):
            index.f_product((other,))


@pytest.mark.parametrize("label, n", [
    (IrrLabel("D", 5, (5,), (0,)), 5),
    (IrrLabel("BC", 5, (0, 6), (0,)), 5),
    (IrrLabel(FAMILY_A, 4, (4,)), 5),
])
def test_fc_and_fa_reject_a_foreign_label_at_family_a(label, n):
    for f in (fa, fc):
        with pytest.raises(DomainError, match="family A rows take"):
            f(label, "A", n)


def test_fc_and_fa_reject_a_label_of_another_rank_alike():
    lab = special_reps(FAMILY_BC, 3)[0].label
    for f in (fa, fc):
        with pytest.raises(DomainError, match="block sizes"):
            f(lab, "B", 4)


def test_reports_are_deterministic_and_serializable():
    first = json.dumps(verify("D", 4).to_json(), sort_keys=True)
    second = json.dumps(verify("D", 4).to_json(), sort_keys=True)
    assert first == second
    table = verify("B", 2).to_table()
    assert "PASS" in table
    assert table == verify("B", 2).to_table()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("B", n) for n in (2, 3, 4, 5)]
                       + [("C", n) for n in (3, 4, 5)]
                       + [("D", n) for n in (4, 5, 6)]),
       st.data())
def test_member_images_land_in_the_stratum(pair, data):
    family, n = pair
    labels = _stratum(family, n)
    lab = data.draw(st.sampled_from(labels))
    members = enumerate_cz(lab, family, n)
    assert members
    spec, factors = data.draw(st.sampled_from(list(members)))
    got = _member_image(spec, factors)
    if got.family == FAMILY_D and got.z == got.zp:
        assert (got.z, got.zp) == (lab.z, lab.zp)
    else:
        assert got == lab
