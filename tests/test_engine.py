"""Verification-engine checks: subgroup shapes, symmetry orders,
member enumeration with replay, frozen small-rank reports, determinism."""

from __future__ import annotations

import collections
import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from weylsymbols import engine, irreps, jinduction, seqcomb as sc, springer
from weylsymbols.cli import main
from weylsymbols.engine import (
    RANK_FLOOR,
    ParahoricSpec,
    bar_S,
    enumerate_cz,
    fa,
    fc,
    verify,
)
from weylsymbols.errors import (
    DomainError,
    InvariantError,
    ResourceError,
    ValidationError,
)
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    canonicalize,
    make_d_label,
    partition_to_z,
    policy_m,
    special_f,
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
from weylsymbols.springer import LABEL_FAMILY, enumerate_classes, tau_fiber


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
        # a label of the rank below the floor is refused by every public
        # per-label entry point, not answered
        label = special_reps(LABEL_FAMILY[family], floor - 1)[0].label
        for call in (enumerate_cz, fa, fc):
            with pytest.raises(DomainError, match=f"needs rank >= {floor}"):
                call(label, family, floor - 1)


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


@pytest.mark.parametrize("family", ["B", "D"])
def test_symmetric_witnesses_read_off_the_split_table_equal_the_search(
        family):
    # every class of B2-12 and D4-12: the same x, in the same order, with
    # the same e as symmetric_decompositions, which filters the unpacked
    # split pairs (tests/test_seqcomb.py checks both against the symmetric
    # decompositions' own search), and each x's record is the table's own
    found = 0
    for n in range(RANK_FLOOR[family], 13):
        parts = engine._Parts(family, n, engine._maximal_shapes(family, n))
        for c in enumerate_classes(family, n):
            ivs = sc._frakI(c.y)
            got = engine._symmetric_splits(c.y, ivs, parts.splits(c.y))
            want = sc.symmetric_decompositions(c.y)
            assert [(irreps.zeta(record[1][0]), e) for record, e in got] \
                == list(want), c.y
            assert all(record is parts.records[sc._pack(parts.fields, x)]
                       for (record, _), (x, _) in zip(got, want))
            found += bool(want)
    assert found > 100


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
    # one split search per class feeds the maximal members, the B and D
    # symmetric witnesses and the C and D split witness; one interval set
    # per class feeds the invariants and the B and D symmetric witnesses;
    # the two rows of a two-label D class share them
    classes = len(enumerate_classes(family, 6))
    calls = {"_split_firsts": 0, "_split_pairs": 0, "_class_invariants": 0,
             "_frakI": 0, "symmetric_decompositions": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sc, "_split_firsts")
    counted(sc, "_split_pairs")
    counted(sc, "symmetric_decompositions")
    counted(sc, "_frakI")
    counted(engine, "_class_invariants")
    assert len(verify(family, 6).rows) == rows
    assert (classes < rows) == (family == "D")
    # the rows read the packed split search, not its unpacking kernel,
    # and the B and D symmetric witnesses read its table, with no search
    # of their own
    assert calls == {"_split_firsts": classes, "_split_pairs": 0,
                     "_class_invariants": classes, "_frakI": classes,
                     "symmetric_decompositions": 0}


def test_verify_builds_no_image_label(monkeypatch):
    # each split's image is an int sum checked against its row's label;
    # only the witness replays, through the public j_induce, build images
    built = []
    replaying = []
    inner = jinduction.IrrLabel
    inner_replay = engine._replay

    def counted(*args, **kwargs):
        if not replaying:
            built.append(args)
        return inner(*args, **kwargs)

    def replay(*args):
        replaying.append(args)
        try:
            return inner_replay(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(jinduction, "IrrLabel", counted)
    monkeypatch.setattr(engine, "_replay", replay)
    for family in "BCD":
        assert verify(family, 10).ok()
    assert built == []


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_verify_aligns_each_signature_pool_part_once(monkeypatch, family):
    # the packings verify makes itself; the witness replays' j_induce packs
    # each factor once per process, in its own table
    aligned = []
    inner = engine._packed_rows

    def counted(layout, label):
        aligned.append(label)
        return inner(layout, label)

    monkeypatch.setattr(engine, "_packed_rows", counted)
    report = verify(family, 8)
    monkeypatch.undo()
    assert report.ok()
    shapes = engine._maximal_shapes(family, 8)
    parts = engine._Parts(family, 8, shapes)
    keys = {key for spec in shapes.values()
            for key in engine._embedding(spec).factor_signature()}
    # the table holds a pool of every rank a split part can have, which
    # only C and D shapes leave out
    assert keys <= set(parts.pools)
    assert (keys == set(parts.pools)) == (family == "B")
    # exactly the parts of the pools the shapes name carry packed rows (a
    # D shape's A middle pool has no parts), each once, aligned by the
    # record table's walk
    assert ({label for key in keys if key[0] != FAMILY_A
             for label in parts.pools[key]}
            == {label for rec in parts.records.values() if rec[3] is not None
                for label in rec[1]})
    firsts = [rec[1][0] for rec in parts.records.values()
              if rec[3] is not None]
    assert len(set(firsts)) == len(firsts)
    # the label side packs one label per class, the first of its tau
    # fiber, which its rows share, and no pool part
    fibers = [springer._tau_fiber(family, c.y, 8)[0]
              for c in enumerate_classes(family, 8)]
    assert (len(fibers) < len(report.rows)) == (family == "D")
    assert collections.Counter(aligned) == collections.Counter(fibers)
    # the fiber's rows have the target's lengths already: aligned as they are
    for label in fibers:
        rows = jinduction._factor_rows(parts.layout[0], parts.layout[2], label)
        assert rows[0] is label.z and rows[1] is label.zp


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


def _counted_walks(monkeypatch):
    """Record the (kind, m, lo, hi) of every seqcomb._walk call."""
    walks = []
    inner = sc._walk

    def counted(kind, m, lo, hi, *forms):
        walks.append((kind, m, lo, hi))
        return inner(kind, m, lo, hi, *forms)

    monkeypatch.setattr(sc, "_walk", counted)
    return walks


@pytest.mark.parametrize("family", ["C", "D"])
def test_verify_builds_each_special_pool_once(monkeypatch, family):
    pools: dict[tuple[str, int], int] = {}
    # A pools come from special_reps
    inner = engine.special_reps

    def counted(fam, rank, *args):
        pools[fam, rank] = pools.get((fam, rank), 0) + 1
        return inner(fam, rank, *args)

    from_scratch = []
    inner_f = jinduction.special_f

    def counted_f(label):
        from_scratch.append(label)
        return inner_f(label)

    monkeypatch.setattr(engine, "special_reps", counted)
    walks = _counted_walks(monkeypatch)
    monkeypatch.setattr(jinduction, "special_f", counted_f)
    assert verify(family, 6).ok()
    assert set(pools.values()) <= {1}
    assert bool(pools) == (family == "D")
    # BC and D pools, every rank from 0 to 6, come from one walk per part
    # family at the target's merged length: BC and D for C, D for D; the
    # same walk enumerates the classes once (and family-A pools through
    # special_reps, whose memo may hold them already)
    assert [walk for walk in walks if walk[0] == "X"] == [
        ("X", policy_m(fam, 6), 0, 6) for fam in engine._PART_FAMILIES[family]]
    assert walks.count((springer._SPACE_KIND[family],
                        springer.class_policy_m(family, 6), 6, 6)) == 1
    # every factor f-product is read from the split-part table, none from
    # special_f
    assert from_scratch == []


def _is_maximal(parts, split) -> bool:
    return parts.shape_at[split[0][0]] is not None


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_a_class_short_of_one_maximal_split_fails_the_count_identity(
        monkeypatch, capsys, family):
    inner = engine._Parts.splits
    dropped = []

    def short(parts, y):
        splits = inner(parts, y)
        # the first maximal split below the class's largest f-product, so
        # that the printed members and witnesses stay as they are
        maximal = [s for s in splits if _is_maximal(parts, s)]
        best = max((px[2] * pxt[2] for px, pxt in maximal), default=0)
        for split in maximal:
            if not dropped and split[0][2] * split[1][2] < best:
                dropped.append(y)
                splits.remove(split)
        return splits

    monkeypatch.setattr(engine._Parts, "splits", short)
    report = verify(family, 6)
    assert len(dropped) == 1
    # every row still passes its own checks: only the count falls short
    assert all(row.ok() for row in report.rows)
    assert not report.image_in_stratum and report.stratum_in_image
    assert not report.ok()
    dropped.clear()
    assert main(["verify", "--family", family, "--rank", "6"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("family, field", [
    (family, field) for family in "BCD" for field in (3, 4)])
def test_a_corrupt_record_fails_exactly_the_rows_that_read_it(
        monkeypatch, capsys, family, field):
    # field 3 is a part's packed rows, field 4 its b
    inner = engine._Parts.__init__
    tables = []

    def corrupt(parts, *args):
        inner(parts, *args)
        key = max(k for k, rec in parts.records.items() if rec[3] is not None)
        rec = list(parts.records[key])
        rec[field] += 1
        parts.records[key] = tuple(rec)
        tables.append((parts, parts.records[key]))

    monkeypatch.setattr(engine._Parts, "__init__", corrupt)
    report = verify(family, 6)
    parts, bad = tables[0]
    reads = [row for row in report.rows
             if any(bad in split for split in parts.splits(row.y)
                    if _is_maximal(parts, split))]
    assert reads
    assert [row for row in report.rows if not row.witnesses_ok] == reads
    assert report.holds_b1 and report.holds_b2 and report.holds_b3
    assert report.image_in_stratum and report.stratum_in_image
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
    reports = {family: verify(family, 10) for family in "BCD"}
    # a row's fiber is its members on the maximal shapes, so a witness on
    # one of them is one of its class's splits; the rest are replayed, once
    # per class: the two rows of a two-label D class share their witness
    # and their labels' match_key
    outside = sum(not spec.is_maximal() for report in reports.values()
                  for row in report.rows for spec, _ in row.witnesses)
    shared = sum(not spec.is_maximal() for report in reports.values()
                 for row, before in zip(report.rows[1:], report.rows)
                 if row.y == before.y for spec, _ in row.witnesses)
    assert outside == 110 and shared == 7
    assert len(calls) == outside - shared == 103
    for family, report in reports.items():
        assert report.ok()
        # bar_S induces product by product through the public j_induce
        assert ({match_key(label) for label in bar_S(family, 10)}
                == {match_key(row.label) for row in report.rows})


# products of the maximal shapes' pools, and the members summed once per
# row, where the two rows of a two-label D class count their class twice
_PRODUCTS = {("B", 10): 2238, ("C", 10): 2030, ("D", 10): 1874,
             ("B", 14): 16652, ("C", 14): 15382, ("D", 14): 14311,
             ("D", 4): 38}
_ROW_SUMS = {("D", 4): 50, ("D", 14): 14691}


@pytest.mark.parametrize("family, n", [
    (family, n) for family in "BCD" for n in range(RANK_FLOOR[family], 15)])
def test_maximal_members_counted_once_per_class_number_the_products(family,
                                                                     n):
    shapes = engine._maximal_shapes(family, n)
    parts = engine._Parts(family, n, shapes)
    # the closed form, from the special-rep counts alone
    products = sum(math.prod(len(special_reps(fam, rank))
                             for fam, rank in
                             engine._embedding(spec).factor_signature())
                   for spec in shapes.values())
    assert engine._product_count(parts, shapes) == products
    assert _PRODUCTS.get((family, n), products) == products
    per_class = per_row = 0
    for c in enumerate_classes(family, n):
        members = engine._maximal(parts, parts.splits(c.y))[0]
        labels = len(tau_fiber(family, c.y, n))
        assert members and labels <= (2 if family == "D" else 1)
        per_class += members
        per_row += labels * members
    assert per_class == products
    assert (per_row > products) == (family == "D" and n % 2 == 0)
    assert _ROW_SUMS.get((family, n), per_row) == per_row


def test_pool_reps_are_the_special_reps_in_member_form():
    for family in (FAMILY_A, FAMILY_BC, FAMILY_D):
        for rank in range(5):
            # one group per merged sequence, each rep's (x, b, f) in it
            groups = list(engine._pool_seqs(family, rank, 6))
            pool = tuple((label, x, b, f) for x, b, f, fiber in groups
                         for label in fiber)
            if family == FAMILY_A:
                assert pool == tuple((canonicalize(rep.label), rep.xseq,
                                      rep.b, rep.f)
                                     for rep in special_reps(family, rank))
            else:
                # BC and D pools sit at the target's merged length
                assert pool == tuple((rep.label, rep.xseq, rep.b, rep.f)
                                     for rep in special_reps(
                                         family, rank, policy_m(family, 6)))
    # a record table holds the pools its maximal shapes name
    for family in "ABCD":
        n = RANK_FLOOR[family] + 2
        parts = engine._Parts(family, n, engine._maximal_shapes(family, n))
        for (fam, rank), labels in parts.pools.items():
            assert labels == tuple(
                label for *_, fiber in engine._pool_seqs(fam, rank, n)
                for label in fiber)


@pytest.mark.parametrize("family, n", [
    (family, n) for family in "BCD" for n in range(3, 11)])
def test_the_record_table_equals_the_label_path(family, n):
    # every record against the labels of its pool sequence, each x taken
    # from enumerate_space and labelled, weighed and packed through the
    # per-label kernels rather than the walk's running sums
    shapes = engine._maximal_shapes(family, n)
    parts = engine._Parts(family, n, shapes)
    named = {key for spec in shapes.values()
             for key in engine._signature(spec)}
    keys = set()
    for fam in engine._PART_FAMILIES[family]:
        m = policy_m(fam, n)
        based = family == "C" and fam == FAMILY_D
        for rank in range(n + 1):
            xs = sc.enumerate_space("X", m, rank)
            fibers = [irreps._zeta_inverse(fam, x) for x in xs]
            # the pool in enumeration order, as _pool_seqs groups it
            assert (parts.pools[fam, rank]
                    == tuple(lab for fiber in fibers for lab in fiber)
                    == tuple(lab for *_, fiber in
                             engine._pool_seqs(fam, rank, n)
                             for lab in fiber))
            for x, fiber in zip(xs, fibers):
                key = sc._pack(parts.fields,
                               (0, *(v + 1 for v in x)) if based else x)
                keys.add(key)
                got_rank, got_fiber, f, rows, b, mask = parts.records[key]
                assert (got_rank, got_fiber) == (rank, fiber)
                # the frakS mask of the part as y holds it
                assert mask == _mask(sc._frakS(
                    (0, *(v + 1 for v in x)) if based else x))
                assert f == special_f(fiber[0])
                assert b == irreps.b_invariant(fiber[0])
                # packed rows on the pools the maximal shapes name only
                assert rows == (jinduction._packed_rows(parts.layout,
                                                        fiber[0])
                                if (fam, rank) in named else None)
    # no record beyond the pools' sequences, no pool beyond the named ones
    # and the part families', and the named family-A pools from special_reps
    assert keys == set(parts.records)
    assert set(parts.pools) == named | {
        (fam, rank) for fam in engine._PART_FAMILIES[family]
        for rank in range(n + 1)}
    for fam, rank in named:
        if fam == FAMILY_A:
            assert parts.pools[fam, rank] == tuple(
                canonicalize(rep.label) for rep in special_reps(fam, rank))


def test_a_based_d_part_has_one_strict_position_more():
    # the record of a C target's based D part takes the pool's count + 1
    for n in range(3, 11):
        m = policy_m(FAMILY_D, n)
        for rank in range(n):
            for x in sc.enumerate_space("X", m, rank):
                based = (0, *(v + 1 for v in x))
                assert len(sc._frakS(based)) == len(sc._frakS(x)) + 1


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_a_record_table_counts_strict_positions_once_per_pool_sequence(
        monkeypatch, family):
    # the walk counts each pool sequence's strict positions as it goes: no
    # frakS set and no per-record count while the table fills
    def unused(x):
        raise AssertionError("counted strict positions for a record's f")

    walks = _counted_walks(monkeypatch)
    monkeypatch.setattr(sc, "_strict_count", unused)
    monkeypatch.setattr(sc, "_frakS", unused)
    parts = engine._Parts(family, 8, engine._maximal_shapes(family, 8))
    monkeypatch.undo()
    # one walk per part family, and one record per sequence it yields
    # (family-A pools come through special_reps, whose memo may hold them)
    walks = [walk for walk in walks if walk[0] == "X"]
    assert walks == [("X", policy_m(fam, 8), 0, 8)
                     for fam in engine._PART_FAMILIES[family]]
    assert len(parts.records) == sum(
        len(sc.enumerate_space("X", m, rank)) for _, m, _, _ in walks
        for rank in range(9))
    based = 0
    for key, (rank, fiber, f, *_) in parts.records.items():
        x = sc._unpack(parts.fields, key)
        if family == "C" and x[1]:
            # a based D part takes the f of its lowered pool sequence
            x = tuple(v - 1 for v in x[1:])
            based += 1
        assert f == irreps._f_from_strict_count(fiber[0].family,
                                                sc._strict_count(x))
    assert (based > 0) == (family == "C")


def _mask(positions) -> int:
    """The bitmask of a set of positions."""
    return sum(1 << i for i in positions)


def _split_parts(family: str, n: int):
    """The record table verify(family, n) fills, and its split count."""
    parts = engine._Parts(family, n, engine._maximal_shapes(family, n))
    splits = sum(len(parts.splits(c.y)) for c in enumerate_classes(family, n))
    return parts, splits


@pytest.mark.parametrize("family, n", [
    (family, n) for family in "BCD" for n in range(RANK_FLOOR[family], 9)])
def test_split_part_records_equal_the_kernels(family, n):
    parts, _ = _split_parts(family, n)
    labels = springer.LABEL_FAMILY[family]
    layout = parts.layout
    # a D shape's rank-0 A middle factor packs to the base rows
    assert jinduction._packed_rows(layout, engine._D_FILLER) == layout[4]
    for key, (rank, fiber, f, packed, b, mask) in parts.records.items():
        x = sc._unpack(parts.fields, key)
        assert sc._pack(parts.fields, x) == key
        assert mask == _mask(sc._frakS(x))
        if family == "C" and x[1]:
            # the based complement: its deviation from base_xt, and the
            # labels of its lowered D merge
            assert (rank, fiber) == (
                sum(x) - sum(sc.base_xt(len(x) - 1)),
                irreps._zeta_inverse("D", tuple(v - 1 for v in x[1:])))
        else:
            assert (rank, fiber) == (sc._rho(x),
                                     irreps._zeta_inverse(labels, x))
        assert {special_f(label) for label in fiber} == {f}
        assert {irreps.b_invariant(label) for label in fiber} == {b}
        # a part of a pool the maximal shapes name carries the rows its
        # fiber's labels share, aligned to the target and packed
        if packed is not None:
            assert {jinduction._packed_rows(layout, label)
                    for label in fiber} == {packed}
    for c in enumerate_classes(family, n):
        for px, pxt in parts.splits(c.y):
            # member-form labels merge back to the parts, at y's length
            x = irreps.zeta(px[1][0])
            xt = irreps.zeta(pxt[1][0])
            if family == "C":
                # the based merge: zeta shifted up by one behind a 0
                xt = (0, *(v + 1 for v in xt))
            assert sc.seq_add(x, xt) == c.y
            # C's first parts start (0, 0), its complements are based
            assert family != "C" or (x[:2] == (0, 0) and xt[1] >= 1)
            assert px is parts.records[sc._pack(parts.fields, x)]
            assert pxt is parts.records[sc._pack(parts.fields, xt)]
            # both parts of a split on a maximal shape carry packed rows
            if parts.shape_at[px[0]] is not None:
                assert px[3] is not None and pxt[3] is not None


@pytest.mark.parametrize("family", ["C", "D"])
def test_degenerate_labels_mark_the_parts_short_of_strict_positions(family):
    # the split and symmetric witnesses test a part's first label for
    # degeneracy where they once compared its count of strict positions
    # with a threshold: 3 on C's based complements, 2 on D's parts in a
    # split and 1 on a D part x of y = x + e + x
    for n in range(RANK_FLOOR[family], 11):
        parts = engine._Parts(family, n, engine._maximal_shapes(family, n))
        for key, (_, fiber, *_) in parts.records.items():
            x = sc._unpack(parts.fields, key)
            strict = len(sc._frakS(x))
            if family == "D":
                assert fiber[0].degenerate == (strict < 2) == (strict < 1)
            elif x[1]:
                assert fiber[0].degenerate == (strict < 3)
            else:
                # a C first part, which no threshold bounded, is a BC part
                assert not fiber[0].degenerate


@pytest.mark.parametrize("family", ["C", "D"])
def test_verify_labels_each_distinct_split_part_once(monkeypatch, family):
    calls = []
    inner = engine._unmerge

    def counted(fam, rank, even, odd):
        calls.append((fam, even, odd))
        return inner(fam, rank, even, odd)

    parts, splits = _split_parts(family, 8)
    # the pool walk labels every part the table records
    monkeypatch.setattr(engine, "_unmerge", counted)
    assert verify(family, 8).ok()
    # one label fiber per distinct part, not one per split
    assert len(calls) == len(set(calls)) == len(parts.records)
    assert 2 * splits > 3 * len(calls)


# the largest entry of a rank-n class sequence, 3n + 2 for B and C and 3n
# for D, fills an 8-bit field at the first rank of each pair and needs 16
# bits at the second
@pytest.mark.parametrize("family, n, code, y_max", [
    ("B", 84, "B", 254), ("B", 85, "H", 257),
    ("C", 84, "B", 254), ("C", 85, "H", 257),
    ("D", 85, "B", 255), ("D", 86, "H", 258),
])
def test_split_fields_are_the_narrowest_that_hold_every_class_entry(
        family, n, code, y_max):
    fields, width = engine._split_fields(family, n)
    assert fields[-1] == code and width == (8 if code == "B" else 16)
    # the class of the label with one row of weight n reaches the bound
    label = (IrrLabel(FAMILY_BC, n, (0, n + 1), (0,)) if family != "D"
             else make_d_label(n, (n,), (0,)))
    y = springer.tau(family, label).y
    assert max(y) == y_max
    whole = sc._pack(fields, y)
    assert sc._unpack(fields, whole) == y
    m = len(y) - 1
    splits = [(sc._unpack(fields, first), sc._unpack(fields, whole - first))
              for first in sc._split_firsts(y, whole, sc._split_space(
                  fields, width, m, family == "C"))]
    # the same search in 64-bit fields, which hold any entry
    wide, bits = sc._key_fields(m + 1, 2 ** 63)
    whole = sc._pack(wide, y)
    pairs = [(sc._unpack(wide, first), sc._unpack(wide, whole - first))
             for first in sc._split_firsts(y, whole, sc._split_space(
                 wide, bits, m, family == "C"))]
    assert bits == 64 and splits == pairs
    assert splits and all(sc.seq_add(x, xt) == y for x, xt in splits)


def test_verify_b_records_no_split_part_outside_the_pools():
    # B, C and D alike: the pools of every rank a split part can have
    # record each part of every split before the first class is split, so
    # splitting adds no record and every split reads the table's own
    sizes = {}
    for family in "BCD":
        for n in range(RANK_FLOOR[family], 11):
            parts = engine._Parts(family, n,
                                  engine._maximal_shapes(family, n))
            table = dict(parts.records)
            recorded = {id(rec) for rec in table.values()}
            splits = [split for c in enumerate_classes(family, n)
                      for split in parts.splits(c.y)]
            assert parts.records == table
            assert all(id(rec) in recorded for split in splits
                       for rec in split)
        assert len(splits) > 2 * len(table)
        sizes[family] = len(table)
    # C and D splits once added 91 and 82 records at rank 10 to the 642
    # and 266 of the shapes' pools
    assert sizes == {"B": 385, "C": 733, "D": 348}


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_public_fa_and_fc_equal_every_verify_row(family):
    # D8 has two-label classes, D7 none
    for n in (7, 8) if family == "D" else (7,):
        rows = verify(family, n).rows
        for row in rows:
            # a shifted label is not canonical, and names the same row
            for label in (row.label, irreps.shift(row.label, 1),
                          irreps.shift(row.label, 2)):
                assert fa(label, family, n) == row.fa_value
                assert fc(label, family, n) == row.fc_value
        # both kappas of every two-label D class are rows, so both were
        # asked
        kappas = collections.defaultdict(set)
        for row in rows:
            kappas[row.y].add(row.label.kappa)
        split = [ks for ks in kappas.values() if len(ks) > 1]
        assert all(ks == {0, 1} for ks in split)
        assert len(split) == (5 if n == 8 else 0)


def _corrupt_a_member(monkeypatch, family: str, label: IrrLabel) -> None:
    """Give every record table built from now on a wrong packed row for one
    part of a maximal split of the label's class: the rows of another
    record of the part's rank, so that member sums to other rows than the
    label's."""
    y = springer.tau(family, label).y
    inner = engine._Parts.__init__

    def corrupted(self, *args):
        inner(self, *args)
        for part in (part for split in self.splits(y)
                     if self.shape_at[split[0][0]] is not None
                     for part in split):
            other = [rec[3] for rec in self.records.values()
                     if rec[0] == part[0] and rec[3] not in (None, part[3])]
            if other:
                break
        key = next(k for k, rec in self.records.items() if rec is part)
        self.records[key] = (*part[:3], other[0], part[4])

    monkeypatch.setattr(engine._Parts, "__init__", corrupted)


@pytest.mark.parametrize("family, n", [("B", 4), ("C", 4), ("D", 5)])
def test_fc_refuses_a_label_whose_maximal_member_induces_elsewhere(
        monkeypatch, family, n):
    # fc checks every maximal member of the label's class, as verify's row
    # does, not only its own symmetry witness
    label = next(row.label for row in verify(family, n).rows
                 if row.fa_value > 1)
    value = fc(label, family, n)
    _corrupt_a_member(monkeypatch, family, label)
    assert fa(label, family, n) > 1
    with pytest.raises(InvariantError, match="witnesses_ok fails"):
        fc(label, family, n)
    monkeypatch.undo()
    assert fc(label, family, n) == value


@pytest.mark.parametrize("family, n", [("B", 4), ("D", 5)])
def test_fc_refuses_a_witness_off_the_maximal_shapes_that_does_not_replay(
        monkeypatch, family, n):
    rows = verify(family, n).rows
    off = next(row for row in rows if row.fc_value > 1
               and not row.witnesses[-1][0].is_maximal())
    on = next(row for row in rows if row.fc_value > 1
              and row.witnesses[-1][0].is_maximal())
    # every replay now lands on a label of another class
    wrong = next(row.label for row in rows if row.y != off.y)
    monkeypatch.setattr(engine, "j_induce", lambda emb, factors: wrong)
    with pytest.raises(InvariantError, match="witnesses_ok fails") as info:
        fc(off.label, family, n)
    assert f"family {family} n={n} y=" in str(info.value)
    # a witness on a maximal shape is one of the class's checked splits and
    # is not replayed
    assert fc(on.label, family, n) == on.fc_value


@pytest.mark.parametrize("value", [True, None, "B", (1, 2),
                                   {"family": "BC", "n": 1}])
def test_public_entry_points_reject_a_value_that_is_not_a_label(value):
    for f in (enumerate_cz, fa, fc):
        with pytest.raises(ValidationError, match="label must be an IrrLabel"):
            f(value, "B", 3)


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


def _refuse(*_):
    raise AssertionError("reached past the entry checks")


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
@pytest.mark.parametrize("n", [10 ** 12, 10 ** 30])
def test_entry_points_refuse_a_rank_past_the_cap_before_any_work(
        monkeypatch, family, n):
    # _maximal_shapes walks range(n + 1), which never ends at these ranks
    monkeypatch.setattr(engine, "_maximal_shapes", _refuse)
    m = n if family == "A" else 2 * n + (1 if family == "D" else 2)
    text = f"capped at {sc.SIZE_CAP}, got m={m} n={n}"
    lab = special_reps(springer.LABEL_FAMILY[family], 2)[0].label
    for run in (lambda: verify(family, n), lambda: bar_S(family, n),
                lambda: fa(lab, family, n), lambda: fc(lab, family, n),
                lambda: enumerate_cz(lab, family, n)):
        with pytest.raises(ResourceError, match=text):
            run()


@pytest.mark.parametrize("family, n, m", [
    ("A", 65, 65), ("B", 40, 82), ("C", 32, 66), ("D", 32, 65)])
def test_the_cap_error_names_the_rank_asked_for(family, n, m):
    # B, C and D ranks past the cap used to be refused by the enumeration
    # of a pool, which named that pool's rank, 0
    with pytest.raises(ResourceError, match=f"got m={m} n={n}$"):
        verify(family, n)


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_a_label_of_another_rank_is_refused_before_the_record_table(
        monkeypatch, family):
    lab = IrrLabel(FAMILY_BC if family != "D" else FAMILY_D, 1, (0, 2),
                   (0,) if family != "D" else (0, 1))
    n = 31
    monkeypatch.setattr(engine, "_Parts", _refuse)
    for f in (fa, fc, enumerate_cz):
        with pytest.raises(DomainError, match=(
                f"block sizes must add up to the rank {n}, "
                f"got a label of rank 1$")):
            f(lab, family, n)


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
