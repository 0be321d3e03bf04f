"""Truncated-induction checks: row splitting, frozen values, additivity,
preservation for the nested embeddings, transitivity chains."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from weylsymbols import jinduction
from weylsymbols import seqcomb as sc
from weylsymbols.errors import DomainError, InvariantError, ValidationError
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
    _double_dots,
    _layout,
    d_placements,
    f_product,
    j_induce,
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
    assert _double_dots((0, 1, 2, 3, 5)) == ((0, 1, 3), (0, 1))
    assert _double_dots(sc.base_z(6)) == (sc.base_z(3), sc.base_z(2))
    assert _double_dots((0, 1, 2, 3)) == ((0, 1), (0, 1))
    assert _double_dots((0,)) == ((0,), ())


@st.composite
def _zseqs(draw):
    values = draw(
        st.sets(st.integers(min_value=0, max_value=24), min_size=1, max_size=9)
    )
    return tuple(sorted(values))


@settings(max_examples=100, deadline=None)
@given(_zseqs())
def test_double_dots_preserves_deviation_sum(u):
    first, second = _double_dots(u)
    total = sc.rho0(first) + (sc.rho0(second) if second else 0)
    assert total == sc.rho0(u)


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


def _oracle_window_cases() -> list:
    """Every (embedding, factors) the oracle cross-checks: all kinds and
    admissible lam, special factors, targets A <= 7, BC <= 5 and D <= 5."""
    caps = {FAMILY_A: 7, FAMILY_BC: 5, FAMILY_D: 5}
    out = []
    for n in range(0, 8):
        for e in _all_embeddings(n):
            if n > caps[e.target()[0]]:
                continue
            lams = d_placements(e.r, e.p, e.q) if e.kind == EMBED_D_TRIPLE else (0,)
            pools = [_special_labels(f, rank) for f, rank in e.factor_signature()]
            for lam in lams:
                twisted = dataclasses.replace(e, lam=lam)
                out += [(twisted, combo) for combo in itertools.product(*pools)]
    return out


def test_target_tables_give_the_images_of_fresh_ones():
    cases = _oracle_window_cases()
    assert len(cases) == 1817
    cold = []
    for e, combo in cases:
        jinduction._target.cache_clear()
        cold.append(j_induce(e, combo))
    # IrrLabel equality compares kappa too
    warm = [j_induce(e, combo) for e, combo in cases]
    targets = {e.target() for e, _ in cases}
    sizes = {t: tuple(map(len, jinduction._target(*t)[1:])) for t in targets}
    assert [j_induce(e, combo) for e, combo in cases] == warm == cold
    # a second pass over the same labels adds no table entry, and each
    # image table holds one entry per distinct image of its target
    assert {t: tuple(map(len, jinduction._target(*t)[1:]))
            for t in targets} == sizes
    for t in targets:
        assert sizes[t][1] == len({label for (e, _), label in zip(cases, cold)
                                   if e.target() == t})


def test_a_served_image_still_has_its_b_additivity_checked(monkeypatch):
    e = Embedding(EMBED_B_WR_WQ, r=1, q=2)
    factors = (_trivial(FAMILY_BC, 1), _trivial(FAMILY_BC, 2))
    image = j_induce(e, factors)
    _, labels, images = jinduction._target(*e.target())
    key = next(k for k, (label, _) in images.items() if label == image)
    monkeypatch.setitem(images, key, (image, b_invariant(image) + 1))
    with pytest.raises(InvariantError, match="b-additivity"):
        j_induce(e, factors)
    monkeypatch.undo()
    assert j_induce(e, factors) == image
    # a factor's stored b enters the check too
    monkeypatch.setitem(labels, factors[0], (labels[factors[0]][0], 1))
    with pytest.raises(InvariantError, match="b-additivity"):
        j_induce(e, factors)
    monkeypatch.undo()
    assert j_induce(e, factors) == image


def test_j_induce_images_do_not_depend_on_the_order_of_the_calls():
    # the target tables are filled in product order, then in reverse order
    # from cold; every product gets one image either way
    cases = _oracle_window_cases()
    jinduction._target.cache_clear()
    forward = [j_induce(e, combo) for e, combo in cases]
    jinduction._target.cache_clear()
    backward = [j_induce(e, combo) for e, combo in reversed(cases)]
    assert backward[::-1] == forward


def _reference_image(e: Embedding, factors) -> tuple:
    """The row rule of the jinduction docstring on plain tuples, apart from
    the library's kernels: (family, n, rows, kappa) of the image."""
    family, n = e.target()
    k = n + 1
    lengths = {FAMILY_A: (k,), FAMILY_BC: (k + 1, k), FAMILY_D: (k, k)}[family]

    def align(row, length):
        # drop a common prefix 0, 1, ..., t-1 a padded row carries beyond
        # the length, then shift up to the length
        while len(row) > length and row[0] == 0:
            row = tuple(v - 1 for v in row[1:])
        t = length - len(row)
        return tuple(range(t)) + tuple(v + t for v in row)

    aligned = []
    for f in factors:
        if f.zp is not None:
            aligned.append((align(f.z, lengths[0]), align(f.zp, lengths[1])))
        elif family == FAMILY_A:
            aligned.append((align(f.z, k),))
        else:
            u = align(f.z, sum(lengths))
            even = tuple(u[2 * i] - i for i in range((len(u) + 1) // 2))
            odd = tuple(u[2 * i + 1] - i - 1 for i in range(len(u) // 2))
            aligned.append((odd, even) if family == FAMILY_D else (even, odd))
    extra = len(factors) - 1
    rows = tuple(
        tuple(sum(column) - extra * j for j, column in enumerate(zip(*parts)))
        for parts in zip(*aligned)
    )
    kappa = 0
    if family == FAMILY_D and rows[0] == rows[1]:
        kappa = (sum(f.kappa for f in factors) + e.lam) % 2
    # canonical form: drop the longest common prefix 0, 1, ..., t-1, one
    # slot kept in the shortest row
    t = 0
    while t < min(map(len, rows)) - 1 and all(row[t] == t for row in rows):
        t += 1
    return family, n, tuple(tuple(v - t for v in row[t:]) for row in rows), kappa


def _as_reference(label: IrrLabel) -> tuple:
    rows = (label.z,) if label.zp is None else (label.z, label.zp)
    return label.family, label.n, rows, label.kappa


def test_j_induce_follows_the_row_rule_of_every_product():
    caps = {FAMILY_A: 6, FAMILY_BC: 5, FAMILY_D: 5}
    cases = 0
    for n in range(0, 7):
        for e in _all_embeddings(n):
            if n > caps[e.target()[0]]:
                continue
            lams = d_placements(e.r, e.p, e.q) if e.kind == EMBED_D_TRIPLE else (0,)
            pools = [_special_labels(f, rank) for f, rank in e.factor_signature()]
            for lam in lams:
                twisted = dataclasses.replace(e, lam=lam)
                for combo in itertools.product(*pools):
                    image = j_induce(twisted, combo)
                    assert _as_reference(image) == _reference_image(twisted, combo)
                    cases += 1
    assert cases == 1707


def _heavy_last(family: str, rank: int, second: bool) -> IrrLabel:
    """A rank-rank label whose whole weight sits on the last entry of its
    first row, or of its second row when second is set (D keeps the heavier
    row first, so its second row stays light)."""
    if family == FAMILY_A:
        return IrrLabel(FAMILY_A, rank, (rank,))
    if family == FAMILY_D:
        return make_d_label(rank, (rank,), (0,))
    if second:
        return IrrLabel(FAMILY_BC, rank, (0, 1), (rank,))
    return IrrLabel(FAMILY_BC, rank, (0, rank + 1), (0,))


# 127 and 128: the largest image entry, (L - 1) + n (2n + 1 for a BC
# target, 2n for D), fills an 8-bit field and then needs 16 bits, as
# 32767 and 32768 fill 16 bits and then need 32; 63, 64, 16383 and 16384
# sit inside a field width
@pytest.mark.parametrize("n", [63, 64, 127, 128, 16383, 16384, 32767, 32768])
def test_heavy_last_entries_do_not_carry_into_the_next_field(n):
    r, p = n // 3, n // 3
    q = n - r - p
    for e in (Embedding(EMBED_A_SPLIT, r=r + p, q=q),
              Embedding(EMBED_B_WR_SP_WQ, r=r, p=p, q=q),
              Embedding(EMBED_C_WR_WDQ, r=r + p, q=q),
              Embedding(EMBED_D_TRIPLE, r=r, p=p, q=q)):
        pools = [[_heavy_last(f, rank, second) for second in (False, True)]
                 for f, rank in e.factor_signature()]
        for combo in itertools.product(*pools):
            assert _as_reference(j_induce(e, combo)) == _reference_image(e, combo)


@pytest.mark.parametrize("family, n, code, image_max", [
    (FAMILY_BC, 127, "B", 255), (FAMILY_BC, 128, "H", 257),
    (FAMILY_D, 127, "B", 254), (FAMILY_D, 128, "H", 256),
    (FAMILY_BC, 32767, "H", 65535), (FAMILY_D, 32768, "I", 65536),
])
def test_layout_fields_are_the_narrowest_that_hold_every_image_entry(
        family, n, code, image_max):
    fields = _layout(family, n)[3]
    assert fields[-1] == code
    # the heavy one-row image reaches the bound (L - 1) + n
    if family == FAMILY_BC:
        e = Embedding(EMBED_B_WR_WQ, r=n // 2, q=n - n // 2)
    else:
        e = Embedding(EMBED_D_TRIPLE, r=n // 2, q=n - n // 2)
    factors = [_heavy_last(f, rank, False) for f, rank in e.factor_signature()]
    image = j_induce(e, factors)
    assert image == _heavy_last(family, n, False)
    # its first row, aligned to the target's length L, ends in (L - 1) + n
    longest = n + 2 if family == FAMILY_BC else n + 1
    assert image.z[-1] + longest - len(image.z) == image_max


_BAD_INPUTS = {
    "embedding None": (lambda emb, ok: j_induce(None, ok),
                       "embedding must be an Embedding"),
    "embedding str": (lambda emb, ok: j_induce("B_WrWq", ok),
                      "embedding must be an Embedding"),
    "factors None": (lambda emb, ok: j_induce(emb, None),
                     "factors must be a tuple or list"),
    "factors str": (lambda emb, ok: j_induce(emb, "ab"),
                    "factors must be a tuple or list"),
    "factors ints": (lambda emb, ok: j_induce(emb, (1, 2)),
                     "factor must be an IrrLabel"),
    "factor None": (lambda emb, ok: j_induce(emb, [ok[0], None]),
                    "factor must be an IrrLabel"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_malformed_induction_inputs_raise_validation_error(case):
    call, message = _BAD_INPUTS[case]
    emb = Embedding(EMBED_B_WR_WQ, r=1, q=1)
    ok = (_trivial(FAMILY_BC, 1), _trivial(FAMILY_BC, 1))
    with pytest.raises(ValidationError, match=message):
        call(emb, ok)


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


def test_j_induce_checks_every_factor_before_the_target_table():
    e = Embedding(EMBED_B_WR_WQ, r=1, q=2)
    good = (_trivial(FAMILY_BC, 1), _trivial(FAMILY_BC, 2))
    jinduction._target.cache_clear()
    with pytest.raises(DomainError, match="factor 1 must be family BC rank 2"):
        j_induce(e, [good[0], _trivial(FAMILY_BC, 3)])
    with pytest.raises(DomainError, match="takes 2 factors, got 1"):
        j_induce(e, good[:1])
    # the good factor 0 of the refused calls was never prepared
    assert jinduction._target.cache_info().currsize == 0
    j_induce(e, good)
    assert set(jinduction._target(*e.target())[1]) == set(good)


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
