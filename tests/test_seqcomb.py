"""Definitional and property tests for the sequence-combinatorics layer."""

from __future__ import annotations

import functools
import gc
import itertools
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylsymbols import seqcomb as sc
from weylsymbols.engine import (
    RANK_FLOOR,
    _Parts,
    _maximal_shapes,
    _split_fields,
    _symmetric_splits,
)
from weylsymbols.errors import DomainError, InvariantError, ResourceError, ValidationError
from weylsymbols.irreps import special_reps, zeta, zeta_inverse
from weylsymbols.springer import (
    LABEL_FAMILY,
    class_policy_m,
    enumerate_classes,
    tau_fiber,
)


# ---------------------------------------------------------------------------
# helpers

def _all_yseqs(m: int, max_stat: int):
    for n in range(max_stat + 1):
        yield from sc.enumerate_space("Y", m, n)


def _brute_splits(y):
    """Every componentwise split of y into two XSeqs, by raw product search."""
    m = len(y) - 1
    ranges = [range(y[i] + 1) for i in range(m + 1)]
    for xs in itertools.product(*ranges):
        xp = tuple(y[i] - xs[i] for i in range(m + 1))
        try:
            sc.ensure_xseq(xs)
            sc.ensure_xseq(xp)
        except ValidationError:
            continue
        yield xs, xp


def _xseqs_upto(m: int, max_stat: int):
    for n in range(max_stat + 1):
        yield from sc.enumerate_space("X", m, n)


def _weighted_against(seq, base) -> int:
    """The deviations of seq from base, position i weighted by m - i."""
    m = len(seq) - 1
    return sum((m - i) * (v - b) for i, (v, b) in enumerate(zip(seq, base)))


def _beta_prime(y) -> int:
    """beta'(y): the weighted deviations of a YSeq from base_y(m)."""
    return _weighted_against(y, sc.base_y(len(y) - 1))


def _tilde_beta(x) -> int:
    """tilde-beta(x): the weighted deviations of a based XSeq from
    base_xt(m)."""
    return _weighted_against(x, sc.base_xt(len(x) - 1))


def _tilde_beta_prime(y) -> int:
    """tilde-beta'(y): the weighted deviations of a based YSeq from
    base_yt(m)."""
    return _weighted_against(y, sc.base_yt(len(y) - 1))


def _interval_decomp(y):
    """The blocks of a YSeq by a greedy scan, as (start, stop, pair, base):
    an equal pair y[i] = y[i+1] where the scan meets one, else the step-one
    run from i.  The reference for construct_one_S, which reads its runs
    off frakI(y)."""
    m = len(y) - 1
    blocks = []
    i = 0
    while i <= m:
        if i < m and y[i + 1] == y[i]:
            blocks.append((i, i + 1, True, y[i]))
            i += 2
        else:
            j = i
            while j < m and y[j + 1] == y[j] + 1:
                j += 1
            blocks.append((i, j, False, y[i]))
            i = j + 1
    return blocks


def _construct_from_blocks(y):
    """construct_one_S(y) blockwise over _interval_decomp(y): u = 0 on the
    first block and one past the previous x value afterwards."""
    x, xp = [], []
    for start, stop, pair, base in _interval_decomp(y):
        u = x[-1] + 1 if x else 0
        if pair:
            x += (u, u)
            xp += (base - u, base - u)
        else:
            for t in range(stop - start + 1):
                x.append(u + (t + 1) // 2)
                xp.append(base - u + t // 2)
    return tuple(x), tuple(xp)


# ---------------------------------------------------------------------------
# frozen examples

def test_rho0_beta0_examples():
    assert sc.rho0((0, 1, 2, 3)) == 0 and sc._beta0((0, 1, 2, 3)) == 0
    assert sc.rho0((0, 1, 3, 4)) == 2 and sc._beta0((0, 1, 3, 4)) == 1
    assert sc.rho0((0, 2, 3)) == 2 and sc._beta0((0, 2, 3)) == 1


def test_frakS_examples():
    assert sc.frakS((0, 0, 1)) == frozenset({2})
    assert sc.frakS((0, 0, 1, 1)) == frozenset()
    assert sc.frakS((0, 1, 2)) == frozenset({0, 1, 2})


def test_frakI_examples():
    assert sc.frakI((0, 0)) == ()
    assert sc.frakI((0, 2)) == ((0, 0), (1, 1))
    assert sc.frakI_odd((0, 2)) == ((0, 0), (1, 1))
    assert sc.R((0, 2)) == frozenset({0, 1})
    assert sc.R0((0, 2)) == frozenset({0, 1})
    assert sc.frakI((0, 1, 2)) == ((0, 2),)
    assert sc.R((0, 1, 2)) == frozenset({0, 2})
    assert sc.R0((0, 1, 2)) == frozenset()


def test_interval_decomp_examples():
    assert _interval_decomp((0, 0)) == [(0, 1, True, 0)]
    assert _interval_decomp((0, 1, 2)) == [(0, 2, False, 0)]
    assert _interval_decomp((0, 0, 2, 2)) == [(0, 1, True, 0), (2, 3, True, 2)]
    assert sc.construct_one_S((0, 0, 2, 2)) == ((0, 0, 1, 1), (0, 0, 1, 1))
    assert sc.construct_one_S((0, 1, 2)) == ((0, 1, 1), (0, 0, 1))


def test_enumerate_S_examples():
    assert sc.enumerate_S((0, 2)) == (((0, 1), (0, 1)),)
    assert sc.enumerate_S((0, 0)) == (((0, 0), (0, 0)),)


def test_enumerate_tilde_S_examples():
    assert sc.enumerate_tilde_S((0, 1, 2)) == (((0, 0, 1), (0, 1, 1)),)
    members = sc.enumerate_tilde_S((0, 1, 3, 4, 6))
    assert members
    for x, xp in members:
        assert sc.member_tilde_S((0, 1, 3, 4, 6), x, xp)
    with pytest.raises(DomainError):
        sc.enumerate_tilde_S((0, 0, 2))


def test_hat_decompose_examples():
    m = 6
    x0 = sc.base_x(m)
    assert sc.hat_decompose(x0) == (x0, tuple(0 for _ in range(m + 1)))
    assert sc.hat_decompose((0, 1, 2)) == ((0, 1, 2), (0, 0, 0))
    assert sc.hat_decompose((1, 1, 2)) == ((0, 0, 1), (1, 1, 1))


def test_enumerate_space_examples():
    assert sc.enumerate_space("Z", 2, 0) == ((0, 1, 2),)
    assert sc.enumerate_space("X", 2, 1) == ((0, 0, 2), (0, 1, 1))
    assert sc.enumerate_space("E", 3, 2) == ((0, 0, 0, 2), (0, 0, 1, 1))


def test_symmetric_decompositions_examples():
    y = tuple(2 * v for v in sc.base_x(5))
    assert (sc.base_x(5), tuple(0 for _ in range(6))) in sc.symmetric_decompositions(y)
    assert sc.symmetric_decompositions((0, 2)) == (((0, 1), (0, 0)),)
    assert sc.symmetric_decompositions((0, 1, 2)) == ()


def test_beta_prime_weights():
    y0 = sc.base_y(4)
    bumped = tuple(v + (2 if i == 4 else 0) for i, v in enumerate(y0))
    assert sc.rho_prime(bumped) == 2
    assert _beta_prime(bumped) == 0


# ---------------------------------------------------------------------------
# validation and guards

def test_validation_errors():
    with pytest.raises(ValidationError):
        sc.rho0((0, 0, 1))
    with pytest.raises(ValidationError):
        sc.ensure_xseq((0, 0, 0))
    with pytest.raises(ValidationError):
        sc.ensure_yseq((0, 1, 1))  # needs gap 2
    with pytest.raises(ValidationError):
        sc.ensure_xseq((0, -1))
    with pytest.raises(ValidationError):
        sc.ensure_xtseq((1, 1, 2))
    with pytest.raises(ValidationError):
        sc.ensure_ytseq((0, 0, 2))


class _Int(int):
    """An int subclass, which the staged checks take for an int."""


def _staged(kind: str, seq) -> None:
    """ensure_<kind>seq as the checks ran before the one-pass loop: the
    entries, the step rule over the entry before, then the one over the
    entry two before, and the based rules, each naming its first fault."""
    if not isinstance(seq, tuple) or len(seq) == 0:
        raise ValidationError(f"sequence must be a nonempty tuple, got {seq!r}")
    for v in seq:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValidationError(f"entries must be nonnegative ints, got {seq!r}")
    if kind == "Z":
        for i in range(len(seq) - 1):
            if not seq[i] < seq[i + 1]:
                raise ValidationError(f"not strictly increasing at {i}: {seq!r}")
        return
    for i in range(len(seq) - 1):
        if not seq[i] <= seq[i + 1]:
            raise ValidationError(f"not nondecreasing at {i}: {seq!r}")
    for i in range(len(seq) - 2):
        if kind in ("X", "XT") and not seq[i] < seq[i + 2]:
            raise ValidationError(f"three equal entries at {i}: {seq!r}")
        if kind in ("Y", "YT") and not seq[i] <= seq[i + 2] - 2:
            raise ValidationError(f"two-step gap violated at {i}: {seq!r}")
    if kind in ("XT", "YT"):
        name = "XSeq" if kind == "XT" else "YSeq"
        m = len(seq) - 1
        if m % 2 != 0 or m < 2:
            raise ValidationError(
                f"based {name} needs even length index m >= 2, got m={m}")
        if kind == "XT" and (seq[0] != 0 or seq[1] < 1):
            raise ValidationError(f"based XSeq needs x0 = 0 and x1 >= 1: {seq!r}")
        if kind == "YT" and seq[1] < 1:
            raise ValidationError(f"based YSeq needs y1 >= 1: {seq!r}")


def _outcome(check, seq):
    """None when check accepts seq, else its exception's type and text."""
    try:
        check(seq)
    except Exception as exc:
        return type(exc), str(exc)
    return None


_ENSURE = {"Z": sc.ensure_zseq, "X": sc.ensure_xseq, "Y": sc.ensure_yseq,
           "E": sc.ensure_eseq, "XT": sc.ensure_xtseq, "YT": sc.ensure_ytseq}

_ENTRY = st.one_of(
    st.integers(min_value=-3, max_value=12), st.booleans(),
    st.floats(min_value=-3, max_value=12), st.builds(_Int, st.integers(-3, 12)),
    st.tuples(st.integers(0, 3)))
# a start and steps over the entry before, so that every space's valid
# members turn up, and near misses that start below 0
_STEPPED = st.builds(
    lambda start, steps: tuple(itertools.accumulate(steps, initial=start)),
    st.integers(min_value=-2, max_value=3),
    st.lists(st.integers(min_value=0, max_value=3), max_size=7))
_SEQUENCES = st.one_of(
    _STEPPED, _STEPPED.map(list), _STEPPED.map(lambda t: tuple(map(_Int, t))),
    st.lists(_ENTRY, max_size=8), st.lists(_ENTRY, max_size=8).map(tuple))


@given(_SEQUENCES)
@settings(max_examples=600, deadline=None)
@example(())
@example((0, True))
@example((_Int(0), _Int(2), _Int(4)))
@example((0, 0, 2, 2.0))
@example((-1, 0, 2, 3))
def test_validators_decide_and_name_faults_as_the_staged_checks(seq):
    for kind, check in _ENSURE.items():
        assert _outcome(check, seq) == _outcome(lambda s: _staged(kind, s), seq)


def test_one_pass_accepts_every_class_and_special_sequence(monkeypatch):
    # the sequences the one-pass loop leaves to the staged checks
    fallbacks = []
    one_pass = sc._one_pass

    def counted(seq, kind):
        accepted = one_pass(seq, kind)
        if not accepted:
            fallbacks.append((kind, seq))
        return accepted

    monkeypatch.setattr(sc, "_one_pass", counted)
    accepted = 0
    for family in "BCD":
        for n in range(13):
            for c in enumerate_classes(family, n):
                tau_fiber(family, c.y, n)
                accepted += 1
            for rep in special_reps(LABEL_FAMILY[family], n):
                zeta_inverse(LABEL_FAMILY[family], rep.xseq)
                accepted += 1
    assert fallbacks == [] and accepted == 6257
    # a sequence the loop rejects is counted
    with pytest.raises(ValidationError, match="two-step gap violated at 0"):
        sc.ensure_yseq((0, 1, 1))
    assert fallbacks == [("Y", (0, 1, 1))]


def test_statistics_equal_their_sums_against_the_bases():
    for m in range(11):
        for n in range(6):
            for x in sc.enumerate_space("X", m, n):
                assert sc.beta(x) == sc._weighted(x) - sc._weighted(sc.base_x(m))
            for y in sc.enumerate_space("Y", m, n):
                base = sc.base_y(m)
                assert sc.rho_prime(y) == sum(y) - sum(base) == n
            if m % 2 or m < 2:
                continue
            for y in sc.enumerate_space("YT", m, n):
                base = sc.base_yt(m)
                assert sc.tilde_rho_prime(y) == sum(y) - sum(base) == n


def test_seq_add_length_mismatch():
    with pytest.raises(DomainError):
        sc.seq_add((0, 1), (0, 1, 2))


def test_resource_guard():
    with pytest.raises(ResourceError):
        sc.enumerate_space("X", 65, 1)
    with pytest.raises(ResourceError):
        sc.enumerate_space("X", 4, 65)


def test_space_kind_aliases():
    # only the six canonical kinds are spaces: the old spellings X̃, Ỹ, X~,
    # Y~ and ℰ are refused like any other unknown kind
    for kind in ("X̃", "Ỹ", "X~", "Y~", "ℰ", "Q"):
        with pytest.raises(DomainError, match="unknown sequence kind"):
            sc.enumerate_space(kind, 2, 1)
    with pytest.raises(DomainError):
        sc.enumerate_space("XT", 3, 1)


# ---------------------------------------------------------------------------
# exhaustive small-scale invariants

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_frakS_parity(m):
    for x in _xseqs_upto(m, 5):
        assert len(sc.frakS(x)) % 2 == (m - 1) % 2


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_frakI_parity_and_counts(m):
    for y in _all_yseqs(m, 6):
        assert len(sc.frakI_odd(y)) % 2 == (m - 1) % 2
        assert len(sc.R(y)) + len(sc.R0(y)) == 2 * len(sc.frakI(y))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_frakS_empty_iff_paired(m):
    for x in _xseqs_upto(m, 5):
        paired = m % 2 == 1 and all(x[2 * i] == x[2 * i + 1] for i in range((m + 1) // 2))
        assert (sc.frakS(x) == frozenset()) == paired


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_frakI_empty_iff_paired(m):
    for y in _all_yseqs(m, 6):
        paired = m % 2 == 1 and all(y[2 * i] == y[2 * i + 1] for i in range((m + 1) // 2))
        assert (sc.frakI(y) == ()) == paired


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_interval_decomp_matches_direct_stats(m):
    for y in _all_yseqs(m, 6):
        blocks = _interval_decomp(y)
        assert tuple((lo, hi) for lo, hi, pair, _ in blocks
                     if not pair) == sc.frakI(y)
        assert sum(hi - lo + 1 for lo, hi, *_ in blocks) == m + 1
        for lo, hi, pair, base in blocks:
            if pair:
                assert y[lo] == y[hi] == base and hi == lo + 1
            else:
                assert list(y[lo: hi + 1]) == list(range(base,
                                                         base + hi - lo + 1))


def test_construct_one_S_equals_the_block_scan_construction():
    # every YSeq with m <= 10 and weight <= 12: the scan's runs are
    # frakI(y), its blocks are cut by jumps of at least two (so each equal
    # pair is flanked by them), and the construction over them is
    # construct_one_S's, which reads its runs off frakI(y)
    count = 0
    for m in range(11):
        for y in _all_yseqs(m, 12):
            blocks = _interval_decomp(y)
            assert tuple((lo, hi) for lo, hi, pair, _ in blocks
                         if not pair) == sc._frakI(y), y
            for (_, stop, *_), (start, *_) in zip(blocks, blocks[1:]):
                assert y[stop] <= y[start] - 2, y
            assert sc.construct_one_S(y) == _construct_from_blocks(y), y
            count += 1
    assert count == 5409


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_subadditivity_and_equality_characterization(m):
    for y in _all_yseqs(m, 4):
        bound = 2 * len(sc.frakI(y))
        for x, xp in _brute_splits(y):
            sx, sxp = sc.frakS(x), sc.frakS(xp)
            assert len(sx) + len(sxp) <= bound
            eq = len(sx) + len(sxp) == bound
            assert eq == (sx | sxp == sc.R(y) and sx & sxp == sc.R0(y))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_enumerate_S_matches_brute_force(m):
    for y in _all_yseqs(m, 4):
        fast = set(sc.enumerate_S(y))
        slow = {p for p in _brute_splits(y) if sc.member_S(y, *p)}
        assert fast == slow
        assert fast, f"matched splits empty for {y}"
        assert sc.construct_one_S(y) in fast
        plain = sc._split_pairs(y, False)
        assert plain == tuple(_brute_splits(y))
        # the bound x[0] = x[1] = 0, which pins the complement of a y
        # starting (0, 1) to a based XSeq (type C)
        based = sc._split_pairs(y, True)
        assert based == tuple((x, xp) for x, xp in plain if x[:2] == (0, 0))
        if y[:2] == (0, 1):
            assert based == tuple(
                (x, xp) for x, xp in plain if xp[0] == 0 and xp[1] >= 1
            )


@pytest.mark.parametrize("call, args, error", [
    (sc.enumerate_S, ((),), ValidationError),
    (sc.enumerate_S, ((0, 1.5),), ValidationError),
    (sc.enumerate_S, ((0, -1),), ValidationError),
    (sc.enumerate_S, ([0, 0, 2, 2],), ValidationError),
    (sc.enumerate_S, ((0, True),), ValidationError),
    (sc.enumerate_tilde_S, ((-1, 0),), ValidationError),
    (sc.enumerate_tilde_S, ([0, 0, 2, 2],), ValidationError),
    (sc.enumerate_tilde_S, ((),), ValidationError),
    (sc.enumerate_tilde_S, ((0,),), DomainError),
], ids=["empty", "float", "negative", "list", "bool", "based-negative", "based-list", "based-empty", "based-one-entry"])
def test_split_enumerators_refuse_what_they_cannot_split(call, args, error):
    with pytest.raises(error):
        call(*args)


def test_based_splits_refuse_a_y_that_does_not_start_0_1():
    # y = (0, 0, 2) is a YSeq of even length index whose y1 is 0: one check
    # of y0 = 0 and y1 = 1 refuses it, as it refuses y1 > 1
    for y in ((0, 0, 2), (0, 2, 2)):
        with pytest.raises(DomainError, match="y0 = 0 and y1 = 1"):
            sc.enumerate_tilde_S(y)
        with pytest.raises(DomainError, match="y0 = 0 and y1 = 1"):
            sc.member_tilde_S(y, (0, 0, 1), (0, y[1], 1))


def test_split_enumerators_take_every_bound_within_y():
    # the plain search bounds x by y, the based one by (0, 0, y2, y3, ...),
    # on any YSeq, not only on one starting (0, 1)
    y = (0, 2, 4, 6, 8)
    plain = sc._split_pairs(y, False)
    assert all(all(map(int.__le__, x, y)) for x, _ in plain)
    based = sc._split_pairs(y, True)
    assert 0 < len(based) < len(plain) and based == tuple(
        (x, xp) for x, xp in plain if x[:2] == (0, 0))
    assert sc._split_pairs((0, 1), True) == (((0, 0), (0, 1)),)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_S_members_frakS_structure(m):
    # no intervals at all: both parts flat; no odd interval: second part flat
    # (that is the defining tiebreak); some odd interval: both parts nonflat
    for y in _all_yseqs(m, 4):
        ivs = sc.frakI(y)
        odd = sc.frakI_odd(y)
        for x, xp in sc.enumerate_S(y):
            if not ivs:
                assert sc.frakS(x) == sc.frakS(xp) == frozenset()
            if not odd:
                assert sc.frakS(xp) == frozenset()
            else:
                assert sc.frakS(x) and sc.frakS(xp)


def test_membership_computes_frakI_once_per_call(monkeypatch):
    # each membership test validates y once and derives R, R0 and the odd
    # intervals from a single frakI(y)
    calls = {"ensure_yseq": 0, "_frakI": 0}

    def counted(name):
        inner = getattr(sc, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sc, name, counted(name))
    cases = [(sc.member_S, y, pair)
             for y in ((0, 2, 4), (0, 1, 2, 4), (1, 1, 3, 3))
             for pair in sc._split_pairs(y, False)]
    cases += [(sc.member_tilde_S, y, pair)
              for y in ((0, 1, 3), (0, 1, 3, 4, 6))
              for pair in sc._split_pairs(y, True)]
    for member, y, (x, xp) in cases:
        calls.update(ensure_yseq=0, _frakI=0)
        member(y, x, xp)
        assert calls["ensure_yseq"] == 1, (member.__name__, y, x, xp)
        assert calls["_frakI"] == 1, (member.__name__, y, x, xp)
    assert any(member(y, x, xp) for member, y, (x, xp) in cases)
    # the enumerators validate y once, not once per candidate split
    for enumerate_, y in ((sc.enumerate_S, (0, 2, 4, 6, 8, 10)),
                          (sc.enumerate_tilde_S, (0, 1, 3, 5, 7)),
                          (sc.symmetric_decompositions, (0, 2, 4, 6, 8, 10))):
        calls.update(ensure_yseq=0, _frakI=0)
        assert enumerate_(y)
        assert calls["ensure_yseq"] == 1, (enumerate_.__name__, y)
        assert calls["_frakI"] == 1, (enumerate_.__name__, y)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_enumerate_tilde_S_nonempty_and_structure(m):
    for n in range(5):
        for y in sc.enumerate_space("YT", m, n):
            if y[0] != 0 or y[1] != 1:
                continue
            members = sc.enumerate_tilde_S(y)
            assert members, f"based splits empty for {y}"
            ivs = sc.frakI(y)
            odd = sc.frakI_odd(y)
            for x, xp in members:
                assert sc.member_tilde_S(y, x, xp)
                if ivs == ((0, ivs[0][1]),):
                    assert sc.frakS(x) == frozenset({ivs[0][1]})
                    assert sc.frakS(xp) == frozenset({0})
                if any(iv[0] != 0 for iv in odd):
                    assert len(sc.frakS(xp)) >= 3


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_hat_decompose_roundtrip(m):
    for x in _xseqs_upto(m, 5):
        hat, e = sc.hat_decompose(x)
        assert sc.seq_add(hat, e) == x
        assert sc.frakS(hat) == sc.frakS(x)
        # skeleton depends only on frakS
        assert hat == sc.hat_decompose(hat)[0]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_symmetric_decompositions_iff_all_singletons(m):
    # vacuously true when frakI is empty: paired y always decomposes
    for y in _all_yseqs(m, 6):
        want = all(lo == hi for lo, hi in sc.frakI(y))
        assert bool(sc.symmetric_decompositions(y)) == want


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_symmetric_decompositions_match_their_definition(m):
    # every XSeq x with e = y - 2x nonnegative and nondecreasing, (x, x + e)
    # matched and frakS(x + e) = frakS(x); rho'(y) = 2 rho(x) + sum(e)
    # bounds rho(x) by half the weight
    xs = list(_xseqs_upto(m, 3))
    for y in _all_yseqs(m, 6):
        want = []
        for x in xs:
            e = tuple(v - 2 * u for u, v in zip(x, y))
            if min(e) < 0 or list(e) != sorted(e):
                continue
            xp = sc.seq_add(x, e)
            if sc.member_S(y, x, xp) and sc.frakS(xp) == sc.frakS(x):
                want.append((x, e))
        assert sc.symmetric_decompositions(y) == tuple(sorted(want)), y


def _symmetric_search(y):
    """The symmetric decompositions of a YSeq y by their own backtracking
    search over x, lexicographically in x: e[i] = y[i] - 2 x[i] at least
    e[i - 1] (and e[-1] = 0) bounds x[i] by (y[i] - e[i - 1]) // 2, and a
    complete x is kept when (x, x + e) is matched with equal frakS."""
    ivs = sc._frakI(y)
    m = len(y) - 1
    out = []
    xs = []

    def rec(i, prev_e):
        if i > m:
            x = tuple(xs)
            xp = tuple(map(operator.sub, y, x))
            if sc._matched(ivs, x, xp, False) and sc._frakS(xp) == sc._frakS(x):
                out.append((x, tuple(map(operator.sub, xp, x))))
            return
        lo = 0
        if i >= 1:
            lo = xs[i - 1]
        if i >= 2:
            lo = max(lo, xs[i - 2] + 1)
        for v in range(lo, (y[i] - prev_e) // 2 + 1):
            xs.append(v)
            rec(i + 1, y[i] - 2 * v)
            xs.pop()

    rec(0, 0)
    return tuple(out)


@pytest.mark.parametrize("family", ["B", "D"])
def test_symmetric_search_equals_the_split_filter_on_class_sequences(family):
    # every class of B2-12 and D2-12: symmetric_decompositions filters the
    # split pairs and verify the class's split table (from the rank floor
    # on), and both equal the search, x by x in the same order
    found = 0
    for n in range(2, 13):
        parts = (_Parts(family, n, _maximal_shapes(family, n))
                 if n >= RANK_FLOOR[family] else None)
        for c in enumerate_classes(family, n):
            want = _symmetric_search(c.y)
            assert sc.symmetric_decompositions(c.y) == want, c.y
            if parts is not None:
                got = _symmetric_splits(c.y, sc._frakI(c.y), parts.splits(c.y))
                assert [(zeta(record[1][0]), e) for record, e in got] \
                    == list(want), c.y
            found += len(want)
    assert found


def test_symmetric_search_equals_the_split_filter_on_small_yseqs():
    for m in range(9):
        for y in _all_yseqs(m, 8):
            assert sc.symmetric_decompositions(y) == _symmetric_search(y), y


_SPACE_RULES = {
    "Z": (sc.ensure_zseq, sc.rho0), "X": (sc.ensure_xseq, sc.rho),
    "Y": (sc.ensure_yseq, sc.rho_prime), "E": (sc.ensure_eseq, sum),
    "XT": (sc.ensure_xtseq, lambda x: sum(x) - sum(sc.base_xt(len(x) - 1))),
    "YT": (sc.ensure_ytseq, sc.tilde_rho_prime),
}


@functools.cache
def _brute_space(kind, m):
    """The sequences of the kind and length index m with statistic at most
    4, bucketed by the statistic, from one brute-force sweep: every space
    is nondecreasing, and an entry of a sequence with statistic n is at
    most its base's last entry + n, so below m + 5."""
    ensure, stat = _SPACE_RULES[kind]
    slow: dict[int, list] = {n: [] for n in range(5)}
    for cand in itertools.combinations_with_replacement(range(m + 5), m + 1):
        try:
            ensure(cand)
        except ValidationError:
            continue
        slow.setdefault(stat(cand), []).append(cand)
    return slow


def _small_spaces():
    """Every kind with every length index up to 6 (even from 2 for XT and
    YT)."""
    for kind in _SPACE_RULES:
        for m in (2, 4, 6) if kind in ("XT", "YT") else range(7):
            yield kind, m


def test_enumerate_space_lexicographic_and_complete():
    # every kind, m <= 6 and n <= 4 against the brute-force sweep
    for kind, m in _small_spaces():
        slow = _brute_space(kind, m)
        for n in range(5):
            out = sc.enumerate_space(kind, m, n)
            assert list(out) == sorted(set(out)) == slow[n], (kind, m, n)


@pytest.mark.parametrize("kind", [["X"], ("X",), None, 1, "W"],
                         ids=["list", "tuple", "None", "int", "str"])
def test_enumerate_space_refuses_an_unknown_kind_of_any_type(kind):
    with pytest.raises(DomainError, match="unknown sequence kind"):
        sc.enumerate_space(kind, 3, 2)


@pytest.mark.parametrize("kind, m, n", [("X", 22, 10), ("Z", 10, 10),
                                         ("Y", 9, 8), ("XT", 10, 6),
                                         ("YT", 10, 6), ("E", 8, 8)])
def test_enumerate_space_bounds_each_tail_once(monkeypatch, kind, m, n):
    # each entry of the call's tail table is computed once, the chained
    # steps included
    calls = []
    inner = sc._tail_dev

    def counted(kind, base, tails, i, val, prev1):
        calls.append((i, val, prev1))
        return inner(kind, base, tails, i, val, prev1)

    monkeypatch.setattr(sc, "_tail_dev", counted)
    assert sc.enumerate_space(kind, m, n) and calls
    assert len(set(calls)) == len(calls)


# kind -> (base, least step over the previous entry, least step over the
# entry before that, least value at position 1)
_GREEDY_RULES = {
    "Z": (sc.base_z, 1, 2, 0), "X": (sc.base_x, 0, 1, 0),
    "Y": (sc.base_y, 0, 2, 0), "XT": (sc.base_xt, 0, 1, 1),
    "YT": (sc.base_yt, 0, 2, 1), "E": (lambda m: (0,) * (m + 1), 0, 0, 0),
}


def _greedy_tail(kind, m, i, val, prev1):
    """Deviation of the least continuation of (..., prev1, val) at position
    i, walked entry by entry to position m."""
    base, step1, step2, low1 = _GREEDY_RULES[kind]
    base = base(m)
    a, b, total = prev1, val, 0
    for j in range(i + 1, m + 1):
        v = b + step1
        if a is not None:
            v = max(v, a + step2)
        if j == 1:
            v = max(v, low1)
        total += v - base[j]
        a, b = b, v
    return total


@pytest.mark.parametrize("kind", sorted(_GREEDY_RULES))
def test_enumerate_space_tail_entries_equal_a_greedy_walk(monkeypatch, kind):
    entries = []
    inner = sc._tail_dev

    def recorded(kind, base, tails, i, val, prev1):
        out = inner(kind, base, tails, i, val, prev1)
        entries.append((len(base) - 1, i, val, prev1, out))
        return out

    monkeypatch.setattr(sc, "_tail_dev", recorded)
    for m in (2, 4, 6) if kind in ("XT", "YT") else range(7):
        for n in range(6):
            sc.enumerate_space(kind, m, n)
    assert entries
    for m, i, val, prev1, out in entries:
        assert out == _greedy_tail(kind, m, i, val, prev1), (m, i, val, prev1)


def test_the_walk_over_a_window_equals_the_brute_force_sweep():
    # every kind at m <= 6, over windows of statistics with lo < hi: the
    # sequences of the sweep in lexicographic order, each with its
    # statistic, its entries weighted by m - i, the mask of the positions
    # with no equal neighbour (frakS, for an XSeq) and both forms
    for kind, m in _small_spaces():
        slow = _brute_space(kind, m)
        coefs = tuple(range(3, m + 4))
        ones = (1,) * (m + 1)
        for lo, hi in ((0, 4), (1, 3), (2, 4), (3, 4)):
            walked = list(sc._walk(kind, m, lo, hi, (7, coefs), (0, ones)))
            assert [(x, n) for x, n, *_ in walked] == sorted(
                (x, n) for n in range(lo, hi + 1) for x in slow[n]), (kind, m)
            for x, _, w, mask, first, second in walked:
                assert w == sum((m - i) * v for i, v in enumerate(x))
                assert mask == sum(1 << i for i in range(m + 1)
                                   if (i == 0 or x[i - 1] < x[i])
                                   and (i == m or x[i] < x[i + 1]))
                assert first == 7 + sum(map(operator.mul, coefs, x))
                assert second == sum(x)


def test_the_x_walk_at_one_rank_is_the_x_space_with_its_sums():
    # every length index of a merged sequence up to rank 10 (2n + 1 for D,
    # 2n + 2 for BC) and every rank up to 10: XSeqs of the rank, strictly
    # increasing, with the kernels' sums
    for m in range(2 * 10 + 3):
        coefs = tuple(range(3, m + 4))
        ones = (1,) * (m + 1)
        for n in range(11):
            walked = list(sc._walk("X", m, n, n, (7, coefs), (0, ones)))
            xs = [x for x, *_ in walked]
            assert xs == sorted(set(xs)) and xs
            for x, rank, w, mask, first, second in walked:
                assert rank == sc.rho(x) == n
                assert w == sc._weighted(x)
                # bit i of the mask set exactly when i is in frakS(x)
                assert mask == sum(1 << i for i in sc._frakS(x))
                assert mask.bit_count() == sc._strict_count(x)
                assert first == 7 + sum(map(operator.mul, coefs, x))
                assert second == sum(x)


@pytest.mark.parametrize("m", [0, 1, 2, 7, 21, 22])
def test_the_x_walk_over_a_window_merges_its_ranks_lexicographically(m):
    # the window's walk is its one-rank walks merged, where a sequence's
    # statistic decides alone which ranks it lies in
    zero = (0, (0,) * (m + 1))
    for lo, hi in ((0, 0), (0, 10), (3, 7), (9, 10)):
        walked = [(x, rank) for x, rank, *_ in sc._walk("X", m, lo, hi, zero,
                                                        zero)]
        assert walked == sorted((x, n) for n in range(lo, hi + 1)
                                for x, *_ in sc._walk("X", m, n, n, zero,
                                                      zero))


# ---------------------------------------------------------------------------
# additivity properties

@st.composite
def _xseq_pair(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    seqs = []
    for _ in range(2):
        steps = draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m)
        )
        x = [draw(st.integers(min_value=0, max_value=3))]
        for i, s in enumerate(steps):
            lo = x[-1] if len(x) < 2 else max(x[-1], x[-2] + 1)
            x.append(max(lo, x[-1] + s))
        seqs.append(tuple(x))
    return seqs[0], seqs[1]


@given(_xseq_pair())
@settings(max_examples=200, deadline=None)
def test_additivity_properties(pair):
    x, xp = pair
    sc.ensure_xseq(x)
    sc.ensure_xseq(xp)
    y = sc.seq_add(x, xp)
    sc.ensure_yseq(y)
    assert sc.rho_prime(y) == sc.rho(x) + sc.rho(xp)
    assert _beta_prime(y) == sc.beta(x) + sc.beta(xp)


@given(st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=200, deadline=None)
def test_kernels_match_their_validating_statistics(m, n, data):
    z = data.draw(st.sampled_from(sc.enumerate_space("Z", m, n)))
    assert sc._rho0(z) == sc.rho0(z) == n
    assert sc._beta0(z) == _weighted_against(z, sc.base_z(m))
    x = data.draw(st.sampled_from(sc.enumerate_space("X", m, n)))
    assert sc._rho(x) == sc.rho(x) == n
    assert sc._frakS(x) == sc.frakS(x)
    # based XSeqs need an even length index m >= 2
    xt = data.draw(st.sampled_from(sc.enumerate_space("XT", 2 + m - m % 2, n)))
    assert sum(xt) - sum(sc.base_xt(len(xt) - 1)) == n
    assert sc._rho(tuple(v - 1 for v in xt[1:])) == n


@given(st.integers(min_value=0, max_value=16), st.data())
@settings(max_examples=200, deadline=None)
def test_deviation_sums_equal_their_per_entry_definitions(m, data):
    entries = st.lists(st.integers(min_value=0, max_value=60), min_size=m + 1,
                       max_size=m + 1).map(tuple)
    seq, base = data.draw(entries), data.draw(entries)
    assert sc._weighted(seq) == sum((m - i) * v for i, v in enumerate(seq))
    assert sc._beta0(seq) == sum((m - i) * (v - i) for i, v in enumerate(seq))
    assert sc.seq_sub(seq, base) == tuple(v - b for v, b in zip(seq, base))
    assert sc.seq_add(seq, base) == tuple(v + b for v, b in zip(seq, base))


def test_paired_bases_equal_their_per_entry_definitions():
    for m in range(sc.SIZE_CAP + 1):
        assert sc.base_x(m) == tuple(i // 2 for i in range(m + 1))
        assert sc.base_y(m) == tuple(2 * (i // 2) for i in range(m + 1))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_tilde_additivity(m):
    for a in range(3):
        for x in sc.enumerate_space("X", m, a):
            for b in range(3):
                for xt in sc.enumerate_space("XT", m, b):
                    y = sc.seq_add(x, xt)
                    sc.ensure_ytseq(y)
                    assert sc.tilde_rho_prime(y) == sc.rho(x) + b
                    assert _tilde_beta_prime(y) == sc.beta(x) + _tilde_beta(xt)


def test_base_identities():
    for m in [2, 4, 6, 8]:
        assert sc.seq_add(sc.base_x(m), sc.base_x(m)) == sc.base_y(m)
        assert sc.seq_add(sc.base_x(m), sc.base_xt(m)) == sc.base_yt(m)
    for m in [1, 3, 5]:
        assert sc.seq_add(sc.base_x(m), sc.base_x(m)) == sc.base_y(m)


# ---------------------------------------------------------------------------
# the split search's forced-prefix entry and the counting kernels

def _plain_walk(y, highs, width):
    """The split search walked from position 0, with x[i] <= highs[i]: the
    first parts packed as _split_firsts packs them, lexicographically.  It
    takes every forced entry one at a time, so it is the reference for the
    search that enters past the forced prefix."""
    m = len(y) - 1
    up1 = [highs[0] + 1] + [y[i] - y[i - 1] for i in range(1, m + 1)]
    up2 = [h + 1 for h in highs[:2]] + [y[i] - y[i - 2] - 1
                                       for i in range(2, m + 1)]
    out = []

    def rec(i, acc, p2, p1):
        while True:
            lo = p1 if p1 > p2 else p2 + 1
            hi = min(highs[i], p1 + up1[i], p2 + up2[i])
            shift = i * width
            if i == m:
                if lo <= hi:
                    out.extend(range(acc + (lo << shift),
                                     acc + (hi << shift) + 1, 1 << shift))
                return
            if lo != hi:
                break
            acc += lo << shift
            p2, p1 = p1, lo
            i += 1
        for v in range(lo, hi + 1):
            rec(i + 1, acc + (v << shift), p1, v)

    rec(0, 0, -1, -1)
    return out


def _forced_prefix(y, base):
    """The length of the prefix on which y equals the base."""
    return next((i for i, (a, b) in enumerate(zip(y, base)) if a != b),
                len(y))


def _walk_pairs(y, based):
    """The pairs of the plain walk, unpacked: the reference for
    split_pairs, and for based_split_pairs when based."""
    fields, width = sc._key_fields(len(y), max(y) + len(y))
    highs = (0, 0, *y[2:]) if based else y
    return tuple((sc._unpack(fields, first),
                  tuple(map(int.__sub__, y, sc._unpack(fields, first))))
                 for first in _plain_walk(y, highs, width))


def test_split_enumerators_equal_the_plain_walk_on_small_yseqs():
    prefixes = {False: set(), True: set()}
    for m in range(7):
        for y in _all_yseqs(m, 6):
            assert sc._split_pairs(y, False) == _walk_pairs(y, False), y
            prefixes[False].add(_forced_prefix(y, sc.base_y(m)))
            if m >= 1:
                assert sc._split_pairs(y, True) == _walk_pairs(y, True), y
                prefixes[True].add(_forced_prefix(y, sc.base_z(m)))
    # the search entered at positions 0, 1 and 2, past the last entry too
    # (y = base_y), on one to three entries among others
    assert {0, 1, 2, 7} <= prefixes[False]
    assert {0, 1, 2, 7} <= prefixes[True]
    assert sc._split_pairs((0,), False) == (((0,), (0,)),)
    assert sc._split_pairs((3,), False) == tuple(((v,), (3 - v,))
                                                 for v in range(4))
    assert sc._split_pairs((0, 1, 2), True) == (((0, 0, 1), (0, 1, 1)),)


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_split_entry_equals_the_plain_walk_on_every_class(family):
    classes = 0
    for n in range(RANK_FLOOR[family], 13):
        fields, width = _split_fields(family, n)
        m = class_policy_m(family, n)
        space = sc._split_space(fields, width, m, family == "C")
        for c in enumerate_classes(family, n):
            highs = (0, 0, *c.y[2:]) if family == "C" else c.y
            got = sc._split_firsts(c.y, sc._pack(fields, c.y), space)
            assert got == _plain_walk(c.y, highs, width), c.y
            classes += 1
    assert classes > 500


@pytest.mark.parametrize("y", [(2 ** 22, 0), (2 ** 40, 0), (1, 0, 0),
                               (0, 1, 1), (5, 5, 5)])
def test_a_y_that_is_not_a_yseq_has_no_split_and_no_search(monkeypatch, y):
    # two XSeqs always add up to a YSeq: every split enumerator refuses any
    # other y before it searches
    def unused(*args):
        raise AssertionError("searched a y that has no split")

    monkeypatch.setattr(sc, "_split_firsts", unused)
    for enumerate_ in (sc.enumerate_S, sc.enumerate_tilde_S,
                       sc.symmetric_decompositions):
        with pytest.raises(ValidationError):
            enumerate_(y)


@pytest.mark.parametrize("y", [(0, 0, 2 ** 70, 2 ** 70), (0, 0, 2 ** 20, 2 ** 20),
                               (0, 65), sc.base_y(65), sc.base_z(66)])
def test_a_yseq_past_the_size_cap_is_refused_before_any_search(monkeypatch, y):
    def unused(*args):
        raise AssertionError("searched a y past the size cap")

    monkeypatch.setattr(sc, "_split_firsts", unused)
    for enumerate_ in (sc.enumerate_S, sc.symmetric_decompositions):
        with pytest.raises(ResourceError, match="capped"):
            enumerate_(y)
    if y[:2] == (0, 1) and len(y) % 2:
        with pytest.raises(ResourceError, match="capped"):
            sc.enumerate_tilde_S(y)


def test_the_split_cap_admits_the_yseqs_at_the_cap():
    # m = SIZE_CAP and rho' = SIZE_CAP are still searched: base_y splits
    # only as base_x + base_x
    assert sc.enumerate_S(sc.base_y(sc.SIZE_CAP)) == (
        (sc.base_x(sc.SIZE_CAP), sc.base_x(sc.SIZE_CAP)),)
    # x = (0, v) for every v with 0 < v < y[1]: both parts strict
    y = (0, sc.SIZE_CAP)
    assert len(sc.enumerate_S(y)) == sc.SIZE_CAP - 1


def test_the_strict_count_equals_the_size_of_frakS():
    for m in range(9):
        for x in _xseqs_upto(m, 7):
            assert sc._strict_count(x) == len(sc._frakS(x)), x


def _frakI_by_entries(y):
    """frakI(y) by its definition over d[i] = y[i] - i: the maximal
    constant runs of d with a strict increase at both ends."""
    m = len(y) - 1
    d = [v - i for i, v in enumerate(y)]
    out = []
    i = 0
    while i <= m:
        j = i
        while j < m and d[j + 1] == d[j]:
            j += 1
        if (i == 0 or d[i - 1] < d[i]) and (j == m or d[j] < d[j + 1]):
            out.append((i, j))
        i = j + 1
    return tuple(out)


def test_frakI_over_steps_equals_its_per_entry_definition():
    for m in range(9):
        for y in _all_yseqs(m, 7):
            assert sc._frakI(y) == _frakI_by_entries(y), y
    for family in "BCD":
        for n in range(2, 9):
            for c in enumerate_classes(family, n):
                assert sc._frakI(c.y) == _frakI_by_entries(c.y), c.y


def test_closed_form_base_sums_equal_the_weighted_bases():
    for m in range(2 * sc.SIZE_CAP + 3):
        assert sc._weighted_x(m) == sc._weighted(sc.base_x(m))
        assert 2 * sc._weighted_x(m) == sc._weighted(sc.base_y(m))
        assert sc._weighted_z(m) == sc._weighted(sc.base_z(m))
        if m % 2 == 0:
            assert sc._weighted_z(m) == sc._weighted(sc.base_yt(m))


def test_the_recursive_searches_leave_no_reference_cycle():
    # the split search's nested recursive function holds itself through its
    # closure cell until the search empties it: with the collector off,
    # enumerate_space's walk, the split search and the symmetric filter of
    # the split pairs leave it nothing to find
    parts = _Parts("C", 10, _maximal_shapes("C", 10))
    gc.collect()
    gc.disable()
    try:
        classes = enumerate_classes("C", 10)
        assert len(classes) == 232
        assert gc.collect() == 0
        for c in classes:
            parts.splits(c.y)
        assert gc.collect() == 0
        for c in enumerate_classes("B", 8):
            sc.symmetric_decompositions(c.y)
        assert gc.collect() == 0
    finally:
        gc.enable()
