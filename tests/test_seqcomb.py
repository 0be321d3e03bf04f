"""Definitional and property tests for the sequence-combinatorics layer."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsymbols import seqcomb as sc
from weylsymbols.errors import DomainError, InvariantError, ResourceError, ValidationError


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


# ---------------------------------------------------------------------------
# frozen examples

def test_rho0_beta0_examples():
    assert sc.rho0((0, 1, 2, 3)) == 0 and sc.beta0((0, 1, 2, 3)) == 0
    assert sc.rho0((0, 1, 3, 4)) == 2 and sc.beta0((0, 1, 3, 4)) == 1
    assert sc.rho0((0, 2, 3)) == 2 and sc.beta0((0, 2, 3)) == 1


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
    d = sc.interval_decomp((0, 0))
    assert [(b.start, b.stop, b.kind, b.base) for b in d.blocks] == [
        (0, 1, sc.KIND_SINGLE_PAIR, 0)
    ]
    d = sc.interval_decomp((0, 1, 2))
    assert [(b.start, b.stop, b.kind, b.base) for b in d.blocks] == [
        (0, 2, sc.KIND_ARITHMETIC, 0)
    ]
    d = sc.interval_decomp((0, 0, 2, 2))
    assert [(b.start, b.stop, b.kind, b.base) for b in d.blocks] == [
        (0, 1, sc.KIND_SINGLE_PAIR, 0),
        (2, 3, sc.KIND_SINGLE_PAIR, 2),
    ]


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
    assert sc.beta_prime(bumped) == 0


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


def test_seq_add_length_mismatch():
    with pytest.raises(DomainError):
        sc.seq_add((0, 1), (0, 1, 2))


def test_resource_guard():
    with pytest.raises(ResourceError):
        sc.enumerate_space("X", 65, 1)
    with pytest.raises(ResourceError):
        sc.enumerate_space("X", 4, 65)


def test_space_kind_aliases():
    assert sc.enumerate_space("X̃", 2, 1) == sc.enumerate_space("XT", 2, 1)
    assert sc.enumerate_space("ℰ", 3, 2) == sc.enumerate_space("E", 3, 2)
    with pytest.raises(DomainError):
        sc.enumerate_space("XT", 3, 1)
    with pytest.raises(DomainError):
        sc.enumerate_space("Q", 3, 1)


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
        d = sc.interval_decomp(y)
        assert d.arithmetic_intervals() == sc.frakI(y)
        sizes = [b.size for b in d.blocks]
        assert sum(sizes) == m + 1
        for b in d.blocks:
            if b.kind == sc.KIND_SINGLE_PAIR:
                assert y[b.start] == y[b.stop] == b.base and b.size == 2
            else:
                assert list(y[b.start: b.stop + 1]) == list(
                    range(b.base, b.base + b.size)
                )


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
        plain = sc.split_pairs(y)
        assert plain == tuple(_brute_splits(y))
        # the bound x[0] = x[1] = 0, which pins the complement of a y
        # starting (0, 1) to a based XSeq (type C)
        based = sc.based_split_pairs(y)
        assert based == tuple((x, xp) for x, xp in plain if x[:2] == (0, 0))
        if y[:2] == (0, 1):
            assert based == tuple(
                (x, xp) for x, xp in plain if xp[0] == 0 and xp[1] >= 1
            )


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
             for pair in sc.split_pairs(y)]
    cases += [(sc.member_tilde_S, y, pair)
              for y in ((0, 1, 3), (0, 1, 3, 4, 6))
              for pair in sc.split_pairs(y, upper=(0, 0) + y[2:])]
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


_SPACE_RULES = {
    "Z": (sc.ensure_zseq, sc.rho0), "X": (sc.ensure_xseq, sc.rho),
    "Y": (sc.ensure_yseq, sc.rho_prime), "E": (sc.ensure_eseq, sc.eseq_sum),
    "XT": (sc.ensure_xtseq, sc.tilde_rho),
    "YT": (sc.ensure_ytseq, sc.tilde_rho_prime),
}


def test_enumerate_space_lexicographic_and_complete():
    # every kind, m <= 6 and n <= 4 (XT and YT at even m >= 2) against one
    # brute-force sweep per (kind, m), bucketed by the statistic: every
    # space is nondecreasing, and an entry of a sequence with statistic n is
    # at most its base's last entry + n, so below m + 5
    for kind, (ensure, stat) in _SPACE_RULES.items():
        for m in (2, 4, 6) if kind in ("XT", "YT") else range(7):
            slow: dict[int, list] = {n: [] for n in range(5)}
            for cand in itertools.combinations_with_replacement(range(m + 5),
                                                                m + 1):
                try:
                    ensure(cand)
                except ValidationError:
                    continue
                slow.setdefault(stat(cand), []).append(cand)
            for n in range(5):
                out = sc.enumerate_space(kind, m, n)
                assert list(out) == sorted(set(out)) == slow[n], (kind, m, n)


@pytest.mark.parametrize("kind, m, n", [("X", 22, 10), ("Z", 10, 10),
                                         ("Y", 9, 8), ("XT", 10, 6),
                                         ("YT", 10, 6), ("E", 8, 8)])
def test_enumerate_space_bounds_each_tail_once(monkeypatch, kind, m, n):
    calls = []
    inner = sc._tail_min_dev

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sc, "_tail_min_dev", counted)
    assert sc.enumerate_space(kind, m, n) and calls
    assert len(set(calls)) == len(calls)


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
    assert sc.beta_prime(y) == sc.beta(x) + sc.beta(xp)


@given(st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=200, deadline=None)
def test_kernels_match_their_validating_statistics(m, n, data):
    z = data.draw(st.sampled_from(sc.enumerate_space("Z", m, n)))
    assert sc._rho0(z) == sc.rho0(z) == n
    assert sc._beta0(z) == sc.beta0(z)
    x = data.draw(st.sampled_from(sc.enumerate_space("X", m, n)))
    assert sc._rho(x) == sc.rho(x) == n
    assert sc._frakS(x) == sc.frakS(x)
    # based XSeqs need an even length index m >= 2
    xt = data.draw(st.sampled_from(sc.enumerate_space("XT", 2 + m - m % 2, n)))
    assert sc._tilde_rho(xt) == sc.tilde_rho(xt) == n


@pytest.mark.parametrize("m", [2, 4, 6])
def test_tilde_additivity(m):
    for a in range(3):
        for x in sc.enumerate_space("X", m, a):
            for b in range(3):
                for xt in sc.enumerate_space("XT", m, b):
                    y = sc.seq_add(x, xt)
                    sc.ensure_ytseq(y)
                    assert sc.tilde_rho_prime(y) == sc.rho(x) + sc.tilde_rho(xt)
                    assert sc.tilde_beta_prime(y) == sc.beta(x) + sc.tilde_beta(xt)


def test_base_identities():
    for m in [2, 4, 6, 8]:
        assert sc.seq_add(sc.base_x(m), sc.base_x(m)) == sc.base_y(m)
        assert sc.seq_add(sc.base_x(m), sc.base_xt(m)) == sc.base_yt(m)
    for m in [1, 3, 5]:
        assert sc.seq_add(sc.base_x(m), sc.base_x(m)) == sc.base_y(m)
