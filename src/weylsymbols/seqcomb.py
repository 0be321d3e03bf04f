"""Integer-sequence combinatorics underlying the symbol calculus.

Five families of finite integer sequences are used throughout the package,
all stored as plain tuples of nonnegative ints of length m+1:

* ZSeq: strictly increasing.
* XSeq: nondecreasing with x[i] < x[i+2] (at most two equal in a row).
* YSeq: nondecreasing with x[i] <= x[i+2] - 2.
* ESeq: nondecreasing.
* subtypes XTSeq (an XSeq with x[0] = 0, x[1] >= 1, m even) and
  YTSeq (a YSeq with y[1] >= 1, m even).

The statistics frakS (positions that are strictly larger than the left
neighbour and strictly smaller than the right one) and frakI (maximal
constant runs of y[i] - i with a strict jump at both ends) drive everything:
parities, the blocks of a YSeq (the runs of frakI and the equal pairs
between them, which construct_one_S splits), the matched-split sets S(y)
and tilde-S(y), the symmetric decompositions y = x + e + x, and the
skeleton/remainder decomposition of an XSeq.  Each space's rule is one
row of the table _SPACES (its base, the least steps over the previous two
entries, the least value at position 1), and one iterative walk, _walk,
enumerates every space from it over a window of statistics, streamed in
lexicographic order with running sums (the weighted sum, the frakS mask
and two linear forms): enumerate_space reads its sequences at one
statistic, and the special pools and verify's record table read the XSeqs
with their sums.  One backtracking search, _split_firsts, enumerates the
splits of y into two XSeqs, each as its first part packed into one int
(one field per entry, _key_fields sizing them).  It enters past the prefix
on which y equals the base of its space, where x is forced to base_x,
found by one compare of the packed y with the packed base (_split_space).
One kernel, _split_pairs, unpacks its pairs, which enumerate_S,
enumerate_tilde_S and symmetric_decompositions filter; all three refuse a
y that is not a YSeq, and a YSeq past enumerate_space's size cap before
any search.  The split search empties its nested function's closure cell
once it returns, so a call leaves no reference cycle for the collector.
Deviation statistics (rho/beta families) measure each sequence against the
minimal member of its space and are additive under entrywise addition.

All functions are pure; sequences in and out are tuples, sets of indices are
frozensets, and interval sets are tuples of (lo, hi) pairs sorted by lo.

Validation happens at the boundary: every public statistic checks its
argument with the matching ensure_* and then calls its private kernel
(_rho0, _rho, _rho_prime, _frakS, _frakI), which assumes a valid
sequence.  An ensure_* accepts in one pass (_one_pass): a single loop
checks that the sequence is a tuple of exact nonnegative ints that keeps
both step rules of its space, the least steps _SPACES holds.
When that loop rejects, or meets a bool, an int subclass or a value that
is not a tuple, the staged checks run (the entries, then each step rule
in turn), which name the fault, or accept an int subclass.  No statistic
builds its space's base: it sums or weighs against it in closed form.
_strict_count is len(_frakS(x)) without the set, and _weighted_x and
_weighted_z are the weighted sums of the bases in closed form.
The other modules of the package call a kernel only on tuples the library
built itself (split enumerators, enumerated spaces, rows of a validated
label), never on input that arrived from outside.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from operator import add, itemgetter, le, sub
from typing import Callable, Iterable, Iterator

from .errors import DomainError, InvariantError, ResourceError, ValidationError

Seq = tuple[int, ...]
Interval = tuple[int, int]

SIZE_CAP = 64

# ---------------------------------------------------------------------------
# validation

def is_nat(v: object) -> bool:
    """True for a nonnegative int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def ensure_rank(n: object) -> None:
    """Reject a rank that is not a nonnegative int: a negative int lies
    outside the domain (DomainError); anything else, a bool or a float
    included, is malformed (ValidationError, as ClassLabel raises)."""
    if is_nat(n):
        return
    if isinstance(n, int) and not isinstance(n, bool):
        raise DomainError(f"rank must be nonnegative, got {n}")
    raise ValidationError(f"rank must be a nonnegative int, got {n!r}")


def _ensure_int(name: str, v: object) -> None:
    """Reject a value that is not an int, a bool included (ValidationError)."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{name} must be an int, got {v!r}")


def _ensure_nat(name: str, v: object) -> None:
    """Reject a value that is not an int (ValidationError) or is negative
    (DomainError)."""
    _ensure_int(name, v)
    if v < 0:
        raise DomainError(f"{name} must be nonnegative, got {v}")


def _one_pass(seq: object, kind: str) -> bool:
    """True when seq is a nonempty tuple of exact nonnegative ints obeying
    the step rules of the space kind (at least step1 over the entry before,
    step2 over the one before that; see _SPACES), in one loop.  False
    leaves it to the staged checks, which name the fault, or accept an int
    subclass."""
    if type(seq) is not tuple or not seq:
        return False
    _, step1, step2, _ = _SPACES[kind]
    entries = iter(seq)
    p1 = next(entries)
    if type(p1) is not int or p1 < 0:
        return False
    # position 1 has no entry two before it
    p2 = -step2
    for v in entries:
        if type(v) is not int or v < p1 + step1 or v < p2 + step2:
            return False
        p2 = p1
        p1 = v
    return True


def _ensure_entries(seq: Seq) -> None:
    if not isinstance(seq, tuple) or len(seq) == 0:
        raise ValidationError(f"sequence must be a nonempty tuple, got {seq!r}")
    for v in seq:
        # inline, not is_nat: this loop runs on every validated entry
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValidationError(f"entries must be nonnegative ints, got {seq!r}")


def ensure_zseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is strictly increasing."""
    if _one_pass(seq, "Z"):
        return
    _ensure_entries(seq)
    for i in range(len(seq) - 1):
        if not seq[i] < seq[i + 1]:
            raise ValidationError(f"not strictly increasing at {i}: {seq!r}")


def ensure_xseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is nondecreasing with seq[i] < seq[i+2]."""
    if _one_pass(seq, "X"):
        return
    ensure_eseq(seq)
    for i in range(len(seq) - 2):
        if not seq[i] < seq[i + 2]:
            raise ValidationError(f"three equal entries at {i}: {seq!r}")


def ensure_yseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is nondecreasing with seq[i] <= seq[i+2]-2."""
    if _one_pass(seq, "Y"):
        return
    ensure_eseq(seq)
    for i in range(len(seq) - 2):
        if not seq[i] <= seq[i + 2] - 2:
            raise ValidationError(f"two-step gap violated at {i}: {seq!r}")


def ensure_eseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is nondecreasing."""
    if _one_pass(seq, "E"):
        return
    _ensure_entries(seq)
    for i in range(len(seq) - 1):
        if not seq[i] <= seq[i + 1]:
            raise ValidationError(f"not nondecreasing at {i}: {seq!r}")


def ensure_xtseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is a based XSeq (x0 = 0, x1 >= 1, m even)."""
    ensure_xseq(seq)
    m = len(seq) - 1
    if m % 2 != 0 or m < 2:
        raise ValidationError(f"based XSeq needs even length index m >= 2, got m={m}")
    if seq[0] != 0 or seq[1] < 1:
        raise ValidationError(f"based XSeq needs x0 = 0 and x1 >= 1: {seq!r}")


def ensure_ytseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is a based YSeq (y1 >= 1, m even)."""
    ensure_yseq(seq)
    m = len(seq) - 1
    if m % 2 != 0 or m < 2:
        raise ValidationError(f"based YSeq needs even length index m >= 2, got m={m}")
    if seq[1] < 1:
        raise ValidationError(f"based YSeq needs y1 >= 1: {seq!r}")


def seq_add(a: Seq, b: Seq) -> Seq:
    """Entrywise sum; mismatched lengths are a domain error."""
    if len(a) != len(b):
        raise DomainError(f"cannot add sequences of lengths {len(a)} and {len(b)}")
    return tuple(map(add, a, b))


def seq_sub(a: Seq, b: Seq) -> Seq:
    """Entrywise difference; mismatched lengths are a domain error."""
    if len(a) != len(b):
        raise DomainError(f"cannot subtract sequences of lengths {len(a)} and {len(b)}")
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# sequences packed into one int, one fixed-width field per entry

def _key_fields(count: int, bound: int) -> tuple[str, int]:
    """The struct format of count little-endian unsigned fields, each the
    narrowest of 8, 16, 32 and 64 bits that holds every int in [0, bound]
    (64 bits hold any entry of a sequence that fits in memory), and that
    width in bits."""
    bits = bound.bit_length()
    code = (bits > 8) + (bits > 16) + (bits > 32)
    return f"<{count}{'BHIQ'[code]}", 8 << code


def _pack(fields: str, entries: Iterable[int]) -> int:
    """entries as one int, laid out in the fields of the struct format."""
    return int.from_bytes(struct.pack(fields, *entries), "little")


def _unpack(fields: str, packed: int) -> Seq:
    """The entries that _pack laid out in the fields as packed."""
    return struct.unpack(fields, packed.to_bytes(struct.calcsize(fields),
                                                 "little"))


# ---------------------------------------------------------------------------
# base sequences (the minimal member of each space)

def base_z(m: int) -> Seq:
    """(0, 1, ..., m)."""
    return tuple(range(m + 1))


def _paired(m: int, step: int) -> Seq:
    """(0, 0, step, step, 2 step, ...) of length m + 1."""
    out = [0] * (m + 1)
    out[0::2] = range(0, step * (m // 2 + 1), step)
    out[1::2] = range(0, step * ((m + 1) // 2), step)
    return tuple(out)


def base_x(m: int) -> Seq:
    """(0,0,1,1,...): the unique XSeq with deviation statistic 0."""
    return _paired(m, 1)


def base_y(m: int) -> Seq:
    """(0,0,2,2,...): equals 2 * base_x entrywise."""
    return _paired(m, 2)


def base_xt(m: int) -> Seq:
    """(0,1,1,2,2,...): the minimal based XSeq (m even)."""
    if m % 2 != 0:
        raise DomainError(f"based XSeq base needs m even, got {m}")
    return tuple((i + 1) // 2 for i in range(m + 1))


def base_yt(m: int) -> Seq:
    """(0,1,2,...,m): the minimal based YSeq (m even); base_x + base_xt."""
    if m % 2 != 0:
        raise DomainError(f"based YSeq base needs m even, got {m}")
    return tuple(range(m + 1))


# ---------------------------------------------------------------------------
# deviation statistics

def _rho0(z: Seq) -> int:
    # sum of z minus sum of (0, 1, ..., m)
    return sum(z) - len(z) * (len(z) - 1) // 2


def rho0(z: Seq) -> int:
    """Sum of deviations of a ZSeq from (0,1,...,m)."""
    ensure_zseq(z)
    return _rho0(z)


def _beta0(z: Seq) -> int:
    # weighed against (0, 1, ..., m)
    return _weighted(z) - _weighted_z(len(z) - 1)


def _weighted(seq: Seq) -> int:
    # sum of (m - i) * seq[i]: each entry counted once in every prefix sum
    # from its own on, less once
    return sum(accumulate(seq)) - sum(seq)


def _weighted_z(m: int) -> int:
    """_weighted(base_z(m)), which base_yt(m) shares, in closed form."""
    return (m - 1) * m * (m + 1) // 6


def _weighted_x(m: int) -> int:
    """_weighted(base_x(m)) in closed form: the prefix sums of base_x are
    floor(j^2 / 4), and these add up to this over j < m; base_y(m) weighs
    twice as much."""
    return (m - 1) * (m + 1) * (2 * m - 3) // 24


def _rho(x: Seq) -> int:
    # summed against base_x(m), whose entries sum to ceil(m/2) * floor(m/2)
    m = len(x) - 1
    return sum(x) - ((m + 1) // 2) * (m // 2)


def rho(x: Seq) -> int:
    ensure_xseq(x)
    return _rho(x)


def beta(x: Seq) -> int:
    ensure_xseq(x)
    return _weighted(x) - _weighted_x(len(x) - 1)


def _rho_prime(y: Seq) -> int:
    # summed against base_y(m), whose entries sum to 2 ceil(m/2) floor(m/2)
    m = len(y) - 1
    return sum(y) - 2 * ((m + 1) // 2) * (m // 2)


def rho_prime(y: Seq) -> int:
    ensure_yseq(y)
    return _rho_prime(y)


def tilde_rho_prime(y: Seq) -> int:
    ensure_ytseq(y)
    # summed against base_yt(m) = (0, 1, ..., m)
    m = len(y) - 1
    return sum(y) - m * (m + 1) // 2


# ---------------------------------------------------------------------------
# frakS / frakI statistics

def _frakS(x: Seq) -> frozenset[int]:
    m = len(x) - 1
    return frozenset(
        i for i in range(m + 1)
        if (i == 0 or x[i - 1] < x[i]) and (i == m or x[i] < x[i + 1])
    )


def _strict_count(x: Seq) -> int:
    # len(_frakS(x)) of an XSeq x: an equal neighbour pair x[i] = x[i + 1]
    # takes both its positions out of frakS, no two such pairs share a
    # position, and x has len(x) - len(set(x)) of them
    return 2 * len(set(x)) - len(x)


def frakS(x: Seq) -> frozenset[int]:
    """Positions strictly above the left neighbour and below the right one.

    Endpoints compare against virtual neighbours at -infinity / +infinity,
    realized as edge-case branches.
    """
    ensure_xseq(x)
    return _frakS(x)


def _frakI(y: Seq) -> tuple[Interval, ...]:
    # y[i] - i stays constant over a step y[i + 1] - y[i] of 1, rises over a
    # larger one and falls over a step of 0: the runs end at the steps that
    # are not 1, and a run is kept when neither end is a step of 0
    out: list[Interval] = []
    lo = 0
    left_ok = True
    for i, step in enumerate(map(sub, y[1:], y)):
        if step != 1:
            if left_ok and step:
                out.append((lo, i))
            lo = i + 1
            left_ok = step != 0
    if left_ok:
        out.append((lo, len(y) - 1))
    return tuple(out)


def frakI(y: Seq) -> tuple[Interval, ...]:
    """Maximal constant runs of y[i] - i with a strict increase at both ends."""
    ensure_yseq(y)
    return _frakI(y)


# R, R0 and the odd-size intervals, each derived from one frakI(y) tuple

def _ends(ivs: tuple[Interval, ...]) -> frozenset[int]:
    return frozenset(v for iv in ivs for v in iv)


def _singles(ivs: tuple[Interval, ...]) -> frozenset[int]:
    return frozenset(lo for lo, hi in ivs if lo == hi)


def _odd(ivs: tuple[Interval, ...]) -> tuple[Interval, ...]:
    return tuple(iv for iv in ivs if (iv[1] - iv[0] + 1) % 2 == 1)


def frakI_odd(y: Seq) -> tuple[Interval, ...]:
    """The odd-size members of frakI(y)."""
    return _odd(frakI(y))


def R(y: Seq) -> frozenset[int]:
    """Endpoints of the frakI(y) intervals."""
    return _ends(frakI(y))


def R0(y: Seq) -> frozenset[int]:
    """Positions of the size-one frakI(y) intervals."""
    return _singles(frakI(y))


# ---------------------------------------------------------------------------
# matched splits S(y)

def member_S(y: Seq, x: Seq, xp: Seq) -> bool:
    """Check membership of (x, xp) in the matched-split set of y.

    Conditions: both parts are XSeqs summing to y; the union of their frakS
    sets is R(y) and the intersection is R0(y); and when frakI(y) has no
    odd-size interval the second part has empty frakS.
    """
    ensure_yseq(y)
    return _is_split(y, x, xp, ensure_xseq) and _matched(_frakI(y), x, xp, False)


def _is_split(y: Seq, x: Seq, xp: Seq, ensure_second) -> bool:
    """True when x is an XSeq, xp passes ensure_second and x + xp = y."""
    try:
        ensure_xseq(x)
        ensure_second(xp)
    except ValidationError:
        return False
    return len(x) == len(y) == len(xp) and seq_add(x, xp) == y


def _matched(ivs: tuple[Interval, ...], x: Seq, xp: Seq, based: bool) -> bool:
    """Membership kernel of S(y), or of tilde-S(y) when based, for XSeqs
    x + xp = y (xp a based XSeq when based), with ivs = _frakI(y)."""
    sx, sxp = _frakS(x), _frakS(xp)
    if sx | sxp != _ends(ivs) or sx & sxp != _singles(ivs):
        return False
    odd = _odd(ivs)
    if based:
        return not (len(odd) == 1 and odd[0][0] == 0) or sxp == frozenset({0})
    return bool(odd) or not sxp


def _ensure_capped(m: int, n: int) -> None:
    """Refuse a length index m or a statistic n above SIZE_CAP
    (ResourceError): the enumerations grow without bound in both."""
    if m > SIZE_CAP or n > SIZE_CAP:
        raise ResourceError(f"enumeration capped at {SIZE_CAP}, got m={m} n={n}")


def _ensure_split_cap(y: Seq) -> None:
    """_ensure_capped on a YSeq's length index and its statistic rho'(y)."""
    _ensure_capped(len(y) - 1, _rho_prime(y))


def _split_pairs(y: Seq, based: bool) -> tuple[tuple[Seq, Seq], ...]:
    """All (x, xp) in XSeq x XSeq with x + xp = y, lexicographically in x,
    for a YSeq y within the size cap, with x[0] = x[1] = 0 when based: the
    pairs of _split_firsts, unpacked."""
    m = len(y) - 1
    # the fields hold every entry of y and of the space's base
    fields, width = _key_fields(m + 1, max(*y, m))
    whole = _pack(fields, y)
    return tuple((_unpack(fields, first), _unpack(fields, whole - first))
                 for first in _split_firsts(y, whole, _split_space(
                     fields, width, m, based)))


# how the split search reads the y of one length and kind: the width of the
# packed fields, the space's base packed (base_y(m), or (0, 1, ..., m) when
# x[0] = x[1] = 0 is imposed), base_x(m) packed, and whether it is imposed
SplitSpace = tuple[int, int, int, bool]


def _split_space(fields: str, width: int, m: int, based: bool) -> SplitSpace:
    """The SplitSpace of the y of length index m packed into fields of the
    width, with x[0] = x[1] = 0 imposed when based."""
    return (width, _pack(fields, base_z(m) if based else base_y(m)),
            _pack(fields, base_x(m)), based)


def _split_firsts(y: Seq, whole: int, space: SplitSpace) -> list[int]:
    """The first parts x of every split x + xp = y into two XSeqs (with
    x[0] = x[1] = 0 when the space is based), lexicographically in x, each
    packed into one int: x[i] in bits [i * width, (i + 1) * width).  whole
    is y packed the same way; when every entry of y fits in width bits, so
    does every entry of xp, and xp packs to whole less the packed x.

    Entry i of an XSeq is at least i // 2, that of base_x.  In a based
    space x[1] = 0, so where y starts (0, 1) xp[1] = 1 and entry i of xp is
    at least ceil(i / 2) from i = 1 on.  So where y equals the space's
    base, both parts take their least entries and x is forced to base_x.
    The search enters past that prefix, which ends at the
    lowest field where whole and the packed base differ, with base_x's
    prefix taken.  From there backtracking keeps both partial sequences
    valid, which prunes hard, a forced entry is taken in place, and the
    admissible values of the last entry are one run of packed ints.
    """
    width, base, xbase, based = space
    m = len(y) - 1
    diff = whole ^ base
    # the last entry is searched even when y is the base itself
    k = min(((diff & -diff).bit_length() - 1) // width, m) if diff else m
    # x[i] <= x[i-1] + up1[i] keeps xp nondecreasing and x[i] < x[i-2] +
    # up2[i] keeps xp[i] > xp[i-2], which with xp[0] >= 0 keeps x <= y;
    # before the start, with x[-1] = x[-2] = -1, they bound x[0] and x[1]
    # by 0 when based, else x[0] by y[0]
    up1 = [1 if based else y[0] + 1, *map(sub, y[1:], y)]
    up2 = [2, 2] if based else [v + 2 for v in y[:2]]
    up2 += map(sub, y[2:], y)
    out: list[int] = []

    def rec(i: int, acc: int, p2: int, p1: int) -> None:
        while True:
            # x nondecreasing with x[i] > x[i-2]
            lo = p1 if p1 > p2 else p2 + 1
            hi = p1 + up1[i]
            bound = p2 + up2[i] - 1
            if bound < hi:
                hi = bound
            shift = i * width
            if i == m:
                if lo <= hi:
                    out.extend(range(acc + (lo << shift),
                                     acc + (hi << shift) + 1, 1 << shift))
                return
            if lo != hi:
                break
            # a forced entry branches nowhere: take it in place
            acc += lo << shift
            p2, p1 = p1, lo
            i += 1
        for v in range(lo, hi + 1):
            rec(i + 1, acc + (v << shift), p1, v)

    # base_x's entries below k, and its entries at k - 2 and k - 1
    rec(k, xbase & ((1 << k * width) - 1), (k - 2) // 2, (k - 1) // 2)
    # rec's closure cell holds rec itself: emptied, it leaves no cycle
    del rec
    return out


def enumerate_S(y: Seq) -> tuple[tuple[Seq, Seq], ...]:
    """All matched splits of y, lexicographically ordered by first part.
    A y that is not a YSeq raises ValidationError, one past the size cap
    ResourceError."""
    ensure_yseq(y)
    _ensure_split_cap(y)
    ivs = _frakI(y)
    # _split_pairs yields XSeq pairs summing to y
    return tuple((x, xp) for x, xp in _split_pairs(y, False)
                 if _matched(ivs, x, xp, False))


def construct_one_S(y: Seq) -> tuple[Seq, Seq]:
    """Build one matched split of y directly from its blocks.

    Jumps of at least two cut a YSeq into blocks: the step-one runs of
    frakI(y), and an equal pair (a, a) at every other position.  Blockwise:
    an equal pair splits as (u, u) + (u', u') with u + u' = a; a step-one
    run starting at a splits as (u, u+1, u+1, u+2, ...) + (u', u', u'+1,
    u'+1, ...). Taking u = 0 on the first block and u = (previous x value)
    + 1 afterwards always satisfies the strictness constraints at block
    joins.
    """
    ensure_yseq(y)
    runs = dict(_frakI(y))
    x: list[int] = []
    xp: list[int] = []
    i = 0
    while i < len(y):
        u = x[-1] + 1 if x else 0
        up = y[i] - u
        if x and up <= xp[-1]:
            raise InvariantError(f"split construction stuck at position {i} of {y!r}")
        hi = runs.get(i)
        if hi is None:
            x.extend((u, u))
            xp.extend((up, up))
            i += 2
        else:
            for t in range(hi - i + 1):
                x.append(u + (t + 1) // 2)
                xp.append(up + t // 2)
            i = hi + 1
    pair = (tuple(x), tuple(xp))
    if not member_S(y, *pair):
        raise InvariantError(f"constructed split fails membership for {y!r}: {pair}")
    return pair


# ---------------------------------------------------------------------------
# based matched splits tilde-S(y)

def member_tilde_S(y: Seq, x: Seq, xp: Seq) -> bool:
    """Check membership of (x, xp) in the based matched-split set of y.

    Same shape as member_S but the second part must be a based XSeq, and
    when the odd-size intervals of frakI(y) consist of a single interval
    starting at 0 the second part must have frakS exactly {0}.
    """
    _ensure_tilde_domain(y)
    return _is_split(y, x, xp, ensure_xtseq) and _matched(_frakI(y), x, xp, True)


def _ensure_tilde_domain(y: Seq) -> None:
    ensure_yseq(y)
    m = len(y) - 1
    if m % 2 != 0 or m < 2:
        raise DomainError(f"based splits need m even >= 2, got m={m}")
    if y[0] != 0 or y[1] != 1:
        raise DomainError(f"based splits need y0 = 0 and y1 = 1, got {y!r}")


def enumerate_tilde_S(y: Seq) -> tuple[tuple[Seq, Seq], ...]:
    """All based matched splits of y, lexicographically ordered by first
    part.  A y past the size cap raises ResourceError."""
    _ensure_tilde_domain(y)
    _ensure_split_cap(y)
    ivs = _frakI(y)
    return tuple((x, xp) for x, xp in _split_pairs(y, True)
                 if _matched(ivs, x, xp, True))


# ---------------------------------------------------------------------------
# skeleton decomposition

def hat_decompose(x: Seq) -> tuple[Seq, Seq]:
    """Split an XSeq as skeleton + nondecreasing remainder.

    The skeleton is the unique XSeq determined by frakS(x) alone: paired
    runs fill the even-size gaps between consecutive frakS positions with
    consecutive values, and the frakS positions themselves step once more.
    Returns (skeleton, remainder) with x = skeleton + remainder, the
    remainder nondecreasing and constant on every paired skeleton step.
    """
    marks = sorted(frakS(x))
    m = len(x) - 1
    if not marks:
        hat = base_x(m)
    else:
        out: list[int] = []
        val = 0
        prev = -1
        for idx in marks:
            gap = idx - prev - 1
            if gap % 2 != 0:
                raise InvariantError(f"odd gap before position {idx} in {x!r}")
            for _ in range(gap // 2):
                out.extend((val, val))
                val += 1
            out.append(val)
            val += 1
            prev = idx
        gap = m - prev
        if gap % 2 != 0:
            raise InvariantError(f"odd tail gap in {x!r}")
        for _ in range(gap // 2):
            out.extend((val, val))
            val += 1
        hat = tuple(out)
    if frakS(hat) != frakS(x):
        raise InvariantError(f"skeleton changed frakS for {x!r}")
    e = seq_sub(x, hat)
    ensure_eseq(e)
    for i in range(m):
        if hat[i] == hat[i + 1] and e[i] != e[i + 1]:
            raise InvariantError(f"remainder not constant on paired step {i} of {x!r}")
    return hat, e


# ---------------------------------------------------------------------------
# strata enumeration

# kind -> (its base sequence of length index m, the least step over the
# previous entry, the least step over the entry before that, the least
# value at position 1)
_SPACES: dict[str, tuple[Callable[[int], Seq], int, int, int]] = {
    "Z": (base_z, 1, 2, 1),
    "X": (base_x, 0, 1, 0),
    "Y": (base_y, 0, 2, 0),
    "XT": (base_xt, 0, 1, 1),
    "YT": (base_yt, 0, 2, 1),
    "E": (lambda m: (0,) * (m + 1), 0, 0, 0),
}


def _ensure_space_args(m: object, n: object) -> None:
    """enumerate_space's checks of m and n, which irreps._special_seqs
    shares: not an int, a bool included (ValidationError), negative
    (DomainError), past the size cap (ResourceError)."""
    _ensure_int("m", m)
    _ensure_int("n", n)
    if m < 0 or n < 0:
        raise DomainError(f"m and n must be nonnegative, got m={m} n={n}")
    _ensure_capped(m, n)


def _space_lower(kind: str, i: int, prev1: int | None, prev2: int | None) -> int:
    """Smallest value allowed at position i given the previous two entries."""
    _, step1, step2, low1 = _SPACES[kind]
    lo = 0 if prev1 is None else prev1 + step1
    if prev2 is not None:
        lo = max(lo, prev2 + step2)
    return max(lo, low1) if i == 1 else lo


Tails = dict[tuple[int, int, int | None], int]


def _tail_dev(kind: str, base: Seq, tails: Tails, i: int, val: int,
              prev1: int | None) -> int:
    """Least total deviation of the positions after i, given the value val
    at i and prev1 before it: one greedy step to position i + 1, plus the
    entry of tails for that step, computed and filled on first use."""
    if i == len(base) - 1:
        return 0
    v = _space_lower(kind, i + 1, val, prev1)
    tail = tails.get((i + 1, v, val))
    if tail is None:
        tail = tails[i + 1, v, val] = _tail_dev(kind, base, tails, i + 1, v,
                                                val)
    return v - base[i + 1] + tail


def enumerate_space(kind: str, m: int, n: int) -> tuple[Seq, ...]:
    """All sequences of the given kind and length index m with statistic n.

    The statistic is the deviation sum against the space's base sequence
    (plain entry sum for kind E). Output is lexicographically sorted and
    duplicate-free.  A kind other than Z, X, Y, E, XT and YT raises
    DomainError; m or n not an int (a bool included) ValidationError,
    negative DomainError, above the size cap ResourceError.  The sequences
    are those of _walk at lo = hi = n.
    """
    # a kind that is not a str is unknown too, an unhashable one included
    if not isinstance(kind, str) or kind not in _SPACES:
        raise DomainError(f"unknown sequence kind {kind!r}")
    _ensure_space_args(m, n)
    if kind in ("XT", "YT") and (m % 2 != 0 or m < 2):
        raise DomainError(f"kind {kind} needs m even >= 2, got {m}")
    zero = (0, (0,) * (m + 1))
    return tuple(map(itemgetter(0), _walk(kind, m, n, n, zero, zero)))


# a linear form on the entries of a sequence: its constant and the
# coefficient of each entry
Form = tuple[int, Seq]


def _walk(kind: str, m: int, lo: int, hi: int, first: Form, second: Form
          ) -> Iterator[tuple[Seq, int, int, int, int, int]]:
    """Every sequence x of the kind and length index m with statistic in
    [lo, hi], streamed in lexicographic order, as (x, statistic,
    _weighted(x), mask, first(x), second(x)), mask having bit i set exactly
    when i is in frakS(x) (so mask.bit_count() is _strict_count(x) for an
    XSeq), for 0 <= lo <= hi and arguments the library checked.

    Backtracking without recursion.  The value at each position runs up
    from the least the step rules of _SPACES allow over the two entries
    before it (from 0 at position 0, where XT takes 0 only), and the first
    value whose deviation so far plus the least deviation of the positions
    after it (_tail_dev) passes hi ends the position: both grow with the
    value, and the entry before it moves on.  The sums run along the
    entries: the value at i adds its excess over the base to the
    statistic, (m - i) times itself to the weighted sum and its coefficient
    times itself to each form, and, equal to the entry before it, clears
    bits i - 1 and i of the mask, which starts with every position set.
    The last entry, of weight 0, runs over the values that bring the
    statistic into [lo, hi]."""
    make_base, step1, step2, low1 = _SPACES[kind]
    base = make_base(m)
    # XT's x[0] is 0, so its walk ends when x[1] runs out
    stop = 1 if kind == "XT" else 0
    # (i, value at i, value before it) -> _tail_dev, filled on first use
    tails: Tails = {}
    k1, k2 = first[1], second[1]
    xs = [0] * (m + 1)
    # the running sums of the entries before position i, at index i
    dev = [0] * (m + 1)
    wsum = [0] * (m + 1)
    masks = [(1 << m + 1) - 1] * (m + 1)
    f1 = [first[0]] * (m + 1)
    f2 = [second[0]] * (m + 1)
    # val is the value tried at position i
    i = val = 0
    while True:
        prev1 = xs[i - 1] if i else None
        if i == m:
            used = dev[m] - base[m]
            w, s, a, b = wsum[m], masks[m], f1[m], f2[m]
            c1, c2 = k1[m], k2[m]
            for v in range(max(val, lo - used), hi - used + 1):
                xs[m] = v
                yield (tuple(xs), used + v, w,
                       s & ~(3 << m - 1) if v == prev1 else s,
                       a + c1 * v, b + c2 * v)
        else:
            excess = dev[i] + val - base[i]
            tail = tails.get((i, val, prev1))
            if tail is None:
                tail = tails[i, val, prev1] = _tail_dev(kind, base, tails, i,
                                                        val, prev1)
            if excess + tail <= hi:
                xs[i] = val
                dev[i + 1] = excess
                wsum[i + 1] = wsum[i] + (m - i) * val
                masks[i + 1] = (masks[i] & ~(3 << i - 1) if val == prev1
                                else masks[i])
                f1[i + 1] = f1[i] + k1[i] * val
                f2[i + 1] = f2[i] + k2[i] * val
                i += 1
                val = xs[i - 1] + step1
                if i == 1:
                    val = max(val, low1)
                elif val < xs[i - 2] + step2:
                    val = xs[i - 2] + step2
                continue
        if i <= stop:
            return
        i -= 1
        val = xs[i] + 1


# ---------------------------------------------------------------------------
# symmetric decompositions

def symmetric_decompositions(y: Seq) -> tuple[tuple[Seq, Seq], ...]:
    """All (x, e) with y = x + e + x, (x, e+x) a matched split of y, and
    frakS(e + x) = frakS(x), lexicographically in x. Nonempty exactly when
    every frakI(y) interval has size one.  A y that is not a YSeq raises
    ValidationError, one past the size cap ResourceError.

    A filter of the splits (x, xp) of _split_pairs: e = xp - x nonnegative
    and nondecreasing, the split matched and the parts' frakS equal.  Equal
    frakS sets cover the interval ends and meet in the size-one intervals
    only when every interval has size one, so otherwise no split is tried.
    engine reads the same list off a class's split table.
    """
    ensure_yseq(y)
    _ensure_split_cap(y)
    ivs = _frakI(y)
    if _ends(ivs) != _singles(ivs):
        return ()
    out = []
    for x, xp in _split_pairs(y, False):
        e = tuple(map(sub, xp, x))
        if (e[0] >= 0 and all(map(le, e, e[1:]))
                and _matched(ivs, x, xp, False) and _frakS(xp) == _frakS(x)):
            out.append((x, e))
    return tuple(out)
