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
parities, the unique block decomposition of a YSeq, the matched-split sets
S(y) and tilde-S(y), the symmetric decompositions y = x + e + x, and the
skeleton/remainder decomposition of an XSeq.  One backtracking search,
split_pairs, enumerates the splits of y into two XSeqs; S(y), tilde-S(y)
(over based_split_pairs) and the symmetric decompositions filter its pairs.
Deviation statistics (rho/beta families) measure each sequence against the
minimal member of its space and are additive under entrywise addition.
Each space's rule is one row of the table _SPACES (its base, the least
steps over the previous two entries, the least value at position 1), which
enumerate_space reads.

All functions are pure; sequences in and out are tuples, sets of indices are
frozensets, and interval sets are tuples of (lo, hi) pairs sorted by lo.

Validation happens at the boundary: every public statistic checks its
argument with the matching ensure_* and then calls its private kernel
(_rho0, _beta0, _rho, _tilde_rho, _frakS, _frakI), which assumes a valid
sequence.
The other modules of the package call a kernel only on tuples the library
built itself (split enumerators, enumerated spaces, rows of a validated
label), never on input that arrived from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import DomainError, InvariantError, ResourceError, ValidationError

Seq = tuple[int, ...]
Interval = tuple[int, int]

SIZE_CAP = 64

KIND_SINGLE_PAIR = "SINGLE_PAIR"
KIND_ARITHMETIC = "ARITHMETIC"


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


def _ensure_entries(seq: Seq) -> None:
    if not isinstance(seq, tuple) or len(seq) == 0:
        raise ValidationError(f"sequence must be a nonempty tuple, got {seq!r}")
    for v in seq:
        # inline, not is_nat: this loop runs on every validated entry
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValidationError(f"entries must be nonnegative ints, got {seq!r}")


def ensure_zseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is strictly increasing."""
    _ensure_entries(seq)
    for i in range(len(seq) - 1):
        if not seq[i] < seq[i + 1]:
            raise ValidationError(f"not strictly increasing at {i}: {seq!r}")


def ensure_xseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is nondecreasing with seq[i] < seq[i+2]."""
    ensure_eseq(seq)
    for i in range(len(seq) - 2):
        if not seq[i] < seq[i + 2]:
            raise ValidationError(f"three equal entries at {i}: {seq!r}")


def ensure_yseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is nondecreasing with seq[i] <= seq[i+2]-2."""
    ensure_eseq(seq)
    for i in range(len(seq) - 2):
        if not seq[i] <= seq[i + 2] - 2:
            raise ValidationError(f"two-step gap violated at {i}: {seq!r}")


def ensure_eseq(seq: Seq) -> None:
    """Raise ValidationError unless seq is nondecreasing."""
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
    return tuple(u + v for u, v in zip(a, b))


def seq_sub(a: Seq, b: Seq) -> Seq:
    """Entrywise difference; mismatched lengths are a domain error."""
    if len(a) != len(b):
        raise DomainError(f"cannot subtract sequences of lengths {len(a)} and {len(b)}")
    return tuple(u - v for u, v in zip(a, b))


# ---------------------------------------------------------------------------
# base sequences (the minimal member of each space)

def base_z(m: int) -> Seq:
    """(0, 1, ..., m)."""
    return tuple(range(m + 1))


def base_x(m: int) -> Seq:
    """(0,0,1,1,...): the unique XSeq with deviation statistic 0."""
    return tuple(i // 2 for i in range(m + 1))


def base_y(m: int) -> Seq:
    """(0,0,2,2,...): equals 2 * base_x entrywise."""
    return tuple(2 * (i // 2) for i in range(m + 1))


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
    m = len(z) - 1
    return sum((m - i) * (v - i) for i, v in enumerate(z))


def beta0(z: Seq) -> int:
    """Deviations of a ZSeq weighted by the number of later positions."""
    ensure_zseq(z)
    return _beta0(z)


def _dev_sum(seq: Seq, base: Seq) -> int:
    return sum(v - b for v, b in zip(seq, base))


def _dev_weighted(seq: Seq, base: Seq) -> int:
    m = len(seq) - 1
    return sum((m - i) * (v - b) for i, (v, b) in enumerate(zip(seq, base)))


def _rho(x: Seq) -> int:
    # _dev_sum against base_x(m), whose entries sum to ceil(m/2) * floor(m/2)
    m = len(x) - 1
    return sum(x) - ((m + 1) // 2) * (m // 2)


def rho(x: Seq) -> int:
    ensure_xseq(x)
    return _rho(x)


def beta(x: Seq) -> int:
    ensure_xseq(x)
    return _dev_weighted(x, base_x(len(x) - 1))


def rho_prime(y: Seq) -> int:
    ensure_yseq(y)
    return _dev_sum(y, base_y(len(y) - 1))


def beta_prime(y: Seq) -> int:
    ensure_yseq(y)
    return _dev_weighted(y, base_y(len(y) - 1))


def _tilde_rho(x: Seq) -> int:
    # _dev_sum against base_xt(m), whose entries sum to (m/2) * (m/2 + 1)
    h = (len(x) - 1) // 2
    return sum(x) - h * (h + 1)


def tilde_rho(x: Seq) -> int:
    ensure_xtseq(x)
    return _tilde_rho(x)


def tilde_beta(x: Seq) -> int:
    ensure_xtseq(x)
    return _dev_weighted(x, base_xt(len(x) - 1))


def tilde_rho_prime(y: Seq) -> int:
    ensure_ytseq(y)
    return _dev_sum(y, base_yt(len(y) - 1))


def tilde_beta_prime(y: Seq) -> int:
    ensure_ytseq(y)
    return _dev_weighted(y, base_yt(len(y) - 1))


def eseq_sum(e: Seq) -> int:
    """Total of an ESeq (its deviation statistic: the base is all zero)."""
    ensure_eseq(e)
    return sum(e)


# ---------------------------------------------------------------------------
# frakS / frakI statistics

def _frakS(x: Seq) -> frozenset[int]:
    m = len(x) - 1
    return frozenset(
        i for i in range(m + 1)
        if (i == 0 or x[i - 1] < x[i]) and (i == m or x[i] < x[i + 1])
    )


def frakS(x: Seq) -> frozenset[int]:
    """Positions strictly above the left neighbour and below the right one.

    Endpoints compare against virtual neighbours at -infinity / +infinity,
    realized as edge-case branches.
    """
    ensure_xseq(x)
    return _frakS(x)


def _frakI(y: Seq) -> tuple[Interval, ...]:
    m = len(y) - 1
    d = [v - i for i, v in enumerate(y)]
    out: list[Interval] = []
    i = 0
    while i <= m:
        j = i
        while j < m and d[j + 1] == d[j]:
            j += 1
        left_ok = i == 0 or d[i - 1] < d[i]
        right_ok = j == m or d[j] < d[j + 1]
        if left_ok and right_ok:
            out.append((i, j))
        i = j + 1
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
# block decomposition

@dataclass(frozen=True)
class Block:
    """One block of the unique decomposition of a YSeq.

    start/stop are inclusive indices; kind SINGLE_PAIR means the two entries
    are equal (value base), kind ARITHMETIC means entries step by one
    starting from base.
    """

    start: int
    stop: int
    kind: str
    base: int

    @property
    def size(self) -> int:
        return self.stop - self.start + 1


@dataclass(frozen=True)
class IntervalDecomp:
    """Ordered block decomposition of a YSeq.

    Consecutive blocks are separated by a jump of at least two in the
    sequence values; ARITHMETIC blocks reproduce frakI, and the equal-value
    SINGLE_PAIR blocks carry no interval.
    """

    blocks: tuple[Block, ...]

    def arithmetic_intervals(self) -> tuple[Interval, ...]:
        return tuple((b.start, b.stop) for b in self.blocks if b.kind == KIND_ARITHMETIC)


def interval_decomp(y: Seq) -> IntervalDecomp:
    """Decompose a YSeq into equal pairs and step-one runs.

    A repeat y[i] = y[i+1] is always flanked by jumps >= 2 on both sides, so
    the greedy scan below is the unique decomposition.
    """
    ensure_yseq(y)
    m = len(y) - 1
    blocks: list[Block] = []
    i = 0
    while i <= m:
        if i < m and y[i + 1] == y[i]:
            blocks.append(Block(i, i + 1, KIND_SINGLE_PAIR, y[i]))
            i += 2
        else:
            j = i
            while j < m and y[j + 1] == y[j] + 1:
                j += 1
            blocks.append(Block(i, j, KIND_ARITHMETIC, y[i]))
            i = j + 1
    for a, b in zip(blocks, blocks[1:]):
        if not y[a.stop] <= y[b.start] - 2:
            raise InvariantError(f"block gap violated between {a} and {b} in {y!r}")
    decomp = IntervalDecomp(tuple(blocks))
    if decomp.arithmetic_intervals() != _frakI(y):
        raise InvariantError(f"block decomposition disagrees with frakI for {y!r}")
    return decomp


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


def split_pairs(y: Seq, upper: Seq | None = None) -> tuple[tuple[Seq, Seq], ...]:
    """All (x, xp) in XSeq x XSeq with x + xp = y, lexicographically in x.

    An optional entrywise bound x[i] <= upper[i], within the default y[i],
    lets callers pin the shape of the complement.  Backtracking keeps both
    partial sequences valid, which prunes hard.
    """
    m = len(y) - 1
    highs = y if upper is None else upper
    out: list[tuple[Seq, Seq]] = []
    xs: list[int] = []

    def rec(i: int) -> None:
        if i > m:
            out.append((tuple(xs), tuple(v - u for u, v in zip(xs, y))))
            return
        lo, hi = 0, highs[i]
        if i >= 1:
            lo = max(lo, xs[i - 1])
            hi = min(hi, xs[i - 1] + y[i] - y[i - 1])
        if i >= 2:
            lo = max(lo, xs[i - 2] + 1)
            hi = min(hi, xs[i - 2] + y[i] - y[i - 2] - 1)
        for v in range(lo, hi + 1):
            xs.append(v)
            rec(i + 1)
            xs.pop()

    rec(0)
    return tuple(out)


def enumerate_S(y: Seq) -> tuple[tuple[Seq, Seq], ...]:
    """All matched splits of y, lexicographically ordered by first part."""
    ensure_yseq(y)
    ivs = _frakI(y)
    # split_pairs yields XSeq pairs summing to y
    return tuple((x, xp) for x, xp in split_pairs(y) if _matched(ivs, x, xp, False))


def construct_one_S(y: Seq) -> tuple[Seq, Seq]:
    """Build one matched split of y directly from its block decomposition.

    Blockwise: an equal pair (a, a) splits as (u, u) + (u', u') with
    u + u' = a; a step-one run starting at a splits as
    (u, u+1, u+1, u+2, ...) + (u', u', u'+1, u'+1, ...). Taking u = 0 on the
    first block and u = (previous x value) + 1 afterwards always satisfies
    the strictness constraints at block joins.
    """
    ensure_yseq(y)
    decomp = interval_decomp(y)
    x: list[int] = []
    xp: list[int] = []
    for s, blk in enumerate(decomp.blocks):
        u = 0 if s == 0 else x[-1] + 1
        up = blk.base - u
        if s > 0 and up <= xp[-1]:
            raise InvariantError(f"split construction stuck at block {blk} of {y!r}")
        if blk.kind == KIND_SINGLE_PAIR:
            x.extend((u, u))
            xp.extend((up, up))
        else:
            for t in range(blk.size):
                x.append(u + (t + 1) // 2)
                xp.append(up + t // 2)
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
    if y[1] < 1:
        raise DomainError(f"based splits need y1 >= 1, got {y!r}")
    if y[0] != 0 or y[1] != 1:
        raise DomainError(f"based splits need y0 = 0 and y1 = 1, got {y!r}")


def based_split_pairs(y: Seq) -> tuple[tuple[Seq, Seq], ...]:
    """The splits (x, xp) of a YSeq y starting (0, 1) whose complement xp
    is a based XSeq, lexicographically in x."""
    # xp[0] = 0 and xp[1] >= 1 force x[0] = x[1] = 0, so with y0 = 0 and
    # y1 = 1 every complement is a based XSeq
    return split_pairs(y, upper=(0, 0) + y[2:])


def enumerate_tilde_S(y: Seq) -> tuple[tuple[Seq, Seq], ...]:
    """All based matched splits of y, lexicographically ordered by first part."""
    _ensure_tilde_domain(y)
    ivs = _frakI(y)
    return tuple((x, xp) for x, xp in based_split_pairs(y)
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

_KIND_ALIASES = {
    "Z": "Z", "X": "X", "Y": "Y", "E": "E",
    "XT": "XT", "YT": "YT",
    "X̃": "XT", "Ỹ": "YT", "X~": "XT", "Y~": "YT",
    "ℰ": "E",
}


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


def _space_lower(kind: str, i: int, prev1: int | None, prev2: int | None) -> int:
    """Smallest value allowed at position i given the previous two entries."""
    _, step1, step2, low1 = _SPACES[kind]
    lo = 0 if prev1 is None else prev1 + step1
    if prev2 is not None:
        lo = max(lo, prev2 + step2)
    return max(lo, low1) if i == 1 else lo


def _tail_min_dev(kind: str, base: Seq, i: int, prev1: int, prev2: int | None) -> int:
    """Minimal total deviation contributed by positions after i."""
    m = len(base) - 1
    total = 0
    a, b = prev2, prev1
    for j in range(i + 1, m + 1):
        v = _space_lower(kind, j, b, a)
        total += v - base[j]
        a, b = b, v
    return total


def enumerate_space(kind: str, m: int, n: int) -> tuple[Seq, ...]:
    """All sequences of the given kind and length index m with statistic n.

    The statistic is the deviation sum against the space's base sequence
    (plain entry sum for kind E). Output is lexicographically sorted and
    duplicate-free. m or n not an int (a bool included) raises
    ValidationError, negative DomainError, above the size cap ResourceError.
    """
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in _SPACES:
        raise DomainError(f"unknown sequence kind {kind!r}")
    _ensure_int("m", m)
    _ensure_int("n", n)
    if m < 0 or n < 0:
        raise DomainError(f"m and n must be nonnegative, got m={m} n={n}")
    if m > SIZE_CAP or n > SIZE_CAP:
        raise ResourceError(f"enumeration capped at {SIZE_CAP}, got m={m} n={n}")
    if kind in ("XT", "YT") and (m % 2 != 0 or m < 2):
        raise DomainError(f"kind {kind} needs m even >= 2, got {m}")
    base = _SPACES[kind][0](m)
    out: list[Seq] = []
    seq: list[int] = []
    # (i, value at i, value before it) -> _tail_min_dev, filled on first use
    tails: dict[tuple[int, int, int | None], int] = {}

    def rec(i: int, used: int) -> None:
        if i > m:
            if used == n:
                out.append(tuple(seq))
            return
        prev1 = seq[i - 1] if i >= 1 else None
        prev2 = seq[i - 2] if i >= 2 else None
        val = _space_lower(kind, i, prev1, prev2)
        while True:
            if kind == "XT" and i == 0 and val > 0:
                break
            dev = val - base[i]
            if used + dev > n:
                break
            tail = tails.get((i, val, prev1))
            if tail is None:
                tail = tails[i, val, prev1] = _tail_min_dev(kind, base, i,
                                                            val, prev1)
            if used + dev + tail <= n:
                seq.append(val)
                rec(i + 1, used + dev)
                seq.pop()
            val += 1

    rec(0, 0)
    return tuple(out)


# ---------------------------------------------------------------------------
# symmetric decompositions

def _symmetric(ivs: tuple[Interval, ...],
               pairs: Iterable[tuple[Seq, Seq]]) -> tuple[tuple[Seq, Seq], ...]:
    """The (x, e) of the split pairs (x, xp) of y, ivs = _frakI(y), whose
    difference e = xp - x is nonnegative and nondecreasing, that are
    matched, and whose parts have equal frakS; in the order of pairs."""
    out = []
    for x, xp in pairs:
        e = tuple(b - a for a, b in zip(x, xp))
        if e[0] < 0 or any(u > v for u, v in zip(e, e[1:])):
            continue
        if _matched(ivs, x, xp, False) and _frakS(xp) == _frakS(x):
            out.append((x, e))
    return tuple(out)


def symmetric_decompositions(y: Seq) -> tuple[tuple[Seq, Seq], ...]:
    """All (x, e) with y = x + e + x, (x, e+x) a matched split of y, and
    frakS(e + x) = frakS(x), lexicographically in x. Nonempty exactly when
    every frakI(y) interval has size one.
    """
    ensure_yseq(y)
    return _symmetric(_frakI(y), split_pairs(y))
