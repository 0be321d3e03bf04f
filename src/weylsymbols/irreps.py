"""Row-pair labels for irreducibles of the classical Weyl groups.

An IrrLabel names one irreducible representation:

* family "A" (symmetric group S_n): a single strictly increasing row z; the
  partition is recovered from the nonzero deviations z[i] - i.
* family "BC" (hyperoctahedral group of rank n): an ordered row pair
  (z, zp) with len(z) = len(zp) + 1 and deviation sums adding to n.
* family "D" (even-signed permutation group of rank n): a row pair of equal
  lengths with the first row at least as heavy as the second; when the rows
  are equal ("degenerate") an extra bit kappa in {0,1} distinguishes the two
  irreducibles sharing the symbol.

Special representations correspond to interleavable labels: merging the two
rows produces an XSeq, and the b- and f-invariants read off that sequence.
The interleaving map zeta (for BC and D) and its inverse are implemented
here, along with degrees, shifts, and canonical forms.

IrrLabel(...) is the validating constructor and the only one for labels
that come from outside.  The package-private _trusted(cls, *values) builds
a frozen dataclass (IrrLabel here, springer's ClassLabel too) from every
field's value without the checks, and is called only on values the library
built and knows to be valid.  It calls the class's entry in _SETTERS, a
constructor made once per class as the class is defined
(_slot_constructor), which sets each field through its slot descriptor's
__set__ in straight-line code, one line per field: canonical forms of
validated labels
(canonicalize, hence row alignment), the rows of a merged or class
sequence the library holds (_unmerge, behind _zeta_inverse and
springer._tau_fiber), the enumerated rows of
special_reps("A", ...) and enumerated class sequences.  Likewise
the public zeta_inverse and align_row validate their argument, while the
_-prefixed kernels they call (_zeta_inverse, _align) are for tuples the
library built.  _merge is the one interleaving of two rows, shared by zeta
and springer.tau, and _unmerge its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import sub
from typing import Callable, Iterator, TypeVar

from . import seqcomb as sc
from .errors import DomainError, ValidationError
from .seqcomb import Seq

FAMILY_A = "A"
FAMILY_BC = "BC"
FAMILY_D = "D"

FAMILIES = (FAMILY_A, FAMILY_BC, FAMILY_D)

T = TypeVar("T")


# ---------------------------------------------------------------------------
# labels

@dataclass(frozen=True, slots=True)
class IrrLabel:
    """Type-tagged symbol naming one irreducible representation."""

    family: str
    n: int
    z: Seq
    zp: Seq | None = None
    kappa: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if not sc.is_nat(self.n):
            raise ValidationError(f"rank must be a nonnegative int, got {self.n!r}")
        if not sc.is_nat(self.kappa) or self.kappa > 1:
            raise ValidationError(f"kappa must be 0 or 1, got {self.kappa!r}")
        if self.family == FAMILY_A:
            if self.zp is not None:
                raise ValidationError("family A labels carry a single row")
            if self.kappa != 0:
                raise ValidationError("family A labels carry no kappa")
            w = sc.rho0(self.z)
            if w != self.n:
                raise ValidationError(f"row statistic {w} != rank {self.n}")
            return
        if self.zp is None:
            raise ValidationError(f"family {self.family} labels need two rows")
        w, wp = sc.rho0(self.z), sc.rho0(self.zp)
        total = w + wp
        if total != self.n:
            raise ValidationError(f"row statistics sum to {total} != rank {self.n}")
        if self.family == FAMILY_BC:
            if len(self.z) != len(self.zp) + 1:
                raise ValidationError(
                    f"BC rows must have lengths k+1 and k, got "
                    f"{len(self.z)} and {len(self.zp)}"
                )
            if self.kappa != 0:
                raise ValidationError("family BC labels carry no kappa")
            return
        # family D
        if len(self.z) != len(self.zp):
            raise ValidationError(
                f"D rows must have equal lengths, got {len(self.z)} and {len(self.zp)}"
            )
        if w < wp:
            raise ValidationError("D rows must be ordered heavier row first")
        if w == wp and self.z != self.zp and self.z > self.zp:
            raise ValidationError("equal-weight distinct D rows are stored sorted")
        if self.z != self.zp and self.kappa != 0:
            raise ValidationError("kappa is only meaningful for equal rows")

    @property
    def degenerate(self) -> bool:
        """True when the two rows coincide (family D only)."""
        return self.family == FAMILY_D and self.z == self.zp

    @property
    def is_dagger(self) -> bool:
        """True when the first row is strictly heavier or the rows are equal."""
        if self.family != FAMILY_D:
            return True
        return self.z == self.zp or sc._rho0(self.z) > sc._rho0(self.zp)

    def to_json(self) -> dict:
        out: dict = {"family": self.family, "n": self.n, "z": list(self.z)}
        if self.zp is not None:
            out["zp"] = list(self.zp)
        if self.family == FAMILY_D:
            out["kappa"] = self.kappa
        return out


def _slot_constructor(cls: type[T]) -> Callable[..., T]:
    """A function of every field's value, in declaration order, that builds
    an instance of the slotted frozen dataclass cls without __post_init__:
    one line per field calls that slot descriptor's __set__, which the
    frozen dataclass __setattr__ would refuse."""
    names = tuple(cls.__dataclass_fields__)
    scope: dict = {"new": object.__new__, "cls": cls}
    scope.update((f"set_{name}", cls.__dict__[name].__set__) for name in names)
    body = "".join(f"    set_{name}(obj, {name})\n" for name in names)
    exec(f"def build({', '.join(names)}):\n"
         f"    obj = new(cls)\n{body}    return obj\n", scope)
    return scope["build"]


# each class _trusted builds -> its _slot_constructor, made once as the
# class is defined (springer enters ClassLabel)
_SETTERS = {IrrLabel: _slot_constructor(IrrLabel)}


def _trusted(cls: type[T], *values: object) -> T:
    """An instance of the frozen dataclass cls with every field set to its
    value, in declaration order, without __post_init__: for values valid
    by construction."""
    return _SETTERS[cls](*values)


def _ensure_label(name: str, label: object) -> None:
    """Reject a value handed in as a label that is not an IrrLabel."""
    if not isinstance(label, IrrLabel):
        raise ValidationError(f"{name} must be an IrrLabel, got {label!r}")


def seq_str(seq: Seq) -> str:
    """Compact text form of a sequence: its entries joined by commas."""
    return ",".join(str(v) for v in seq)


def label_str(label: IrrLabel) -> str:
    """Compact text form: [z] or [z;zp], degenerate labels marked ^kappa."""
    if label.zp is None:
        return f"[{seq_str(label.z)}]"
    mark = f"^{label.kappa}" if label.degenerate else ""
    return f"[{seq_str(label.z)};{seq_str(label.zp)}]{mark}"


def make_d_label(n: int, z: Seq, zp: Seq, kappa: int = 0) -> IrrLabel:
    """Build a family-D label, sorting the rows into canonical order."""
    w, wp = sc.rho0(z), sc.rho0(zp)
    if w < wp or (w == wp and z > zp):
        z, zp = zp, z
    return IrrLabel(FAMILY_D, n, z, zp, kappa)


@dataclass(frozen=True, slots=True)
class SpecialRep:
    """A special representation with its merged sequence and invariants."""

    label: IrrLabel
    xseq: Seq
    b: int
    f: int


# ---------------------------------------------------------------------------
# invariants

def b_invariant(label: IrrLabel) -> int:
    """Least symmetric-power degree of the reflection representation
    containing the irreducible, computed from the rows."""
    _ensure_label("label", label)
    if label.family == FAMILY_A:
        return sc._beta0(label.z)
    assert label.zp is not None
    return 2 * sc._beta0(label.z) + 2 * sc._beta0(label.zp) + sc._rho0(label.zp)


def _pair_min_sum(entries: list[int]) -> int:
    """Sum of min(u, v) over the unordered pairs of the entries, a
    multiset: sorted ascending, the entry at i is the lesser of its pairs
    with the len - 1 - i entries after it."""
    entries.sort()
    last = len(entries) - 1
    return sum(v * (last - i) for i, v in enumerate(entries))


def _a_value(label: IrrLabel) -> int:
    """Lusztig's a-function of the irreducible, read off its symbol: the
    pair-min sum of its entries, both rows as one multiset, less that of
    the rank-0 symbol of the same row lengths.  A shift raises each entry
    by one and adds a 0 to each row, and the two sums move alike, so the
    value is the same for every shift of the label."""
    rows = (label.z,) if label.zp is None else (label.z, label.zp)
    entries = [v for row in rows for v in row]
    base = [v for row in rows for v in range(len(row))]
    return _pair_min_sum(entries) - _pair_min_sum(base)


def _f_from_strict_count(family: str, count: int) -> int:
    if family == FAMILY_A:
        return 1
    if family == FAMILY_BC:
        return 2 ** ((count - 1) // 2)
    return 2 ** max((count - 2) // 2, 0)


# ---------------------------------------------------------------------------
# interleaving maps

def _merge(family: str, z: Seq, zp: Seq) -> Seq:
    """The two rows' entries in alternate slots, first row first for BC and
    second row first for D (_zeta_inverse splits them back)."""
    first, second = (z, zp) if family == FAMILY_BC else (zp, z)
    merged = [0] * (len(first) + len(second))
    merged[0::2] = first
    merged[1::2] = second
    return tuple(merged)


def zeta(label: IrrLabel) -> Seq:
    """Merged sequence of a special label.

    Family BC: alternate first row / second row entries. Family D: alternate
    second row / first row entries. Raises DomainError when the label is not
    special (the merge is not an XSeq).  A value that is not an IrrLabel
    raises ValidationError.
    """
    _ensure_label("label", label)
    if label.family == FAMILY_A:
        raise DomainError("family A labels have no merged sequence")
    assert label.zp is not None
    x = _merge(label.family, label.z, label.zp)
    try:
        sc.ensure_xseq(x)
    except ValidationError as exc:
        raise DomainError(f"label is not special: {exc}") from exc
    return x


def zeta_inverse(family: str, x: Seq) -> tuple[IrrLabel, ...]:
    """All labels whose merged sequence is x (one, or two in the degenerate
    family-D case with rank >= 2).  A one-entry BC x, a valid XSeq whose
    merge has no second row, raises DomainError as special_reps does at
    m = 0."""
    sc.ensure_xseq(x)
    return _zeta_inverse(family, x)


def _zeta_inverse(family: str, x: Seq) -> tuple[IrrLabel, ...]:
    # x is an XSeq, so every nonempty row below is strictly increasing
    _ensure_merge_length(family, len(x) - 1)
    if len(x) == 1:
        # a one-entry BC merge (a D merge has even length) has no second row:
        # a well-formed XSeq outside the domain, refused as special_reps
        # refuses m = 0
        raise DomainError("a BC merge needs m >= 2, got m=0")
    return _unmerge(family, sc._rho(x), x[0::2], x[1::2])


def _ensure_merge_length(family: str, m: int) -> None:
    """Reject (DomainError) a merged length index of the wrong parity for
    family BC or D, and any other family, which has no merge."""
    if family == FAMILY_BC:
        if m % 2 != 0:
            raise DomainError(f"BC merge needs odd length, got m={m}")
    elif family == FAMILY_D:
        if m % 2 != 1:
            raise DomainError(f"D merge needs even length, got m={m}")
    else:
        raise DomainError(f"no merged-sequence map for family {family!r}")


def _unmerge(family: str, n: int, even: Seq, odd: Seq) -> tuple[IrrLabel, ...]:
    """The rank-n labels of family BC or D whose rows _merge puts in the
    even and the odd slots, each row strictly increasing and nonempty (every
    caller refuses a one-entry BC merge first): one label, or two for equal
    D rows at rank >= 2.  A D merge puts the heavier row second, entry by
    entry, and makes the rows equal exactly when it has no strict
    position."""
    if family == FAMILY_BC:
        return (_trusted(IrrLabel, FAMILY_BC, n, even, odd, 0),)
    if even == odd and n >= 2:
        return (
            _trusted(IrrLabel, FAMILY_D, n, odd, even, 0),
            _trusted(IrrLabel, FAMILY_D, n, odd, even, 1),
        )
    return (_trusted(IrrLabel, FAMILY_D, n, odd, even, 0),)


# ---------------------------------------------------------------------------
# special enumeration

def policy_m(family: str, n: int) -> int:
    """Default merged-sequence length index for each family.  A rank that
    is not an int raises ValidationError, a negative one DomainError."""
    sc.ensure_rank(n)
    if family == FAMILY_A:
        return n
    if family == FAMILY_BC:
        return 2 * n + 2
    if family == FAMILY_D:
        return 2 * n + 1
    raise DomainError(f"unknown family {family!r}")


def special_reps(family: str, n: int, m: int | None = None) -> tuple[SpecialRep, ...]:
    """All special representations of the given family and rank.

    Family A: every irreducible is special (f = 1 throughout). Families BC
    and D enumerate the merged-sequence stratum at the module's length
    policy (or caller-provided m) and expand fibers, so degenerate family-D
    symbols appear once per kappa value.  An m or n that is not an int
    raises ValidationError; an m of the wrong parity for the family raises
    DomainError.  The arguments are checked on every call; the pool is then
    read from a memo, built once per (family, n, m) and shared by every
    caller.
    """
    sc.ensure_rank(n)
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    if m is not None:
        # before the memo: 8.0 and True hash like the ints 8 and 1
        sc._ensure_int("m", m)
    return _special_pool(family, n, policy_m(family, n) if m is None else m)


@cache
def _special_pool(family: str, n: int, m: int) -> tuple[SpecialRep, ...]:
    """special_reps of checked arguments at length m.  An error raised while
    the pool is built (m out of range or of the wrong parity) is not kept."""
    if family == FAMILY_A:
        return tuple(
            SpecialRep(_trusted(IrrLabel, FAMILY_A, n, z, None, 0), z,
                       sc._beta0(z), 1)
            for z in sc.enumerate_space("Z", m, n)
        )
    return tuple(SpecialRep(label, x, b, f)
                 for x, b, f, labels in _special_seqs(family, n, m)
                 for label in labels)


# a merged sequence x of a special stratum, its b, its f and its labels
SpecialSeq = tuple[Seq, int, int, tuple[IrrLabel, ...]]


def _special_seqs(family: str, n: int, m: int) -> Iterator[SpecialSeq]:
    """The merged sequences of the rank-n special stratum of family BC or
    D at length m, in enumeration order, each with its b, f and labels:
    special_reps grouped by sequence.  m and n are checked as
    enumerate_space checks them, then m's parity for the family and, for
    BC, m >= 2 (a one-entry merge has no second row), before the first
    sequence is yielded.  The sequences are the XSeqs of statistic n,
    read off seqcomb._walk at lo = hi = n with its running sums: b is the
    weighted sum less base_x's, read once in closed form, and f comes from
    the count of strict positions, the bits of the walk's frakS mask."""
    sc._ensure_space_args(m, n)
    _ensure_merge_length(family, m)
    if m == 0 and family == FAMILY_BC:
        raise DomainError("a BC merge needs m >= 2, got m=0")
    base = sc._weighted_x(m)
    # the walk's forms go unread here
    zero = (0, (0,) * (m + 1))
    return ((x, w - base, _f_from_strict_count(family, mask.bit_count()),
             _unmerge(family, n, x[0::2], x[1::2]))
            for x, _, w, mask, _, _ in sc._walk("X", m, n, n, zero, zero))


def special_f(label: IrrLabel) -> int:
    """f-invariant of a special label (DomainError when not special)."""
    _ensure_label("label", label)
    if label.family == FAMILY_A:
        return 1
    return _f_from_strict_count(label.family, sc._strict_count(zeta(label)))


def is_special(label: IrrLabel) -> bool:
    """True when the label names a special representation."""
    _ensure_label("label", label)
    if label.family == FAMILY_A:
        return True
    try:
        zeta(label)
    except DomainError:
        return False
    return True


# ---------------------------------------------------------------------------
# partitions and degrees

def z_to_partition(z: Seq) -> tuple[int, ...]:
    """Partition encoded by a row: nonzero deviations, largest first."""
    sc.ensure_zseq(z)
    return _z_to_partition(z)


def _z_to_partition(z: Seq) -> tuple[int, ...]:
    """z_to_partition without the check, for a row of a checked label."""
    devs = [v - i for i, v in enumerate(z)]
    return tuple(sorted((d for d in devs if d), reverse=True))


def partition_to_z(lam: tuple[int, ...], length: int | None = None) -> Seq:
    """Row encoding a partition at the given length (default: minimal).
    A part or length that is not an int raises ValidationError."""
    if not isinstance(lam, (tuple, list)):
        raise ValidationError(f"partition must be a tuple or list, got {lam!r}")
    lam = tuple(lam)
    for v in lam:
        sc._ensure_int("part", v)
    if any(a < b for a, b in zip(lam, lam[1:])) or any(v <= 0 for v in lam):
        raise DomainError(f"not a partition: {lam!r}")
    if length is not None:
        sc._ensure_int("length", length)
        size = max(len(lam), 1)
        if length < size:
            raise DomainError(f"length {length} below part count {size}")
    return _partition_to_z(lam, length)


def _partition_to_z(lam: tuple[int, ...], length: int | None = None) -> Seq:
    """partition_to_z without the checks, for a partition tuple and a length
    (if given) no less than its part count."""
    if length is None:
        length = max(len(lam), 1)
    padded = (0,) * (length - len(lam)) + lam[::-1]
    return tuple(v + i for i, v in enumerate(padded))


@cache
def _hook_dimension(lam: tuple[int, ...]) -> int:
    """Degree of the symmetric-group irreducible for a partition."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = [sum(1 for part in lam if part > i) for i in range(lam[0])]
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j) + (conj[j] - i) - 1
    return math.factorial(n) // hooks


def dimension(label: IrrLabel) -> int:
    """Degree of the irreducible representation named by the label."""
    _ensure_label("label", label)
    if label.family == FAMILY_A:
        return _hook_dimension(_z_to_partition(label.z))
    assert label.zp is not None
    lam = _z_to_partition(label.z)
    mu = _z_to_partition(label.zp)
    base = (
        math.comb(label.n, sum(mu))
        * _hook_dimension(lam)
        * _hook_dimension(mu)
    )
    if label.family == FAMILY_D and label.degenerate and label.n >= 2:
        if base % 2 != 0:
            raise DomainError(f"degenerate degree not even for {label!r}")
        return base // 2
    return base


# ---------------------------------------------------------------------------
# shifts and canonical forms

def align_row(z: Seq, length: int) -> Seq:
    """Shift a row up to the requested length by prepending fresh zeros.
    A row that is not strictly increasing or a length that is not an int
    raises ValidationError."""
    sc.ensure_zseq(z)
    sc._ensure_int("row length", length)
    return _align(z, length)


def _align(z: Seq, length: int) -> Seq:
    if length < len(z):
        raise DomainError(f"cannot shorten row of length {len(z)} to {length}")
    t = length - len(z)
    if not t:
        return z
    return tuple(range(t)) + tuple(v + t for v in z)


def aligned_rows(label: IrrLabel, k: int) -> tuple[Seq, Seq]:
    """Rows of a BC label aligned to lengths (k+1, k), of a D label to (k, k).
    A value that is not an IrrLabel or a k that is not an int raises
    ValidationError, a family-A label DomainError."""
    lab = canonicalize(label)
    sc._ensure_int("row length", k)
    if lab.zp is None:
        raise DomainError("family A labels have a single row")
    zp = _align(lab.zp, k)
    return _align(lab.z, k + 1 if lab.family == FAMILY_BC else k), zp


def shift(label: IrrLabel, t: int) -> IrrLabel:
    """Prepend t fresh slots to every row, preserving all invariants."""
    _ensure_label("label", label)
    sc._ensure_nat("shift amount", t)
    z = align_row(label.z, len(label.z) + t)
    if label.zp is None:
        return IrrLabel(label.family, label.n, z)
    zp = align_row(label.zp, len(label.zp) + t)
    return IrrLabel(label.family, label.n, z, zp, label.kappa)


def canonicalize(label: IrrLabel) -> IrrLabel:
    """Minimal representative of a label under shifting: drop the longest
    common prefix 0, 1, ..., t-1 of the rows, keeping one slot in the
    shortest row."""
    _ensure_label("label", label)
    z, zp = _canonical_rows(label.z, label.zp)
    if z is label.z:
        return label
    # dropping a common prefix keeps every row valid and the D row order
    return _trusted(IrrLabel, label.family, label.n, z, zp, label.kappa)


def _canonical_rows(z: Seq, zp: Seq | None) -> tuple[Seq, Seq | None]:
    """The rows canonicalize keeps (zp None for a one-row label): the rows
    themselves when they share no prefix to drop."""
    # a row strictly increasing from >= 0 has row[i] - i nondecreasing and
    # >= 0, so row[i] == i holds exactly on a prefix: bisect for its end
    lo, hi = 0, len(z if zp is None else zp) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if z[mid] == mid and (zp is None or zp[mid] == mid):
            lo = mid + 1
        else:
            hi = mid
    t = lo
    if t == 0:
        return z, zp
    z = tuple(map(sub, z[t:], repeat(t)))
    return z, None if zp is None else tuple(map(sub, zp[t:], repeat(t)))
