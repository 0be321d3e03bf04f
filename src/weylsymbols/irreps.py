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
The three interleaving maps (zeta for BC, zeta / zeta_tilde for D) and the
deviation codec xi for symmetric-group factors are implemented here, along
with degrees, shifts, and canonical forms.

IrrLabel(...) is the validating constructor and the only one for labels
that come from outside.  The package-private _trusted(cls, *values) builds
a frozen dataclass (IrrLabel here, springer's ClassLabel too) from every
field's value without the checks, and is called only on values the library
built and knows to be valid: canonical forms of validated labels
(canonicalize, hence row alignment), the split of a merged or class
sequence the library holds (_zeta_inverse, which also splits a class
sequence less its base for springer._tau_fiber), the enumerated rows of
special_reps("A", ...) and enumerated class sequences.  Likewise
the public zeta_inverse, zeta_tilde_inverse and align_row validate their
argument, while the _-prefixed kernels they call (_zeta_inverse,
_zeta_tilde_inverse, _align) are for tuples the library built.  _merge is
the one interleaving of two rows, shared by zeta and springer.tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TypeVar

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

@dataclass(frozen=True)
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


def _trusted(cls: type[T], *values: object) -> T:
    """An instance of the frozen dataclass cls with every field set to its
    value, in declaration order, without __post_init__: for values valid
    by construction."""
    obj = object.__new__(cls)
    # field by field, as the dataclass __init__ does, so the instance keeps
    # the compact attribute layout of a checked one
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


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


@dataclass(frozen=True)
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
    if label.family == FAMILY_A:
        return sc._beta0(label.z)
    assert label.zp is not None
    return 2 * sc._beta0(label.z) + 2 * sc._beta0(label.zp) + sc._rho0(label.zp)


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
    special (the merge is not an XSeq).
    """
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
    family-D case with rank >= 2)."""
    sc.ensure_xseq(x)
    return _zeta_inverse(family, x)


def _zeta_inverse(family: str, x: Seq) -> tuple[IrrLabel, ...]:
    # x is an XSeq, or a class sequence less its base (springer._tau_fiber),
    # so every nonempty row below is strictly increasing; a D merge puts
    # the heavier row second, entry by entry, and makes the rows equal
    # exactly when x has no strict position
    n = sc._rho(x)
    m = len(x) - 1
    if family == FAMILY_BC:
        if m % 2 != 0:
            raise DomainError(f"BC merge needs odd length, got m={m}")
        z, zp = x[0::2], x[1::2]
        if not zp:
            # a one-entry merge leaves the second row empty
            sc.ensure_zseq(zp)
        return (_trusted(IrrLabel, FAMILY_BC, n, z, zp, 0),)
    if family == FAMILY_D:
        if m % 2 != 1:
            raise DomainError(f"D merge needs even length, got m={m}")
        zp, z = x[0::2], x[1::2]
        if not sc._frakS(x) and n >= 2:
            return (
                _trusted(IrrLabel, FAMILY_D, n, z, zp, 0),
                _trusted(IrrLabel, FAMILY_D, n, z, zp, 1),
            )
        return (_trusted(IrrLabel, FAMILY_D, n, z, zp, 0),)
    raise DomainError(f"no merged-sequence map for family {family!r}")


def zeta_tilde(label: IrrLabel) -> Seq:
    """Based merged sequence of a family-D special label: prepend 0 and use
    the plain merge shifted up by one."""
    if label.family != FAMILY_D:
        raise DomainError("based merge applies to family D only")
    # a valid merge shifted up behind a 0 is always a based XSeq
    return (0,) + tuple(v + 1 for v in zeta(label))


def zeta_tilde_inverse(xt: Seq) -> tuple[IrrLabel, ...]:
    """All family-D labels whose based merged sequence is xt."""
    sc.ensure_xtseq(xt)
    return _zeta_tilde_inverse(xt)


def _zeta_tilde_inverse(xt: Seq) -> tuple[IrrLabel, ...]:
    # dropping the leading 0 of a based XSeq and lowering by one leaves an XSeq
    return _zeta_inverse(FAMILY_D, tuple(v - 1 for v in xt[1:]))


# ---------------------------------------------------------------------------
# special enumeration

def policy_m(family: str, n: int) -> int:
    """Default merged-sequence length index for each family."""
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
    DomainError.
    """
    sc.ensure_rank(n)
    if family == FAMILY_A:
        return tuple(
            SpecialRep(_trusted(IrrLabel, FAMILY_A, n, z, None, 0), z,
                       sc._beta0(z), 1)
            for z in sc.enumerate_space("Z", n if m is None else m, n)
        )
    if family not in (FAMILY_BC, FAMILY_D):
        raise DomainError(f"unknown family {family!r}")
    mm = policy_m(family, n) if m is None else m
    xs = sc.enumerate_space("X", mm, n)
    # enumerated sequences are valid XSeqs: weigh them without re-checking
    base = sc.base_x(mm)
    out: list[SpecialRep] = []
    for x in xs:
        b = sc._dev_weighted(x, base)
        f = _f_from_strict_count(family, len(sc._frakS(x)))
        for label in _zeta_inverse(family, x):
            out.append(SpecialRep(label, x, b, f))
    return tuple(out)


def special_f(label: IrrLabel) -> int:
    """f-invariant of a special label (DomainError when not special)."""
    if label.family == FAMILY_A:
        return 1
    return _f_from_strict_count(label.family, len(sc._frakS(zeta(label))))


def is_special(label: IrrLabel) -> bool:
    """True when the label names a special representation."""
    if label.family == FAMILY_A:
        return True
    try:
        zeta(label)
    except DomainError:
        return False
    return True


# ---------------------------------------------------------------------------
# symmetric-group deviation codec

@dataclass(frozen=True)
class XiBijection:
    """Bijection between rank-p family-A labels and nondecreasing sequences
    of length m+1 with total p (deviation profiles)."""

    p: int
    m: int

    def forward(self, label: IrrLabel) -> Seq:
        if label.family != FAMILY_A or label.n != self.p:
            raise DomainError(f"expected a family A label of rank {self.p}")
        z = align_row(label.z, self.m + 1)
        e = sc.seq_sub(z, sc.base_z(self.m))
        sc.ensure_eseq(e)
        return e

    def backward(self, e: Seq) -> IrrLabel:
        sc.ensure_eseq(e)
        if len(e) != self.m + 1:
            raise DomainError(f"expected length {self.m + 1}, got {len(e)}")
        if sum(e) != self.p:
            raise DomainError(f"expected total {self.p}, got {sum(e)}")
        z = sc.seq_add(e, sc.base_z(self.m))
        return IrrLabel(FAMILY_A, self.p, z)


def xi(p: int, m: int) -> XiBijection:
    """Deviation-profile bijection for rank-p symmetric-group labels at
    length index m; total of the profile equals p.  A p or m that is not
    an int raises ValidationError, a negative one DomainError."""
    sc._ensure_nat("p", p)
    sc._ensure_nat("m", m)
    return XiBijection(p, m)


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
    """Shift a row up to the requested length by prepending fresh zeros."""
    sc.ensure_zseq(z)
    return _align(z, length)


def _align(z: Seq, length: int) -> Seq:
    if length < len(z):
        raise DomainError(f"cannot shorten row of length {len(z)} to {length}")
    t = length - len(z)
    return tuple(range(t)) + tuple(v + t for v in z)


def aligned_rows(label: IrrLabel, k: int) -> tuple[Seq, Seq]:
    """Rows of a BC label aligned to lengths (k+1, k), of a D label to (k, k)."""
    lab = canonicalize(label)
    assert lab.zp is not None
    zp = _align(lab.zp, k)
    return _align(lab.z, k + 1 if lab.family == FAMILY_BC else k), zp


def shift(label: IrrLabel, t: int) -> IrrLabel:
    """Prepend t fresh slots to every row, preserving all invariants."""
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
    z, zp = label.z, label.zp
    last = len(z if zp is None else zp) - 1
    t = 0
    while t < last and z[t] == t and (zp is None or zp[t] == t):
        t += 1
    if t == 0:
        return label
    # dropping a common prefix keeps every row valid and the D row order
    z = tuple(v - t for v in z[t:])
    if zp is None:
        return _trusted(IrrLabel, FAMILY_A, label.n, z, None, 0)
    zp = tuple(v - t for v in zp[t:])
    return _trusted(IrrLabel, label.family, label.n, z, zp, label.kappa)
