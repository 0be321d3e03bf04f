"""Class-side combinatorics: strata of unipotent classes and their
centralizer-component invariants.

A ClassLabel names one unipotent-class stratum by a single sequence:

* family "A": a strictly increasing row (same codec as the representation
  side; the two sides coincide here).
* family "B": a YSeq of even length index m = 2k.
* family "C": a based YSeq (y[1] >= 1) of even length index.
* family "D": a YSeq of odd length index m = 2k-1.

The map tau pairs each theorem-side label with its stratum: the label's
rows merged as irreps.zeta merges them, plus a base staircase (base_x for
B and D, base_xt for C).  Both count up from 0 in the even slots, and in
the odd slots from 0 (base_x) or 1 (base_xt); _staircase, which tau and
_tau_fiber share, adds or subtracts them slot by slot without building a
base.  tau_fiber checks y as ClassLabel does, then its kernel _tau_fiber
reads the rows off the slots of y less the staircase and labels them with
irreps._unmerge, which also owns the degenerate type-D fiber.
enumerate_classes checks family, n and m once and builds its classes
unchecked (irreps._trusted); engine.verify reads _tau_fiber on those.
class_invariants evaluates the component-group data: bbar (the weighted
deviation statistic of y), z (component count of the adjoint-group
centralizer), ztilde_over_z (extra components in the simply connected
cover), and, for family D only, uz_over_z (the intermediate
special-orthogonal cover).  All of them read off the interval set frakI(y)
and its odd-size part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, sub
from typing import Callable

from . import seqcomb as sc
from .errors import DomainError, InvariantError, ValidationError
from .irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    _SETTERS,
    _ensure_label,
    _merge,
    _slot_constructor,
    _trusted,
    _unmerge,
    aligned_rows,
    policy_m,
)
from .seqcomb import Seq

CLASS_A = "A"
CLASS_B = "B"
CLASS_C = "C"
CLASS_D = "D"

CLASS_FAMILIES = (CLASS_A, CLASS_B, CLASS_C, CLASS_D)

# class-side family -> label-side family of the tau-partners
LABEL_FAMILY = {
    CLASS_A: FAMILY_A,
    CLASS_B: FAMILY_BC,
    CLASS_C: FAMILY_BC,
    CLASS_D: FAMILY_D,
}

# class-side family -> the first odd-slot entry of the staircase tau adds:
# base_x = (0, 0, 1, 1, ...) for B and D, base_xt = (0, 1, 1, 2, ...) for C
_ODD_START = {CLASS_B: 0, CLASS_C: 1, CLASS_D: 0}


def _staircase(family: str, seq: Seq, op: Callable[[int, int], int]
               ) -> tuple[Seq, Seq]:
    """The even and the odd slots of seq, each combined slot by slot by op
    (add or sub) with the family's staircase."""
    even, odd = seq[0::2], seq[1::2]
    start = _ODD_START[family]
    return (tuple(map(op, even, range(len(even)))),
            tuple(map(op, odd, range(start, start + len(odd)))))


def _ensure_class_family(family: str) -> None:
    if family not in CLASS_FAMILIES:
        raise DomainError(f"unknown class family {family!r}")


def _ensure_class(c: object) -> None:
    """Reject a value handed in as a class that is not a ClassLabel."""
    if not isinstance(c, ClassLabel):
        raise ValidationError(f"class must be a ClassLabel, got {c!r}")


def _ensure_parity(family: str, m: int) -> None:
    """Reject a length index of the wrong parity for family B or D."""
    if family == CLASS_B and m % 2 != 0:
        raise ValidationError(f"family B needs even length index, got {m}")
    if family == CLASS_D and m % 2 != 1:
        raise ValidationError(f"family D needs odd length index, got {m}")


def _class_rank(family: str, y: Seq) -> int:
    """Statistic of a class sequence, after checking that y has the shape
    of its family (ClassLabel and tau_fiber share this rule)."""
    if family == CLASS_A:
        return sc.rho0(y)
    if family == CLASS_C:
        return sc.tilde_rho_prime(y)
    # the statistic validates y before its length is read
    total = sc.rho_prime(y)
    _ensure_parity(family, len(y) - 1)
    return total


@dataclass(frozen=True, slots=True)
class ClassLabel:
    """One unipotent-class stratum, named by its sequence."""

    family: str
    n: int
    y: Seq

    def __post_init__(self) -> None:
        if self.family not in CLASS_FAMILIES:
            raise ValidationError(f"unknown class family {self.family!r}")
        if not sc.is_nat(self.n):
            raise ValidationError(f"rank must be a nonnegative int, got {self.n!r}")
        total = _class_rank(self.family, self.y)
        if total != self.n:
            raise ValidationError(f"sequence statistic {total} != rank {self.n}")

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "y": list(self.y)}


_SETTERS[ClassLabel] = _slot_constructor(ClassLabel)


@dataclass(frozen=True, slots=True)
class ClassInvariants:
    """Centralizer-component data of one class."""

    bbar: int
    z: int
    ztilde_over_z: int
    uz_over_z: int | None = None

    def to_json(self) -> dict:
        out = {"bbar": self.bbar, "z": self.z, "ztilde_over_z": self.ztilde_over_z}
        if self.uz_over_z is not None:
            out["uz_over_z"] = self.uz_over_z
        return out


def class_policy_m(family: str, n: int) -> int:
    """Default sequence length index for each class family: the merged
    length of its tau-partners."""
    _ensure_class_family(family)
    return policy_m(LABEL_FAMILY[family], n)


# ---------------------------------------------------------------------------
# the stratum maps

def tau(family: str, label: IrrLabel) -> ClassLabel:
    """Stratum of a theorem-side label: its rows, aligned to the policy
    length, merged as zeta merges them, plus the family's base staircase
    (base_x for B and D, base_xt for C).  Raises DomainError when the sum
    leaves the stratum space (the label is outside the theorem's domain).
    """
    _ensure_class_family(family)
    _ensure_label("label", label)
    if label.family != LABEL_FAMILY[family]:
        raise DomainError(
            f"class family {family} pairs with {LABEL_FAMILY[family]} labels, "
            f"got {label.family}"
        )
    if family == CLASS_A:
        return ClassLabel(CLASS_A, label.n, label.z)
    x = _merge(label.family, *aligned_rows(label, label.n + 1))
    y = list(x)
    y[0::2], y[1::2] = _staircase(family, x, add)
    try:
        return ClassLabel(family, label.n, tuple(y))
    except ValidationError as exc:
        raise DomainError(f"label outside the family-{family} domain: {exc}") from exc


def tau_fiber(family: str, y: Seq, n: int | None = None) -> tuple[IrrLabel, ...]:
    """All labels mapping to the stratum y (two in the degenerate family-D
    case, one otherwise); y is checked as ClassLabel checks it, against n
    when n is given.  A family-B y of length index 0, a valid class, has
    no tau-partner: a BC merge needs an entry in each row (DomainError)."""
    _ensure_class_family(family)
    rank = _class_rank(family, y)
    if n is not None:
        sc.ensure_rank(n)
        if n != rank:
            raise DomainError(f"rank {n} != sequence statistic {rank}")
    if family == CLASS_B and len(y) < 3:
        raise DomainError(f"a family-B class needs length index m >= 2 for "
                          f"a tau-partner, got m={len(y) - 1}")
    return _tau_fiber(family, y, rank)


def _tau_fiber(family: str, y: Seq, n: int) -> tuple[IrrLabel, ...]:
    """tau_fiber of a class sequence y of rank n that the library built."""
    if family == CLASS_A:
        return (_trusted(IrrLabel, FAMILY_A, n, y, None, 0),)
    # the slots of y less the staircase are the merged rows, each strictly
    # increasing, as _unmerge needs
    return _unmerge(LABEL_FAMILY[family], n, *_staircase(family, y, sub))


# ---------------------------------------------------------------------------
# invariants

def class_invariants(c: ClassLabel) -> ClassInvariants:
    """Component-group data of a class, from the interval set of y (which
    the ClassLabel checked when it was built, so the kernels read it)."""
    _ensure_class(c)
    return _class_invariants(c, _intervals(c.family, c.y))


def _intervals(family: str, y: Seq) -> tuple[sc.Interval, ...]:
    """The interval set frakI(y) of a B, C or D class; none for family A."""
    return () if family == CLASS_A else sc._frakI(y)


def _class_invariants(c: ClassLabel, intervals: tuple[sc.Interval, ...]
                      ) -> ClassInvariants:
    """class_invariants of a class, given _intervals of its y."""
    m = len(c.y) - 1
    if c.family == CLASS_A:
        base = sc.base_z(m)
        ztilde = math.gcd(c.n, *map(sub, c.y, base))
        if c.n == 0:
            ztilde = 1
        return ClassInvariants(sc._beta0(c.y), 1, ztilde)
    # weighed against base_yt(m) for C, base_y(m) otherwise
    bbar = sc._weighted(c.y) - (sc._weighted_z(m) if c.family == CLASS_C
                                else 2 * sc._weighted_x(m))
    if c.family == CLASS_B:
        if not intervals:
            raise InvariantError(f"even-length stratum without intervals: {c.y!r}")
        return ClassInvariants(
            bbar,
            2 ** (len(intervals) - 1),
            2 if all(lo == hi for lo, hi in intervals) else 1,
        )
    if c.family == CLASS_C:
        # the intervals ascend, so an odd-size one starts above 0 exactly
        # when the last of them does
        odd = sc._odd(intervals)
        delta = 1 if odd and odd[-1][0] > 0 else 0
        exponent = len(intervals) - 1 - delta
        if exponent < 0:
            raise InvariantError(f"negative component exponent for {c.y!r}")
        return ClassInvariants(bbar, 2**exponent, 2**delta)
    # family D
    delta = 1 if sc._odd(intervals) else 0
    z = 2 ** max(len(intervals) - 1 - delta, 0)
    uz = 2 ** max(len(intervals) - 1, 0)
    all_singletons = all(lo == hi for lo, hi in intervals)
    if delta == 1:
        ratio = 4 if all_singletons else 2
    elif not intervals:
        ratio = 2
    elif not all_singletons:
        ratio = 1
    else:
        # a size-one interval is odd-size, which forces delta = 1
        raise InvariantError(f"unreachable component case for {c.y!r}")
    if ratio != (2 if all_singletons else 1) * (uz // z):
        raise InvariantError(f"component recombination failed for {c.y!r}")
    return ClassInvariants(bbar, z, ratio, uz // z)


# ---------------------------------------------------------------------------
# enumeration

_SPACE_KIND = {CLASS_A: "Z", CLASS_B: "Y", CLASS_C: "YT", CLASS_D: "Y"}


def enumerate_classes(family: str, n: int, m: int | None = None) -> tuple[ClassLabel, ...]:
    """All strata of the family at rank n, lexicographically, at the policy
    length (or caller-provided m).  Family, n and m are checked once; the
    enumerated sequences then have their family's shape and statistic n."""
    _ensure_class_family(family)
    sc.ensure_rank(n)
    mm = class_policy_m(family, n) if m is None else m
    ys = sc.enumerate_space(_SPACE_KIND[family], mm, n)
    # the space is never empty, so this raises where a per-y check would
    _ensure_parity(family, mm)
    out = []
    for y in ys:
        if family == CLASS_C and mm >= 2 * n + 2 and (y[0] != 0 or y[1] != 1):
            # at the policy length a based stratum always starts (0, 1, ...)
            raise InvariantError(f"based stratum starts {y[:2]}: {y!r}")
        out.append(_trusted(ClassLabel, family, n, y))
    return tuple(out)


# ---------------------------------------------------------------------------
# shifts (stability of published outputs under enlarging the ambient space)

def shift_class(c: ClassLabel, t: int) -> ClassLabel:
    """Stratum of the same class at length index enlarged by 2t (or t for
    family A): the label-side shift conjugated through tau."""
    _ensure_class(c)
    sc._ensure_nat("shift amount", t)
    if c.family == CLASS_A:
        head, step = tuple(range(t)), t
    elif c.family == CLASS_C:
        head, step = tuple(range(2 * t)), 2 * t
    else:
        head, step = sc.base_y(2 * t - 1), 2 * t
    return ClassLabel(c.family, c.n, head + tuple(v + step for v in c.y))
