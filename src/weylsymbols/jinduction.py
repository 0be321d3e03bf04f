"""Truncated induction on row labels for the supported subgroup embeddings.

Each Embedding names a product subgroup of a classical Weyl group:

* A_split:   S_r x S_q          inside S_{r+q}
* B_SpWq:    S_p x W_q          inside W_{p+q}
* B_WrWq:    W_r x W_q          inside W_{r+q}
* B_WrSpWq:  W_r x S_p x W_q    inside W_{r+p+q}
* C_WrWDq:   W_r x W'_q         inside W_{r+q}
* D_SpWDq:   S_p x W'_q         inside W'_{p+q}
* D_triple:  W'_r x S_p x W'_q  inside W'_{r+p+q}, the symmetric factor
             twisted by one of four sign characters (lam in [0,3])

One table, _KINDS, names each kind's target family and the (block, family)
of each factor; everything kind-specific reads it.

j_induce carries a tuple of special factor labels to the unique special
label of the ambient group whose b-invariant is the sum of the factors'.
The rule is one row sum.  With k = n + 1, every factor is aligned to the
target's row lengths, (k) for A, (k+1, k) for BC and (k, k) for D: rows of
a BC or D factor are shifted up to those lengths, and the row of an A
factor inside a BC or D target is split into two interleaved halves by
_double_dots (the odd half lands on the first row of a D target).  The image
rows are the entrywise sums of the factors' rows less (#factors - 1) base
rows (0, 1, ..., len - 1), canonicalized.  b-additivity is asserted on
every product.

The rows are summed as packed integers.  Each factor's aligned rows are
one int, entry i of the rows laid end to end in little-endian field i; an
image is the int sum of its factors' ints less (#factors - 1) packed base
rows, and its rows are unpacked from that int only when it is new.  The
field width is derived from the target (_layout): in a rank-n target with
longest row L, entry j of an image lies in [j, j + n], so no image entry
exceeds (L - 1) + n, and each field is the narrowest of 8, 16, 32 and 64
bits that holds that.  The int sum is exact whatever its intermediate
carries, so only the image's own entries, and each factor's, which are
no larger, must fit a field.  The two rows of a family-D image have equal
lengths, so they are equal exactly when the two halves of its int are.

j_induce reads and fills one cached table per target (family, rank),
_target: the target's layout; each factor label's aligned rows, packed
into one int, and its b; and the image table, packed image rows and kappa
-> (canonical image, its b).  So each factor label is aligned, packed and
given its b, and each distinct image has its rows canonicalized and is
built by the validating IrrLabel(...), once per target per process; every
factor is checked on every call, before the table is read, and every
call, one served from the table included, still has its b-additivity
checked against the stored b.  The tables hold only labels of targets a
caller induced into.  The private _layout, _packed_rows and _rows_form
serve a caller that sums packed rows itself: verify's record table packs
each part of the pools its maximal shapes name by _rows_form, a linear
form on the part's merged sequence, each split on a maximal shape is then
one int sum, and _packed_rows packs the row's label it is compared with
from that label's rows, apart from the form.

Degenerate family-D outputs carry a kappa bit that the row arithmetic does
not determine; the kappa-sum-mod-2 convention, kappa' = (sum of factor
kappas + lam) mod 2, is applied.  match_key holds the one rule for
comparing such labels: by their rows alone, the kappa bit being a
representative choice rather than a computed value.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cache

from . import seqcomb as sc
from .errors import DomainError, InvariantError, ValidationError
from .irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    _align,
    _canonical_rows,
    _ensure_label,
    b_invariant,
    canonicalize,
    special_f,
)
from .seqcomb import Seq

EMBED_A_SPLIT = "A_split"
EMBED_B_SP_WQ = "B_SpWq"
EMBED_B_WR_WQ = "B_WrWq"
EMBED_B_WR_SP_WQ = "B_WrSpWq"
EMBED_C_WR_WDQ = "C_WrWDq"
EMBED_D_SP_WDQ = "D_SpWDq"
EMBED_D_TRIPLE = "D_triple"

# kind -> (target family, (block, family) of each factor in argument order)
_KINDS = {
    EMBED_A_SPLIT: (FAMILY_A, ("r", FAMILY_A), ("q", FAMILY_A)),
    EMBED_B_SP_WQ: (FAMILY_BC, ("p", FAMILY_A), ("q", FAMILY_BC)),
    EMBED_B_WR_WQ: (FAMILY_BC, ("r", FAMILY_BC), ("q", FAMILY_BC)),
    EMBED_B_WR_SP_WQ: (FAMILY_BC, ("r", FAMILY_BC), ("p", FAMILY_A), ("q", FAMILY_BC)),
    EMBED_C_WR_WDQ: (FAMILY_BC, ("r", FAMILY_BC), ("q", FAMILY_D)),
    EMBED_D_SP_WDQ: (FAMILY_D, ("p", FAMILY_A), ("q", FAMILY_D)),
    EMBED_D_TRIPLE: (FAMILY_D, ("r", FAMILY_D), ("p", FAMILY_A), ("q", FAMILY_D)),
}

EMBED_KINDS = tuple(_KINDS)

def d_placements(r: int, p: int, q: int) -> tuple[int, ...]:
    """Admissible sign twists lam of the middle block of W'_r x S_p x W'_q:
    0 always, 1 when r = 0 and p >= 2, 2 when q = 0 and p >= 2, 3 when
    r = q = 0."""
    out = [0]
    if r == 0 and p >= 2:
        out.append(1)
    if q == 0 and p >= 2:
        out.append(2)
    if r == 0 and q == 0:
        out.append(3)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Embedding:
    """A product subgroup of a classical Weyl group, named by kind and the
    ranks of its factors (unused slots stay 0)."""

    kind: str
    r: int = 0
    p: int = 0
    q: int = 0
    lam: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EMBED_KINDS:
            raise ValidationError(f"unsupported embedding kind {self.kind!r}")
        for name in ("r", "p", "q", "lam"):
            if not sc.is_nat(getattr(self, name)):
                raise ValidationError(f"{name} must be a nonnegative int")
        _, *blocks = _KINDS[self.kind]
        used = {block for block, _ in blocks}
        for name in "rpq":
            if name not in used and getattr(self, name) != 0:
                raise ValidationError(f"{self.kind} does not use part {name}")
        if self.kind != EMBED_D_TRIPLE:
            if self.lam != 0:
                raise ValidationError(f"{self.kind} admits lam = 0 only")
            return
        if self.lam not in d_placements(self.r, self.p, self.q):
            raise ValidationError(
                f"lam = {self.lam} not admissible for blocks "
                f"({self.r}, {self.p}, {self.q})"
            )

    @property
    def n(self) -> int:
        """Rank of the ambient group."""
        return self.r + self.p + self.q

    def factor_signature(self) -> tuple[tuple[str, int], ...]:
        """(family, rank) of each factor, in j_induce argument order."""
        _, *blocks = _KINDS[self.kind]
        return tuple([(family, getattr(self, block)) for block, family in blocks])

    def target(self) -> tuple[str, int]:
        """(family, rank) of the ambient group."""
        return (_KINDS[self.kind][0], self.n)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "r": self.r, "p": self.p, "q": self.q}
        if self.kind == EMBED_D_TRIPLE:
            out["lambda"] = self.lam
        return out


# ---------------------------------------------------------------------------
# row splitting

def _double_dots(u: Seq) -> tuple[Seq, Seq]:
    """Split a strictly increasing row the caller has checked into its
    even- and odd-position halves, re-indexed: first[i] = u[2i] - i,
    second[i] = u[2i+1] - i - 1.  Both halves are strictly increasing and
    their deviation sums add up to the deviation sum of u."""
    first = tuple(u[2 * i] - i for i in range((len(u) + 1) // 2))
    second = tuple(u[2 * i + 1] - i - 1 for i in range(len(u) // 2))
    return first, second


def f_product(factors: tuple[IrrLabel, ...] | list[IrrLabel]) -> int:
    """f-invariant of an outer tensor product of special labels: the product
    of the factors' f-invariants (each factor checked by special_f)."""
    if not isinstance(factors, (tuple, list)):
        raise ValidationError(f"factors must be a tuple or list, got {factors!r}")
    out = 1
    for label in factors:
        out *= special_f(label)
    return out


# ---------------------------------------------------------------------------
# truncated induction

def _check_factor(i: int, family: str, rank: int, label: IrrLabel) -> None:
    _ensure_label("factor", label)
    if label.family != family or label.n != rank:
        raise DomainError(
            f"factor {i} must be family {family} rank {rank}, "
            f"got family {label.family} rank {label.n}"
        )
    if label.family == FAMILY_D and not label.is_dagger:
        raise DomainError(f"factor {i} must have its rows in dagger form")


def _factor_rows(
    target: str, lengths: tuple[int, ...], label: IrrLabel
) -> tuple[Seq, ...]:
    """Rows of a factor label aligned to the target's row lengths.  Two-row
    factors are shifted up (a D factor's first row gains one leading slot in
    a BC target); the row of an A factor in a BC or D target is split by
    _double_dots, its odd half landing on the first row of a D target.
    Aligning a row gives the same result for every shift of the label, so
    it is canonicalized first only when a row is longer than the target's."""
    z, zp = label.z, label.zp
    if zp is not None:
        if len(z) > lengths[0] or len(zp) > lengths[1]:
            lab = canonicalize(label)
            z, zp = lab.z, lab.zp
        return (_align(z, lengths[0]), _align(zp, lengths[1]))
    if len(z) > sum(lengths):
        z = canonicalize(label).z
    row = _align(z, sum(lengths))
    if target == FAMILY_A:
        return (row,)
    even, odd = _double_dots(row)
    return (odd, even) if target == FAMILY_D else (even, odd)


# how the rows of one target are packed into an int: its family, rank and
# row lengths, the struct format of the packed fields, one little-endian
# field per entry, and the packed base rows (0, 1, ..., len - 1)
Layout = tuple[str, int, tuple[int, ...], str, int]


@cache
def _target(family: str, n: int) -> tuple[
        Layout, dict[IrrLabel, tuple[int, int]],
        dict[tuple[int, int], tuple[IrrLabel, int]]]:
    """The one table of a target that j_induce reads and fills: its layout,
    factor label -> (its packed aligned rows, its b), and its image table,
    (packed image rows, kappa) -> (canonical image, its b)."""
    return _layout(family, n), {}, {}


def _layout(family: str, n: int) -> Layout:
    """The packed layout of a rank-n target.  Entry j of a rank-n image,
    like entry j of an aligned factor of rank r <= n, lies in [j, j + n],
    so its fields hold (L - 1) + n, L the longest row; the int sum of the
    factors is exact, so no other column sum needs a field."""
    k = n + 1
    lengths = {FAMILY_A: (k,), FAMILY_BC: (k + 1, k), FAMILY_D: (k, k)}[family]
    fields, _ = sc._key_fields(sum(lengths), max(lengths) - 1 + n)
    return (family, n, lengths, fields,
            sc._pack(fields, itertools.chain(*map(range, lengths))))


def _unpack(layout: Layout, packed: int) -> tuple[Seq, Seq | None]:
    """The rows that sc._pack laid out as packed (the second None for a
    one-row target)."""
    _, _, lengths, fields, _ = layout
    entries = sc._unpack(fields, packed)
    if len(lengths) == 1:
        return entries, None
    return entries[:lengths[0]], entries[lengths[0]:]


def _packed_rows(layout: Layout, label: IrrLabel) -> int:
    """The rows of a factor label aligned to the layout's target, packed
    into one int."""
    family, _, lengths, fields, _ = layout
    return sc._pack(fields, itertools.chain(*_factor_rows(family, lengths, label)))


def _rows_form(layout: Layout, family: str, m: int) -> sc.Form:
    """_packed_rows of the labels irreps._unmerge reads off a family-BC or
    D merged sequence x of length index m, as a linear form on x: the even
    slots of x are the first row of a BC label and the second of a D
    label.  At the target's merged length a row is as long as its
    target's or, a D row in a BC target, one slot shorter, and then
    aligned as _align aligns it: a field 0 first, then each entry plus
    1."""
    _, _, lengths, fields, _ = layout
    width = 8 * struct.calcsize(fields) // sum(lengths)
    coefs = [0] * (m + 1)
    const = start = 0
    for length, first in zip(lengths,
                             (0, 1) if family == FAMILY_BC else (1, 0)):
        slots = range(first, m + 1, 2)
        t = length - len(slots)
        for field, slot in enumerate(slots, start + t):
            coefs[slot] = 1 << (field * width)
            const += t << (field * width)
        start += length
    return const, tuple(coefs)


def j_induce(e: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel]) -> IrrLabel:
    """Image of a tuple of special factor labels under truncated induction
    along the embedding.  Output is canonicalized; its b-invariant equals
    the sum of the factors' b-invariants, which is asserted.  Every factor
    is checked against the factor signature before the target's table is
    read; the image is one int sum of the factors' packed rows, unpacked,
    canonicalized and validated only when the image table misses."""
    if not isinstance(factors, (tuple, list)):
        raise ValidationError(f"factors must be a tuple or list, got {factors!r}")
    if not isinstance(e, Embedding):
        raise ValidationError(f"embedding must be an Embedding, got {e!r}")
    sig = e.factor_signature()
    if len(factors) != len(sig):
        raise DomainError(f"{e.kind} takes {len(sig)} factors, got {len(factors)}")
    for i, ((fam, rank), label) in enumerate(zip(sig, factors)):
        _check_factor(i, fam, rank, label)
    layout, known, images = _target(*e.target())
    family, n, _, fields, base = layout
    # the base rows a column sum counts once too often per factor after
    # the first
    image = -(len(factors) - 1) * base
    want = 0
    for label in factors:
        entry = known.get(label)
        if entry is None:
            entry = known[label] = (_packed_rows(layout, label), b_invariant(label))
        image += entry[0]
        want += entry[1]
    kappa = 0
    if family == FAMILY_D:
        # a degenerate image: its two rows, the halves of its int, are equal
        half = 4 * struct.calcsize(fields)
        if image >> half == image & ((1 << half) - 1):
            kappa = (sum(f.kappa for f in factors) + e.lam) % 2
    hit = images.get((image, kappa))
    if hit is None:
        # canonical rows first, so the label validates the shorter rows
        out = IrrLabel(family, n, *_canonical_rows(*_unpack(layout, image)),
                       kappa=kappa)
        hit = images[image, kappa] = (out, b_invariant(out))
    out, got = hit
    if got != want:
        raise InvariantError(f"b-additivity failed for {e.kind}: {got} != {want}")
    return out


def match_key(label: IrrLabel) -> IrrLabel | tuple[int, Seq, Seq]:
    """Key under which labels compare: the rows (n, z, zp) of a degenerate
    family-D label, whose kappa bit follows the kappa-sum-mod-2 convention
    and is a representative choice rather than a computed value; the label
    itself otherwise."""
    if label.degenerate:
        return (label.n, label.z, label.zp)
    return label


def labels_match(a: IrrLabel, b: IrrLabel) -> bool:
    """Label equality up to the kappa bit of degenerate family-D labels:
    equality of match_key."""
    return match_key(a) == match_key(b)
