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
double_dots (the odd half lands on the first row of a D target).  The image
rows are the entrywise sums of the factors' rows less (#factors - 1) base
rows (0, 1, ..., len - 1), canonicalized.  b-additivity is asserted on
every product.

The pool form j_induce_pool yields the image of every product of a list
of factor pools: each pool label is checked, aligned and given its b once,
and each distinct image row pair is built by the validating IrrLabel(...)
and canonicalized once per call, its b kept beside it for the b-additivity
check of every later product with the same rows.  j_induce is its
one-product case.  Both start a fresh image table on every call.  The
private _prepare_pool and _pool_images split that work for a caller that
induces many embeddings into one target: the induction graph of one verify
call prepares each (family, rank) pool once, trusting the special-label
index it reads, and shares one image table across all its shapes.

Degenerate family-D outputs carry a kappa bit that the row arithmetic does
not determine; the convention kappa' = (sum of factor kappas + lam) mod 2
is applied and marked by DEGENERATE_CONVENTION.  match_key holds the one
rule for comparing such labels: by their rows alone, the kappa bit being a
representative choice rather than a computed value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import sub
from typing import Iterator, Sequence

from . import seqcomb as sc
from .errors import DomainError, InvariantError, ValidationError
from .irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    _align,
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

DEGENERATE_CONVENTION = "kappa-sum-mod-2"


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


@dataclass(frozen=True)
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
        return tuple((family, getattr(self, block)) for block, family in blocks)

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

def double_dots(u: Seq) -> tuple[Seq, Seq]:
    """Split a strictly increasing row into its even- and odd-position
    halves, re-indexed: first[i] = u[2i] - i, second[i] = u[2i+1] - i - 1.
    Both halves are strictly increasing and their deviation sums add up to
    the deviation sum of u."""
    total = sc.rho0(u)
    first = tuple(u[2 * i] - i for i in range((len(u) + 1) // 2))
    second = tuple(u[2 * i + 1] - i - 1 for i in range(len(u) // 2))
    if sc._rho0(first) + sc._rho0(second) != total:
        raise InvariantError(f"split changed the deviation sum of {u!r}")
    return first, second


def f_product(factors: tuple[IrrLabel, ...] | list[IrrLabel]) -> int:
    """f-invariant of an outer tensor product of special labels: the product
    of the factors' f-invariants."""
    out = 1
    for label in factors:
        out *= special_f(label)
    return out


# ---------------------------------------------------------------------------
# truncated induction

def _check_factor(i: int, family: str, rank: int, label: IrrLabel) -> None:
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
    double_dots, its odd half landing on the first row of a D target.
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
    even, odd = double_dots(row)
    return (odd, even) if target == FAMILY_D else (even, odd)


def j_induce_pool(
    e: Embedding, pools: Sequence[Sequence[IrrLabel]]
) -> Iterator[tuple[tuple[IrrLabel, ...], IrrLabel]]:
    """(factors, image) of every product of the factor pools, in
    itertools.product order, each image as j_induce gives it.  Every pool
    label is checked against the factor signature before the first product,
    and its aligned rows, b-invariant and kappa are worked out once per
    pool; each distinct image is built by the validating IrrLabel(...) once
    per call, and the b-additivity of every product is asserted."""
    sig = e.factor_signature()
    if len(pools) != len(sig):
        raise DomainError(f"{e.kind} takes {len(sig)} factors, got {len(pools)}")
    for i, ((fam, rank), pool) in enumerate(zip(sig, pools)):
        for label in pool:
            _check_factor(i, fam, rank, label)
    return _pool_images(e, [_prepare_pool(e, pool) for pool in pools], {})


ImageTable = dict[tuple[tuple[Seq, ...], int], tuple[IrrLabel, int]]
# a pool label with its rows aligned to the target's, its b and its kappa
Prepared = tuple[IrrLabel, tuple[Seq, ...], int, int]


def _row_lengths(family: str, n: int) -> tuple[int, ...]:
    k = n + 1
    return {FAMILY_A: (k,), FAMILY_BC: (k + 1, k), FAMILY_D: (k, k)}[family]


def _prepare_pool(e: Embedding, pool: Sequence[IrrLabel]) -> list[Prepared]:
    """The pool's labels, trusted to fit the embedding's signature, each
    with its rows aligned to the target's, its b and its kappa; the result
    serves every embedding of the same target family and rank."""
    family, n = e.target()
    lengths = _row_lengths(family, n)
    return [(label, _factor_rows(family, lengths, label), b_invariant(label),
             label.kappa) for label in pool]


def _pool_images(
    e: Embedding, prepared: Sequence[Sequence[Prepared]], images: ImageTable
) -> Iterator[tuple[tuple[IrrLabel, ...], IrrLabel]]:
    """Every product of the prepared pools with its image, reading and
    filling the caller's image table, aligned rows and kappa -> (canonical
    image, its b); one table serves every embedding of one target family
    and rank."""
    family, n = e.target()
    # the base rows (0, 1, ..., len - 1) a column sum counts once too often
    # per factor after the first
    extra = len(prepared) - 1
    overlap = tuple(tuple(range(0, extra * length, extra))
                    for length in _row_lengths(family, n))
    for combo in itertools.product(*prepared):
        factors, aligned, bs, kappas = zip(*combo)
        rows = tuple(
            tuple(map(sub, map(sum, zip(*parts)), twice))
            for parts, twice in zip(zip(*aligned), overlap)
        )
        kappa = 0
        if family == FAMILY_D and rows[0] == rows[1]:
            kappa = (sum(kappas) + e.lam) % 2
        hit = images.get((rows, kappa))
        if hit is None:
            out = canonicalize(IrrLabel(family, n, *rows, kappa=kappa))
            hit = images[rows, kappa] = (out, b_invariant(out))
        out, got = hit
        want = sum(bs)
        if got != want:
            raise InvariantError(
                f"b-additivity failed for {e.kind}: {got} != {want}"
            )
        yield factors, out


def j_induce(e: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel]) -> IrrLabel:
    """Image of a tuple of special factor labels under truncated induction
    along the embedding: the one-product case of j_induce_pool.  Output is
    canonicalized; its b-invariant equals the sum of the factors'
    b-invariants."""
    return next(j_induce_pool(e, [(f,) for f in factors]))[1]


def match_key(label: IrrLabel) -> IrrLabel | tuple[int, Seq, Seq]:
    """Key under which labels compare: the rows (n, z, zp) of a degenerate
    family-D label, whose kappa bit follows DEGENERATE_CONVENTION and is a
    representative choice rather than a computed value; the label itself
    otherwise."""
    if label.degenerate:
        return (label.n, label.z, label.zp)
    return label


def labels_match(a: IrrLabel, b: IrrLabel) -> bool:
    """Label equality up to the kappa bit of degenerate family-D labels:
    equality of match_key."""
    return match_key(a) == match_key(b)
