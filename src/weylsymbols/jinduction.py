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

j_induce carries a tuple of special factor labels to the unique special
label of the ambient group whose b-invariant is the sum of the factors'.
The arithmetic is rowwise: align every factor to a common row length, add
deviations (splitting symmetric-group rows into two interleaved halves via
double_dots), and canonicalize the result.  b-additivity is asserted on
every call.

Degenerate family-D outputs carry a kappa bit that the row arithmetic does
not determine; the convention kappa' = (kappa + kappa~ + lam) mod 2 is
applied and marked by DEGENERATE_CONVENTION so downstream comparisons can
treat it as a representative choice rather than a computed value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import seqcomb as sc
from .errors import DomainError, InvariantError, ValidationError
from .irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    _align,
    aligned_rows,
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

EMBED_KINDS = (
    EMBED_A_SPLIT,
    EMBED_B_SP_WQ,
    EMBED_B_WR_WQ,
    EMBED_B_WR_SP_WQ,
    EMBED_C_WR_WDQ,
    EMBED_D_SP_WDQ,
    EMBED_D_TRIPLE,
)

# kind -> (uses r, uses p, uses q)
_KIND_PARTS = {
    EMBED_A_SPLIT: (True, False, True),
    EMBED_B_SP_WQ: (False, True, True),
    EMBED_B_WR_WQ: (True, False, True),
    EMBED_B_WR_SP_WQ: (True, True, True),
    EMBED_C_WR_WDQ: (True, False, True),
    EMBED_D_SP_WDQ: (False, True, True),
    EMBED_D_TRIPLE: (True, True, True),
}

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
        for name, value in (("r", self.r), ("p", self.p), ("q", self.q)):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(f"{name} must be a nonnegative int")
        uses = _KIND_PARTS[self.kind]
        for use, name, value in zip(uses, "rpq", (self.r, self.p, self.q)):
            if not use and value != 0:
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
        if self.kind == EMBED_A_SPLIT:
            return ((FAMILY_A, self.r), (FAMILY_A, self.q))
        if self.kind == EMBED_B_SP_WQ:
            return ((FAMILY_A, self.p), (FAMILY_BC, self.q))
        if self.kind == EMBED_B_WR_WQ:
            return ((FAMILY_BC, self.r), (FAMILY_BC, self.q))
        if self.kind == EMBED_B_WR_SP_WQ:
            return ((FAMILY_BC, self.r), (FAMILY_A, self.p), (FAMILY_BC, self.q))
        if self.kind == EMBED_C_WR_WDQ:
            return ((FAMILY_BC, self.r), (FAMILY_D, self.q))
        if self.kind == EMBED_D_SP_WDQ:
            return ((FAMILY_A, self.p), (FAMILY_D, self.q))
        return ((FAMILY_D, self.r), (FAMILY_A, self.p), (FAMILY_D, self.q))

    def target(self) -> tuple[str, int]:
        """(family, rank) of the ambient group."""
        if self.kind == EMBED_A_SPLIT:
            return (FAMILY_A, self.n)
        if self.kind in (EMBED_D_SP_WDQ, EMBED_D_TRIPLE):
            return (FAMILY_D, self.n)
        return (FAMILY_BC, self.n)

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
# alignment helpers

def _a_row(label: IrrLabel, length: int) -> Seq:
    return _align(canonicalize(label).z, length)


def _check_factors(e: Embedding, factors: tuple[IrrLabel, ...]) -> None:
    sig = e.factor_signature()
    if len(factors) != len(sig):
        raise DomainError(f"{e.kind} takes {len(sig)} factors, got {len(factors)}")
    for i, ((family, rank), label) in enumerate(zip(sig, factors)):
        if label.family != family or label.n != rank:
            raise DomainError(
                f"factor {i} must be family {family} rank {rank}, "
                f"got family {label.family} rank {label.n}"
            )
        if label.family == FAMILY_D and not label.is_dagger:
            raise DomainError(f"factor {i} must have its rows in dagger form")


def _row_sum(base_multiple: int, k: int, *rows: Seq) -> Seq:
    """Entrywise sum of rows minus base_multiple copies of (0,1,...,k)."""
    out = []
    for i in range(k + 1):
        out.append(sum(row[i] for row in rows) - base_multiple * i)
    return tuple(out)


# ---------------------------------------------------------------------------
# truncated induction

def j_induce(e: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel]) -> IrrLabel:
    """Image of a tuple of special factor labels under truncated induction
    along the embedding.  Output is canonicalized; its b-invariant equals
    the sum of the factors' b-invariants."""
    factors = tuple(factors)
    _check_factors(e, factors)
    n = e.n
    k = n + 1
    if e.kind == EMBED_A_SPLIT:
        za = _a_row(factors[0], n + 1)
        zb = _a_row(factors[1], n + 1)
        out = IrrLabel(FAMILY_A, n, _row_sum(1, n, za, zb))
    elif e.kind == EMBED_B_SP_WQ:
        first, second = double_dots(_a_row(factors[0], 2 * k + 1))
        z, zp = aligned_rows(factors[1], k)
        out = IrrLabel(
            FAMILY_BC, n, _row_sum(1, k, z, first), _row_sum(1, k - 1, zp, second)
        )
    elif e.kind == EMBED_B_WR_WQ:
        z, zp = aligned_rows(factors[0], k)
        zt, ztp = aligned_rows(factors[1], k)
        out = IrrLabel(
            FAMILY_BC, n, _row_sum(1, k, z, zt), _row_sum(1, k - 1, zp, ztp)
        )
    elif e.kind == EMBED_B_WR_SP_WQ:
        z, zp = aligned_rows(factors[0], k)
        first, second = double_dots(_a_row(factors[1], 2 * k + 1))
        zt, ztp = aligned_rows(factors[2], k)
        out = IrrLabel(
            FAMILY_BC,
            n,
            _row_sum(2, k, z, zt, first),
            _row_sum(2, k - 1, zp, ztp, second),
        )
    elif e.kind == EMBED_C_WR_WDQ:
        z, zp = aligned_rows(factors[0], k)
        zt, ztp = aligned_rows(factors[1], k)
        raised = (0,) + tuple(v + 1 for v in zt)
        out = IrrLabel(
            FAMILY_BC, n, _row_sum(1, k, z, raised), _row_sum(1, k - 1, zp, ztp)
        )
    elif e.kind == EMBED_D_SP_WDQ:
        rest = IrrLabel(FAMILY_D, 0, (0,), (0,))
        out = _d_triple(k, rest, factors[0], factors[1], 0)
    else:
        out = _d_triple(k, factors[0], factors[1], factors[2], e.lam)
    out = canonicalize(out)
    want = sum(b_invariant(f) for f in factors)
    got = b_invariant(out)
    if got != want:
        raise InvariantError(
            f"b-additivity failed for {e.kind}: {got} != {want}"
        )
    return out


def labels_match(a: IrrLabel, b: IrrLabel) -> bool:
    """Label equality, except that two degenerate family-D labels match when
    their rows do: their kappa bits follow DEGENERATE_CONVENTION and are a
    representative choice, not a computed value."""
    if a.degenerate and b.degenerate:
        return (a.n, a.z, a.zp) == (b.n, b.z, b.zp)
    return a == b


def _d_triple(
    k: int, left: IrrLabel, mid: IrrLabel, right: IrrLabel, lam: int
) -> IrrLabel:
    """Shared row arithmetic for the two family-D embeddings.  The odd
    half of the symmetric-group row lands on the first output row."""
    z, zp = aligned_rows(left, k)
    zt, ztp = aligned_rows(right, k)
    even_half, odd_half = double_dots(_a_row(mid, 2 * k))
    w = _row_sum(2, k - 1, z, zt, odd_half)
    wp = _row_sum(2, k - 1, zp, ztp, even_half)
    if w == wp:
        kappa = (left.kappa + right.kappa + lam) % 2
    else:
        kappa = 0
    return IrrLabel(FAMILY_D, left.n + mid.n + right.n, w, wp, kappa)
