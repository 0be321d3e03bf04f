"""Exhaustive verification of the special-symbol / class-invariant match.

For each classical family the strata of class sequences and the image of
minimal-degree induction from reflection subgroups are computed
independently and compared:

* membership: every maximal member of a class, a split y = x + x~ of its
  class sequence on a maximal shape, induces to each of the class's
  labels, and the members of all classes count every product of the
  maximal shapes' factor pools, so each row's members are exactly its
  label's fiber; only witnesses on other shapes are replayed through
  j_induce,
* degrees: the class beta statistic equals the label b-invariant,
* component counts: the class component invariant equals the maximal
  f-product over maximal decompositions,
* component ratios: the class ratio invariant equals the largest symmetry
  order realized by a stable f-maximal decomposition.

Decompositions are enumerated by backtracking over entrywise summands of
the class sequence y: the maximal members of enumerate_cz are two-block
shapes that split y as x + x~ and carry one special label per block (two
in degenerate family-D fibers). Shapes with a middle symmetric-group block
arise only as symmetry witnesses, from the symmetric decompositions
y = x + e + x of seqcomb, e being the deviation profile of the middle
factor: each is a split (x, x + e) of the row's split table whose two
parts' frakS masks are the interval ends, so verify reads them off that
table in order (seqcomb's own search of them stays the reference). Family
A scales deviation partitions by a divisor instead.
Enumeration order is lexicographic throughout, so every report is
byte-stable across runs.

One verify call builds each intermediate at most once and keeps none
past the call.  fa, fc and enumerate_cz build one call's record table and
the label's class row with verify's _class_rows (_label_row); bar_S builds
no record table.  Each public entry point, like verify, refuses a rank
below RANK_FLOOR or past the enumerations' size cap (ensure_floor) before
any work, and fa, fc and enumerate_cz check the label against the rank
before they build the record table.  Two caches outlive a
call.  One is jinduction's table per target (family, rank), read and
filled by j_induce, which witness replays and bar_S call once per
product: the target's layout, each factor label's packed aligned rows and
b, and its image table, (packed image, kappa) -> (canonical image, b).
The other is the special_reps memo, one pool per (family, rank, m), which
the family-A pools read; the BC and D pools are enumerated per call.

* The record table (_Parts), one record per split part.  Every XSeq
  record is keyed by the sequence packed into one int, one field per
  entry, sized so that every entry of a rank-n class sequence y fits
  (_split_fields).  A record holds the part's rank, its member-form
  labels, its f-invariant and its b-invariant, and, for a part of a pool
  that the maximal shapes' factor signatures name, its rows aligned to
  the target and packed into one int as jinduction packs them (a
  degenerate fiber's labels share their rows).  The pools of special
  labels fill the table: those the signatures name, and every rank of
  each family a split part belongs to (BC for B, BC and D for C, D for
  D), so every split part has a record.  Each part family's pools, ranks
  0 to n, come from one walk over the XSeqs x at the target's merged
  length (seqcomb._walk, which streams), whose sums run along the
  entries: the statistic gives the part's rank, the weighted sum its b
  (less base_x's, read in closed form), the equal neighbours its frakS
  mask (bit i set when i is in frakS(x)), whose bit count gives its f,
  and two linear forms its key and its rows aligned and packed
  (_key_form, jinduction._rows_form), so no record is packed, weighed or
  counted on its own.  The labels come from irreps._unmerge, the family-A
  pools from special_reps.  A family-D pool of a C target is filed under
  its based complement (0, x0 + 1, x1 + 1, ...), which its key form packs,
  and carries that complement's frakS mask (x's moved up one, and 0).
* One table of the maximal shapes by block sizes, shared by every row.
* Per class, one split table of y: the split search yields packed first
  parts x, each complement is packed(y) - x, and both records are read by
  int, with no sequence tuple built per split.  The search enters past the
  prefix on which y equals its space's base (base_y, base_yt for C), where
  x is forced to base_x: one compare of packed(y) with the packed base,
  which the record table holds with packed base_x, finds it.  Each split
  on a maximal shape induces to the int sum packed(x) + packed(x~) - base,
  of b-invariant b(x) + b(x~) (a D shape's rank-0 A middle factor packs to
  the base rows and has b 0), and a row passes when these are its label's
  packed rows and b; the maximal f-product is read as f(x) * f(x~).  Those
  rows are packed from the first label of y's tau fiber at the policy
  length, whose rows already have the target's lengths, and the labels of
  a two-label D class share them and their b.  They are packed by
  jinduction._packed_rows from the label's rows, apart from the record
  table's row form, so the member check's two sides are computed
  independently.  ParahoricSpec and label tuples are built only for the
  witnesses the row prints: the f-maximal members and the symmetry
  witness, which is replayed through j_induce only when its shape is not
  maximal (on a maximal shape it is one of the class's own splits), once
  per class, as the labels of a two-label D class share one match_key.
  The C and D split witness reads the same split table, and so do the B
  and D symmetric witnesses (_symmetric_splits): when every interval of
  frakI(y) has size one, a split whose two parts' frakS masks both are
  the mask of the interval ends is self-matched, and x, merged back from
  its first label, gives e = y - 2x, kept when nonnegative and
  nondecreasing; no second search runs per class.  One interval set
  frakI(y) serves the class invariants and that mask; the two rows of a
  two-label D class share all of these.  The C and D witnesses need parts
  with a strict position (beyond the base one of a C complement), which
  are exactly the parts whose first label is not degenerate: a D merge at
  odd length has an even count of strict positions, zero exactly on equal
  rows.
* The count identity (counted once per class, as the labels of a
  two-label D class share y): the sum over classes and their maximal
  splits of |fiber(x)| * |fiber(x~)| is the sum over maximal shapes of the
  product of their pool sizes.  Members induce to their classes' distinct
  labels, so are disjoint, and cover every product: each row's members
  are its label's whole fiber.

Every member factor has one form, the member form: BC and D labels as the
rows split them out of y, at the target's merged length, A labels
canonical; so members and witnesses compare as they are.
Split parts found by the enumerators below are valid by construction, so
they go through the unvalidated kernels of seqcomb and irreps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, partial
from operator import le
from typing import Callable, Iterator

from . import seqcomb as sc
from .errors import DomainError, InvariantError
from .irreps import (
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    SpecialSeq,
    _f_from_strict_count,
    _merge,
    _partition_to_z,
    _special_seqs,
    _trusted,
    _unmerge,
    _z_to_partition,
    b_invariant,
    canonicalize,
    label_str,
    policy_m,
    seq_str,
    special_reps,
)
from .jinduction import (
    EMBED_A_SPLIT,
    EMBED_B_WR_SP_WQ,
    EMBED_B_WR_WQ,
    EMBED_C_WR_WDQ,
    EMBED_D_TRIPLE,
    Embedding,
    _layout,
    _packed_rows,
    _rows_form,
    j_induce,
    labels_match,
)
from .springer import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    LABEL_FAMILY,
    ClassLabel,
    _class_invariants,
    _ensure_class_family,
    _intervals,
    _tau_fiber,
    enumerate_classes,
    tau,
)

Seq = tuple[int, ...]

# smallest ranks whose diagram is irreducible of the stated type and whose
# shape-symmetry group has the advertised order
RANK_FLOOR = {CLASS_A: 2, CLASS_B: 2, CLASS_C: 3, CLASS_D: 4}


def ensure_floor(family: str, n: int) -> None:
    """Reject an unknown class family, a rank not an int >= RANK_FLOOR,
    and (ResourceError) a rank whose merged length or itself is past the
    enumerations' size cap, before any work that grows with the rank."""
    _ensure_class_family(family)
    sc.ensure_rank(n)
    if n < RANK_FLOOR[family]:
        raise DomainError(
            f"family {family} needs rank >= {RANK_FLOOR[family]}, got {n}"
        )
    sc._ensure_capped(policy_m(LABEL_FAMILY[family], n), n)


# ---------------------------------------------------------------------------
# subgroup shapes

@dataclass(frozen=True, slots=True)
class ParahoricSpec:
    """Shape of a reflection subgroup used in the enumeration.

    Family A uses a divisor d of n and always the first (coset 0) of the
    n/d equally spaced node sets; families B, C, D use block sizes
    (r, p, q), the family-D middle symmetric-group block untwisted
    (placement 0). Maximality is computed from the shape, never declared
    by callers.
    """

    family: str
    n: int
    d: int = 1
    r: int = 0
    p: int = 0
    q: int = 0

    def __post_init__(self) -> None:
        _ensure_class_family(self.family)
        sc._ensure_int("rank", self.n)
        for name in ("d", "r", "p", "q"):
            sc._ensure_int(name, getattr(self, name))
        if self.n <= 0:
            raise DomainError(f"rank must be positive, got {self.n}")
        if self.family == CLASS_A:
            if self.d < 1 or self.n % self.d:
                raise DomainError(f"d must divide n, got d={self.d}, n={self.n}")
            if self.r or self.p or self.q:
                raise DomainError("family A shapes carry only a divisor")
            return
        if self.d != 1:
            raise DomainError(f"family {self.family} shapes carry no divisor data")
        if min(self.r, self.p, self.q) < 0 or self.r + self.p + self.q != self.n:
            raise DomainError(
                f"block sizes must be nonnegative with r+p+q = {self.n}, "
                f"got ({self.r}, {self.p}, {self.q})"
            )
        if self.family == CLASS_C and self.p:
            raise DomainError("family C shapes have no middle block")

    def diagram_size(self) -> int:
        """Number of affine diagram nodes the shape occupies."""
        if self.family == CLASS_A:
            return self.n - self.d
        middle = max(self.p - 1, 0)
        if self.family == CLASS_B:
            return self.r + middle + self.q
        if self.family == CLASS_C:
            return self.r + (self.q if self.q >= 2 else 0)
        left = self.r if self.r >= 2 else 0
        right = self.q if self.q >= 2 else 0
        return left + middle + right

    def is_maximal(self) -> bool:
        """True when the shape omits exactly one affine diagram node."""
        nodes = self.n if self.family == CLASS_A else self.n + 1
        return self.diagram_size() == nodes - 1

    def to_json(self) -> dict:
        # schema 2 names a coset (A) and a placement (D), always 0 here; the
        # constant keys keep the output and every pinned digest as they were
        if self.family == CLASS_A:
            return {"family": self.family, "n": self.n, "d": self.d, "coset": 0}
        out = {"family": self.family, "n": self.n, "r": self.r, "p": self.p,
               "q": self.q}
        if self.family == CLASS_D:
            out["lam"] = 0
        return out


def _omega_order(family: str, n: int) -> int:
    """Order of the symmetry group permuting the affine diagram nodes."""
    ensure_floor(family, n)
    if family == CLASS_A:
        return n
    return 4 if family == CLASS_D else 2


Member = tuple[ParahoricSpec, tuple[IrrLabel, ...]]
Shapes = dict[tuple[int, int], ParahoricSpec]


def _maximal_shapes(family: str, n: int) -> Shapes:
    """Maximal shapes of a rank-n target by block sizes (r, q): the
    two-block shapes of B, C and D; family A's one, the full group, is
    stored under (n, 0)."""
    if family == CLASS_A:
        return {(n, 0): ParahoricSpec(CLASS_A, n, d=1)}
    shapes = (ParahoricSpec(family, n, r=r, q=n - r) for r in range(n + 1))
    return {(s.r, s.q): s for s in shapes if s.is_maximal()}


def _pool_seqs(family: str, rank: int, n: int) -> Iterator[SpecialSeq]:
    """Special representations of the family at the rank in the member form
    of a rank-n target, one group per merged sequence as _special_seqs
    gives them: BC and D labels at the target's merged length, as rows
    split them out of y; each A label canonical, in a group of its own
    under its row, with f = 1."""
    if family == FAMILY_A:
        return ((rep.xseq, rep.b, 1, (canonicalize(rep.label),))
                for rep in special_reps(FAMILY_A, rank))
    return _special_seqs(family, rank, policy_m(family, n))


# ---------------------------------------------------------------------------
# the record table

# A split part's record: its rank, its member-form labels (two for a
# degenerate family-D part), its f-invariant, its rows aligned to the
# target and packed (None off the pools the maximal shapes name), its
# b-invariant and its frakS mask, bit i set when i is in frakS of the part
# as y holds it.
Record = tuple[int, tuple[IrrLabel, ...], int, int | None, int, int]
# A split x + x~: the records of the first part x and the complement x~.
Split = tuple[Record, Record]


# (family, rank) -> a pool's labels
Pools = dict[tuple[str, int], tuple[IrrLabel, ...]]

# the label families of the split parts of a class family's sequences
_PART_FAMILIES = {CLASS_A: (), CLASS_B: (FAMILY_BC,),
                  CLASS_C: (FAMILY_BC, FAMILY_D), CLASS_D: (FAMILY_D,)}


class _Parts:
    """One call's record table: one XSeq record per split part, keyed by
    packed sequence, and the pools of special labels that fill it (see the
    module docstring).  Each part family's records and pools, every rank
    from 0 to n, come from one seqcomb._walk of the XSeqs at the target's
    merged length, whose running sums give each part's rank, b, frakS mask
    and f, key and packed rows; family-A pools come from special_reps."""

    def __init__(self, family: str, n: int, shapes: Shapes) -> None:
        self.family = family
        self.n = n
        self.fields, self.width = _split_fields(family, n)
        # a C class sequence at the policy length starts (0, 1), and x[0] =
        # x[1] = 0 makes every complement a based XSeq
        self.space = sc._split_space(self.fields, self.width,
                                     policy_m(LABEL_FAMILY[family], n),
                                     family == CLASS_C)
        self.records: dict[int, Record] = {}
        # the maximal shape of a split by its first part's rank, the two
        # parts' ranks adding up to n (None off the maximal shapes)
        self.shape_at = [shapes.get((r, n - r)) for r in range(n + 1)]
        # the packed rows of the one target every B, C and D shape induces
        # into
        self.layout = (None if family == CLASS_A
                       else _layout(LABEL_FAMILY[family], n))
        # the pools the shapes name, their parts aligned to the target,
        # then every rank of the part families, so that every split part
        # has a record
        named = [*dict.fromkeys(key for spec in shapes.values()
                                for key in _signature(spec))]
        pools: dict[tuple[str, int], list[IrrLabel]] = {
            key: [] for key in named + [(fam, rank)
                                        for fam in _PART_FAMILIES[family]
                                        for rank in range(n + 1)]}
        for fam in _PART_FAMILIES[family]:
            self._fill(fam, [pools[fam, rank] for rank in range(n + 1)],
                       [(fam, rank) in named for rank in range(n + 1)])
        for fam, rank in named:
            if fam == FAMILY_A:
                pools[fam, rank] = [lab for *_, fiber in
                                    _pool_seqs(fam, rank, n) for lab in fiber]
        self.pools: Pools = {key: tuple(labels)
                             for key, labels in pools.items()}
        # the labels of family A's one pool, which its rows look up
        self.a_pool = frozenset(self.pools.get((FAMILY_A, n), ()))

    def _fill(self, fam: str, pools: list[list[IrrLabel]],
              aligned: list[bool]) -> None:
        """Record the merged sequences of the part family's pools, ranks 0
        to n, from one walk, and add their labels to pools by rank.  A part
        of a rank whose aligned flag is set carries its rows aligned and
        packed; a C target files a D sequence x under its based complement
        (0, x0 + 1, x1 + 1, ...), of the rank, labels, f, rows and b of x
        and the complement's own frakS mask."""
        n = self.n
        m = policy_m(fam, n)
        based = self.family == CLASS_C and fam == FAMILY_D
        base = sc._weighted_x(m)
        f_of = [_f_from_strict_count(fam, count) for count in range(m + 2)]
        records = self.records
        for x, rank, w, mask, key, rows in sc._walk(
                "X", m, 0, n, _key_form(self.width, m, based),
                _rows_form(self.layout, fam, m)):
            fiber = _unmerge(fam, rank, x[0::2], x[1::2])
            # the labels of a degenerate fiber share their rows; a based
            # complement's frakS is x's moved up one, and 0
            records[key] = (rank, fiber, f_of[mask.bit_count()],
                            rows if aligned[rank] else None, w - base,
                            mask << 1 | 1 if based else mask)
            pools[rank] += fiber

    def splits(self, y: Seq) -> list[Split]:
        """Every two-block split x + x~ of a B, C or D class sequence y, in
        the enumerator's order, as the records of its parts."""
        records = self.records
        whole = sc._pack(self.fields, y)
        return [(records[first], records[whole - first])
                for first in sc._split_firsts(y, whole, self.space)]


def _key_form(width: int, m: int, based: bool) -> sc.Form:
    """A merged sequence x of length index m packed into fields of the
    width, entry i in field i, as a linear form on x; when based, its based
    complement (0, x0 + 1, x1 + 1, ...), entry i in field i + 1."""
    shift = width if based else 0
    coefs = tuple(1 << (i * width + shift) for i in range(m + 1))
    return (sum(coefs) if based else 0), coefs


def _signature(spec: ParahoricSpec) -> tuple[tuple[str, int], ...]:
    """The (family, rank) of each factor pool of a maximal shape; family
    A's one shape, the full group, has the one pool (A, n)."""
    if spec.family == CLASS_A:
        return ((FAMILY_A, spec.n),)
    return _embedding(spec).factor_signature()


def _product_count(parts: _Parts, shapes: Shapes) -> int:
    """The number of products of the maximal shapes' factor pools: the sum
    over shapes of the product of their pool sizes."""
    return sum(math.prod(len(parts.pools[key]) for key in _signature(spec))
               for spec in shapes.values())


def _split_fields(family: str, n: int) -> tuple[str, int]:
    """The packed fields of the split parts of a rank-n class sequence y,
    one per entry, and their width.  y, of length m + 1 at the policy
    length, is a merged rank-n special label plus a base staircase, both
    ending in m // 2 but for the label's last entry, which lies at most n
    above it: no entry of y exceeds 2 (m // 2) + n, and the label with one
    row of weight n reaches that bound."""
    m = policy_m(LABEL_FAMILY[family], n)
    return sc._key_fields(m + 1, 2 * (m // 2) + n)


def _maximal(parts: _Parts, splits: list[Split]
             ) -> tuple[int, int, set[tuple[int, int]]]:
    """The number of members of the splits on maximal shapes, one per
    choice of label in each block's fiber (degenerate family-D fibers hold
    two), their largest f-product f(x) * f(x~) (0 when there is none), and
    their images: packed(x) + packed(x~) - base rows, with b(x) + b(x~)."""
    shape_at, base = parts.shape_at, parts.layout[4]
    members = fa_value = 0
    images: set[tuple[int, int]] = set()
    for px, pxt in splits:
        if shape_at[px[0]] is None:
            continue
        members += len(px[1]) * len(pxt[1])
        f = px[2] * pxt[2]
        if f > fa_value:
            fa_value = f
        images.add((px[3] + pxt[3] - base, px[4] + pxt[4]))
    return members, fa_value, images


def _member_forms(parts: _Parts, splits: list[Split], f: int | None = None
                  ) -> tuple[Member, ...]:
    """The members (shape, factors) of the splits on maximal shapes, in
    order, one per choice of label in each block's fiber; only those of
    f-product f when f is given."""
    out = []
    for px, pxt in splits:
        spec = parts.shape_at[px[0]]
        if spec is None or (f is not None and px[2] * pxt[2] != f):
            continue
        for lx in px[1]:
            for lxt in pxt[1]:
                out.append((spec, (lx, lxt)))
    return tuple(out)


def _stratum_class(label: IrrLabel, family: str, n: int) -> ClassLabel:
    """Class of a stratum label of rank n, tau of the label (DomainError
    for a label outside the stratum or of another rank)."""
    if family == CLASS_A:
        if label.family != FAMILY_A or label.n != n:
            raise DomainError(
                f"family A rows take a family A label of rank {n}, "
                f"got family {label.family} rank {label.n}"
            )
    elif label.n != n:
        raise DomainError(
            f"block sizes must add up to the rank {n}, "
            f"got a label of rank {label.n}"
        )
    return tau(family, label)


def _a_label(e: Seq, p: int) -> IrrLabel:
    # e is nondecreasing with total p, so e + base_z is a rank-p row
    z = sc.seq_add(e, sc.base_z(len(e) - 1))
    return canonicalize(_trusted(IrrLabel, FAMILY_A, p, z, None, 0))


_D_FILLER = IrrLabel(FAMILY_A, 0, (0,))


def _embedding(spec: ParahoricSpec) -> Embedding:
    """Induction embedding of a family B, C or D shape."""
    if spec.family == CLASS_B:
        if spec.p == 0:
            return Embedding(EMBED_B_WR_WQ, r=spec.r, q=spec.q)
        return Embedding(EMBED_B_WR_SP_WQ, r=spec.r, p=spec.p, q=spec.q)
    if spec.family == CLASS_C:
        return Embedding(EMBED_C_WR_WDQ, r=spec.r, q=spec.q)
    return Embedding(EMBED_D_TRIPLE, r=spec.r, p=spec.p, q=spec.q)


def _d_middle(spec: ParahoricSpec, factors: tuple) -> tuple:
    """Factors of a member in its embedding's order: a D two-block member
    gains the rank-0 A middle factor of its D_triple embedding; any other
    member's factors pass unchanged."""
    if spec.family != CLASS_D or spec.p:
        return factors
    return (factors[0], _D_FILLER, factors[1])


def _replay(spec: ParahoricSpec, factors: tuple[IrrLabel, ...],
            target: IrrLabel) -> bool:
    """Recompute the induction image of a member and compare to the
    canonical target; degenerate family-D images compare by rows only."""
    if spec.family == CLASS_A:
        step = spec.n // spec.d
        acc = factors[0]
        for h in range(1, spec.d):
            emb = Embedding(EMBED_A_SPLIT, r=h * step, q=step)
            acc = j_induce(emb, (acc, factors[h]))
        return acc == target
    return labels_match(j_induce(_embedding(spec), _d_middle(spec, factors)),
                        target)


def _label_row(label: IrrLabel, family: str, n: int
               ) -> tuple[ClassRow, _Parts]:
    """The verify row of a label handed to a public entry point, and the
    call's own record table.  The family and rank are checked, then the
    label (by canonicalize) and its class, tau's, before the record
    table is built; _class_rows builds the row of the canonical label as
    verify builds its class's rows."""
    ensure_floor(family, n)
    canon = canonicalize(label)
    c = _stratum_class(canon, family, n)
    parts = _Parts(family, n, _maximal_shapes(family, n))
    rows, _ = _class_rows(family, n, c, (canon,), parts)
    return rows[0], parts


def enumerate_cz(label: IrrLabel, family: str, n: int) -> tuple[Member, ...]:
    """All maximal-shape members whose induction image is the given label.

    Members are found by splitting the class sequence of the label into two
    blocks, so the label must lie in the stratum (DomainError otherwise);
    only shapes omitting a single affine node are kept. Degenerate family-D
    block fibers are expanded, one member per choice; family A's one member
    is the full group with the label itself.
    """
    row, parts = _label_row(label, family, n)
    if family == CLASS_A:
        return ((parts.shape_at[n], (row.label,)),)
    return _member_forms(parts, parts.splits(row.y))


# ---------------------------------------------------------------------------
# maximal f-product and symmetry order

def fa(label: IrrLabel, family: str, n: int) -> int:
    """Largest factor f-product over the maximal members of the label."""
    return _label_row(label, family, n)[0].fa_value


def _a_divisor_members(label: IrrLabel, n: int) -> tuple[tuple[int, IrrLabel], ...]:
    """Divisors d of n dividing every part of the label's deviation
    partition, ascending, each with the scaled rank-n/d label."""
    part = _z_to_partition(label.z)
    out = []
    for d in range(1, n + 1):
        if n % d or any(v % d for v in part):
            continue
        scaled = tuple(v // d for v in part)
        out.append((d, IrrLabel(FAMILY_A, n // d, _partition_to_z(scaled))))
    return tuple(out)


def _symmetric_member(parts: _Parts, record: Record, e: Seq) -> Member:
    """Member realizing a self-matched decomposition y = x + e + x, given
    the record of x; its f-product is the square of x's f."""
    rank, labels = record[:2]
    lab = labels[0]
    p = sum(e)
    spec = ParahoricSpec(parts.family, parts.n, r=rank, p=p, q=rank)
    if p:
        return spec, (lab, _a_label(e, p), lab)
    return spec, (lab, lab)


def _split_witness(parts: _Parts, splits: list[Split], fa_value: int
                   ) -> tuple[int, Member | None]:
    """First two-block member at the maximal f-product whose parts both
    have a label that is not degenerate: order 2 with it, else 1."""
    for px, pxt in splits:
        lx, lxt = px[1][0], pxt[1][0]
        if px[2] * pxt[2] != fa_value or lx.degenerate or lxt.degenerate:
            continue
        spec = parts.shape_at[px[0]]
        if spec is None:
            spec = ParahoricSpec(parts.family, parts.n, r=px[0], q=pxt[0])
        return 2, (spec, (lx, lxt))
    return 1, None


def _symmetric_splits(y: Seq, intervals: tuple[sc.Interval, ...],
                      splits: list[Split]) -> list[tuple[Record, Seq]]:
    """The self-matched decompositions y = x + e + x of a B or D class
    sequence y, as (record of x, e), read off its split table in order:
    seqcomb.symmetric_decompositions(y), with intervals = frakI(y).

    They exist only when every interval has size one, and then a split
    (x, x~) is matched with frakS(x) = frakS(x~) exactly when both sets
    are the interval ends.  So a split is kept when both parts' frakS masks
    are the ends' mask and e = x~ - x is nonnegative and nondecreasing; x
    is merged back from the first label of its record only for the splits
    whose masks pass."""
    if any(lo != hi for lo, hi in intervals):
        return []
    ends = sum(1 << lo for lo, _ in intervals)
    out = []
    for px, pxt in splits:
        if px[5] == ends == pxt[5]:
            lab = px[1][0]
            x = _merge(lab.family, lab.z, lab.zp)
            e = tuple(v - 2 * u for v, u in zip(y, x))
            if e[0] >= 0 and all(map(le, e, e[1:])):
                out.append((px, e))
    return out


def _fc_with_witness(label: IrrLabel, y: Seq,
                     intervals: tuple[sc.Interval, ...], splits: list[Split],
                     fa_value: int, parts: _Parts
                     ) -> tuple[int, Member | None]:
    """Symmetry order and witness of a canonical label, given y, its
    interval set frakI(y) (read for B and D), its split table (empty for
    family A), fa and the call's record table, which gives the family and
    rank.  The B and D symmetric witnesses are read off the split table
    (_symmetric_splits), with no search of their own."""
    family, n = parts.family, parts.n
    if family == CLASS_A:
        # at d = 1 the witness is the full group with the label itself
        d, tilde = _a_divisor_members(label, n)[-1]
        return d, (ParahoricSpec(CLASS_A, n, d=d), (tilde,) * d)
    if family == CLASS_C:
        # the node flip fixes a member exactly when the based part keeps a
        # strict position beyond its base one: its label is not degenerate
        return _split_witness(parts, splits, fa_value)
    sym = _symmetric_splits(y, intervals, splits)
    if family == CLASS_B:
        if not sym:
            return 1, None
        # a self-matched decomposition is automatically f-maximal
        record, e = sym[0]
        if record[2] ** 2 != fa_value:
            raise InvariantError(
                f"self-matched member misses the maximal f-product on {y!r}"
            )
        return 2, _symmetric_member(parts, record, e)
    # family D: full symmetry needs a self-matched split with a strict
    # position, that is x's label not degenerate
    for record, e in sym:
        if not record[1][0].degenerate:
            return 4, _symmetric_member(parts, record, e)
    # a self-matched decomposition without strict positions exists only on
    # interval-free sequences, where the end-to-end flip still fixes it
    if sym:
        return 2, _symmetric_member(parts, *sym[0])
    # half symmetry via a split whose parts both extend across the prong
    # swap (both labels not degenerate), at maximal f-product
    return _split_witness(parts, splits, fa_value)


def fc(label: IrrLabel, family: str, n: int) -> int:
    """Largest shape-symmetry subgroup order fixing some f-maximal member.
    InvariantError when the label's row fails witnesses_ok (a maximal
    member of its class induces to another label, or its symmetry witness
    off the maximal shapes does not replay) or the order does not divide
    the shape-symmetry group's."""
    row, _ = _label_row(label, family, n)
    order = _omega_order(family, n)
    if not row.witnesses_ok:
        failed = ("witnesses_ok fails, a maximal member or the symmetry "
                  "witness does not induce to the label")
    elif order % row.fc_value:
        failed = f"symmetry order {row.fc_value} does not divide {order}"
    else:
        return row.fc_value
    raise InvariantError(f"{_where(family, n, row.y, row.label)}: {failed}")


# ---------------------------------------------------------------------------
# stratum membership and the full report

def bar_S(family: str, n: int) -> frozenset[IrrLabel]:
    """Induction image over all maximal shapes, as canonical labels,
    computed purely on the label side (no class sequences involved), one
    public j_induce per product of the member-form factor pools.  verify
    reaches the same image through its count identity instead; this
    per-product form stays the independent reference for it."""
    ensure_floor(family, n)
    shapes = _maximal_shapes(family, n)
    pools = {key: [lab for *_, fiber in _pool_seqs(*key, n) for lab in fiber]
             for key in dict.fromkeys(key for spec in shapes.values()
                                      for key in _signature(spec))}
    if family == CLASS_A:
        return frozenset(pools[FAMILY_A, n])
    embs = [_embedding(spec) for spec in shapes.values()]
    return frozenset(
        j_induce(emb, factors) for emb in embs
        for factors in itertools.product(
            *(pools[key] for key in emb.factor_signature()))
    )


@dataclass(frozen=True, slots=True)
class ClassRow:
    """Verification record for one class sequence and one stratum label."""

    label: IrrLabel
    y: Seq
    b_label: int
    b_class: int
    fa_value: int
    z_value: int
    fc_value: int
    ratio_value: int
    witnesses: tuple[Member, ...]
    holds_b1: bool
    holds_b2: bool
    holds_b3: bool
    witnesses_ok: bool

    def ok(self) -> bool:
        return (self.holds_b1 and self.holds_b2 and self.holds_b3
                and self.witnesses_ok)

    def to_json(self, label: Callable[[IrrLabel], object] = IrrLabel.to_json
                ) -> dict:
        """The row as JSON data, label giving each label's value."""
        return {
            "label": label(self.label),
            "y": list(self.y),
            "b_label": self.b_label,
            "b_class": self.b_class,
            "fa": self.fa_value,
            "z": self.z_value,
            "fc": self.fc_value,
            "ztilde_over_z": self.ratio_value,
            "witnesses": [
                {"shape": spec.to_json(),
                 "factors": [*map(label, factors)]}
                for spec, factors in self.witnesses
            ],
            "holds_b1": self.holds_b1,
            "holds_b2": self.holds_b2,
            "holds_b3": self.holds_b3,
            "witnesses_ok": self.witnesses_ok,
        }


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Family/rank verification outcome with one row per stratum label."""

    family: str
    n: int
    rows: tuple[ClassRow, ...]
    image_in_stratum: bool
    stratum_in_image: bool

    @property
    def holds_a(self) -> bool:
        return self.image_in_stratum and self.stratum_in_image

    @property
    def holds_b1(self) -> bool:
        return all(r.holds_b1 for r in self.rows)

    @property
    def holds_b2(self) -> bool:
        return all(r.holds_b2 for r in self.rows)

    @property
    def holds_b3(self) -> bool:
        return all(r.holds_b3 for r in self.rows)

    def ok(self) -> bool:
        return self.holds_a and all(r.ok() for r in self.rows)

    def to_json(self, row_dicts: bool = True) -> dict:
        """The report as JSON data.  Each row is its to_json() dict, with
        one to_json() dict per distinct label shared by every row and
        witness factor that names it; with row_dicts False the rows stay
        ClassRows, for a renderer that lays each one out itself."""
        rows = self.rows
        if row_dicts:
            rows = [*map(partial(ClassRow.to_json, label=cache(IrrLabel.to_json)),
                         rows)]
        return {
            "family": self.family,
            "n": self.n,
            "holds_a": self.holds_a,
            "holds_b1": self.holds_b1,
            "holds_b2": self.holds_b2,
            "holds_b3": self.holds_b3,
            "image_in_stratum": self.image_in_stratum,
            "stratum_in_image": self.stratum_in_image,
            "ok": self.ok(),
            "rows": rows,
        }

    def to_table(self) -> str:
        head = (f"family {self.family} rank {self.n}: "
                + ("PASS" if self.ok() else "FAIL"))
        lines = [
            head,
            "",
            f"{'label':<30} {'class':<26} {'b':>4} {'count':>6} {'ratio':>6}"
            "  witness",
        ]
        for r in self.rows:
            mark = "" if r.ok() else "  <- FAIL"
            wit = _member_str(r.witnesses[0]) if r.witnesses else "-"
            lines.append(
                f"{label_str(r.label):<30} {seq_str(r.y):<26} {r.b_label:>4} "
                f"{r.fa_value:>6} {r.fc_value:>6}  {wit}{mark}"
            )
        return "\n".join(lines) + "\n"


def _member_str(member: Member) -> str:
    spec, factors = member
    if spec.family == CLASS_A:
        shape = f"d={spec.d}"
    elif spec.family == CLASS_C:
        shape = f"({spec.r},{spec.q})"
    elif spec.family == CLASS_D and spec.p:
        shape = f"({spec.r},{spec.p},{spec.q})l0"
    else:
        shape = f"({spec.r},{spec.p},{spec.q})"
    return shape + " " + "*".join(label_str(lab) for lab in factors)


def _where(family: str, n: int, y: Seq, label: IrrLabel) -> str:
    """The (family, n, y, label) a failed row's message starts with."""
    return f"family {family} n={n} y={seq_str(y)} label {label_str(label)}"


def _class_rows(family: str, n: int, c: ClassLabel,
                fiber: tuple[IrrLabel, ...], parts: _Parts
                ) -> tuple[list[ClassRow], int]:
    """The rows of one class, one per label of fiber (its tau fiber in
    verify, the one label asked about in _label_row), canonical, and the
    class's number of maximal members.  All but each row's label
    depends on y alone, so the rows share it: the fiber's labels share
    their rows, hence their b, their packed rows (packed from the fiber's
    first label, whose rows already have the target's lengths) and their
    match_key, so the symmetry witness is replayed once.  An
    InvariantError is raised again, from the original, with the family,
    n, y and the label at hand before its message."""
    labels = [canonicalize(label) for label in fiber]
    label = labels[0]
    try:
        # one interval set of y serves the invariants and the B and D
        # symmetric witnesses
        intervals = _intervals(family, c.y)
        inv = _class_invariants(c, intervals)
        b_label = b_invariant(label)
        if family == CLASS_A:
            # the one maximal member is the full group with the label
            # itself, a product of the shape's one pool when it is in it
            splits: list[Split] = []
            members = int(label in parts.a_pool)
            fa_value = 1
            witnesses: tuple[Member, ...] = ((parts.shape_at[n], (label,)),)
            induced = members == 1
        else:
            # y is split once; the maximal members and the symmetry
            # witnesses all read the one split table
            splits = parts.splits(c.y)
            # a maximum equal to the class component count also bounds
            # every member
            members, fa_value, images = _maximal(parts, splits)
            witnesses = _member_forms(parts, splits, fa_value)
            # every maximal member must induce to the labels, so the
            # f-maximal ones do by construction
            induced = images <= {(_packed_rows(parts.layout, fiber[0]),
                                   b_label)}
        fc_value, fc_witness = _fc_with_witness(label, c.y, intervals,
                                                splits, fa_value, parts)
        if fc_witness is not None:
            witnesses += (fc_witness,)
        # the symmetry witness is replayed only off the maximal shapes
        witnesses_ok = induced and (
            fc_witness is None or fc_witness[0].is_maximal()
            or _replay(*fc_witness, label))
    except InvariantError as exc:
        raise InvariantError(f"{_where(family, n, c.y, label)}: {exc}") from exc
    rows = [ClassRow(
        label=label,
        y=c.y,
        b_label=b_label,
        b_class=inv.bbar,
        fa_value=fa_value,
        z_value=inv.z,
        fc_value=fc_value,
        ratio_value=inv.ztilde_over_z,
        witnesses=witnesses,
        holds_b1=inv.bbar == b_label,
        holds_b2=fa_value == inv.z,
        holds_b3=fc_value == inv.ztilde_over_z,
        witnesses_ok=witnesses_ok,
    ) for label in labels]
    return rows, members


def verify(family: str, n: int) -> VerificationReport:
    """Run every check for one family and rank.

    Rows are one per stratum label in class order (split class fibers
    contribute one row per label).  Each row checks that its class's
    maximal members induce to its label; image_in_stratum is the count
    identity, the members of all classes numbering every product of the
    maximal shapes' pools, and stratum_in_image holds when every class has
    a member.  A wrong count fails the report and raises nothing.  Each
    class's rows are a pure function of (family, n, class), so they could
    be computed in any order; this driver runs them serially in class
    order.  An InvariantError raised by a row is raised again, from the
    original, with the row's family, n, y and label before its message.
    """
    ensure_floor(family, n)
    shapes = _maximal_shapes(family, n)
    parts = _Parts(family, n, shapes)
    rows: list[ClassRow] = []
    members = 0
    covered = True
    for c in enumerate_classes(family, n):
        class_rows, count = _class_rows(family, n, c,
                                        _tau_fiber(family, c.y, n), parts)
        rows += class_rows
        members += count
        covered = covered and count > 0
    return VerificationReport(
        family=family,
        n=n,
        rows=tuple(rows),
        image_in_stratum=members == _product_count(parts, shapes),
        stratum_in_image=covered,
    )
