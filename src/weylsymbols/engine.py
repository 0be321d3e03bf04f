"""Exhaustive verification of the special-symbol / class-invariant match.

For each classical family the strata of class sequences and the image of
minimal-degree induction from reflection subgroups are computed
independently and compared:

* membership: the induction image over maximal subgroup shapes equals the
  stratum label set, and each row's maximal members equal its fiber of the
  induction graph, so the members of the row's label are exactly the
  (shape, factors) that induce to it; only witnesses on other shapes are
  replayed through j_induce,
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
factor: the splits (x, x + e) of y that seqcomb's filter keeps. Family A
scales deviation partitions by a divisor instead.
Enumeration order is lexicographic throughout, so every report is
byte-stable across runs.

Each report row is one pass: the class invariants, the split table of the
class sequence y (every two-block split with its block ranks), the maximal
members and one f-product per member are computed once; the maximal
members, the B and D symmetric witnesses and the C and D split witness
all read the one split table, and the maximal f-product feeds the
symmetry-order witness search directly.  One verify call builds one
SpecialIndex, whose (family, rank) pools of special labels are enumerated
once and give the rows their factors' f-invariants; one table of the
maximal shapes by block sizes, shared by the induction graph and every
row; and one induction graph: the images of every maximal shape's pool
products, each distinct image built once through one image table across
all shapes, and the fiber of members over each.  All of them live only as long as the call: the public entry
points (enumerate_cz, fa, fc, bar_S) build their own and cache nothing.
Every member factor has one form there, the member form: BC and D labels as
the rows split them out of y, at the target's merged length, A labels
canonical; so fibers, members, witnesses and f lookups compare as they are.
Split parts found by the enumerators below are valid by construction, so
they go through the unvalidated kernels of seqcomb and irreps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

from . import seqcomb as sc
from .errors import DomainError, InvariantError
from .irreps import (
    FAMILY_A,
    IrrLabel,
    _partition_to_z,
    _trusted,
    _z_to_partition,
    _zeta_inverse,
    _zeta_tilde_inverse,
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
    ImageTable,
    Prepared,
    _pool_images,
    _prepare_pool,
    f_product,
    j_induce,
    labels_match,
    match_key,
)
from .springer import (
    CLASS_A,
    CLASS_B,
    CLASS_C,
    CLASS_D,
    LABEL_FAMILY,
    ClassLabel,
    _ensure_class_family,
    _tau_fiber,
    class_invariants,
    enumerate_classes,
    tau,
)

Seq = tuple[int, ...]

# smallest ranks whose diagram is irreducible of the stated type and whose
# shape-symmetry group has the advertised order
RANK_FLOOR = {CLASS_A: 2, CLASS_B: 2, CLASS_C: 3, CLASS_D: 4}


def ensure_floor(family: str, n: int) -> None:
    """Reject an unknown class family or a rank not an int >= RANK_FLOOR."""
    _ensure_class_family(family)
    sc.ensure_rank(n)
    if n < RANK_FLOOR[family]:
        raise DomainError(
            f"family {family} needs rank >= {RANK_FLOOR[family]}, got {n}"
        )


# ---------------------------------------------------------------------------
# subgroup shapes

@dataclass(frozen=True)
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


class SpecialIndex:
    """Special labels of each (family, rank) in the member form of a rank-n
    verify target, enumerated on first use, and label -> f-invariant."""

    def __init__(self, n: int) -> None:
        self._n = n
        self._pools: dict[tuple[str, int], tuple[IrrLabel, ...]] = {}
        self._f: dict[IrrLabel, int] = {}

    def pool(self, family: str, rank: int) -> tuple[IrrLabel, ...]:
        """Special labels of the family at the rank: BC and D labels at the
        target's merged length, as rows split them out of y; A canonical."""
        key = (family, rank)
        if key not in self._pools:
            if family == FAMILY_A:
                reps = special_reps(FAMILY_A, rank)
                labels = tuple(canonicalize(rep.label) for rep in reps)
            else:
                reps = special_reps(family, rank, policy_m(family, self._n))
                labels = tuple(rep.label for rep in reps)
            self._f.update(zip(labels, (rep.f for rep in reps)))
            self._pools[key] = labels
        return self._pools[key]

    def f_product(self, factors: tuple[IrrLabel, ...]) -> int:
        """Product of the factors' f-invariants, as jinduction.f_product,
        for factors in the index's member form."""
        out = 1
        for label in factors:
            f = self._f.get(label)
            if f is None:
                self.pool(label.family, label.n)
                f = self._f.get(label)
                if f is None:
                    raise InvariantError(f"factor {label_str(label)} is not special")
            out *= f
        return out


# ---------------------------------------------------------------------------
# summand enumeration

def _two_block(family: str) -> tuple[Callable, Callable, Callable]:
    """Splits of a family B, C or D class sequence into two blocks x + x~:
    the split enumerator, the rank of x~ and the label fiber of x~ (x is
    an XSeq of rank _rho(x), fiber _zeta_inverse(LABEL_FAMILY[family], x))."""
    if family == CLASS_C:
        # a C class sequence at the policy length starts (0, 1)
        return sc.based_split_pairs, sc._tilde_rho, _zeta_tilde_inverse
    return sc.split_pairs, sc._rho, partial(_zeta_inverse, LABEL_FAMILY[family])


Split = tuple[Seq, Seq, int, int]


def _split_table(family: str, y: Seq) -> tuple[Split, ...]:
    """Every two-block split of a B, C or D class sequence y, in the
    enumerator's order, as (x, x~, rank of x, rank of x~)."""
    splits, rank2, _ = _two_block(family)
    return tuple((x, xt, sc._rho(x), rank2(xt)) for x, xt in splits(y))


Shapes = dict[tuple[int, int], ParahoricSpec]


def _maximal_shapes(family: str, n: int) -> Shapes:
    """Maximal shapes of a rank-n target by block sizes (r, q): the
    two-block shapes of B, C and D; family A's one, the full group, is
    stored under (n, 0)."""
    if family == CLASS_A:
        return {(n, 0): ParahoricSpec(CLASS_A, n, d=1)}
    shapes = (ParahoricSpec(family, n, r=r, q=n - r) for r in range(n + 1))
    return {(s.r, s.q): s for s in shapes if s.is_maximal()}


def _maximal_members(family: str, splits: tuple[Split, ...],
                     shapes: Shapes) -> tuple[Member, ...]:
    """Members of the splits on maximal shapes, one per choice of label in
    each block's fiber (degenerate family-D fibers hold two)."""
    fiber2 = _two_block(family)[2]
    out: list[Member] = []
    for x, xt, r, q in splits:
        spec = shapes.get((r, q))
        if spec is None:
            continue
        for factors in itertools.product(
                _zeta_inverse(LABEL_FAMILY[family], x), fiber2(xt)):
            out.append((spec, factors))
    return tuple(out)


def _stratum_y(label: IrrLabel, family: str, n: int) -> Seq:
    """Class sequence of a stratum label of rank n: the row of a family A
    label, tau of a B, C or D label (DomainError for a label outside the
    stratum or of another rank)."""
    if family == CLASS_A:
        if label.family != FAMILY_A or label.n != n:
            raise DomainError(
                f"family A rows take a family A label of rank {n}, "
                f"got family {label.family} rank {label.n}"
            )
        return label.z
    if label.n != n:
        raise DomainError(
            f"block sizes must add up to the rank {n}, "
            f"got a label of rank {label.n}"
        )
    return tau(family, label).y


def _members(family: str, n: int, canon: IrrLabel, y: Seq,
             shapes: Shapes) -> tuple[tuple[Split, ...], tuple[Member, ...]]:
    """The split table of the class sequence y of the canonical label and
    the label's maximal members: family A's one member is the full group
    with the label itself, and its split table is empty."""
    if family == CLASS_A:
        return (), ((shapes[n, 0], (canon,)),)
    splits = _split_table(family, y)
    return splits, _maximal_members(family, splits, shapes)


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
    """Factors of a D two-block shape with the rank-0 A middle factor of its
    D_triple embedding added (two factors given, the member form) or
    dropped (three given, the embedding form); any other shape's factors
    pass unchanged."""
    if spec.family != CLASS_D or spec.p:
        return factors
    if len(factors) == 2:
        return (factors[0], _D_FILLER, factors[1])
    return (factors[0], factors[2])


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


def enumerate_cz(label: IrrLabel, family: str, n: int) -> tuple[Member, ...]:
    """All maximal-shape members whose induction image is the given label.

    Members are found by splitting the class sequence of the label into two
    blocks, so the label must lie in the stratum (DomainError otherwise);
    only shapes omitting a single affine node are kept. Degenerate family-D
    block fibers are expanded, one member per choice.  (verify's row pass
    runs the same member pass on the y it holds, and keeps the split
    table.)
    """
    _ensure_class_family(family)
    sc.ensure_rank(n)
    y = _stratum_y(label, family, n)
    return _members(family, n, canonicalize(label), y,
                    _maximal_shapes(family, n))[1]


# ---------------------------------------------------------------------------
# maximal f-product and symmetry order

def fa(label: IrrLabel, family: str, n: int) -> int:
    """Largest factor f-product over the maximal members of the label
    (verify's row pass takes it from the members it already holds)."""
    members = enumerate_cz(label, family, n)
    return max(f_product(factors) for _, factors in members)


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


def _symmetric_member(family: str, n: int, x: Seq, e: Seq) -> Member:
    """Member realizing a self-matched decomposition y = x + e + x."""
    p = sum(e)
    lab = _zeta_inverse(LABEL_FAMILY[family], x)[0]
    r = sc._rho(x)
    spec = ParahoricSpec(family, n, r=r, p=p, q=r)
    if p == 0:
        return (spec, (lab, lab))
    return (spec, (lab, _a_label(e, p), lab))


FProduct = Callable[[tuple[IrrLabel, ...]], int]


def _split_witness(family: str, n: int, splits: tuple[Split, ...],
                   fa_value: int, fprod: FProduct,
                   strict: tuple[int, int]) -> tuple[int, Member | None]:
    """First two-block member at the maximal f-product whose parts keep at
    least strict = (lo, hi) strict positions: order 2 with it, else 1."""
    fiber2 = _two_block(family)[2]
    lo, hi = strict
    for x, xt, r, q in splits:
        if len(sc._frakS(xt)) < hi or len(sc._frakS(x)) < lo:
            continue
        factors = (_zeta_inverse(LABEL_FAMILY[family], x)[0], fiber2(xt)[0])
        if fprod(factors) != fa_value:
            continue
        return 2, (ParahoricSpec(family, n, r=r, q=q), factors)
    return 1, None


def _fc_with_witness(label: IrrLabel, family: str, n: int, y: Seq,
                     splits: tuple[Split, ...], fa_value: int,
                     fprod: FProduct) -> tuple[int, Member | None]:
    """Symmetry order and witness of a canonical label, given y, its split
    table (empty for family A), fa and the f-product of factor tuples."""
    if family == CLASS_A:
        d, tilde = _a_divisor_members(label, n)[-1]
        return d, (ParahoricSpec(CLASS_A, n, d=d), (tilde,) * d)
    if family == CLASS_C:
        # the node flip fixes a member exactly when the based part keeps a
        # strict position beyond its base one
        return _split_witness(CLASS_C, n, splits, fa_value, fprod,
                              strict=(0, 3))
    sym = sc._symmetric(sc._frakI(y), (split[:2] for split in splits))
    if family == CLASS_B:
        if not sym:
            return 1, None
        # a self-matched decomposition is automatically f-maximal
        member = _symmetric_member(CLASS_B, n, *sym[0])
        if fprod(member[1]) != fa_value:
            raise InvariantError(
                f"self-matched member misses the maximal f-product on {y!r}"
            )
        return 2, member
    # family D: full symmetry needs a self-matched split with a strict position
    for x, e in sym:
        if sc._frakS(x):
            return 4, _symmetric_member(CLASS_D, n, x, e)
    # a self-matched decomposition without strict positions exists only on
    # interval-free sequences, where the end-to-end flip still fixes it
    if sym:
        return 2, _symmetric_member(CLASS_D, n, *sym[0])
    # half symmetry via a split whose parts both extend across the prong
    # swap, at maximal f-product
    return _split_witness(CLASS_D, n, splits, fa_value, fprod, strict=(2, 2))


def fc(label: IrrLabel, family: str, n: int) -> int:
    """Largest shape-symmetry subgroup order fixing some f-maximal member
    (verify's row pass supplies the y, split table and fa it holds; here
    they are worked out)."""
    order = _omega_order(family, n)
    canon = canonicalize(label)
    y = _stratum_y(canon, family, n)
    splits, members = _members(family, n, canon, y, _maximal_shapes(family, n))
    fa_value = max(f_product(factors) for _, factors in members)
    value, witness = _fc_with_witness(canon, family, n, y, splits, fa_value,
                                      f_product)
    if witness is not None and not _replay(witness[0], witness[1], canon):
        raise InvariantError("symmetry witness does not replay")
    if order % value:
        raise InvariantError(
            f"symmetry order {value} does not divide {order}"
        )
    return value


# ---------------------------------------------------------------------------
# stratum membership and the full report

Fibers = dict[object, set[Member]]


def _induction_graph(family: str, n: int, index: SpecialIndex,
                     shapes: Shapes) -> tuple[frozenset[IrrLabel], Fibers]:
    """Induction image over all maximal shapes, as bar_S, and its fibers:
    match_key of an image -> the members (shape, factors) inducing to it,
    factors in the index's member form, as enumerate_cz gives them (D
    two-block members in their two-factor form).  Each (family, rank) pool
    is aligned to the target and weighed once, for every shape that uses
    it, and every shape's products share one image table, so each distinct
    image is built once.  The pools are not checked against the shapes'
    signatures: the index builds them to fit."""
    if family == CLASS_A:
        # the only maximal shape is the full group
        spec = shapes[n, 0]
        pool = index.pool(FAMILY_A, n)
        return frozenset(pool), {lab: {(spec, (lab,))} for lab in pool}
    table: ImageTable = {}
    prepared: dict[tuple[str, int], list[Prepared]] = {}
    fibers: Fibers = {}
    for spec in shapes.values():
        emb = _embedding(spec)
        pools = []
        for key in emb.factor_signature():
            if key not in prepared:
                prepared[key] = _prepare_pool(emb, index.pool(*key))
            pools.append(prepared[key])
        for factors, image in _pool_images(emb, pools, table):
            fibers.setdefault(match_key(image), set()).add(
                (spec, _d_middle(spec, factors)))
    return frozenset(image for image, _ in table.values()), fibers


def bar_S(family: str, n: int) -> frozenset[IrrLabel]:
    """Induction image over all maximal shapes, as canonical labels,
    computed purely on the label side (no class sequences involved), one
    public j_induce per product of the member-form factor pools.  verify
    takes the same image from its induction graph instead; this per-product
    form stays the independent reference for it."""
    ensure_floor(family, n)
    index = SpecialIndex(n)
    if family == CLASS_A:
        return frozenset(index.pool(FAMILY_A, n))
    embs = [_embedding(spec) for spec in _maximal_shapes(family, n).values()]
    return frozenset(
        j_induce(emb, factors) for emb in embs
        for factors in itertools.product(
            *(index.pool(*key) for key in emb.factor_signature()))
    )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def to_json(self, row: Callable[[ClassRow], object] | None = None
                ) -> dict:
        """The report as JSON data.  row gives each row's value; by default
        that is its to_json() dict, with one to_json() dict per distinct
        label shared by every row and witness factor that names it."""
        if row is None:
            row = partial(ClassRow.to_json, label=cache(IrrLabel.to_json))
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
            "rows": [*map(row, self.rows)],
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


def _class_row(family: str, n: int, c: ClassLabel, canon: IrrLabel,
               index: SpecialIndex, shapes: Shapes,
               fibers: Fibers) -> ClassRow:
    inv = class_invariants(c)
    b_label = b_invariant(canon)
    # y is split once; the maximal members and the symmetry witness search
    # both read the one split table
    splits, members = _members(family, n, canon, c.y, shapes)
    fs = [index.f_product(factors) for _, factors in members]
    # a maximum equal to the class component count also bounds every member
    fa_value = max(fs)
    fc_value, fc_witness = _fc_with_witness(canon, family, n, c.y, splits,
                                            fa_value, index.f_product)
    best = tuple(m for m, f in zip(members, fs) if f == fa_value)
    witnesses = best if fc_witness is None else best + (fc_witness,)
    # the maximal members must be the label's whole fiber of the induction
    # graph, so the f-maximal ones induce to the label by construction; the
    # symmetry witness is replayed only when it lies outside the fiber
    fiber = fibers.get(match_key(canon), set())
    witnesses_ok = set(members) == fiber and (
        fc_witness is None or fc_witness in fiber
        or _replay(*fc_witness, canon))
    return ClassRow(
        label=canon,
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
    )


def verify(family: str, n: int) -> VerificationReport:
    """Run every check for one family and rank.

    Rows are one per stratum label in class order (split class fibers
    contribute one row per label); the membership comparison is a
    two-sided set equality of canonical labels. Each row is a pure
    function of (family, n, class, label), so rows could be computed in
    any order; this driver runs them serially in class order.  An
    InvariantError raised by a row is raised again, from the original, with
    the row's family, n, y and label before its message.
    """
    ensure_floor(family, n)
    index = SpecialIndex(n)
    shapes = _maximal_shapes(family, n)
    image, fibers = _induction_graph(family, n, index, shapes)
    rows: list[ClassRow] = []
    stratum: set[IrrLabel] = set()
    for c in enumerate_classes(family, n):
        for label in _tau_fiber(family, c.y, n):
            canon = canonicalize(label)
            stratum.add(canon)
            try:
                row = _class_row(family, n, c, canon, index, shapes, fibers)
            except InvariantError as exc:
                raise InvariantError(
                    f"family {family} n={n} y={seq_str(c.y)} "
                    f"label {label_str(canon)}: {exc}"
                ) from exc
            rows.append(row)
    return VerificationReport(
        family=family,
        n=n,
        rows=tuple(rows),
        image_in_stratum=image <= stratum,
        stratum_in_image=stratum <= image,
    )
