"""Brute-force character theory for small permutation-style Weyl groups.

Everything is computed from first principles in exact integer arithmetic:
conjugacy classes from cycle types, irreducible characters by border-strip
recursions (plain for the symmetric group, a two-row variant for the
signed-permutation group, restriction with split handling for its
index-two rotation subgroup), symmetric powers of the reflection
representation by power-sum recursion, and induction multiplicities from
explicit block embeddings.  Every division is exact by check: each step of
the power-sum recursion and each inner product over a group order is a
divmod, and a remainder (or a negative multiplicity) raises OracleError.
None of the label-side formulas are consulted for values, so agreement
between the two routes is a meaningful check.

Induction goes through one fusion table per embedding, built on first use
and cached: the index of the target class that each tuple of factor
classes fuses into, in product() order.  A tuple fuses by cycle type: its
factor classes' positive and negative cycle types, concatenated and
sorted, name an unsplit target class; only a tuple that fuses into a split
class of a family-D target is fused through an explicit signed
permutation, which tells the two pieces apart.  A product of factor
irreducibles is induced by multiplying the factors' size-weighted rows out
one factor at a time into one flat product, in product() order, and
scattering it through the table into one integer per target class; each
multiplicity is that vector paired with a target row and divided by the
subgroup order.  The same pass over the factors' records sums their least
degrees into the floor degree, and j_oracle pairs the one vector with
only the irreducibles at the floor, read off the target's degree index.
The induced vector of the last product is kept, one entry and no more: a
cross-check calls j_oracle and then induction_multiplicity on the image
it returned, and the second call pairs the same vector without inducing
the product again.
Each group (family, rank) is one cached record, built once: its verified
table, the index of each class and irreducible, per irreducible its
canonical label (what key_to_label returns), its size-weighted row (class
size times value, class by class: the rows the gate pairs, kept for every
induction the group is a factor of) and its least symmetric-power degree
with the multiplicity there, found by one pass of the power-sum recursion
that traces each class power once, and the index of the irreducibles at
each least degree.  Every inner product, in the gate and in each
pairing, is one sum(map(mul, ...)) over two rows.  _label_key, the
oracle row of a checked label, is memoized per label.

Group dictionary: family A at rank n is the symmetric group on n letters,
family BC the full signed-permutation group on n letters, and family D its
rotation subgroup (even number of sign flips).  Conjugacy classes are named
by the positive and negative cycle types (alpha, beta); in family D a class
with beta empty and all parts of alpha even breaks into two classes, told
apart by the sign parity of a conjugator onto a fixed all-positive
representative.  Split irreducibles carry the matching gauge: the piece
labelled +1 is the one whose value exceeds half the restriction on the
all-positive representative.  Every table is gated by exact row and column
orthogonality, the order count, and (family D) integrality of the
permutation character on the positive subgroup, which pins the relative
signs of the split values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import count, product
from math import factorial
from operator import mul
from typing import Iterator

from .errors import DomainError, OracleError, ResourceError, ValidationError
from .irreps import (
    FAMILIES,
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
    _ensure_label,
    _partition_to_z,
    _z_to_partition,
    canonicalize,
    make_d_label,
)
from .jinduction import Embedding
from .seqcomb import ensure_rank

RANK_BOUNDS = {FAMILY_A: 7, FAMILY_BC: 5, FAMILY_D: 5}


# ---------------------------------------------------------------------------
# partitions and border strips

@cache
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts decreasing, in descending lex order."""
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def grow(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            grow(rest - part, part, acc + (part,))

    grow(n, n, ())
    return tuple(out)


def _perm_centralizer(part: tuple[int, ...]) -> int:
    z = 1
    for v, m in Counter(part).items():
        z *= v**m * factorial(m)
    return z


def _signed_centralizer(alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    z = 1
    for half in (alpha, beta):
        for v, m in Counter(half).items():
            z *= (2 * v) ** m * factorial(m)
    return z


@cache
def _strip_removals(
    lam: tuple[int, ...], k: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign, smaller partition) for each removable border strip of size k,
    via first-column hook lengths: a strip is a beta-number drop by k."""
    ell = len(lam)
    beta = tuple(lam[i] + (ell - 1 - i) for i in range(ell))
    bset = set(beta)
    out = []
    for b in beta:
        if b >= k and (b - k) not in bset:
            height = sum(1 for c in beta if b - k < c < b)
            newbeta = sorted((bset - {b}) | {b - k}, reverse=True)
            newlam = tuple(
                v - (ell - 1 - i) for i, v in enumerate(newbeta) if v > ell - 1 - i
            )
            out.append(((-1) ** height, newlam))
    return tuple(out)


@cache
def _sym_chi(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Symmetric-group character value by border-strip recursion."""
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], rho[1:]
    return sum(s * _sym_chi(new, rest) for s, new in _strip_removals(lam, k))


@cache
def _pair_chi(
    lam: tuple[int, ...],
    mu: tuple[int, ...],
    alpha: tuple[int, ...],
    beta: tuple[int, ...],
) -> int:
    """Signed-permutation-group character value: a positive cycle peels a
    strip from either row; a negative cycle weights second-row strips by -1."""
    if alpha:
        k, rest = alpha[0], alpha[1:]
        return sum(
            s * _pair_chi(new, mu, rest, beta) for s, new in _strip_removals(lam, k)
        ) + sum(
            s * _pair_chi(lam, new, rest, beta) for s, new in _strip_removals(mu, k)
        )
    if beta:
        k, rest = beta[0], beta[1:]
        return sum(
            s * _pair_chi(new, mu, alpha, rest) for s, new in _strip_removals(lam, k)
        ) - sum(
            s * _pair_chi(lam, new, alpha, rest) for s, new in _strip_removals(mu, k)
        )
    return 1 if not lam and not mu else 0


# ---------------------------------------------------------------------------
# explicit signed permutations (for class halves and fused classes)

Element = tuple[tuple[int, ...], tuple[int, ...]]  # images, signs in {1, -1}


def _e_cycles(g: Element) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Cycles as (support in traversal order, sign product), each started
    at its smallest coordinate."""
    p, s = g
    seen = [False] * len(p)
    out = []
    for v0 in range(len(p)):
        if seen[v0]:
            continue
        sup: list[int] = []
        sign = 1
        v = v0
        while not seen[v]:
            seen[v] = True
            sup.append(v)
            sign *= s[v]
            v = p[v]
        out.append((tuple(sup), sign))
    return tuple(out)


def _canonical_element(
    n: int, alpha: tuple[int, ...], beta: tuple[int, ...], half: int = 0
) -> Element:
    """Representative with cycles on consecutive blocks, positive cycles
    first; a negative cycle closes with a flip.  half = 1 conjugates by a
    single flip, selecting the other piece of a split class."""
    p = list(range(n))
    s = [1] * n
    offset = 0
    for block, negative in ((alpha, False), (beta, True)):
        for c in block:
            for j in range(c - 1):
                p[offset + j] = offset + j + 1
            p[offset + c - 1] = offset
            if negative:
                s[offset + c - 1] = -1
            offset += c
    g = (tuple(p), tuple(s))
    return _flip_conjugate(g, 0) if half else g


def _flip_conjugate(g: Element, c: int) -> Element:
    """Conjugate by the sign flip at coordinate c."""
    p, s = g
    s2 = tuple(
        s[i] * (-1 if i == c else 1) * (-1 if p[i] == c else 1) for i in range(len(p))
    )
    return (p, s2)


def _split_half(g: Element) -> int:
    """Piece label of an element whose cycles are all positive with even
    length: the sign parity of the conjugator onto the canonical
    representative.  The centralizer of such an element has even flip
    parity, so the label is constant on rotation-subgroup classes."""
    s = g[1]
    parity = 1
    for sup, sign in _e_cycles(g):
        if sign != 1 or len(sup) % 2:
            raise OracleError("a split class element has a negative or odd cycle")
        sigma = 1
        for v in sup:
            parity *= sigma
            sigma *= s[v]
    return 0 if parity == 1 else 1


def _is_split_type(alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    return not beta and bool(alpha) and all(v % 2 == 0 for v in alpha)


# ---------------------------------------------------------------------------
# tables

@dataclass(frozen=True, slots=True)
class ClassKey:
    """Conjugacy class named by positive/negative cycle types; half tells
    the two rotation-subgroup pieces of a split class apart."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...] = ()
    half: int | None = None


@dataclass(frozen=True, slots=True)
class IrrKey:
    """Irreducible named by one or two partitions; sign picks a split piece."""

    lam: tuple[int, ...]
    mu: tuple[int, ...] | None = None
    sign: int = 0


@dataclass(frozen=True, slots=True)
class CharacterTable:
    """Exact character table with class sizes."""

    family: str
    n: int
    order: int
    classes: tuple[ClassKey, ...]
    sizes: tuple[int, ...]
    irreps: tuple[IrrKey, ...]
    values: tuple[tuple[int, ...], ...]

    def identity_index(self) -> int:
        return self.classes.index(ClassKey((1,) * self.n))

    def dims(self) -> tuple[int, ...]:
        i0 = self.identity_index()
        return tuple(row[i0] for row in self.values)


def _signed_class_list(
    n: int, rotation: bool
) -> tuple[list[ClassKey], list[int]]:
    full_order = 2**n * factorial(n)
    keys: list[ClassKey] = []
    sizes: list[int] = []
    for kb in range(n + 1):
        for beta in _partitions(kb):
            if rotation and len(beta) % 2:
                continue
            for alpha in _partitions(n - kb):
                size = full_order // _signed_centralizer(alpha, beta)
                if rotation and _is_split_type(alpha, beta):
                    keys.append(ClassKey(alpha, beta, 0))
                    sizes.append(size // 2)
                    keys.append(ClassKey(alpha, beta, 1))
                    sizes.append(size // 2)
                else:
                    keys.append(ClassKey(alpha, beta))
                    sizes.append(size)
    return keys, sizes


def _pair_order_key(p: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(p), p)


def _table(family: str, n: int) -> CharacterTable:
    """The rank-n table of the family, as built; _group runs the gate."""
    if family == FAMILY_A:
        parts = _partitions(n)
        classes = [ClassKey(p) for p in parts]
        sizes = [factorial(n) // _perm_centralizer(p) for p in parts]
        irreps = [IrrKey(p) for p in parts]
        values = [
            tuple(_sym_chi(k.lam, c.alpha) for c in classes) for k in irreps
        ]
        order = factorial(n)
    elif family == FAMILY_BC:
        classes, sizes = _signed_class_list(n, rotation=False)
        irreps = [
            IrrKey(lam, mu)
            for ka in range(n + 1)
            for lam in _partitions(ka)
            for mu in _partitions(n - ka)
        ]
        values = [
            tuple(_pair_chi(k.lam, k.mu, c.alpha, c.beta) for c in classes)
            for k in irreps
        ]
        order = 2**n * factorial(n)
    else:
        classes, sizes = _signed_class_list(n, rotation=True)
        irreps = []
        for ka in range(n + 1):
            for lam in _partitions(ka):
                for mu in _partitions(n - ka):
                    if _pair_order_key(lam) > _pair_order_key(mu):
                        irreps.append(IrrKey(lam, mu))
                    elif lam == mu and n == 0:
                        # rank 0 has index 1, so nothing splits
                        irreps.append(IrrKey(lam, mu))
                    elif lam == mu:
                        irreps.append(IrrKey(lam, mu, 1))
                        irreps.append(IrrKey(lam, mu, -1))
        values = [tuple(_d_value(k, c) for c in classes) for k in irreps]
        order = 2 ** (n - 1) * factorial(n) if n else 1
    return CharacterTable(
        family,
        n,
        order,
        tuple(classes),
        tuple(sizes),
        tuple(irreps),
        tuple(values),
    )


def _d_value(key: IrrKey, c: ClassKey) -> int:
    # every family-D key carries two partitions
    if key.sign == 0:
        return _pair_chi(key.lam, key.mu, c.alpha, c.beta)
    w = _pair_chi(key.lam, key.lam, c.alpha, c.beta)
    if w % 2:
        raise OracleError("split restriction value is odd")
    if c.half is None:
        return w // 2
    gamma = tuple(v // 2 for v in c.alpha)
    delta = 2 ** (len(gamma) - 1) * _sym_chi(key.lam, gamma)
    return w // 2 + key.sign * (1 if c.half == 0 else -1) * delta


def _verify_table(t: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """Gate a table: the class sizes and the degree squares each sum to the
    order, rows and columns are orthogonal, and (family D) the split gauge
    holds; a failure raises OracleError.  Each inner product is one dot
    product: row i's size-weighted row against row j, and column c against
    column d of the transposed table.  Returns the weighted rows."""
    if sum(t.sizes) != t.order:
        raise OracleError(f"class sizes of {t.family}{t.n} miss the group order")
    i0 = t.identity_index()
    if sum(row[i0] ** 2 for row in t.values) != t.order:
        raise OracleError(f"degree squares of {t.family}{t.n} miss the group order")
    weighted = tuple(tuple(map(mul, t.sizes, row)) for row in t.values)
    for i, wrow in enumerate(weighted):
        for j in range(i, len(t.values)):
            if sum(map(mul, wrow, t.values[j])) != (t.order if i == j else 0):
                raise OracleError(f"row orthogonality fails in {t.family}{t.n}")
    columns = tuple(zip(*t.values))
    for c, col in enumerate(columns):
        for d in range(c, len(columns)):
            if sum(map(mul, col, columns[d])) != (
                t.order // t.sizes[c] if c == d else 0
            ):
                raise OracleError(f"column orthogonality fails in {t.family}{t.n}")
    if t.family == FAMILY_D and t.n >= 2:
        _verify_split_gauge(t)
    return weighted


def _verify_split_gauge(t: CharacterTable) -> None:
    """The permutation character on the positive subgroup must pair
    integrally with every split irreducible; positive permutations all lie
    in piece 0, so this pins the relative signs across split classes."""
    counts = []
    for c in t.classes:
        if c.beta or c.half == 1:
            counts.append(0)
        else:
            counts.append(factorial(t.n) // _perm_centralizer(c.alpha))
    for key, row in zip(t.irreps, t.values):
        if key.sign == 0:
            continue
        tot = sum(map(mul, counts, row))
        if tot < 0 or tot % factorial(t.n):
            raise OracleError(f"split gauge fails for {key} in D{t.n}")


# ---------------------------------------------------------------------------
# symmetric powers of the reflection representation

def _power_trace(family: str, c: ClassKey, k: int) -> int:
    """Trace of the k-th power of a class on the reflection representation,
    read off the cycle type."""
    if family == FAMILY_A:
        if not c.alpha:
            return 0
        return sum(v for v in c.alpha if k % v == 0) - 1
    tot = sum(v for v in c.alpha if k % v == 0)
    tot += sum((-1) ** (k // v) * v for v in c.beta if k % v == 0)
    return tot


def _sym_powers(t: CharacterTable) -> Iterator[tuple[int, ...]]:
    """Characters h_0, h_1, ... of the symmetric powers of the reflection
    representation, class by class, by the power-sum recursion
    i h_i = sum_k p_k h_(i-k) in integers, p_k the trace row of the k-th
    powers of the classes, each traced once as the recursion first needs
    it; a division by i that leaves a remainder raises."""
    traces: list[list[int]] = []
    powers = [(1,) * len(t.classes)]
    yield powers[0]
    for i in count(1):
        traces.append([_power_trace(t.family, c, i) for c in t.classes])
        terms = [map(mul, traces[k - 1], powers[i - k]) for k in range(1, i + 1)]
        out = []
        for acc in map(sum, zip(*terms)):
            h, rem = divmod(acc, i)
            if rem:
                raise OracleError(
                    f"non-integral symmetric power {i} in {t.family}{t.n}"
                )
            out.append(h)
        powers.append(tuple(out))
        yield powers[i]


# ---------------------------------------------------------------------------
# one record per group

@dataclass(frozen=True, eq=False, slots=True)
class _Group:
    """The rank-n group of a family: its verified table, the index of each
    class and irreducible in it, per irreducible its canonical label, its
    size-weighted row (weighted[i][c] = sizes[c] * values[i][c]) and (least
    symmetric-power degree, multiplicity there), and the irreducible
    indices at each least degree, in table order."""

    table: CharacterTable
    class_index: dict[ClassKey, int]
    irr_index: dict[IrrKey, int]
    labels: tuple[IrrLabel, ...]
    degrees: tuple[tuple[int, int], ...]
    weighted: tuple[tuple[int, ...], ...]
    at_degree: dict[int, tuple[int, ...]]

    def row(self, key: IrrKey) -> tuple[int, ...]:
        """Character values of the irreducible named by key, class by class."""
        return self.table.values[self.irr_index[key]]


@cache
def _group(family: str, n: int) -> _Group:
    """The group record of (family, n), built once: the table is gated,
    and one pass of the power-sum recursion pairs each symmetric power with
    the gate's weighted row of every irreducible not yet placed until all
    are.  Its callers name groups within the bounds; character_table
    checks them."""
    t = _table(family, n)
    weighted = _verify_table(t)
    degrees: list[tuple[int, int] | None] = [None] * len(weighted)
    for i, power in zip(range(n * n + 2), _sym_powers(t)):
        for j, row in enumerate(weighted):
            if degrees[j] is not None:
                continue
            mult, rem = divmod(sum(map(mul, row, power)), t.order)
            if rem or mult < 0:
                raise OracleError(
                    f"non-integral multiplicity for {t.irreps[j]} at degree {i}"
                )
            if mult:
                degrees[j] = (i, mult)
        if None not in degrees:
            break
    else:
        key = t.irreps[degrees.index(None)]
        raise OracleError(f"no symmetric power contains {key} in {family}{n}")
    at_degree: dict[int, list[int]] = {}
    for i, (degree, _) in enumerate(degrees):
        at_degree.setdefault(degree, []).append(i)
    return _Group(
        t,
        {c: i for i, c in enumerate(t.classes)},
        {k: i for i, k in enumerate(t.irreps)},
        tuple(_key_label(family, n, k) for k in t.irreps),
        tuple(degrees),
        weighted,
        {degree: tuple(hits) for degree, hits in at_degree.items()},
    )


def character_table(family: str, n: int) -> CharacterTable:
    """Exact table for the rank-n group of the family, gated by exact
    orthogonality and order checks at construction.  The arguments are
    checked on every call, before the group cache is read."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    ensure_rank(n)
    if n > RANK_BOUNDS[family]:
        raise ResourceError(
            f"family {family} tables stop at rank {RANK_BOUNDS[family]}"
        )
    return _group(family, n).table


# ---------------------------------------------------------------------------
# label codec

@cache
def _label_key(label: IrrLabel) -> IrrKey:
    """Oracle row named by a checked label (an IrrLabel of family BC or D
    has two rows): rows become partitions; family D rows are ordered by
    (weight, parts) and kappa = 0 picks the +1 piece."""
    if label.family == FAMILY_A:
        return IrrKey(_z_to_partition(label.z))
    pl, pm = _z_to_partition(label.z), _z_to_partition(label.zp)
    if label.family == FAMILY_BC:
        return IrrKey(pl, pm)
    if pl == pm:
        if label.n == 0:
            return IrrKey(pl, pm)
        return IrrKey(pl, pm, 1 if label.kappa == 0 else -1)
    if _pair_order_key(pl) < _pair_order_key(pm):
        pl, pm = pm, pl
    return IrrKey(pl, pm)


def key_to_label(family: str, n: int, key: IrrKey) -> IrrLabel:
    """Inverse of _label_key on the irreducibles of the rank-n table, in
    canonical (shortest-rows) form.  family and n are checked as
    character_table checks them; a key that is not an IrrKey of int parts
    raises ValidationError and one the table lacks DomainError, all before
    the group's labels are read."""
    character_table(family, n)
    group = _group(family, n)
    if not isinstance(key, IrrKey):
        raise ValidationError(f"key must be an IrrKey, got {key!r}")
    rows = (key.lam,) if key.mu is None else (key.lam, key.mu)
    if type(key.sign) is not int or not all(
        type(row) is tuple and all(type(v) is int for v in row) for row in rows
    ):
        raise ValidationError(f"key parts must be tuples of ints, got {key!r}")
    if key not in group.irr_index:
        raise DomainError(f"{key} names no irreducible of {family}{n}")
    return group.labels[group.irr_index[key]]


def _key_label(family: str, n: int, key: IrrKey) -> IrrLabel:
    """key_to_label of a key of the rank-n table (a family BC or D key
    carries two partitions)."""
    if family == FAMILY_A:
        return canonicalize(IrrLabel(FAMILY_A, n, _partition_to_z(key.lam)))
    length = max(len(key.lam), len(key.mu), 1)
    if family == FAMILY_BC:
        z, zp = _partition_to_z(key.lam, length + 1), _partition_to_z(key.mu, length)
        return canonicalize(IrrLabel(FAMILY_BC, n, z, zp))
    z, zp = _partition_to_z(key.lam, length), _partition_to_z(key.mu, length)
    return canonicalize(make_d_label(n, z, zp, 1 if key.sign == -1 else 0))


def b_oracle(label: IrrLabel) -> tuple[int, int]:
    """Least symmetric-power degree of the reflection representation
    containing the irreducible, with the multiplicity there."""
    _ensure_label("label", label)
    key = _label_key(label)
    # the one checked group read: the label may be out of bounds
    character_table(label.family, label.n)
    group = _group(label.family, label.n)
    return group.degrees[group.irr_index[key]]


# ---------------------------------------------------------------------------
# induction through explicit block embeddings

def _check_io(
    emb: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel]
) -> tuple[str, int, tuple[IrrLabel, ...], tuple[tuple[str, int], ...]]:
    """The target (family, rank) of emb, the factors as a tuple and the
    factor signature, after checking that emb is an Embedding and factors a
    tuple or list of labels that fit its signature."""
    if not isinstance(emb, Embedding):
        raise ValidationError(f"embedding must be an Embedding, got {emb!r}")
    if not isinstance(factors, (tuple, list)):
        raise ValidationError(f"factors must be a tuple or list, got {factors!r}")
    factors = tuple(factors)
    sig = emb.factor_signature()
    if len(factors) != len(sig):
        raise DomainError(f"{emb.kind} expects {len(sig)} factors")
    for (fam, rank), lab in zip(sig, factors):
        _ensure_label("factor", lab)
        if lab.family != fam or lab.n != rank:
            raise DomainError(f"factor {lab} does not sit in ({fam}, {rank})")
    tfam, tn = emb.target()
    if tn > RANK_BOUNDS[tfam]:
        raise ResourceError(f"target rank {tn} exceeds the {tfam} oracle bound")
    return tfam, tn, factors, sig


def _fused_class(
    emb: Embedding,
    sig: tuple[tuple[str, int], ...],
    keys: tuple[ClassKey, ...],
    tfam: str,
    tn: int,
) -> ClassKey:
    alpha = tuple(sorted((v for k in keys for v in k.alpha), reverse=True))
    beta = tuple(sorted((v for k in keys for v in k.beta), reverse=True))
    if tfam != FAMILY_D or not _is_split_type(alpha, beta):
        return ClassKey(alpha, beta)
    p = list(range(tn))
    s = [1] * tn
    offset = 0
    for (_, rank), k in zip(sig, keys):
        gp, gs = _canonical_element(rank, k.alpha, k.beta, k.half or 0)
        for i in range(rank):
            p[offset + i] = offset + gp[i]
            s[offset + i] = gs[i]
        offset += rank
    g: Element = (tuple(p), tuple(s))
    if emb.lam % 2:
        # odd lam realizes the graph twist on the symmetric-group block
        g = _flip_conjugate(g, emb.r)
    return ClassKey(alpha, beta, _split_half(g))


@cache
def _fusion(emb: Embedding) -> tuple[int, ...]:
    """Index of the target class that each tuple of factor classes fuses
    into, one per tuple in the order product() lists them.  The tuples'
    cycle types are concatenated factor by factor and sorted, and the index
    is read off the target's unsplit classes by (alpha, beta); only a tuple
    that fuses into a split class of a family-D target has its half found
    by _fused_class, on an explicit signed permutation."""
    sig = emb.factor_signature()
    tfam, tn = emb.target()
    target = _group(tfam, tn)
    unsplit = {(c.alpha, c.beta): i for c, i in target.class_index.items()
               if c.half is None}
    tables = [_group(f, rank).table.classes for f, rank in sig]
    alphas: list[tuple[int, ...]] = [()]
    betas: list[tuple[int, ...]] = [()]
    for classes in tables:
        alphas = [a + c.alpha for a in alphas for c in classes]
        betas = [b + c.beta for b in betas for c in classes]
    out = []
    for alpha, beta, keys in zip(alphas, betas, product(*tables)):
        fused = unsplit.get(
            (tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True)))
        )
        if fused is None:
            fused = target.class_index[_fused_class(emb, sig, keys, tfam, tn)]
        out.append(fused)
    return tuple(out)


@lru_cache(maxsize=1)
def _induced(
    emb: Embedding, sig: tuple[tuple[str, int], ...], keys: tuple[IrrKey, ...]
) -> tuple[tuple[int, ...], int, int]:
    """The product of the factor irreducibles named by keys, induced to the
    target: one integer per target class, the sum of class size times value
    over the factor-class tuples fusing into it; the subgroup order; and the
    floor degree, the sum of the factors' least symmetric-power degrees.
    sig is emb's factor signature.  Each factor's group record is read
    once, and the weighted rows are multiplied out one factor at a time
    into one flat product in product() order, which the fusion table
    scatters onto the target classes.  Only the last product's result is
    kept."""
    flat = [1]
    sub_order = 1
    floor = 0
    for (fam, rank), key in zip(sig, keys):
        group = _group(fam, rank)
        i = group.irr_index[key]
        row = group.weighted[i]
        if len(row) > 1:
            # a one-class factor is trivial: its weighted row is (1,)
            flat = [a * b for a in flat for b in row]
        sub_order *= group.table.order
        floor += group.degrees[i][0]
    induced = [0] * len(_group(*emb.target()).table.classes)
    for fused, v in zip(_fusion(emb), flat):
        induced[fused] += v
    return tuple(induced), sub_order, floor


def _pair(
    induced: tuple[int, ...], sub_order: int, row: tuple[int, ...], target: IrrLabel
) -> int:
    """Multiplicity of the irreducible target, with character row, in the
    induced product, by exact inner product."""
    mult, rem = divmod(sum(map(mul, induced, row)), sub_order)
    if rem or mult < 0:
        raise OracleError(f"non-integral induction multiplicity for {target}")
    return mult


def induction_multiplicity(
    emb: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel], target: IrrLabel
) -> int:
    """Multiplicity of the target irreducible in the induction of the
    factor product through the embedding, by exact inner product."""
    tfam, tn, factors, sig = _check_io(emb, factors)
    _ensure_label("target", target)
    if target.family != tfam or target.n != tn:
        raise DomainError(f"target {target} does not sit in ({tfam}, {tn})")
    induced, sub_order, _ = _induced(emb, sig, tuple(map(_label_key, factors)))
    row = _group(tfam, tn).row(_label_key(target))
    return _pair(induced, sub_order, row, target)


def j_oracle(
    emb: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel]
) -> IrrLabel:
    """The unique irreducible of the target group appearing in the induced
    product at the factor product's own least symmetric-power degree.  The
    product is induced once and paired with each irreducible of that
    degree, read off the target's degree index."""
    tfam, tn, factors, sig = _check_io(emb, factors)
    induced, sub_order, floor = _induced(emb, sig, tuple(map(_label_key, factors)))
    target = _group(tfam, tn)
    hits = [
        i for i in target.at_degree.get(floor, ())
        if _pair(induced, sub_order, target.table.values[i], target.labels[i])
    ]
    if len(hits) != 1:
        raise OracleError(
            f"{emb.kind} induction has {len(hits)} constituents at degree {floor}"
        )
    return target.labels[hits[0]]
