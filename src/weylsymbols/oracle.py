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
classes fuses into, in product() order.  A product of factor irreducibles
is induced once, in one pass over that table, into one integer per target
class (class sizes folded into the factor rows), and each multiplicity is
that vector paired with a target row and divided by the subgroup order;
j_oracle pairs the one vector with every irreducible at the floor degree.

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
from functools import cache
from itertools import product
from math import factorial, prod
from operator import mul
from typing import Callable

from .errors import DomainError, OracleError, ResourceError, ValidationError
from .irreps import (
    FAMILIES,
    FAMILY_A,
    FAMILY_BC,
    FAMILY_D,
    IrrLabel,
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
        assert sign == 1 and len(sup) % 2 == 0
        sigma = 1
        for v in sup:
            parity *= sigma
            sigma *= s[v]
    return 0 if parity == 1 else 1


def _is_split_type(alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    return not beta and bool(alpha) and all(v % 2 == 0 for v in alpha)


# ---------------------------------------------------------------------------
# tables

@dataclass(frozen=True)
class ClassKey:
    """Conjugacy class named by positive/negative cycle types; half tells
    the two rotation-subgroup pieces of a split class apart."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...] = ()
    half: int | None = None


@dataclass(frozen=True)
class IrrKey:
    """Irreducible named by one or two partitions; sign picks a split piece."""

    lam: tuple[int, ...]
    mu: tuple[int, ...] | None = None
    sign: int = 0


@dataclass(frozen=True)
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


@cache
def _build_table(family: str, n: int) -> CharacterTable:
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
    table = CharacterTable(
        family,
        n,
        order,
        tuple(classes),
        tuple(sizes),
        tuple(irreps),
        tuple(values),
    )
    _verify_table(table)
    return table


def _d_value(key: IrrKey, c: ClassKey) -> int:
    assert key.mu is not None
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


def _verify_table(t: CharacterTable) -> None:
    if sum(t.sizes) != t.order:
        raise OracleError(f"class sizes of {t.family}{t.n} miss the group order")
    i0 = t.identity_index()
    if sum(row[i0] ** 2 for row in t.values) != t.order:
        raise OracleError(f"degree squares of {t.family}{t.n} miss the group order")
    rows = len(t.values)
    for i in range(rows):
        for j in range(i, rows):
            tot = sum(
                sz * a * b for sz, a, b in zip(t.sizes, t.values[i], t.values[j])
            )
            if tot != (t.order if i == j else 0):
                raise OracleError(f"row orthogonality fails in {t.family}{t.n}")
    cols = len(t.classes)
    for c in range(cols):
        for d in range(c, cols):
            tot = sum(row[c] * row[d] for row in t.values)
            if tot != (t.order // t.sizes[c] if c == d else 0):
                raise OracleError(f"column orthogonality fails in {t.family}{t.n}")
    if t.family == FAMILY_D and t.n >= 2:
        _verify_split_gauge(t)


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
        tot = sum(cnt * v for cnt, v in zip(counts, row))
        if tot < 0 or tot % factorial(t.n):
            raise OracleError(f"split gauge fails for {key} in D{t.n}")


def character_table(family: str, n: int) -> CharacterTable:
    """Exact table for the rank-n group of the family, gated by exact
    orthogonality and order checks at construction.  The arguments are
    checked on every call, before the table cache is read."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    ensure_rank(n)
    if n > RANK_BOUNDS[family]:
        raise ResourceError(
            f"family {family} tables stop at rank {RANK_BOUNDS[family]}"
        )
    return _build_table(family, n)


# The helpers below read the cached tables without character_table's
# argument checks: their callers name groups within the bounds.

@cache
def _class_map(family: str, n: int) -> dict[ClassKey, int]:
    return {c: i for i, c in enumerate(_build_table(family, n).classes)}


@cache
def _irr_map(family: str, n: int) -> dict[IrrKey, int]:
    return {k: i for i, k in enumerate(_build_table(family, n).irreps)}


def _row(family: str, n: int, key: IrrKey) -> tuple[int, ...]:
    """Character values of the irreducible named by key, class by class."""
    return _build_table(family, n).values[_irr_map(family, n)[key]]


# ---------------------------------------------------------------------------
# label codec

def label_to_key(label: IrrLabel) -> IrrKey:
    """Oracle row named by a label: rows become partitions; family D rows
    are ordered by (weight, parts) and kappa = 0 picks the +1 piece."""
    if label.family == FAMILY_A:
        return IrrKey(_z_to_partition(label.z))
    assert label.zp is not None
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
    """Inverse of label_to_key, in canonical (shortest-rows) form."""
    if family == FAMILY_A:
        return canonicalize(IrrLabel(FAMILY_A, n, _partition_to_z(key.lam)))
    assert key.mu is not None
    if family == FAMILY_BC:
        length = max(len(key.lam), len(key.mu), 1) + 1
        return canonicalize(
            IrrLabel(
                FAMILY_BC,
                n,
                _partition_to_z(key.lam, length),
                _partition_to_z(key.mu, length - 1),
            )
        )
    length = max(len(key.lam), len(key.mu), 1)
    kappa = 1 if key.sign == -1 else 0
    return canonicalize(
        make_d_label(
            n, _partition_to_z(key.lam, length), _partition_to_z(key.mu, length), kappa
        )
    )


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


@cache
def _sym_power_row(family: str, n: int, i: int) -> tuple[int, ...]:
    """Character of the i-th symmetric power of the reflection
    representation, by the power-sum recursion i h_i = sum_k p_k h_(i-k)
    in integers; a division by i that leaves a remainder raises."""
    t = _build_table(family, n)
    if i == 0:
        return (1,) * len(t.classes)
    lower = [_sym_power_row(family, n, j) for j in range(i)]
    out = []
    for ci, c in enumerate(t.classes):
        acc = sum(
            _power_trace(family, c, k) * lower[i - k][ci] for k in range(1, i + 1)
        )
        h, rem = divmod(acc, i)
        if rem:
            raise OracleError(f"non-integral symmetric power {i} in {family}{n}")
        out.append(h)
    return tuple(out)


@cache
def _b_of_key(family: str, n: int, key: IrrKey) -> tuple[int, int]:
    # the one checked table read: b_oracle's label may be out of bounds
    t = character_table(family, n)
    weighted = [sz * v for sz, v in zip(t.sizes, _row(family, n, key))]
    for i in range(n * n + 2):
        power = _sym_power_row(family, n, i)
        mult, rem = divmod(sum(map(mul, weighted, power)), t.order)
        if rem or mult < 0:
            raise OracleError(f"non-integral multiplicity for {key} at degree {i}")
        if mult:
            return i, mult
    raise OracleError(f"no symmetric power contains {key} in {family}{n}")


@cache
def _by_degree(family: str, n: int) -> dict[int, list[IrrKey]]:
    """The irreducibles of the rank-n group, in table order, grouped by their
    least symmetric-power degree."""
    out: dict[int, list[IrrKey]] = {}
    for key in _build_table(family, n).irreps:
        out.setdefault(_b_of_key(family, n, key)[0], []).append(key)
    return out


def _ensure_label(name: str, label: object) -> None:
    if not isinstance(label, IrrLabel):
        raise ValidationError(f"{name} must be an IrrLabel, got {label!r}")


def b_oracle(label: IrrLabel) -> tuple[int, int]:
    """Least symmetric-power degree of the reflection representation
    containing the irreducible, with the multiplicity there."""
    _ensure_label("label", label)
    return _b_of_key(label.family, label.n, label_to_key(label))


# ---------------------------------------------------------------------------
# induction through explicit block embeddings

def _check_io(
    emb: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel]
) -> tuple[str, int, tuple[IrrLabel, ...]]:
    """The target (family, rank) of emb and the factors as a tuple, after
    checking that emb is an Embedding and factors a tuple or list of labels
    that fit its signature."""
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
    return tfam, tn, factors


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
    into, one per tuple in the order product() lists them."""
    sig = emb.factor_signature()
    tfam, tn = emb.target()
    tmap = _class_map(tfam, tn)
    return tuple(
        tmap[_fused_class(emb, sig, keys, tfam, tn)]
        for keys in product(*(_build_table(f, rank).classes for f, rank in sig))
    )


def _induced(emb: Embedding, keys: list[IrrKey]) -> tuple[list[int], int]:
    """The product of the factor irreducibles named by keys, induced to the
    target: one integer per target class, the sum of class size times value
    over the factor-class tuples fusing into it, and the subgroup order."""
    weighted = []
    sub_order = 1
    for (fam, rank), key in zip(emb.factor_signature(), keys):
        ft = _build_table(fam, rank)
        weighted.append([sz * v for sz, v in zip(ft.sizes, _row(fam, rank, key))])
        sub_order *= ft.order
    tfam, tn = emb.target()
    induced = [0] * len(_build_table(tfam, tn).classes)
    for fused, vals in zip(_fusion(emb), product(*weighted)):
        induced[fused] += prod(vals)
    return induced, sub_order


def _pair(
    induced: list[int],
    sub_order: int,
    row: tuple[int, ...],
    target: Callable[[], IrrLabel],
) -> int:
    """Multiplicity of the irreducible with character row in the induced
    product, by exact inner product; target() names it in the error."""
    mult, rem = divmod(sum(map(mul, induced, row)), sub_order)
    if rem or mult < 0:
        raise OracleError(f"non-integral induction multiplicity for {target()}")
    return mult


def induction_multiplicity(
    emb: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel], target: IrrLabel
) -> int:
    """Multiplicity of the target irreducible in the induction of the
    factor product through the embedding, by exact inner product."""
    tfam, tn, factors = _check_io(emb, factors)
    _ensure_label("target", target)
    if target.family != tfam or target.n != tn:
        raise DomainError(f"target {target} does not sit in ({tfam}, {tn})")
    induced, sub_order = _induced(emb, [*map(label_to_key, factors)])
    row = _row(tfam, tn, label_to_key(target))
    return _pair(induced, sub_order, row, lambda: target)


def j_oracle(
    emb: Embedding, factors: tuple[IrrLabel, ...] | list[IrrLabel]
) -> IrrLabel:
    """The unique irreducible of the target group appearing in the induced
    product at the factor product's own least symmetric-power degree.  The
    product is induced once and paired with each irreducible of that degree."""
    tfam, tn, factors = _check_io(emb, factors)
    keys = [*map(label_to_key, factors)]
    floor = sum(
        _b_of_key(fam, rank, key)[0]
        for (fam, rank), key in zip(emb.factor_signature(), keys)
    )
    induced, sub_order = _induced(emb, keys)
    hits = []
    for key in _by_degree(tfam, tn).get(floor, ()):
        row = _row(tfam, tn, key)
        if _pair(induced, sub_order, row, lambda: key_to_label(tfam, tn, key)):
            hits.append(key)
    if len(hits) != 1:
        raise OracleError(
            f"{emb.kind} induction has {len(hits)} constituents at degree {floor}"
        )
    return key_to_label(tfam, tn, hits[0])
