"""Embedded invariant tables for the five exceptional reflection groups.

The classical families get their component-group invariants computed; the
exceptional types (G2, F4, E6, E7, E8) have no symbol combinatorics, so the
package ships them as data: one row per unipotent class carrying the name of
the attached special representation, its b-value, the symmetry order ``a``,
the quotient ``a_prime`` (extra components in the simply connected cover),
and a witness pair (J, E1) naming an affine subsystem J and a representation
E1 of it whose f-product realizes ``a``.

The JSON file keeps two layers per row.  The ``raw`` cells preserve the
source text verbatim, anomalies included; the curated fields are the cleaned
values actually served by lookup, and every divergence between the layers is
recorded in ``transcription_flags`` (stray parentheses, duplicate names,
name collisions resolved by a suffix).

Whatever can be recomputed is cross-checked.  When a witness subsystem J is
a product of classical factors (A/B/C/D), validate_tables locates each
factor representation among that factor's special representations -- the
sign representation at its reflection count, the trivial one at b = 0,
anything else by dimension at the b-budget the row leaves for it -- then
recomputes the f-product and compares it with ``a``.  Witnesses with an
exceptional factor are reported UNCHECKED; a factor representation matched
by several specials with different f would be reported AMBIGUOUS, never
guessed.  Every row lands in exactly one report bucket.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from functools import cache
from importlib import resources

from .errors import DomainError, NotFoundError, ValidationError
from .irreps import FAMILY_A, FAMILY_BC, FAMILY_D, dimension, special_reps

GROUPS = ("G2", "F4", "E6", "E7", "E8")

# order of the affine-diagram automorphism group acting on each type
OMEGA_ORDERS = {"G2": 1, "F4": 1, "E6": 3, "E7": 2, "E8": 1}

EXPECTED_COUNTS = {"G2": 5, "F4": 16, "E6": 21, "E7": 45, "E8": 70}

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_UNCHECKED = "UNCHECKED"
STATUS_AMBIGUOUS = "AMBIGUOUS"

_DATA_FILE = "exceptional_tables.json"

# factor token inside a curated witness_J, e.g. "A2'", "D8", "E7"
_FACTOR_RE = re.compile(r"([A-G])(\d+)('*)")

_CLASSICAL_LETTERS = frozenset("ABCD")


@dataclass(frozen=True, slots=True)
class RawCells:
    """The four source cells of one table row, verbatim."""

    rho: str
    bbar: str
    a_times_a_prime: str
    witness: str


@dataclass(frozen=True, slots=True)
class ExceptionalRow:
    """One unipotent class of an exceptional group with its invariants."""

    group: str
    rho_name: str
    bbar: int
    a: int
    a_prime: int
    witness_J: str
    witness_E1: str
    transcription_flags: tuple[str, ...]
    raw: RawCells

    def to_json(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class WitnessCheck:
    """Outcome of recomputing one row's witness f-product."""

    group: str
    rho_name: str
    bbar: int
    status: str
    detail: str

    def to_json(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class TableReport:
    """Schema findings plus one witness check per row."""

    schema_findings: tuple[str, ...]
    checks: tuple[WitnessCheck, ...]

    def ok(self) -> bool:
        return not self.schema_findings and all(
            c.status != STATUS_FAIL for c in self.checks
        )

    def status_counts(self) -> dict[str, int]:
        counts = {s: 0 for s in (STATUS_PASS, STATUS_FAIL, STATUS_UNCHECKED, STATUS_AMBIGUOUS)}
        for check in self.checks:
            counts[check.status] += 1
        return counts

    def to_json(self) -> dict[str, object]:
        return {
            "ok": self.ok(),
            "schema_findings": list(self.schema_findings),
            "status_counts": self.status_counts(),
            "checks": [c.to_json() for c in self.checks],
        }


@cache
def _raw_doc() -> dict:
    text = resources.files("weylsymbols").joinpath("data").joinpath(_DATA_FILE).read_text()
    return json.loads(text)


def _row_from_json(blob: dict) -> ExceptionalRow:
    raw = blob["raw"]
    return ExceptionalRow(
        group=blob["group"],
        rho_name=blob["rho_name"],
        bbar=blob["bbar"],
        a=blob["a"],
        a_prime=blob["a_prime"],
        witness_J=blob["witness_J"],
        witness_E1=blob["witness_E1"],
        transcription_flags=tuple(blob["transcription_flags"]),
        raw=RawCells(raw["rho"], raw["bbar"], raw["a_times_a_prime"], raw["witness"]),
    )


@cache
def load_tables() -> dict[str, tuple[ExceptionalRow, ...]]:
    """Return the curated rows of every group, keyed by group name."""
    doc = _raw_doc()
    if doc.get("schema_version") != 1:
        raise ValidationError("unsupported exceptional-table schema version")
    tables: dict[str, tuple[ExceptionalRow, ...]] = {}
    for group in GROUPS:
        blob = doc["groups"].get(group)
        if blob is None:
            raise ValidationError(f"table for group {group} is missing")
        tables[group] = tuple(_row_from_json(r) for r in blob["rows"])
    return tables


def lookup(group: str, rho_name: str, bbar: int) -> ExceptionalRow:
    """Return the unique row with this name and b-value."""
    if group not in GROUPS:
        raise DomainError(f"unknown exceptional group {group!r}")
    for row in load_tables()[group]:
        if row.rho_name == rho_name and row.bbar == bbar:
            return row
    raise NotFoundError(f"no row ({rho_name!r}, {bbar}) in the {group} table")


# ---------------------------------------------------------------------------
# witness recomputation


def _parse_factors(witness_j: str) -> list[tuple[str, int]] | None:
    """Split a curated witness_J into (letter, rank) factors; None if garbled."""
    if witness_j == "empty":
        return []
    factors = []
    rebuilt = []
    for letter, rank, prime in _FACTOR_RE.findall(witness_j):
        factors.append((letter, int(rank)))
        rebuilt.append(letter + rank + prime)
    if "".join(rebuilt) != witness_j:
        return None
    return factors


def _classical_pool(letter: str, rank: int) -> tuple[str, int]:
    # A_k is the symmetric group on k+1 letters; B/C/D keep their rank.
    if letter == "A":
        return FAMILY_A, rank + 1
    if letter in ("B", "C"):
        return FAMILY_BC, rank
    return FAMILY_D, rank


def _sign_b(letter: str, rank: int) -> int:
    # reflection count of the factor = b of its sign representation
    if letter == "A":
        return rank * (rank + 1) // 2
    if letter in ("B", "C"):
        return rank * rank
    return rank * (rank - 1)


def _check_witness(row: ExceptionalRow) -> WitnessCheck:
    def done(status: str, detail: str) -> WitnessCheck:
        return WitnessCheck(row.group, row.rho_name, row.bbar, status, detail)

    factors = _parse_factors(row.witness_J)
    if factors is None:
        return done(STATUS_FAIL, f"unparseable witness subsystem {row.witness_J!r}")
    exotic = [f"{letter}{rank}" for letter, rank in factors if letter not in _CLASSICAL_LETTERS]
    if exotic:
        return done(STATUS_UNCHECKED, f"exceptional witness factor {', '.join(exotic)}")

    pieces = row.witness_E1.split(" x ")
    if not factors:
        if pieces != ["1"]:
            return done(STATUS_FAIL, "empty subsystem carries a nontrivial representation")
        if row.bbar != 0:
            return done(STATUS_FAIL, f"empty subsystem at bbar {row.bbar}")
        if row.a != 1:
            return done(STATUS_FAIL, f"empty subsystem with a = {row.a}")
        return done(STATUS_PASS, "f = 1")
    if len(pieces) == 1 and len(factors) > 1 and pieces[0] == "eps":
        # a bare sign stands for the sign representation of the whole product
        pieces = pieces * len(factors)
    if len(pieces) != len(factors):
        return done(
            STATUS_FAIL,
            f"{len(factors)} factors but {len(pieces)} representation pieces",
        )

    # Fix b for sign/trivial pieces; at most one piece may float, and it
    # absorbs whatever budget the row's bbar leaves over.
    fixed_b: list[int | None] = []
    dims: list[int] = []
    for (letter, rank), piece in zip(factors, pieces):
        if piece == "eps":
            fixed_b.append(_sign_b(letter, rank))
            dims.append(1)
        elif piece == "1":
            fixed_b.append(0)
            dims.append(1)
        elif piece.isdigit():
            fixed_b.append(None)
            dims.append(int(piece))
        else:
            return done(STATUS_UNCHECKED, f"named factor representation {piece!r}")
    floating = [i for i, b in enumerate(fixed_b) if b is None]
    if len(floating) > 1:
        return done(STATUS_UNCHECKED, "more than one factor representation named by degree")
    budget = row.bbar - sum(b for b in fixed_b if b is not None)
    if floating:
        if budget < 0:
            return done(STATUS_FAIL, f"b-budget short by {-budget}")
        fixed_b[floating[0]] = budget
    elif budget != 0:
        return done(STATUS_FAIL, f"piece b-values sum to {row.bbar - budget}, not bbar {row.bbar}")

    f_total = 1
    for (letter, rank), dim, b in zip(factors, dims, fixed_b):
        family, n = _classical_pool(letter, rank)
        hits = [r for r in special_reps(family, n) if r.b == b and dimension(r.label) == dim]
        fs = sorted({r.f for r in hits})
        if not fs:
            return done(STATUS_FAIL, f"no special of dimension {dim} at b = {b} in {letter}{rank}")
        if len(fs) > 1:
            return done(
                STATUS_AMBIGUOUS,
                f"dimension {dim} at b = {b} in {letter}{rank} matches f values {fs}",
            )
        f_total *= fs[0]
    if f_total != row.a:
        return done(STATUS_FAIL, f"recomputed f = {f_total}, stored a = {row.a}")
    return done(STATUS_PASS, f"f = {f_total}")


def validate_tables() -> TableReport:
    """Recheck schema invariants and every recomputable witness."""
    tables = load_tables()
    doc = _raw_doc()
    findings: list[str] = []

    extra = sorted(set(doc["groups"]) - set(GROUPS))
    if extra:
        findings.append(f"unexpected groups in data file: {extra}")
    for group in GROUPS:
        rows = tables[group]
        omega = OMEGA_ORDERS[group]
        if doc["groups"][group].get("omega_order") != omega:
            findings.append(f"{group}: stored omega_order disagrees with {omega}")
        if len(rows) != EXPECTED_COUNTS[group]:
            findings.append(
                f"{group}: {len(rows)} rows, expected {EXPECTED_COUNTS[group]}"
            )
        seen: set[tuple[str, int]] = set()
        for row in rows:
            where = f"{group} ({row.rho_name!r}, {row.bbar})"
            if row.group != group:
                findings.append(f"{where}: group field reads {row.group!r}")
            if (row.rho_name, row.bbar) in seen:
                findings.append(f"{where}: duplicate (rho_name, bbar) key")
            seen.add((row.rho_name, row.bbar))
            if row.bbar < 0:
                findings.append(f"{where}: negative bbar")
            if row.a < 1:
                findings.append(f"{where}: nonpositive a")
            if row.a_prime < 1:
                findings.append(f"{where}: nonpositive a_prime")
            if omega == 1 and row.a_prime != 1:
                findings.append(f"{where}: a_prime = {row.a_prime} under a trivial automorphism group")
            if omega % row.a_prime != 0:
                findings.append(
                    f"{where}: a_prime = {row.a_prime} does not divide the automorphism order {omega}"
                )

    checks = tuple(
        _check_witness(row) for group in GROUPS for row in tables[group]
    )
    return TableReport(schema_findings=tuple(findings), checks=checks)
