"""Workload bodies and output checks of the weylsymbols benchmark.

A workload is a pair of functions.  ``run(rng, workdir, clock)`` is the
timed body: it calls the library, charges each classical family's part to
``clock``, and returns what the check needs.  ``check(payload)`` runs after
the clock stops and compares the outputs with the pins below; every
mismatch is one failed check.  The seed only permutes the order of calls,
so every digest and count is the same for any seed.

Library functions are looked up on their modules at call time
(``ws.special_reps``, ``cli.main``), so the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Callable, Iterator

from calibrate import reference_s

import weylsymbols as ws
from weylsymbols import oracle as ws_oracle

FAMILIES = ("B", "C", "D")
BLOCKS = tuple(f"family.{fam}" for fam in FAMILIES)
# a plain pass runs the reference job once per this many seconds of work
CALIBRATE_EVERY_S = 0.4

# public functions timed by the traced run, as "<module>.<function>"
LAYERS = (
    "cli.main",
    "engine.verify",
    "engine.bar_S",
    "engine.enumerate_cz",
    "jinduction.j_induce",
    "jinduction.f_product",
    "irreps.zeta_inverse",
    "irreps.special_reps",
    "springer.enumerate_classes",
    "springer.class_invariants",
    "springer.tau_fiber",
    "springer.tau",
    "seqcomb.enumerate_space",
    "seqcomb.symmetric_decompositions",
    "oracle.character_table",
    "oracle.b_oracle",
    "oracle.j_oracle",
    "oracle.induction_multiplicity",
    "exceptional.validate_tables",
)

# layer -> size of one call's result, summed by the traced run
COUNTERS: dict[str, Callable[[object], int]] = {
    "engine.enumerate_cz": len,
    "engine.bar_S": len,
    "seqcomb.enumerate_space": len,
    "exceptional.validate_tables": lambda report: len(report.checks),
}


class Clock:
    """Time spent per classical family in one pass.

    In a traced pass each timed part is also a ``family.<F>`` span.  A plain
    pass also runs the reference job (``calibrate.py``) when it starts, when
    it stops and after a family's part once ``CALIBRATE_EVERY_S`` of work
    has gone by since the last runs, and each time runs it once per
    ``CALIBRATE_EVERY_S`` of that work.  ``reference`` keeps the job's mean
    time of each of these points, and ``segments`` the work between two
    points: its seconds and its seconds per family.  The reference runs are
    not part of any timed span.
    """

    def __init__(self, tracer=None):
        self._tracer = tracer
        self.reference: list[float] = []
        self.segments: list[tuple[float, dict[str, float]]] = []
        self._open = 0.0
        self._family = dict.fromkeys(FAMILIES, 0.0)

    @property
    def body_s(self) -> float:
        return sum(work for work, _ in self.segments)

    @property
    def family_s(self) -> dict[str, float]:
        return {fam: sum(part[fam] for _, part in self.segments)
                for fam in FAMILIES}

    def start(self) -> None:
        if self._tracer is None:
            self.reference.append(reference_s(1))
        self._open = perf_counter()

    def stop(self) -> None:
        self._close()

    def _close(self) -> None:
        work = perf_counter() - self._open
        self.segments.append((work, self._family))
        self._family = dict.fromkeys(FAMILIES, 0.0)
        if self._tracer is None:
            runs = max(1, int(work / CALIBRATE_EVERY_S))
            self.reference.append(reference_s(runs))
        self._open = perf_counter()

    @contextmanager
    def family(self, fam: str) -> Iterator[None]:
        start = perf_counter()
        if self._tracer is None:
            yield
        else:
            with self._tracer.block(f"family.{fam}"):
                yield
        end = perf_counter()
        self._family[fam] += end - start
        if self._tracer is None and end - self._open >= CALIBRATE_EVERY_S:
            self._close()


@dataclass
class Verdict:
    """Checks made on one pass, its item count, and counts for the trace."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    items: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def digest(obj: object) -> str:
    """sha256 of the canonical JSON form of an object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# verify-r10: the verify subcommand for B, C and D at rank 10

VERIFY_RANK = 10

# family -> (rows, sha256 of the canonical "report" object)
VERIFY_PINS = {
    "B": (196,
          "ab89460a136fce925eaf93285bb3e066a81f285ba47436d0f926ee0df0848a06"),
    "C": (232,
          "5dc341362093c690e32cb39d3ba01e7c580f20e55a5ebdac5d26d8079ebab727"),
    "D": (168,
          "0e4b18ca6ab84f78c248c05b966c498da685952c8fce15b679eef343aff45d41"),
}


def run_verify(rng: random.Random, workdir: str, clock: Clock) -> dict:
    from weylsymbols import cli

    outputs = {}
    for fam in _shuffled(rng, FAMILIES):
        path = os.path.join(workdir, f"verify-{fam}.json")
        argv = ["verify", "--family", fam, "--rank", str(VERIFY_RANK),
                "--format", "json", "--output", path]
        with clock.family(fam):
            code = cli.main(argv)
        outputs[fam] = (code, path)
    return outputs


def check_verify_json(fam: str, text: str, verdict: Verdict) -> None:
    """Check one family's verify JSON against its pins."""
    rows_pin, digest_pin = VERIFY_PINS[fam]
    report = json.loads(text)["report"]
    rows = report["rows"]
    verdict.expect(len(rows) == rows_pin,
                   f"verify {fam}: {len(rows)} rows, pinned {rows_pin}")
    verdict.expect(report["ok"] is True, f"verify {fam}: report not ok")
    for row in rows:
        verdict.expect(all(row[k] for k in ("holds_b1", "holds_b2", "holds_b3",
                                            "witnesses_ok")),
                       f"verify {fam}: row {row['label']} fails")
    got = digest(report)
    verdict.expect(got == digest_pin,
                   f"verify {fam}: report digest {got}, pinned {digest_pin}")
    verdict.items += len(rows)
    verdict.counts["rows"] = verdict.counts.get("rows", 0) + len(rows)
    verdict.counts["witnesses"] = verdict.counts.get("witnesses", 0) + sum(
        len(row["witnesses"]) for row in rows)


def check_verify(outputs: dict) -> Verdict:
    verdict = Verdict()
    for fam in FAMILIES:
        code, path = outputs[fam]
        verdict.expect(code == 0, f"verify {fam}: exit code {code}")
        with open(path, "rb") as fh:
            data = fh.read()
        verdict.counts["bytes_out"] = verdict.counts.get("bytes_out", 0) + len(data)
        check_verify_json(fam, data.decode(), verdict)
    return verdict


# ---------------------------------------------------------------------------
# tables: the special-reps and springer listings at rank 18, plus the
# exceptional-table validation

TABLES_RANK = 18
TABLES_ROWS = 157
LABEL_FAMILY = {"B": ws.FAMILY_BC, "C": ws.FAMILY_BC, "D": ws.FAMILY_D}

# family -> (special reps, classes, tau partners, sha256 of the listing)
TABLES_PINS = {
    "B": (1816, 3206, 3206,
          "baa23c59ead10d3551efa0d2c116bbcc1be3d060845f039061cb9c53b013b9da"),
    "C": (1816, 3948, 3948,
          "8f3ef61cfaec81848c44e813fbe8b5f152380b81a0f829b43c2d561618e4e28a"),
    "D": (1720, 2741, 2771,
          "0aeb00ad5b9345b996dc2607b22a29a616a1f92c16bf372c89c3886303a9a86f"),
}


def run_tables(rng: random.Random, workdir: str, clock: Clock) -> dict:
    listings = {}
    for fam in _shuffled(rng, FAMILIES):
        with clock.family(fam):
            reps = ws.special_reps(LABEL_FAMILY[fam], TABLES_RANK)
            classes = ws.enumerate_classes(fam, TABLES_RANK)
            rows = [None] * len(classes)
            for i in _shuffled(rng, range(len(classes))):
                c = classes[i]
                partners = ws.tau_fiber(fam, c.y, TABLES_RANK)
                rows[i] = (ws.class_invariants(c),
                           [ws.canonicalize(lab) for lab in partners])
        listings[fam] = (reps, classes, rows)
    return {"listings": listings, "report": ws.validate_tables()}


def tables_listing(reps, classes, rows) -> dict:
    """The listing as the special-reps and springer JSON outputs show it."""
    return {
        "special_reps": [[r.label.to_json(), list(r.xseq), r.b, r.f] for r in reps],
        "springer": [
            [list(c.y), inv.to_json(), [lab.to_json() for lab in partners]]
            for c, (inv, partners) in zip(classes, rows)
        ],
    }


def check_tables(payload: dict) -> Verdict:
    verdict = Verdict()
    for fam in FAMILIES:
        reps, classes, rows = payload["listings"][fam]
        n_reps, n_classes, n_partners, digest_pin = TABLES_PINS[fam]
        partners = sum(len(p) for _, p in rows)
        verdict.expect(len(reps) == n_reps,
                       f"tables {fam}: {len(reps)} special reps, pinned {n_reps}")
        verdict.expect(len(classes) == n_classes,
                       f"tables {fam}: {len(classes)} classes, pinned {n_classes}")
        verdict.expect(partners == n_partners,
                       f"tables {fam}: {partners} partners, pinned {n_partners}")
        got = digest(tables_listing(reps, classes, rows))
        verdict.expect(got == digest_pin,
                       f"tables {fam}: listing digest {got}, pinned {digest_pin}")
        verdict.items += len(reps) + len(classes)
    report = payload["report"]
    verdict.expect(not report.schema_findings,
                   f"exceptional: schema findings {report.schema_findings}")
    verdict.expect(len(report.checks) == TABLES_ROWS,
                   f"exceptional: {len(report.checks)} rows, pinned {TABLES_ROWS}")
    # PASS and UNCHECKED are not pinned: resolving witnesses moves rows
    # between them; a FAIL is always an error
    for c in report.checks:
        verdict.expect(c.status != "FAIL",
                       f"exceptional {c.group} {c.rho_name}: {c.detail}")
    return verdict


# ---------------------------------------------------------------------------
# oracle: character-theory cross-checks at A <= 7, BC <= 5, D <= 5

ORACLE_WINDOW = {ws.FAMILY_A: 7, ws.FAMILY_BC: 5, ws.FAMILY_D: 5}

# block -> pinned case count; every case must agree
ORACLE_PINS = {"b_A": 45, "b_BC": 74, "b_D": 42,
               "j_A": 249, "j_BC": 956, "j_D": 612}

# the classical family whose time a case counts towards (A counts to none)
_ORACLE_FAMILY = {"b_BC": "B", "b_D": "D", "B_SpWq": "B", "B_WrWq": "B",
                  "B_WrSpWq": "B", "C_WrWDq": "C", "D_SpWDq": "D",
                  "D_triple": "D"}


def _embeddings(family: str, cap: int) -> list[ws.Embedding]:
    """Every supported embedding with target rank at most the cap."""
    E = ws.Embedding
    out: list[ws.Embedding] = []
    for n in range(cap + 1):
        if family == ws.FAMILY_A:
            out += [E("A_split", r=r, q=n - r) for r in range(n + 1)]
        elif family == ws.FAMILY_BC:
            out += [E("B_SpWq", p=p, q=n - p) for p in range(n + 1)]
            out += [E("B_WrWq", r=r, q=n - r) for r in range(n + 1)]
            out += [E("C_WrWDq", r=r, q=n - r) for r in range(n + 1)]
            out += [E("B_WrSpWq", r=r, p=p, q=n - r - p)
                    for r in range(n + 1) for p in range(n - r + 1)]
        else:
            out += [E("D_SpWDq", p=p, q=n - p) for p in range(n + 1)]
            for r in range(n + 1):
                for p in range(n - r + 1):
                    q = n - r - p
                    lams = [0]
                    if r == 0 and p >= 2:
                        lams.append(1)
                    if q == 0 and p >= 2:
                        lams.append(2)
                    if r == 0 and q == 0:
                        lams.append(3)
                    out += [E("D_triple", r=r, p=p, q=q, lam=lam) for lam in lams]
    return out


def _b_case(label: ws.IrrLabel) -> str | None:
    got, mult = ws.b_oracle(label)
    want = ws.b_invariant(label)
    if got != want:
        return f"b {got} vs {want}"
    if ws.is_special(label) and mult != 1:
        return f"multiplicity {mult} at its degree"
    return None


def _j_case(emb: ws.Embedding, combo: tuple) -> str | None:
    want = ws.j_induce(emb, combo)
    try:
        got = ws.j_oracle(emb, combo)
    except ws.OracleError as exc:
        return str(exc)
    # degenerate type-D images agree up to the gauge bit
    if (got.z, got.zp) != (want.z, want.zp) or (got.z != got.zp and got != want):
        return f"oracle {got} vs formula {want}"
    if ws.induction_multiplicity(emb, combo, got) != 1:
        return "multiplicity != 1"
    return None


def run_oracle(rng: random.Random, workdir: str, clock: Clock) -> list:
    # listing the irreducibles builds every character table in the window,
    # in a fixed order; the seed permutes the cases within each block kind
    b_cases = []
    for fam, cap in ORACLE_WINDOW.items():
        for n in range(cap + 1):
            for key in ws.character_table(fam, n).irreps:
                b_cases.append((f"b_{fam}", ws_oracle.key_to_label(fam, n, key)))
    j_cases = []
    for fam, cap in ORACLE_WINDOW.items():
        for emb in _embeddings(fam, cap):
            pools = [[rep.label for rep in ws.special_reps(f, rank)]
                     for f, rank in emb.factor_signature()]
            j_cases += [(f"j_{fam}", emb, combo) for combo in product(*pools)]
    results = []
    for block, label in _shuffled(rng, b_cases):
        with _oracle_part(clock, block):
            results.append((block, _b_case(label)))
    for block, emb, combo in _shuffled(rng, j_cases):
        with _oracle_part(clock, emb.kind):
            results.append((block, _j_case(emb, combo)))
    return results


def _oracle_part(clock: Clock, kind: str):
    fam = _ORACLE_FAMILY.get(kind)
    return clock.family(fam) if fam else nullcontext()


def check_oracle(results: list) -> Verdict:
    verdict = Verdict()
    cases = dict.fromkeys(ORACLE_PINS, 0)
    for block, failure in results:
        cases[block] += 1
        verdict.expect(failure is None, f"oracle {block}: {failure}")
    for block, pin in ORACLE_PINS.items():
        verdict.expect(cases[block] == pin,
                       f"oracle {block}: {cases[block]} cases, pinned {pin}")
    verdict.items = len(results)
    return verdict


# workload -> (timed body, check of its payload)
WORKLOADS = {
    "verify-r10": (run_verify, check_verify),
    "tables": (run_tables, check_tables),
    "oracle": (run_oracle, check_oracle),
}
