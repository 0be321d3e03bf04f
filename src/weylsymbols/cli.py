"""Command-line driver for enumeration, mapping, verification, and tables.

Seven subcommands cover the package surface: ``special-reps`` lists the
special representations of a classical family with their sequences, b- and
f-values; ``springer`` lists the unipotent-class strata with component data
and the labels mapping onto them; ``j`` computes one truncated induction
from a JSON spec; ``verify`` runs the full per-class comparison for one
family and rank; ``oracle-check`` replays the character-theoretic
cross-checks; ``exceptional`` queries or validates the embedded tables for
the exceptional types; ``lemmas`` runs the exhaustive sequence-combinatorics
property suite.

Each subcommand handler only computes its data; one renderer turns that
data into the requested format.  Every machine format carries a
schema_version field, and identical invocations produce byte-identical
output: all enumeration orders are deterministic and no timestamps or
environment data leak into the payload.  Exit status is 0 on success, 1
when a verification-style subcommand finds a failing check or an internal
identity fails, and 2 for usage errors (bad flags, malformed specs, unknown
keys).  --output is written atomically: a failed run leaves any existing
file untouched.  Only the requested format is built, and JSON output is
exactly the text of json.dumps(payload, indent=2), streamed: the header
first, then one row's text at a time, never the whole document as one
string, with each distinct label's text built once per render and indent
depth and each verify row's dict built only when the stream reaches it.
At B16 through --output, `verify --format json` peaks at 51 MB RSS, as
the table format does, where the whole-string render took 205 MB.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _str_json
from typing import Any, Callable, Iterable, Iterator, Sequence

from .engine import ClassRow, ensure_floor, verify
from .errors import DomainError, InvariantError, ValidationError, WeylSymbolsError
from .exceptional import (
    GROUPS,
    OMEGA_ORDERS,
    load_tables,
    lookup,
    validate_tables,
)
from .irreps import (
    FAMILIES,
    IrrLabel,
    b_invariant,
    canonicalize,
    is_special,
    label_str,
    policy_m,
    seq_str,
    special_reps,
)
from .jinduction import Embedding, j_induce
from .springer import (
    CLASS_FAMILIES,
    LABEL_FAMILY,
    _tau_fiber,
    class_invariants,
    enumerate_classes,
)
from .suites import LemmaSuiteReport, OracleSuiteReport, lemma_suite, oracle_suite

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# rendering


@dataclass
class _Output:
    """The data one subcommand computed, one builder per format.

    payload() gives the JSON fields that follow schema_version and command;
    an IrrLabel in them stands for its to_json() dict, and a verify ClassRow
    for its to_json() dict with the labels left as they are.
    headers and rows() make the table, and also the CSV unless csv_headers
    and csv_rows() are given.  table() replaces the rendered table when the
    library formats its own.  notes is set for suite-style tables: the lines
    printed before the result trailer.  _render calls only the builders of
    the requested format.
    """

    payload: Callable[[], dict]
    headers: list[str] = field(default_factory=list)
    rows: Callable[[], list[list[str]]] = list
    csv_headers: list[str] | None = None
    csv_rows: Callable[[], list[list[object]]] | None = None
    table: Callable[[], str] | None = None
    notes: list[str] | None = None
    failed: bool = False


# exact scalar type -> its JSON text; any other value goes to json.dumps
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: _str_json,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
}


def _itself(v: Any) -> Any:
    return v


def _json_value(v: object, pad: str, labels: dict) -> str:
    """JSON text of v, its closing bracket after pad (a newline and the
    indent of v's own level), as json.dumps(..., indent=2) lays it out.

    An IrrLabel stands for its to_json() dict; labels maps (label, pad) to
    the text already built for it in this render.  A ClassRow stands for
    its to_json() dict with the labels left as they are, built here, when
    the stream reaches the row, and dropped with its text.
    """
    if type(v) is ClassRow:
        v = v.to_json(_itself)
    if type(v) is IrrLabel:
        text = labels.get((v, pad))
        if text is None:
            text = labels[v, pad] = _json_value(v.to_json(), pad, labels)
        return text
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = pad + "  "
        if {*map(type, v)} == {int}:
            body = map(int.__repr__, v)
        else:
            scalar = _SCALARS.get
            body = [e(x) if (e := scalar(type(x))) else _json_value(x, inner, labels)
                    for x in v]
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if type(v) is dict:
        if not v:
            return "{}"
        inner = pad + "  "
        scalar = _SCALARS.get
        try:
            body = [
                _str_json(k) + ": "
                + (e(x) if (e := scalar(type(x))) else _json_value(x, inner, labels))
                for k, x in v.items()
            ]
        except TypeError:
            # _str_json raised on a key that is not a str (trying it is
            # cheaper than checking every key first), or the stdlib
            # rejected a value below, which it rejects again here
            return json.dumps(v, indent=2).replace("\n", pad)
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if e := _SCALARS.get(type(v)):
        return e(v)
    # floats, subclasses and what the stdlib rejects: its own text,
    # indented to this level (JSON text holds no raw newline)
    return json.dumps(v, indent=2).replace("\n", pad)


def _json_pieces(v: object, pad: str, labels: dict) -> Iterator[str]:
    """The text of _json_value(v, pad, labels) in pieces: a nonempty dict
    with str keys yields its keys and the pieces of each value, a nonempty
    list or tuple each element's whole text, anything else one piece."""
    if isinstance(v, (list, tuple)) and v:
        inner = pad + "  "
        sep = "[" + inner
        for x in v:
            yield sep + _json_value(x, inner, labels)
            sep = "," + inner
        yield pad + "]"
    elif type(v) is dict and v and all(isinstance(k, str) for k in v):
        inner = pad + "  "
        sep = "{" + inner
        for k, x in v.items():
            yield sep + _str_json(k) + ": "
            yield from _json_pieces(x, inner, labels)
            sep = "," + inner
        yield pad + "}"
    else:
        yield _json_value(v, pad, labels)


def _json_text(obj: object) -> Iterator[str]:
    """Exactly the text of json.dumps(obj, indent=2), as a stream of pieces.

    A payload is streamed: its dicts one key at a time, its lists (the
    rows of a report) one element at a time, each element's text built,
    yielded and dropped before the next, so a render never holds the
    whole document as one string.  An IrrLabel in obj stands for its
    to_json() dict, and each distinct label's text is built once per
    indent depth in one render, then spliced wherever that label appears:
    as a row label or a witness factor.  The table lives only as long as
    the render.

    Before Python 3.13 json.dumps encodes an indented document in pure
    Python, one generator step per token; this kernel builds the same text
    one container at a time for the values CLI payloads hold: lists,
    tuples, dicts with str keys, and exact str, int, bool and None.  Keys
    and strings go through the stdlib's C encode_basestring_ascii, and a
    list of plain ints is one join.  Any other value (a float, a dict with
    other keys, a subclass, or what json.dumps rejects with TypeError) is
    json.dumps's own text of it; unlike json.dumps the kernel does not look
    for reference cycles in the containers it lays out.  It is the one
    JSON path on every Python version.
    """
    return _json_pieces(obj, "\n", {})


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render(args: argparse.Namespace, out: _Output) -> None:
    """Write one subcommand's output in the requested format to stdout or
    to --output."""
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": args.cmd,
                   **out.payload()}
        pieces: Iterable[str] = itertools.chain(_json_text(payload), ["\n"])
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        headers = out.headers if out.csv_headers is None else out.csv_headers
        writer.writerow(["schema_version", *headers])
        for row in out.rows() if out.csv_rows is None else out.csv_rows():
            writer.writerow([SCHEMA_VERSION, *row])
        pieces = [buf.getvalue()]
    else:
        if out.table is None:
            text = _render_table(out.headers, out.rows())
        else:
            text = out.table()
        if out.notes is not None:
            text += "".join(f"{line}\n" for line in out.notes)
            text += f"result: {'failed' if out.failed else 'ok'}\n"
        pieces = [text]
    if args.output is None:
        sys.stdout.writelines(pieces)
    else:
        _write_atomically(args.output, pieces)


def _write_atomically(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces one at a time to a temporary file beside path,
    then rename it into place; on error the temporary file goes and any
    old file stays."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_special_reps(args: argparse.Namespace) -> _Output:
    ensure_floor(args.family, args.rank)
    fam = LABEL_FAMILY[args.family]
    reps = special_reps(fam, args.rank)
    headers = ["label", "x", "b", "f"]

    def rows() -> list[list[str]]:
        return [[label_str(r.label), seq_str(r.xseq), str(r.b), str(r.f)]
                for r in reps]

    return _Output(
        payload=lambda: {
            "family": args.family,
            "rank": args.rank,
            "m": policy_m(fam, args.rank),
            "count": len(reps),
            "rows": [
                {"label": r.label, "x": list(r.xseq), "b": r.b, "f": r.f}
                for r in reps
            ],
        },
        headers=headers,
        rows=rows,
        csv_headers=["family", "rank", *headers],
        csv_rows=lambda: [[args.family, args.rank, *row] for row in rows()],
    )


def _cmd_springer(args: argparse.Namespace) -> _Output:
    ensure_floor(args.family, args.rank)
    entries = []
    for c in enumerate_classes(args.family, args.rank):
        inv = class_invariants(c)
        # enumerate_classes checked c.y, so the kernel skips the public checks
        fiber = _tau_fiber(args.family, c.y, args.rank)
        partners = [canonicalize(lab) for lab in fiber]
        entries.append((c, inv, partners))
    headers = ["y", "bbar", "z", "ztilde/z", "uz/z", "partners"]

    def rows() -> list[list[str]]:
        return [
            [
                seq_str(c.y),
                str(inv.bbar),
                str(inv.z),
                str(inv.ztilde_over_z),
                "-" if inv.uz_over_z is None else str(inv.uz_over_z),
                "|".join(label_str(lab) for lab in partners),
            ]
            for c, inv, partners in entries
        ]

    return _Output(
        payload=lambda: {
            "family": args.family,
            "rank": args.rank,
            "count": len(entries),
            "rows": [
                {
                    "y": list(c.y),
                    "bbar": inv.bbar,
                    "z": inv.z,
                    "ztilde_over_z": inv.ztilde_over_z,
                    "uz_over_z": inv.uz_over_z,
                    "partners": partners,
                }
                for c, inv, partners in entries
            ],
        },
        headers=headers,
        rows=rows,
        csv_headers=["family", "rank", *headers],
        csv_rows=lambda: [[args.family, args.rank, *row] for row in rows()],
    )


def _label_from_json(blob: dict) -> IrrLabel:
    try:
        return IrrLabel(
            family=blob["family"],
            n=blob["n"],
            z=tuple(blob["z"]),
            zp=tuple(blob["zp"]) if "zp" in blob else None,
            kappa=blob.get("kappa", 0),
        )
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed label object: {exc}")


def _cmd_j(args: argparse.Namespace) -> _Output:
    if args.spec is not None:
        raw = args.spec
    else:
        with open(args.spec_file) as fh:
            raw = fh.read()
    try:
        blob = json.loads(raw)
        emb_blob = blob["embedding"]
        factor_blobs = blob["factors"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed induction spec: {exc}")
    if not isinstance(emb_blob, dict):
        raise DomainError("malformed induction spec: embedding must be an object")
    if not isinstance(factor_blobs, list):
        raise DomainError("malformed induction spec: factors must be a list")
    try:
        emb = Embedding(
            kind=emb_blob.get("kind", ""),
            r=emb_blob.get("r", 0),
            p=emb_blob.get("p", 0),
            q=emb_blob.get("q", 0),
            lam=emb_blob.get("lambda", 0),
        )
        factors = tuple(_label_from_json(b) for b in factor_blobs)
    except ValidationError as exc:
        raise DomainError(f"malformed induction spec: {exc}")
    image = j_induce(emb, factors)
    return _Output(
        payload=lambda: {
            "embedding": emb.to_json(),
            "factors": factors,
            "image": image,
            "b": b_invariant(image),
            "special": is_special(image),
        },
        headers=["embedding", "factors", "image", "b", "special"],
        rows=lambda: [[
            emb.kind,
            " ".join(label_str(lab) for lab in factors),
            label_str(image),
            str(b_invariant(image)),
            str(is_special(image)).lower(),
        ]],
    )


def _cmd_verify(args: argparse.Namespace) -> _Output:
    report = verify(args.family, args.rank)
    return _Output(
        # rows stay ClassRows: the renderer builds each one's dict when it
        # reaches the row, and each label's text once
        payload=lambda: {"report": report.to_json(row=_itself)},
        table=report.to_table,
        csv_headers=[
            "family",
            "rank",
            "label",
            "class_y",
            "b_label",
            "b_class",
            "fa",
            "z",
            "fc",
            "ztilde_over_z",
            "holds_b1",
            "holds_b2",
            "holds_b3",
            "witnesses_ok",
            "image_in_stratum",
            "stratum_in_image",
        ],
        csv_rows=lambda: [
            [
                report.family,
                report.n,
                label_str(r.label),
                seq_str(r.y),
                r.b_label,
                r.b_class,
                r.fa_value,
                r.z_value,
                r.fc_value,
                r.ratio_value,
                r.holds_b1,
                r.holds_b2,
                r.holds_b3,
                r.witnesses_ok,
                report.image_in_stratum,
                report.stratum_in_image,
            ]
            for r in report.rows
        ],
        failed=not report.ok(),
    )


def _suite_output(report: LemmaSuiteReport | OracleSuiteReport, items: Sequence,
                  name_header: str) -> _Output:
    """Suite-style output: one row per named check with its case and failure
    counts, each failure listed below the table."""
    return _Output(
        payload=lambda: {"report": report.to_json()},
        headers=[name_header, "cases", "failures"],
        rows=lambda: [[it.name, str(it.cases), str(len(it.failures))] for it in items],
        notes=[f"FAIL {it.name}: {f}" for it in items for f in it.failures],
        failed=not report.ok(),
    )


def _cmd_oracle_check(args: argparse.Namespace) -> _Output:
    report = oracle_suite(family=args.family, max_rank=args.max_rank)
    return _suite_output(report, report.blocks, "block")


def _cmd_lemmas(args: argparse.Namespace) -> _Output:
    report = lemma_suite(max_m=args.max_m, max_weight=args.max_weight)
    return _suite_output(report, report.checks, "check")


def _exceptional_axap(group: str, a: int, a_prime: int) -> str:
    # mirror the source layout: a alone when the automorphism group is trivial
    if OMEGA_ORDERS[group] == 1:
        return str(a)
    return f"{a}x{a_prime}"


def _cmd_exceptional(args: argparse.Namespace) -> _Output:
    if args.validate:
        report = validate_tables()
        counts = report.status_counts()
        notes = [f"FINDING: {finding}" for finding in report.schema_findings]
        notes += [
            f"{check.status} {check.group} {check.rho_name}: {check.detail}"
            for check in report.checks
            if check.status in ("FAIL", "AMBIGUOUS")
        ]
        return _Output(
            payload=lambda: {"report": report.to_json()},
            headers=["status", "rows"],
            rows=lambda: [[status, str(counts[status])] for status in sorted(counts)],
            notes=notes,
            failed=not report.ok(),
        )

    if args.group is None:
        raise DomainError("exceptional needs --group (or --validate)")
    if (args.rho is None) != (args.bbar is None):
        raise DomainError("row lookup needs both --rho and --bbar")
    if args.rho is not None:
        rows = [lookup(args.group, args.rho, args.bbar)]
    else:
        rows = list(load_tables()[args.group])
    return _Output(
        payload=lambda: {
            "group": args.group,
            "count": len(rows),
            "rows": [r.to_json() for r in rows],
        },
        headers=["rho", "bbar", "a x a'", "(J,E1)"],
        rows=lambda: [
            [
                r.rho_name,
                str(r.bbar),
                _exceptional_axap(r.group, r.a, r.a_prime),
                f"({r.witness_J},{r.witness_E1})",
            ]
            for r in rows
        ],
        csv_headers=[
            "group",
            "rho_name",
            "bbar",
            "a",
            "a_prime",
            "witness_J",
            "witness_E1",
            "flags",
        ],
        csv_rows=lambda: [
            [
                r.group,
                r.rho_name,
                r.bbar,
                r.a,
                r.a_prime,
                r.witness_J,
                r.witness_E1,
                "; ".join(r.transcription_flags),
            ]
            for r in rows
        ],
    )


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylsymbols",
        description="Symbol combinatorics for Weyl-group representations "
        "and unipotent-class invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="table",
        help="output format (default: table)",
    )
    common.add_argument("--output", default=None, help="write output to this path")
    sub = parser.add_subparsers(dest="cmd", required=True)

    ranked = argparse.ArgumentParser(add_help=False)
    ranked.add_argument("--family", choices=CLASS_FAMILIES, required=True)
    ranked.add_argument("--rank", type=int, required=True)

    sub.add_parser(
        "special-reps", parents=[common, ranked],
        help="list the special representations with x, b, f",
    )
    sub.add_parser(
        "springer", parents=[common, ranked],
        help="list class strata with component data and partner labels",
    )
    jp = sub.add_parser(
        "j", parents=[common], help="compute one truncated induction from a JSON spec",
    )
    group = jp.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", default=None, help="inline JSON induction spec")
    group.add_argument("--spec-file", default=None, help="path to a JSON induction spec")
    sub.add_parser(
        "verify", parents=[common, ranked],
        help="run the full per-class comparison for one family and rank",
    )
    op = sub.add_parser(
        "oracle-check", parents=[common],
        help="replay the character-theoretic cross-checks",
    )
    op.add_argument("--family", choices=FAMILIES, default=None)
    op.add_argument("--max-rank", type=int, default=None)
    ep = sub.add_parser(
        "exceptional", parents=[common],
        help="query or validate the exceptional-type tables",
    )
    ep.add_argument("--group", choices=GROUPS, default=None)
    ep.add_argument("--rho", default=None, help="row name for a single lookup")
    ep.add_argument("--bbar", type=int, default=None, help="row b-value for a single lookup")
    ep.add_argument("--validate", action="store_true", help="run the table validation report")
    lp = sub.add_parser(
        "lemmas", parents=[common],
        help="run the exhaustive sequence-combinatorics property suite",
    )
    lp.add_argument("--max-m", type=int, default=8)
    lp.add_argument("--max-weight", type=int, default=8)
    return parser


_DISPATCH: dict[str, Callable[[argparse.Namespace], _Output]] = {
    "special-reps": _cmd_special_reps,
    "springer": _cmd_springer,
    "j": _cmd_j,
    "verify": _cmd_verify,
    "oracle-check": _cmd_oracle_check,
    "exceptional": _cmd_exceptional,
    "lemmas": _cmd_lemmas,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out = _DISPATCH[args.cmd](args)
        _render(args, out)
    except (WeylSymbolsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a failed internal identity is a failed run, not a usage error
        return 1 if isinstance(exc, InvariantError) else 2
    return 1 if out.failed else 0


if __name__ == "__main__":
    sys.exit(main())
