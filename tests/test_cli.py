"""Command-line driver behavior: formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from weylsymbols import cli, engine
from weylsymbols.cli import main
from weylsymbols.engine import verify
from weylsymbols.errors import DomainError, InvariantError, ValidationError
from weylsymbols.irreps import (
    FAMILY_A,
    FAMILY_D,
    IrrLabel,
    canonicalize,
    label_str,
    special_reps,
)
from weylsymbols.springer import enumerate_classes, tau_fiber
from weylsymbols.suites import lemma_suite, oracle_suite


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_special_reps_table_lists_the_family():
    code, out, _ = _run(["special-reps", "--family", "B", "--rank", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["label", "x", "b", "f"]
    assert len(lines) == 2 + 6
    assert lines[2].startswith("[0,1,2,3,7;0,1,2,3]")


def test_special_reps_json_carries_schema_version():
    code, out, _ = _run(
        ["special-reps", "--family", "C", "--rank", "3", "--format", "json"]
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["schema_version"] == 2
    assert blob["command"] == "special-reps"
    assert blob["count"] == len(blob["rows"])
    assert all(set(r) == {"label", "x", "b", "f"} for r in blob["rows"])


def test_csv_rows_carry_schema_version():
    code, out, _ = _run(
        ["special-reps", "--family", "B", "--rank", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("schema_version,")
    assert all(line.startswith("2,B,3,") for line in lines[1:])


def test_springer_matches_the_divisor_law():
    code, out, _ = _run(
        ["springer", "--family", "A", "--rank", "4", "--format", "json"]
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 5
    assert sorted({r["ztilde_over_z"] for r in blob["rows"]}) == [1, 2, 4]
    assert all(r["z"] == 1 and r["uz_over_z"] is None for r in blob["rows"])
    assert all(len(r["partners"]) >= 1 for r in blob["rows"])


def test_j_computes_one_induction():
    spec = json.dumps(
        {
            "embedding": {"kind": "B_SpWq", "p": 2, "q": 2},
            "factors": [
                {"family": "A", "n": 2, "z": [0, 3]},
                {"family": "BC", "n": 2, "z": [0, 1, 2, 4], "zp": [0, 1, 3]},
            ],
        }
    )
    code, out, _ = _run(["j", "--spec", spec, "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["image"] == {"family": "BC", "n": 4, "z": [0, 4], "zp": [1]}
    assert blob["b"] == 1
    assert blob["special"] is True


def test_j_reads_a_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "embedding": {"kind": "A_split", "r": 2, "q": 1},
                "factors": [
                    {"family": "A", "n": 2, "z": [0, 3]},
                    {"family": "A", "n": 1, "z": [1]},
                ],
            }
        )
    )
    code, out, _ = _run(["j", "--spec-file", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["image"]["family"] == "A"


def test_j_rejects_malformed_specs():
    assert _run(["j", "--spec", "{not json"])[0] == 2
    assert _run(["j", "--spec", "{}"])[0] == 2
    spec = json.dumps({"embedding": {"kind": "nope"}, "factors": []})
    assert _run(["j", "--spec", spec])[0] == 2


@pytest.mark.parametrize("spec", [
    {"embedding": [], "factors": []},
    {"embedding": "B_WrWq", "factors": []},
    {"embedding": {"kind": "B_WrWq", "r": 1, "q": 1}, "factors": 5},
    # a bool where an int belongs
    {
        "embedding": {"kind": "D_triple", "p": 2, "lambda": True},
        "factors": [
            {"family": "D", "n": 0, "z": [0], "zp": [0], "kappa": 0},
            {"family": "A", "n": 2, "z": [0, 3]},
            {"family": "D", "n": 0, "z": [0], "zp": [0], "kappa": 0},
        ],
    },
    {
        "embedding": {"kind": "A_split", "r": 1, "q": 0},
        "factors": [{"family": "A", "n": True, "z": [1]}, {"family": "A", "n": 0, "z": [0]}],
    },
])
def test_j_rejects_a_badly_shaped_spec(spec):
    code, out, err = _run(["j", "--spec", json.dumps(spec)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed induction spec: ")


def test_verify_reports_success_bytes_stably():
    first = _run(["verify", "--family", "B", "--rank", "6", "--format", "json"])
    second = _run(["verify", "--family", "B", "--rank", "6", "--format", "json"])
    assert first[0] == 0
    assert first[1] == second[1]
    blob = json.loads(first[1])
    assert blob["report"]["ok"] is True
    assert blob["report"]["holds_a"] is True
    assert len(blob["report"]["rows"]) == 35


def test_verify_signals_failure_with_exit_one(monkeypatch):
    report = verify("B", 2)
    broken = dataclasses.replace(report, image_in_stratum=False)
    monkeypatch.setattr(cli, "verify", lambda family, n: broken)
    code, out, _ = _run(["verify", "--family", "B", "--rank", "2"])
    assert code == 1
    assert "FAIL" in out


def test_a_failed_internal_identity_exits_one(monkeypatch):
    def broken(c):
        raise InvariantError("injected")

    monkeypatch.setattr(engine, "class_invariants", broken)
    code, out, err = _run(["verify", "--family", "B", "--rank", "3"])
    assert code == 1
    assert out == ""
    # the failing row is named: the first class and its label
    c = enumerate_classes("B", 3)[0]
    label = canonicalize(tau_fiber("B", c.y, 3)[0])
    assert err == (f"error: family B n=3 y={','.join(map(str, c.y))} "
                   f"label {label_str(label)}: injected\n")
    with pytest.raises(InvariantError) as info:
        verify("B", 3)
    assert str(info.value.__cause__) == "injected"


def test_usage_errors_exit_two():
    assert _run([])[0] == 2
    assert _run(["special-reps", "--family", "Z", "--rank", "3"])[0] == 2
    assert _run(["special-reps", "--family", "B"])[0] == 2
    assert _run(["verify", "--family", "D", "--rank", "2"])[0] == 2
    assert _run(["exceptional"])[0] == 2
    assert _run(["exceptional", "--group", "F4", "--rho", "4"])[0] == 2
    assert _run(["j", "--spec", "{}", "--spec-file", "x"])[0] == 2


def test_output_writes_the_payload_to_disk(tmp_path):
    path = tmp_path / "rows.json"
    code, out, _ = _run(
        [
            "springer", "--family", "A", "--rank", "4",
            "--format", "json", "--output", str(path),
        ]
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["count"] == 5


def test_a_failed_output_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "rows.json"
    path.write_text("old\n")

    def refuse(*args):
        raise OSError("injected")

    argv = ["springer", "--family", "A", "--rank", "4", "--output", str(path)]
    with monkeypatch.context() as m:
        m.setattr(os, "replace", refuse)
        for fmt in ("table", "json"):
            code, out, err = _run(argv + ["--format", fmt])
            assert code == 2
            assert err == "error: injected\n"
            assert path.read_text() == "old\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.json"]
    # the JSON stream fails after its first pieces reached the file
    monkeypatch.setattr(cli, "_json_value", refuse)
    code, out, err = _run(argv + ["--format", "json"])
    assert code == 2
    assert err == "error: injected\n"
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.json"]


def test_exceptional_table_has_the_source_row_count():
    code, out, _ = _run(["exceptional", "--group", "F4", "--format", "table"])
    assert code == 0
    assert len(out.splitlines()) == 2 + 16
    assert out.splitlines()[2].split() == ["1", "0", "1", "(empty,1)"]


def test_exceptional_single_row_lookup():
    code, out, _ = _run(
        [
            "exceptional", "--group", "E7", "--rho", "315'_a",
            "--bbar", "7", "--format", "json",
        ]
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert (row["a"], row["a_prime"]) == (6, 2)
    assert _run(["exceptional", "--group", "E7", "--rho", "nope", "--bbar", "7"])[0] == 2


def test_exceptional_validate_is_green():
    code, out, _ = _run(["exceptional", "--validate"])
    assert code == 0
    assert out.endswith("result: ok\n")
    code, out, _ = _run(["exceptional", "--validate", "--format", "json"])
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True


def test_lemma_suite_is_green_at_small_bounds():
    report = lemma_suite(max_m=4, max_weight=4)
    assert report.ok()
    assert [c.name for c in report.checks] == [
        "signature_parity",
        "interval_parity",
        "endpoint_count",
        "signature_subadditivity",
        "split_enumeration",
        "based_split_enumeration",
        "hat_roundtrip",
        "symmetric_witness_equivalence",
    ]
    assert all(c.cases > 0 for c in report.checks)


def test_oracle_suite_scales_down():
    report = oracle_suite(family=FAMILY_A, max_rank=2)
    assert report.ok()
    assert [b.name for b in report.blocks] == ["b_A", "j_A"]
    assert all(b.cases > 0 for b in report.blocks)


@pytest.mark.parametrize("call, kwargs, error, message", [
    (lemma_suite, {"max_m": 1.5}, ValidationError, "max_m must be an int, got 1.5"),
    (lemma_suite, {"max_m": None}, ValidationError, "max_m must be an int, got None"),
    (lemma_suite, {"max_weight": True}, ValidationError,
     "max_weight must be an int, got True"),
    (lemma_suite, {"max_m": -1}, DomainError, "suite bounds must be nonnegative"),
    (oracle_suite, {"max_rank": 1.5}, ValidationError,
     "max_rank must be an int, got 1.5"),
    (oracle_suite, {"max_rank": False}, ValidationError,
     "max_rank must be an int, got False"),
    (oracle_suite, {"max_rank": -1}, DomainError, "max_rank must be nonnegative, got -1"),
    (oracle_suite, {"family": "B"}, DomainError, "unknown family 'B'"),
], ids=["lemma-float", "lemma-none", "lemma-bool", "lemma-negative", "oracle-float",
        "oracle-bool", "oracle-negative", "oracle-class-family"])
def test_suites_check_their_arguments(call, kwargs, error, message):
    # a malformed bound or an unknown family is refused before any case
    # runs, never turned into a green report that checked nothing
    with pytest.raises(error) as info:
        call(**kwargs)
    assert str(info.value) == message


def test_oracle_check_rejects_a_negative_rank_bound():
    code, out, err = _run(["oracle-check", "--max-rank", "-1"])
    assert code == 2
    assert out == ""
    assert "max_rank" in err


# ---------------------------------------------------------------------------
# JSON text: the kernel against json.dumps

_JSON_SPEC = json.dumps({
    "embedding": {"kind": "B_SpWq", "p": 2, "q": 2},
    "factors": [
        {"family": "A", "n": 2, "z": [0, 3]},
        {"family": "BC", "n": 2, "z": [0, 1, 2, 4], "zp": [0, 1, 3]},
    ],
})

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_json_values = st.recursive(
    _scalars | st.lists(st.integers()),
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(_keys, inner, max_size=5)
    ),
    max_leaves=30,
)


class _Int(int):
    pass


# one dict object that a payload holds at several depths
_SHARED = {"z": [0, 2], "k": "v"}


class _Str(str):
    pass


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example([True, 1, 0])
@example([[], {}, [[]], [{}], {"": []}, ()])
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
@example({"\u00e9\u4e2d\U0001f600": "\x00\x1f\"\\\n\t\u2028"})
@example({1: 1, 1.5: 2, True: 3, None: 4, math.nan: 5, -0.0: 6})
@example([-(10 ** 30), 0, 10 ** 30, -1])
@example((1, (2, [3, (4,)])))
@example([_Int(3), _Int(-4)])
@example({_Str("k"): _Str("v"), "n": [_Int(1), 2]})
@example({"a": _SHARED, "b": [_SHARED, {"c": _SHARED}], "d": [[_SHARED]]})
@example([_SHARED, [_SHARED], {"e": [_SHARED]}])
def test_json_text_is_the_text_of_json_dumps(value):
    assert "".join(cli._json_text(value)) == json.dumps(value, indent=2)


def test_labels_render_as_their_json_dicts():
    labs = special_reps(FAMILY_D, 4)
    lab, other = labs[0].label, labs[-1].label
    value = {"label": lab, "rows": [lab, [other, {"f": [lab, other]}]],
             "t": (lab,), "deep": {"x": {"y": lab}}}
    plain = json.loads(json.dumps(value, default=IrrLabel.to_json))
    assert "".join(cli._json_text(value)) == json.dumps(plain, indent=2)


def test_one_render_builds_each_distinct_label_text_once(monkeypatch):
    report = verify("B", 8)
    built = []
    to_json = IrrLabel.to_json

    def counted(self):
        built.append(self)
        return to_json(self)

    monkeypatch.setattr(IrrLabel, "to_json", counted)
    code, out, _ = _run(["verify", "--family", "B", "--rank", "8",
                         "--format", "json"])
    assert code == 0
    # a row label and a witness factor sit at two indent depths
    row_labels = {r.label for r in report.rows}
    factors = {lab for r in report.rows for _, fs in r.witnesses for lab in fs}
    assert len(built) == len(row_labels) + len(factors)
    uses = len(report.rows) + sum(len(fs) for r in report.rows
                                  for _, fs in r.witnesses)
    assert len(built) < uses / 2
    monkeypatch.setattr(IrrLabel, "to_json", to_json)
    assert out == json.dumps({"schema_version": cli.SCHEMA_VERSION,
                              "command": "verify",
                              "report": report.to_json()}, indent=2) + "\n"


def test_verify_json_builds_each_row_dict_when_the_stream_reaches_it(monkeypatch):
    report = verify("C", 6)
    built = []
    to_json = engine.ClassRow.to_json

    def counted(self, label=IrrLabel.to_json):
        built.append(self)
        return to_json(self, label)

    monkeypatch.setattr(engine.ClassRow, "to_json", counted)
    monkeypatch.setattr(cli, "verify", lambda family, n: report)
    args = cli._build_parser().parse_args(
        ["verify", "--family", "C", "--rank", "6", "--format", "json"])
    payload = cli._cmd_verify(args).payload()
    assert built == []
    pieces = []
    for piece in cli._json_text(payload):
        pieces.append(piece)
        # no row is built ahead of the piece that holds its text
        assert len(built) == sum('"label": {' in p for p in pieces)
    assert built == list(report.rows)
    monkeypatch.setattr(engine.ClassRow, "to_json", to_json)
    assert "".join(pieces) == json.dumps({"report": report.to_json()}, indent=2)


def test_json_output_peak_memory_stays_near_the_table(tmp_path):
    """The JSON stream holds one row's text at a time, not the document:
    at B14 (a 16.7 MB file) its peak RSS stays within 25% of the table's."""
    # VmHWM counts the new process image alone; ru_maxrss would start at
    # the peak of the test process that forked it
    code = ("import re, sys; from weylsymbols.cli import main; "
            "assert main(sys.argv[1:]) == 0; "
            "print(re.search(r'VmHWM:\\s*(\\d+)', "
            "open('/proc/self/status').read())[1])")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    peak = {}
    for fmt in ("table", "json"):
        argv = ["verify", "--family", "B", "--rank", "14", "--format", fmt,
                "--output", str(tmp_path / f"b14.{fmt}")]
        done = subprocess.run([sys.executable, "-c", code, *argv], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        peak[fmt] = int(done.stdout)
    assert (tmp_path / "b14.json").stat().st_size > 10 ** 7
    assert peak["json"] <= 1.25 * peak["table"], peak


@pytest.mark.parametrize("value", [
    object(), {"a": {1, 2}}, [b"bytes"], {(1, 2): 1}, {"a": [1, object()]},
])
def test_json_text_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        "".join(cli._json_text(value))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("argv", [
    ["special-reps", "--family", "D", "--rank", "4"],
    ["springer", "--family", "C", "--rank", "4"],
    ["j", "--spec", _JSON_SPEC],
    ["verify", "--family", "B", "--rank", "4"],
    ["oracle-check", "--max-rank", "2"],
    ["exceptional", "--group", "F4"],
    ["exceptional", "--validate"],
    ["lemmas", "--max-m", "4", "--max-weight", "4"],
])
def test_json_output_is_the_stdlib_text_of_itself(argv):
    code, out, _ = _run(argv + ["--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("fmt, unbuilt", [
    ("json", ("to_table",)),
    ("csv", ("to_table", "to_json")),
    ("table", ("to_json",)),
])
def test_verify_builds_only_the_requested_format(monkeypatch, fmt, unbuilt):
    calls = []
    for name in unbuilt:
        def counted(self, name=name):
            calls.append(name)
            return ""
        monkeypatch.setattr(engine.VerificationReport, name, counted)
    code, out, _ = _run(["verify", "--family", "C", "--rank", "4",
                         "--format", fmt])
    assert code == 0 and out
    assert calls == []
