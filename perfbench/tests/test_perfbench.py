"""Tests of the benchmark itself; they run real workers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work", "tests")


def _pass(workload: str, seed: int, mode: str) -> dict:
    os.makedirs(WORK, exist_ok=True)
    _, result = run.run_worker(ROOT, [workload, str(seed), "0", mode, WORK])
    return result


@pytest.fixture(scope="module")
def verify_b() -> str:
    from weylsymbols import cli

    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "verify-B-test.json")
    argv = ["verify", "--family", "B", "--rank", str(workloads.VERIFY_RANK),
            "--format", "json", "--output", path]
    assert cli.main(argv) == 0
    with open(path) as fh:
        return fh.read()


def test_checker_accepts_the_verify_output(verify_b):
    verdict = workloads.Verdict()
    workloads.check_verify_json("B", verify_b, verdict)
    assert verdict.failures == []
    assert verdict.items == workloads.VERIFY_PINS["B"][0]


def test_checker_rejects_a_flipped_fc(verify_b):
    blob = json.loads(verify_b)
    row = blob["report"]["rows"][7]
    row["fc"] = 3 - row["fc"]
    verdict = workloads.Verdict()
    workloads.check_verify_json("B", json.dumps(blob, indent=2), verdict)
    assert len(verdict.failures) == 1
    assert "digest" in verdict.failures[0]


def test_wrappers_reach_every_importing_module():
    import weylsymbols
    from weylsymbols import engine, jinduction

    original = jinduction.j_induce
    tracer = Tracer(["jinduction.j_induce"])
    with tracer:
        assert engine.j_induce is jinduction.j_induce is weylsymbols.j_induce
        assert jinduction.j_induce is not original
        with tracer.block():
            engine.bar_S("B", 3)
    assert engine.j_induce is original and weylsymbols.j_induce is original
    assert tracer.summary()["jinduction.j_induce"]["calls"] > 0


@pytest.mark.parametrize("workload", ["tables", "oracle"])
def test_self_times_add_up_to_the_traced_wall_time(workload):
    result = _pass(workload, 1, "traced")
    self_sum = sum(v for k, v in result["layers"].items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(result["wall_s"], rel=1e-6)
    assert result["wall_s"] == pytest.approx(result["body_s"], rel=1e-3)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_and_digests_repeat_across_seeds(workload):
    first, second = _pass(workload, 1, "traced"), _pass(workload, 2, "traced")
    assert first["failures"] == [] and second["failures"] == []
    counts = [name for name in first["layers"] if run.layer_unit(name) != "s"]
    assert {n: first["layers"][n] for n in counts} == {
        n: second["layers"][n] for n in counts}


def test_metric_names_match_the_benchmark_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    plain = _pass("oracle", 1, "plain")
    e2e = run.end_to_end({"setup": [(0.1, 0.08)], "passes": {"plain": [plain]}})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    traced = _pass("oracle", 1, "traced")
    layers = run.per_layer({"passes": {"plain": [traced], "traced": [traced]}})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}


def test_run_refuses_a_directory_without_the_library():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaling_divides_out_the_host_speed():
    ref = run.REFERENCE_S
    parts = [(1.0, {"B": 1.0, "C": 0.0, "D": 0.0}),
             (2.0, {"B": 0.0, "C": 1.5, "D": 0.5})]
    calm = {"reference": [ref, ref, ref], "segments": parts}
    busy = {"reference": [2 * ref, 2 * ref, 2 * ref],
            "segments": [(2 * w, {f: 2 * s for f, s in p.items()})
                         for w, p in parts]}
    assert run.scaled(calm) == (3.0, {"B": 1.0, "C": 1.5, "D": 0.5})
    body, family = run.scaled(busy)
    assert body == pytest.approx(3.0)
    assert family == pytest.approx({"B": 1.0, "C": 1.5, "D": 0.5})
