"""Benchmark of the weylsymbols library; see perfbench/README.md.

    python3 perfbench/run.py --workload verify-r10 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(``worker.py``), one at a time, so no pass sees another pass's caches.  A
run repeats passes for ``--seconds`` seconds, and at least ``MIN_PASSES``
times; before each pass it times an interpreter that only imports the
library, and it makes at least ``SETUP_PROBES`` of these probes.  Plain
passes run the reference job (``calibrate.py``) between stretches of work,
and every reported time is scaled to reference speed.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the output checks of every pass, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the traced
passes (``--trace 1``).  The exit code is 0 when every check passed, 1 when
one failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
from worker import SETUP_IMPORTS

WORKLOADS = tuple(SETUP_IMPORTS)
FAMILIES = ("B", "C", "D")
SETUP_PROBES = 9
MIN_PASSES = 3
# no pass starts that could end after this many seconds of passes
RUN_LIMIT_S = 140
WORKER_TIMEOUT_S = 150
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# per-layer metrics whose unit the name's suffix does not give
LAYER_UNITS = {
    "cli.bytes_out": "bytes",
    "engine.enumerate_cz.per_row": "calls/row",
    "engine.witness_yield": "ratio",
    "jinduction.bar_S_yield": "ratio",
    "jinduction.f_product.per_member": "calls/member",
}


class BenchError(Exception):
    """The run could not be made."""


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def run_worker(root: str, argv: list[str]) -> tuple[float, dict | None]:
    """Run one worker in the checkout at root; return its set-up time and
    its result line."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {argv} ran over {WORKER_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {argv} failed:\n{ready}{out}{err}")
    lines = out.splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Passes until the time is up, each after a set-up probe, then the
    probes still missing; the raw results."""
    workdir = os.path.join(root, ".perfbench_work", workload)
    os.makedirs(workdir, exist_ok=True)
    probe = [workload, str(seed), "0", "probe", workdir]
    # the first interpreter of a fresh checkout also compiles bytecode
    run_worker(root, probe)
    setup = []
    # a traced run alternates plain and traced passes, at least one of
    # each; the difference of their medians is the tracing overhead
    modes = ("plain", "traced") if trace else ("plain",)
    least = len(modes) if trace else MIN_PASSES
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.perf_counter()
    deadline = start + seconds
    longest = 0.0
    index = 0
    while index < least or time.perf_counter() < deadline:
        began = time.perf_counter()
        if began - start + longest > RUN_LIMIT_S:
            break
        setup.append(probe_setup(root, probe))
        mode = modes[index % len(modes)]
        _, result = run_worker(root, [workload, str(seed), str(index), mode,
                                      workdir])
        passes[mode].append(result)
        longest = max(longest, time.perf_counter() - began)
        index += 1
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(root, probe))
    return {"setup": setup, "passes": passes}


def probe_setup(root: str, probe: list[str]) -> tuple[float, float]:
    """One set-up probe: the seconds to import the library, and the
    reference job's time right after."""
    setup_s, result = run_worker(root, probe)
    return setup_s, result["reference"][0]


def scaled(result: dict) -> tuple[float, dict[str, float]]:
    """A plain pass's body and family times in seconds at reference speed:
    each segment of work scaled by REFERENCE_S over the mean of the
    reference runs on either side of it."""
    ref = result["reference"]
    body = 0.0
    family = dict.fromkeys(FAMILIES, 0.0)
    for i, (work, parts) in enumerate(result["segments"]):
        scale = REFERENCE_S / ((ref[i] + ref[i + 1]) / 2)
        body += work * scale
        for fam in FAMILIES:
            family[fam] += parts[fam] * scale
    return body, family


def end_to_end(raw: dict) -> dict[str, tuple[float, str]]:
    """Medians over the run: of the set-up probes and of the plain passes,
    every time scaled to reference speed (``calibrate.py``)."""
    plain = raw["passes"]["plain"]
    bodies = [(p["items"], *scaled(p)) for p in plain]
    out = {
        "setup_s": (statistics.median(s * REFERENCE_S / ref
                                      for s, ref in raw["setup"]), "s"),
        "items_per_s": (statistics.median(items / body
                                          for items, body, _ in bodies), "1/s"),
    }
    for fam in FAMILIES:
        out[f"family_s.{fam}"] = (
            statistics.median(family[fam] for _, _, family in bodies), "s")
    out["peak_rss_mb"] = (statistics.median(p["rss_mb"] for p in plain), "MB")
    return out


def unscaled(raw: dict) -> str:
    """The run's unscaled medians and the reference job's, for the log."""
    plain = raw["passes"]["plain"]
    setup = statistics.median(s for s, _ in raw["setup"])
    rate = statistics.median(p["items"] / p["body_s"] for p in plain)
    ref = statistics.median(r for p in plain for r in p["reference"])
    return (f"unscaled medians: setup_s {setup:.4f}, items_per_s {rate:.2f}, "
            f"reference job {ref:.4f} s ({REFERENCE_S} s at reference speed), "
            f"{len(plain)} plain passes")


def per_layer(raw: dict) -> dict[str, tuple[float, str]]:
    """Each per-layer metric of a traced pass, the lower median over the
    traced passes (counts stay whole), and the tracing overhead."""
    traced = raw["passes"]["traced"]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = (statistics.median_low(p["layers"][name] for p in traced),
                     layer_unit(name))
    overhead = (statistics.median(p["body_s"] for p in traced)
                - statistics.median(p["body_s"] for p in raw["passes"]["plain"]))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def repeat_checks(raw: dict) -> tuple[int, list[str]]:
    """Each count of the traced passes must repeat exactly: (checks made,
    failures)."""
    traced = raw["passes"].get("traced", [])
    if len(traced) < 2:
        return 0, []
    names = [n for n in traced[0]["layers"] if layer_unit(n) != "s"]
    failures = []
    for name in names:
        seen = {p["layers"][name] for p in traced}
        if len(seen) > 1:
            failures.append(f"{name} differs between traced passes: {sorted(seen)}")
    return len(names), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weylsymbols", "__init__.py")):
        print("error: run from the root of a weylsymbols checkout "
              "(src/weylsymbols is missing)", file=sys.stderr)
        return 2
    try:
        raw = measure(root, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = [p for group in raw["passes"].values() for p in group]
    repeats, repeat_failures = repeat_checks(raw)
    attempted = sum(p["attempted"] for p in passes) + repeats
    failures = [f for p in passes for f in p["failures"]] + repeat_failures
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(unscaled(raw), file=sys.stderr)
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
