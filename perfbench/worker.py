"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED PASS MODE WORKDIR

MODE is ``probe`` (import the library and exit), ``plain`` (timed pass) or
``traced`` (timed pass with every layer wrapped).  The worker prints
``ready`` as soon as the library is imported, so the parent can time
set-up, then one JSON line with the pass's timings, checks and counts.
The parent puts the checkout's ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import random
import resource
import sys

# modules whose import is the workload's set-up
SETUP_IMPORTS = {
    "verify-r10": ("weylsymbols", "weylsymbols.cli"),
    "tables": ("weylsymbols",),
    "oracle": ("weylsymbols",),
}


def _setup(workload: str) -> None:
    for name in SETUP_IMPORTS[workload]:
        importlib.import_module(name)
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    where = os.path.realpath(sys.modules["weylsymbols"].__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"weylsymbols imported from {where}, not from {src}")


def _layer_metrics(tracer, verdict) -> dict[str, float]:
    from workloads import BLOCKS, LAYERS

    summary = tracer.summary()
    # the root span and the family blocks are the bench loop's own time
    out: dict[str, float] = {"bench.self_s": sum(
        summary[name]["self_s"] for name in ("bench", *BLOCKS))}
    for layer in LAYERS:
        for key in ("self_s", "total_s", "calls"):
            out[f"{layer}.{key}"] = summary[layer][key]
    rows = verdict.counts.get("rows", 0)
    members = tracer.counts["engine.enumerate_cz"]
    j_under = tracer.calls_under("jinduction.j_induce", "engine.bar_S")
    out["cli.bytes_out"] = verdict.counts.get("bytes_out", 0)
    out["engine.members"] = members
    out["engine.enumerate_cz.per_row"] = (
        summary["engine.enumerate_cz"]["calls"] / rows if rows else 0.0)
    out["engine.witness_yield"] = (
        verdict.counts.get("witnesses", 0) / members if members else 0.0)
    out["jinduction.bar_S_yield"] = (
        tracer.counts["engine.bar_S"] / j_under if j_under else 0.0)
    out["jinduction.f_product.per_member"] = (
        summary["jinduction.f_product"]["calls"] / members if members else 0.0)
    out["seqcomb.space_size"] = tracer.counts["seqcomb.enumerate_space"]
    out["exceptional.rows_checked"] = tracer.counts["exceptional.validate_tables"]
    out["trace.spans"] = len(tracer.layer)
    return out


def main(argv: list[str]) -> int:
    workload, seed, pass_index, mode, workdir = argv
    _setup(workload)
    print("ready", flush=True)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if mode == "probe":
        from calibrate import reference_s

        print(json.dumps({"reference": [reference_s()]}))
        return 0

    from tracer import Tracer
    from workloads import BLOCKS, COUNTERS, LAYERS, WORKLOADS, Clock

    run, check = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    tracer = None
    if mode == "traced":
        tracer = Tracer(LAYERS, BLOCKS, COUNTERS)
    clock = Clock(tracer)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
            stack.enter_context(tracer.block())
        clock.start()
        payload = run(rng, workdir, clock)
        clock.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict = check(payload)
    result = {
        "body_s": clock.body_s,
        "family_s": clock.family_s,
        "reference": clock.reference,
        "segments": clock.segments,
        "rss_mb": rss_mb,
        "items": verdict.items,
        "attempted": verdict.attempted,
        "failures": verdict.failures,
    }
    if tracer is not None:
        result["wall_s"] = tracer.wall_s()
        result["layers"] = _layer_metrics(tracer, verdict)
        tracer.dump(os.path.join(workdir, f"spans-{workload}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
