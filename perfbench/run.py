#!/usr/bin/env python3
"""Run one benchmark workload and print its result as a JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload rewrite-cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures with no instrumentation and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs the traced
variant and prints every per-layer metric (layers a workload leaves
idle read zero).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 on success; 1 when an output, durability or trace check
failed (the result line then says ``"correct": false``); 2 when the
checkout lacks the program or ``BENCHMARK.json`` (no result line).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (WORK, CheckFailure, SetupError,  # noqa: E402
                    load_spec, require_program)

WORKLOADS = ("rewrite-cold", "serve-mix", "repo-rw")

#: Allowed gap between the summed span self times and the operation
#: time the workload measured with its own clock (traced runs).
ATTRIBUTION_TOLERANCE = 0.05


def _workload_module(name: str):
    if name == "rewrite-cold":
        import rewrite_cold as module
    elif name == "serve-mix":
        import serve_mix as module
    else:
        import repo_rw as module
    return module


def _layer_metrics(outcome: dict, tracer) -> dict:
    from tracing import attribution_error, counted_metrics, layer_metrics
    trace = outcome["trace"]
    ops = trace["ops"]
    metrics: dict = {}
    if trace.get("local", True):
        if tracer.open_spans():
            raise AssertionError("trace: a span was never closed")
        metrics["trace.attribution_error"] = attribution_error(
            tracer.summary(), trace["op_s"], ATTRIBUTION_TOLERANCE)
        metrics.update(layer_metrics(tracer.summary(), ops))
        metrics.update(counted_metrics(tracer.counts, ops))
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{outcome['name']}.jsonl")
    metrics["trace.overhead_frac"] = trace["overhead_frac"]
    metrics.update(outcome["layers"])
    return metrics


def _result_line(spec: dict, trace: bool, outcome: dict,
                 values: dict) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SetupError(f"metrics not declared in BENCHMARK.json: "
                         f"{unknown}")
    if not trace:
        missing = sorted(set(units) - set(values))
        if missing:
            raise SetupError(f"end-to-end metrics not measured: {missing}")
    metrics = {name: {"value": float(values.get(name, 0.0)),
                      "unit": units[name]} for name in units}
    return {"correct": True, "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an exception, so every child process
    # (the serve-mix server) is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        spec = load_spec()
        require_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    module = _workload_module(args.workload)
    tracer = None
    if args.trace:
        from tracing import SpanTracer, install_hooks
        tracer = SpanTracer()
        install_hooks(tracer)
    started = time.perf_counter()
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             tracer)
        outcome["name"] = f"{args.workload}-seed{args.seed}"
        values = _layer_metrics(outcome, tracer) if args.trace \
            else outcome["metrics"]
        line = _result_line(spec, bool(args.trace), outcome, values)
    except (CheckFailure, AssertionError) as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(f"perfbench: {args.workload} seed={args.seed} done in "
          f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
