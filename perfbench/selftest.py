#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark against ``BENCHMARK.json``.

Run from the root of a checkout::

    python3 perfbench/selftest.py [--seconds 1]

Checks that ``BENCHMARK.json`` keeps to the benchmark contract (keys,
name and unit alphabets, bounds, the ``setup_s`` metric), runs every
workload briefly with ``--trace 0`` and ``--trace 1`` and checks that
each result line names exactly the declared metrics with the declared
units, and that the benchmark refuses to run, without a result line, in
a directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits non-zero on the first violation.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec: dict) -> None:
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(spec) != expected:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(expected)}")
    command = spec["command"]
    if not (1 <= len(command) <= 32) or any(
            len(part) > 200 or part.startswith("/") or ".." in part
            for part in command):
        fail("command violates the contract")
    for path in spec["paths"]:
        if not PATH_RE.fullmatch(path) or ".." in path:
            fail(f"bad path {path!r}")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("need 2..8 workloads")
    names = set()
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or "\n" in workload["why"] \
                or len(workload["why"]) > 200:
            fail(f"bad workload entry {workload}")
        names.add(workload["name"])
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for metric in spec[group]:
            if set(metric) != keys:
                fail(f"{group} entry {metric} has keys {sorted(metric)}")
            if not NAME_RE.fullmatch(metric["name"]) \
                    or not UNIT_RE.fullmatch(metric["unit"]) \
                    or metric["better"] not in ("lower", "higher"):
                fail(f"bad {group} entry {metric}")
            if metric["name"] in names:
                fail(f"name {metric['name']!r} used twice")
            names.add(metric["name"])
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                fail(f"bound of {metric['name']} not in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" \
            or setup[0]["better"] != "lower":
        fail("end_to_end must declare setup_s in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must carry the largest bound")


def check_docs() -> None:
    """``workloads.json`` must state the sizes the modules use."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import repo_rw
    import rewrite_cold
    import serve_mix
    docs = json.loads((ROOT / "perfbench" / "workloads.json")
                      .read_text("utf-8"))["workloads"]
    pairs = [
        (docs["rewrite-cold"]["inputs"]["block"], rewrite_cold.BLOCK),
        (docs["rewrite-cold"]["tail"], rewrite_cold.TAIL),
        (docs["rewrite-cold"]["side_tail"], rewrite_cold.SIDE_TAIL),
        (docs["serve-mix"]["inputs"]["configs"], serve_mix.CONFIGS),
        (docs["serve-mix"]["inputs"]["block"], serve_mix.BLOCK),
        (docs["serve-mix"]["tail"], serve_mix.TAIL),
        (docs["serve-mix"]["side_tail"], serve_mix.SIDE_TAIL),
        (docs["serve-mix"]["rate_ladder"]["base_rps"],
         serve_mix.LADDER_BASE),
        (docs["serve-mix"]["rate_ladder"]["step"], serve_mix.LADDER_STEP),
        (docs["serve-mix"]["rate_ladder"]["rungs"], serve_mix.LADDER_RUNGS),
        (docs["serve-mix"]["rate_ladder"]["latency_limit_ms"],
         serve_mix.LATENCY_LIMIT_MS),
        (docs["serve-mix"]["rate_ladder"]["backlog_limit"],
         serve_mix.BACKLOG_LIMIT),
        (docs["repo-rw"]["inputs"]["publications"], repo_rw.PUBLICATIONS),
        (docs["repo-rw"]["inputs"]["group"], list(repo_rw.GROUP)),
        (docs["repo-rw"]["tail"], repo_rw.TAIL),
        (docs["repo-rw"]["side_tail"], repo_rw.SIDE_TAIL),
    ]
    for documented, used in pairs:
        if documented != used:
            fail(f"workloads.json says {documented!r}, the code uses "
                 f"{used!r}")
    print("selftest: workloads.json matches the code")


def run(cwd: Path, spec: dict, workload: str, seconds: float,
        trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int,
                 done: subprocess.CompletedProcess) -> None:
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{where} exited {done.returncode}:\n{done.stderr[-2000:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if set(line) != RESULT_KEYS:
        fail(f"{where}: result keys {sorted(line)}")
    if line["correct"] is not True or line["attempted"] < 1 \
            or not isinstance(line["failed"], int):
        fail(f"{where}: bad result header {line}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(line["metrics"]) != set(units):
        fail(f"{where}: metrics {sorted(line['metrics'])} != declared "
             f"{sorted(units)}")
    for name, metric in line["metrics"].items():
        if set(metric) != {"value", "unit"} or metric["unit"] != units[name]:
            fail(f"{where}: metric {name} is {metric}, unit should be "
                 f"{units[name]}")
        if not isinstance(metric["value"], (int, float)) \
                or not math.isfinite(metric["value"]):
            fail(f"{where}: metric {name} is not a finite number")
        if not trace and metric["value"] == 0:
            fail(f"{where}: end-to-end metric {name} reads 0")
    print(f"selftest: {where}: {len(units)} metrics ok")


def check_bare(spec: dict) -> None:
    """Without the program the benchmark must fail and print nothing."""
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for workload in spec["workloads"]:
            done = run(bare, spec, workload["name"], 1, 0)
            if done.returncode == 0 or done.stdout.strip():
                fail(f"bare directory: {workload['name']} exited "
                     f"{done.returncode} with output {done.stdout!r}")
        print("selftest: bare directory refused ok")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    check_spec(spec)
    check_docs()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_bare(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace,
                         run(ROOT, spec, workload["name"], args.seconds,
                             trace))
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
