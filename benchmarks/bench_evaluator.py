#!/usr/bin/env python3
"""Substrate benchmark -- TSL evaluation scaling (supports E10/E11).

Not a paper claim per se, but the cache and mediator experiments depend
on evaluation cost scaling with data size; this bench pins that baseline
and compares the direct evaluator against the Datalog-translation path
(E13's slower twin).

The ``v1-composed`` row times a composed program (Section 3.1): a probe
of (V1)'s head composed with (V1), evaluated over the base data, next to
the two-step route (materialize (V1), evaluate the probe over it).  The
composition has conditions that bind only variables no later step
reads; the evaluator's live-variable projection is what keeps it within
a small factor of the two-step route.
"""

from __future__ import annotations

import time

from repro.logic.translate import evaluate_via_datalog
from repro.oem import identical
from repro.rewriting import compose
from repro.tsl import evaluate, evaluate_program
from repro.workloads import (generate_bibliography, generate_people,
                             sigmod_97_query, view_head_probe, view_v1)

SIZES = (200, 800, 3200)
TRANSLATED_CAP = 3200  # keep the slower twin bounded
PEOPLE = 12
REPEATS = 5


def _best_of(fn) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def composed_v1_row() -> dict:
    """The composed program vs the two-step route over the same data."""
    db = generate_people(PEOPLE, seed=0)
    view = view_v1()
    probe = view_head_probe(view)
    composed = compose(probe, {"V1": view})
    composed_s, via = _best_of(
        lambda: evaluate_program(composed, {"db": db}))
    two_step_s, direct = _best_of(lambda: evaluate(
        probe, {"db": db,
                "V1": evaluate(view, db, answer_name="V1")}))
    if not identical(via, direct):
        raise AssertionError("composed program and two-step route "
                             "disagree")
    return {"series": "v1-composed", "people": PEOPLE,
            "rules": len(composed),
            "conditions": max(len(rule.body) for rule in composed),
            "answers": len(via.roots), "composed_s": composed_s,
            "two_step_s": two_step_s}


def evaluate_direct(db):
    return evaluate(sigmod_97_query(), db)


def evaluate_translated(db):
    return evaluate_via_datalog(sigmod_97_query(), db)


def run_experiment() -> list[dict]:
    rows = []
    for size in SIZES:
        db = generate_bibliography(size, seed=size)
        started = time.perf_counter()
        direct = evaluate_direct(db)
        t_direct = time.perf_counter() - started
        t_translated = None
        if size <= TRANSLATED_CAP:
            started = time.perf_counter()
            evaluate_translated(db)
            t_translated = time.perf_counter() - started
        rows.append({"series": "sigmod97", "pubs": size,
                     "answers": len(direct.roots),
                     "direct_s": t_direct, "datalog_s": t_translated})
    rows.append(composed_v1_row())
    return rows


def print_table(rows: list[dict]) -> None:
    print(f"{'pubs':>6} {'answers':>8} {'direct(s)':>10} "
          f"{'datalog(s)':>11}")
    for row in rows:
        if row["series"] != "sigmod97":
            continue
        datalog = ("-" if row["datalog_s"] is None
                   else f"{row['datalog_s']:.3f}")
        print(f"{row['pubs']:>6} {row['answers']:>8} "
              f"{row['direct_s']:>10.3f} {datalog:>11}")
    for row in rows:
        if row["series"] == "v1-composed":
            print(f"V1 composition over {row['people']} people "
                  f"({row['rules']} rule(s), {row['conditions']} "
                  f"conditions): composed {row['composed_s']:.4f}s, "
                  f"two-step {row['two_step_s']:.4f}s, "
                  f"{row['answers']} answer(s)")


# -- pytest-benchmark entry points ------------------------------------------

def test_direct_800(benchmark):
    db = generate_bibliography(800, seed=800)
    answer = benchmark(evaluate_direct, db)
    benchmark.extra_info["answers"] = len(answer.roots)


def test_translated_200(benchmark):
    db = generate_bibliography(200, seed=200)
    benchmark(evaluate_translated, db)


def test_composed_v1(benchmark):
    db = generate_people(PEOPLE, seed=0)
    composed = compose(view_head_probe(view_v1()), {"V1": view_v1()})
    answer = benchmark(evaluate_program, composed, {"db": db})
    benchmark.extra_info["answers"] = len(answer.roots)


def test_paths_agree():
    db = generate_bibliography(100, seed=3)
    assert identical(evaluate_direct(db), evaluate_translated(db))


if __name__ == "__main__":
    print(__doc__)
    print_table(run_experiment())
