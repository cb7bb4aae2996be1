"""Workload ``rewrite-cold``: a closed loop of distinct, cold rewrites.

One thread parses each case from TSL text and calls
``repro.rewriting.rewrite`` with no session, so every Step 1A-2 search
runs in full.  Cases come in fixed-composition blocks (shuffled per
seed): 44 generated oracle cases (11 per ``repro.oracle.gen`` profile),
``k_conditions_query(k)`` for k = 3 and 4 over per-condition views, the
paper's Q3/Q5/Q7 over V1 with and without the Section 3.3 DTD, and one
6-live + 200-dead-view configuration.  Every fixed-family case gets a
fresh source name (and Q3 a fresh constant), so no two cases share a
canonical form and no program cache can serve one case from another.

The exponential ``star(identical)`` family is left out on purpose: one
such case would dominate a run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext

from calibrate import HostClock
from common import (WORK, SetupError, block_schedule, check, child_env,
                    median, ms, peak_rss_mb, percentile, rng_for)

#: Tail percentiles reported for the main and the side class: the
#: highest with at least ten samples beyond it in a run of the
#: benchmark's length.
TAIL = 99
SIDE_TAIL = 95
#: Cases per kind in one block.
BLOCK = {"gen": 44, "k3": 1, "k4": 1, "q3": 1, "q3dtd": 1, "q5": 1,
         "q5dtd": 1, "q7": 1, "q7dtd": 1, "dead": 1}
#: The fixed families: the ``side`` latency class of this workload.
FIXED = frozenset(BLOCK) - {"gen"}
PROFILES = ("conjunctive", "copy", "dag", "dtd")
LIVE_VIEWS = 6
DEAD_VIEWS = 200
#: Generated cases per block whose rewritings are checked semantically.
SEMANTIC_SAMPLE = 2
SETUP_REPEATS = 3
#: A case still searching after this long is stopped and counts as
#: failed, so one pathological case cannot stall a run.
CASE_BUDGET_MS = 20_000

#: Run in a fresh interpreter to time set-up: import the rewriter and
#: parse the shared view configurations and the DTD.
_SETUP_CHILD = r"""
import json, sys
from repro.rewriting import rewrite
from repro.rewriting.constraints import parse_dtd
from repro.tsl import parse_query
with open(sys.argv[1], encoding="utf-8") as handle:
    spec = json.load(handle)
for name, text in spec["views"].items():
    parse_query(text, name=name)
parse_dtd(spec["dtd"], source="db")
"""


class Case:
    __slots__ = ("kind", "query", "views", "dtd", "source", "total_only",
                 "expected", "gen")

    def __init__(self, kind, query, views, dtd=None, source="db",
                 total_only=False, expected=None, gen=None):
        self.kind = kind
        self.query = query          # TSL text
        self.views = views          # name -> TSL text
        self.dtd = dtd              # DTD text or None
        self.source = source        # the source the DTD constrains
        self.total_only = total_only
        self.expected = expected    # exact rewriting count, or None
        self.gen = gen              # the oracle Case, for generated ones


def _texts(views) -> dict:
    from repro.tsl import print_query
    return {name: print_query(view) for name, view in views.items()}


def _fixed_case(kind: str, tag: str, rng) -> Case:
    from repro.rewriting.constraints import PAPER_DTD
    from repro.tsl import print_query
    from repro.workloads.people import (FIRST_NAMES, query_q3, query_q5,
                                        query_q7, view_v1)
    from repro.workloads.querygen import condition_view, k_conditions_query
    source = f"db{tag}"
    if kind in ("k3", "k4"):
        k = int(kind[1])
        views = {f"V{i}": condition_view(i, source) for i in range(1, k + 1)}
        return Case(kind, print_query(k_conditions_query(k, source)),
                    _texts(views), expected=2 ** k - 1)
    if kind == "dead":
        views = {}
        for index in [*range(1, LIVE_VIEWS + 1),
                      *range(1000, 1000 + DEAD_VIEWS)]:
            views[f"V{index}"] = condition_view(index, source)
        return Case(kind, print_query(k_conditions_query(LIVE_VIEWS,
                                                         source)),
                    _texts(views), total_only=True, expected=1)
    with_dtd = kind.endswith("dtd")
    base = kind[:2]
    if base == "q3":
        query = query_q3(rng.choice(FIRST_NAMES), source)
    elif base == "q5":
        query = query_q5(source)
    else:
        query = query_q7(source)
    expected = 0 if base == "q7" and not with_dtd else 1
    return Case(kind, print_query(query), _texts({"V1": view_v1(source)}),
                dtd=PAPER_DTD if with_dtd else None, source=source,
                expected=expected)


def make_block(seed: int, block: int) -> list[Case]:
    """The cases of one block, in seeded order."""
    from repro.oracle.gen import PROFILES as GEN_PROFILES
    from repro.oracle.gen import generate_case
    from repro.tsl import print_query
    rng = rng_for(seed, "cold", block)
    cases = []
    gen_index = 0
    for kind in block_schedule(rng, BLOCK):
        if kind != "gen":
            cases.append(_fixed_case(kind, f"{seed}x{block}", rng))
            continue
        profile = PROFILES[gen_index % len(PROFILES)]
        gen_index += 1
        case_seed = (seed * 1_000_003 + block * 1000 + gen_index) % 2 ** 31
        generated = generate_case(case_seed, GEN_PROFILES[profile])
        cases.append(Case("gen", print_query(generated.query),
                          _texts(generated.views), dtd=generated.dtd_text,
                          source=generated.db.name, gen=generated))
    return cases


def run_case(case: Case):
    """One operation: parse the case's TSL text, then rewrite()."""
    from repro.rewriting import constraints, rewriter
    from repro.tsl import parser
    query = parser.parse_query(case.query)
    views = {name: parser.parse_query(text, name=name)
             for name, text in case.views.items()}
    dtd = constraints.parse_dtd(case.dtd, source=case.source) \
        if case.dtd is not None else None
    from repro.obs import Budget
    return rewriter.rewrite(query, views, dtd, total_only=case.total_only,
                            budget=Budget(deadline_ms=CASE_BUDGET_MS))


def _uses_set_terms(query) -> bool:
    """True when a body pattern carries a ``{<...>}`` term (set mapping).

    Such a rewriting denotes copies of source subgraphs and cannot be
    checked by evaluating it over materialized views.
    """
    from repro.logic.terms import FunctionTerm
    from repro.tsl.ast import SetPatternTerm

    def has_set(term) -> bool:
        if isinstance(term, SetPatternTerm):
            return True
        if isinstance(term, FunctionTerm):
            return any(has_set(arg) for arg in term.args)
        return False

    return any(has_set(p.oid) or has_set(p.label) or has_set(p.value)
               for c in query.body for p in c.pattern.nested_patterns())


def check_result(case: Case, result, semantic: bool) -> int:
    """Check one case's rewriting set; returns semantic checks made."""
    if case.expected is not None:
        check(len(result) == case.expected,
              f"{case.kind}: {len(result)} rewritings, expected "
              f"{case.expected}")
    if case.kind == "dead":
        check(result.stats.views_pruned_signature == DEAD_VIEWS,
              f"dead: {result.stats.views_pruned_signature} views pruned, "
              f"expected {DEAD_VIEWS}")
    if case.gen is None:
        return 0
    if case.gen.expect_rewriting:
        check(len(result) >= 1,
              f"gen {case.gen.describe()}: no rewriting although the "
              f"exposing view admits one (Theorem 5.5)")
    if not (semantic and case.gen.conjunctive):
        return 0
    from repro.oem.equivalence import identical
    from repro.tsl import evaluate
    db = case.gen.db
    expected = evaluate(case.gen.query, db)
    sources = {db.name: db}
    sources.update({name: evaluate(view, db, answer_name=name)
                    for name, view in case.gen.views.items()})
    checked = 0
    for rewriting in result.rewritings:
        if _uses_set_terms(rewriting.query):
            continue
        actual = evaluate(rewriting.query, sources)
        check(identical(expected, actual),
              f"gen {case.gen.describe()}: rewriting {rewriting.query} "
              f"answers differently from the query")
        checked += 1
    return checked


def measure_setup(seed: int) -> float:
    """Median wall time of fresh interpreters importing + parsing."""
    from repro.rewriting.constraints import PAPER_DTD
    views = dict(_fixed_case("dead", "setup", rng_for(seed)).views)
    views.update(_fixed_case("q3", "setup", rng_for(seed)).views)
    WORK.mkdir(exist_ok=True)
    spec = WORK / f"cold-setup-{seed}.json"
    spec.write_text(json.dumps({"views": views, "dtd": PAPER_DTD}),
                    encoding="utf-8")
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", _SETUP_CHILD,
                                  str(spec)], env=child_env())
        # A blocking wait ends the moment the child does (a wait with a
        # timeout polls, in steps of up to 50 ms); the watchdog bounds it.
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            status = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - started)
        if status != 0:
            raise SetupError(f"rewrite-cold: set-up child exited {status}")
    spec.unlink()
    return median(times)


def run(seed: int, seconds: float, trace: bool, tracer=None) -> dict:
    """Run blocks until *seconds* of operation time; with *trace*,
    every other block runs with the layer spans installed.  A host
    clock burst follows every block (outside the timed window); the
    reported times are scaled to reference host speed by it."""
    clock = HostClock()
    clock.burst()
    setup = (measure_setup(seed), clock.mark())
    #: (seconds, clock mark) of untraced ops, of the side class among
    #: them, and of every op; seconds of traced ops.
    plain: list[tuple[float, int]] = []
    side: list[tuple[float, int]] = []
    every: list[tuple[float, int]] = []
    traced: list[float] = []
    failed = attempted = semantic_checks = 0
    measured = 0.0
    block = 0
    while measured < seconds:
        cases = make_block(seed, block)
        traced_block = trace and block % 2 == 1
        if traced_block:
            tracer.install()
        results = []
        for case in cases:
            attempted += 1
            root = tracer.span("op") if traced_block else nullcontext()
            started = time.perf_counter()
            try:
                with root:
                    result = run_case(case)
            except Exception:  # a raised op counts as failed
                failed += 1
                print(f"rewrite-cold: {case.kind} raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                results.append(None)
                continue
            elapsed = time.perf_counter() - started
            measured += elapsed
            timed = (elapsed, clock.mark())
            every.append(timed)
            if result.truncated:
                failed += 1
                print(f"rewrite-cold: {case.kind} stopped "
                      f"({result.stats.stop_reason})", file=sys.stderr)
                results.append(None)
                continue
            results.append(result)
            if traced_block:
                traced.append(elapsed)
                continue
            plain.append(timed)
            if case.kind in FIXED:
                side.append(timed)
        if traced_block:
            tracer.uninstall()
        clock.burst()
        # Output checks, outside the timed window.
        sampled = 0
        for case, result in zip(cases, results):
            if result is None:
                continue
            semantic = case.gen is not None and sampled < SEMANTIC_SAMPLE
            checks = check_result(case, result, semantic)
            if checks:
                sampled += 1
                semantic_checks += checks
        block += 1
    check(semantic_checks > 0, "no rewriting was checked semantically")
    out = {"attempted": attempted, "failed": failed}
    if trace:
        # Traced and untraced blocks have the same composition, so
        # their median operations compare like for like.
        out["trace"] = {"ops": len(traced), "op_s": sum(traced),
                        "overhead_frac": median(traced)
                        / median([s for s, _ in plain]) - 1.0}
        out["layers"] = {}
        return out
    clock.log("rewrite-cold")
    plain_s, side_s = clock.scale(plain), clock.scale(side)
    out["metrics"] = {
        "p50_ms": ms(median(plain_s)),
        "tail_ms": ms(percentile(plain_s, TAIL)),
        "side_p50_ms": ms(median(side_s)),
        "side_tail_ms": ms(percentile(side_s, SIDE_TAIL)),
        "ops_per_s": len(plain) / sum(clock.scale(every)),
        "setup_s": clock.scale([setup])[0],
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    return out
