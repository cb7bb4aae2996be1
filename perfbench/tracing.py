"""Benchmark-side tracing: spans around the program's layer boundaries.

The program is not edited.  :class:`SpanTracer` records spans by
*rebinding* the names through which one module calls another layer
(``repro.rewriting.rewriter.chase``, ``repro.repository.views.evaluate``,
...) to thin wrappers, and restores the originals on
:meth:`SpanTracer.uninstall`.  A span records its name, start, end and
parent (per thread, so the server's worker threads nest correctly).
Spans stay in memory; :meth:`SpanTracer.dump` writes them out at the
end, and :meth:`SpanTracer.summary` folds them into per-name call
counts, total time and *self* time (span time minus the time its
child spans cover).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter

#: (module, attribute, span name, consume).  ``attribute`` may be
#: ``Class.method``.  ``consume`` materializes a returned generator
#: inside the span so its work is timed where it happens.  Missing
#: modules or attributes are skipped, so the table tolerates a program
#: that moves a function (its layer then simply reads zero).
LAYER_PATCHES: tuple[tuple[str, str, str, bool], ...] = (
    # tsl.parser -- the benchmark and the program parse through these
    ("repro.tsl.parser", "parse_query", "parse", False),
    ("repro.rewriting.constraints", "parse_dtd", "parse", False),
    ("repro.repository.repository", "parse_query", "parse", False),
    ("repro.server.schemas", "parse_query", "parse", False),
    ("repro.server.schemas", "parse_dtd", "parse", False),
    # rewriting.rewriter: the whole search (self time = unattributed)
    ("repro.rewriting.rewriter", "rewrite", "rewrite", False),
    ("repro.repository.repository", "rewrite", "rewrite", False),
    # rewriting.canon
    ("repro.rewriting.rewriter", "program_key", "canon", False),
    ("repro.rewriting.session", "canonicalize", "canon", False),
    ("repro.rewriting.session", "program_key", "canon", False),
    ("repro.rewriting.session", "rebase", "canon", False),
    ("repro.repository.cache", "query_key", "canon", False),
    ("repro.storage.shard", "query_key", "canon", False),
    ("repro.server.pool", "query_key", "canon", False),
    ("repro.server.app", "query_key", "canon", False),
    # rewriting.mappings / index (Step 1A)
    ("repro.rewriting.rewriter", "find_mappings", "mappings", True),
    # rewriting.chase (Step 1C, and the chase inside prepare)
    ("repro.rewriting.rewriter", "chase", "chase", False),
    ("repro.rewriting.equivalence", "chase", "chase", False),
    ("repro.rewriting.session", "chase", "chase", False),
    # rewriting.composition / equivalence (Step 2)
    ("repro.rewriting.rewriter", "compose", "compose", False),
    ("repro.rewriting.rewriter", "prepare_program", "prepare", False),
    ("repro.rewriting.rewriter", "programs_equivalent", "equivalence",
     False),
    ("repro.rewriting.equivalence", "programs_equivalent", "equivalence",
     False),
    # tsl.evaluator
    ("repro.repository.repository", "evaluate", "evaluate", False),
    ("repro.repository.cache", "evaluate", "evaluate", False),
    ("repro.repository.views", "evaluate", "evaluate.view", False),
    ("repro.tsl", "evaluate", "evaluate", False),
    # storage
    ("repro.storage.durable", "DurableStore.add_atomic", "wal.append",
     False),
    ("repro.storage.durable", "DurableStore.add_set", "wal.append", False),
    ("repro.storage.durable", "DurableStore.add_child", "wal.append",
     False),
    ("repro.storage.durable", "DurableStore.add_root", "wal.append", False),
    ("repro.storage.durable", "DurableStore.flush", "wal.fsync", False),
    ("repro.storage.durable", "DurableStore.compact", "compact", False),
    ("repro.storage.durable", "json_line", "wal.encode", False),
    ("repro.storage.cachestore", "ShardedCacheStore.save", "cache.save",
     False),
)


class SpanTracer:
    """Records spans from rebound layer functions; see module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[list[list]] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Named counts gathered at the same boundaries (results seen).
        self.counts: Counter = Counter()
        self.hooks: dict[str, object] = {}

    # -- recording -------------------------------------------------------------

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self._threads.append(state[0])
        return state

    def span(self, name: str):
        """A span opened by the benchmark itself (the operation root)."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        spans, stack = self._state()
        record = [name, time.perf_counter(), 0.0,
                  stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._state()[1].pop()

    def _wrapper(self, name: str, original, consume: bool):
        tracer = self

        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                out = original(*args, **kwargs)
                if consume:
                    out = list(out)
                hook = tracer.hooks.get(name)
                if hook is not None:
                    hook(tracer, out)
                return out
            except Exception as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                tracer._close(record)

        traced.__wrapped__ = original
        return traced

    # -- installation ----------------------------------------------------------

    def install(self, patches=LAYER_PATCHES) -> int:
        """Rebind every available patch point; returns how many."""
        for module_name, attribute, name, consume in patches:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                continue
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(name, original, consume))
        return len(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def reset(self) -> None:
        """Forget every finished span and count (call with none open)."""
        with self._lock:
            for spans in self._threads:
                spans.clear()
        self.counts.clear()

    # -- results ---------------------------------------------------------------

    def open_spans(self) -> int:
        """Spans started but never finished (a broken nesting)."""
        return sum(1 for _, _, end, _ in self.all_spans() if end == 0.0)

    def all_spans(self) -> list[list]:
        with self._lock:
            return [span for spans in self._threads for span in spans]

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        out: dict[str, dict] = {}
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        for spans in threads:
            child = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child[parent] += end - start
            for index, (name, start, end, parent) in enumerate(spans):
                entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += (end - start) - child[index]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with self._lock:
            threads = [list(spans) for spans in self._threads]
        with open(path, "w", encoding="utf-8") as out:
            for thread, spans in enumerate(threads):
                for index, (name, start, end, parent) in enumerate(spans):
                    out.write(json.dumps(
                        {"thread": thread, "id": index, "name": name,
                         "start": start, "end": end,
                         "parent": parent}) + "\n")


class _Span:
    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: SpanTracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._record = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._record)
        return False


def layer_metrics(summary: dict, ops: int) -> dict[str, float]:
    """Per-operation calls and self milliseconds of each traced layer."""
    ops = max(ops, 1)

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / ops

    def self_ms(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0)
                   for n in names) * 1e3 / ops

    return {
        "parse.calls": calls("parse"),
        "parse.self_ms": self_ms("parse"),
        "canon.calls": calls("canon"),
        "canon.self_ms": self_ms("canon"),
        "mappings.calls": calls("mappings"),
        "mappings.self_ms": self_ms("mappings"),
        "chase.calls": calls("chase"),
        "chase.self_ms": self_ms("chase"),
        "compose.calls": calls("compose"),
        "compose.self_ms": self_ms("compose"),
        "prepare.self_ms": self_ms("prepare"),
        "equivalence.calls": calls("equivalence"),
        "equivalence.self_ms": self_ms("equivalence"),
        "rewrite.unattributed_ms": self_ms("rewrite"),
        "evaluate.calls": calls("evaluate") + calls("evaluate.view"),
        "evaluate.self_ms": self_ms("evaluate", "evaluate.view"),
        "views.refreshes": calls("evaluate.view"),
        "views.refresh_ms": summary.get("evaluate.view", {}).get(
            "total_s", 0.0) * 1e3 / ops,
        "wal.appends": calls("wal.append"),
        "wal.fsyncs": calls("wal.fsync"),
        "compact.self_ms": self_ms("compact"),
        "cache.save_ms": self_ms("cache.save"),
    }


#: RewriteStats fields summed over every traced ``rewrite()`` result.
_REWRITE_FIELDS = ("candidates_enumerated", "candidates_tested",
                   "rewritings", "index_hits", "index_skips",
                   "views_pruned_signature", "composition_rules")


def install_hooks(tracer: SpanTracer) -> None:
    """Count results at the traced boundaries (see :attr:`counts`)."""

    def on_rewrite(tracer, result):
        stats = getattr(result, "stats", None)
        for name in _REWRITE_FIELDS:
            tracer.counts[f"rw.{name}"] += getattr(stats, name, 0) or 0

    def on_mappings(tracer, found):
        tracer.counts["mappings.found"] += len(found)

    def on_compact(tracer, outcome):
        if isinstance(outcome, dict):
            tracer.counts["compact.bytes"] += outcome.get(
                "snapshot_bytes", 0)

    def on_encode(tracer, line):
        tracer.counts["wal.bytes"] += len(line.encode("utf-8"))

    def on_evaluate(tracer, answer):
        stats = getattr(answer, "stats", None)
        if stats is not None:
            tracer.counts["evaluate.answer_objects"] += stats()["objects"]

    tracer.hooks.update({"rewrite": on_rewrite, "mappings": on_mappings,
                         "compact": on_compact, "wal.encode": on_encode,
                         "evaluate": on_evaluate,
                         "evaluate.view": on_evaluate})


def counted_metrics(counts: Counter, ops: int) -> dict[str, float]:
    """Per-layer metrics derived from the boundary counts."""
    ops = max(ops, 1)
    tested = counts["rw.candidates_tested"]
    probes = counts["rw.index_hits"] + counts["rw.index_skips"]
    return {
        "mappings.found": counts["mappings.found"] / ops,
        "index.skip_ratio": counts["rw.index_skips"] / probes
        if probes else 0.0,
        "prefilter.views_pruned": counts["rw.views_pruned_signature"] / ops,
        "candidates.enumerated": counts["rw.candidates_enumerated"] / ops,
        "candidates.tested": tested / ops,
        "candidates.accept_ratio": counts["rw.rewritings"] / tested
        if tested else 0.0,
        "chase.contradictions": counts["chase.raised."
                                       "ChaseContradictionError"] / ops,
        "compose.rules": counts["rw.composition_rules"] / ops,
        "evaluate.answer_objects": counts["evaluate.answer_objects"] / ops,
        "compact.bytes_rewritten": counts["compact.bytes"] / ops,
    }


def attribution_error(summary: dict, op_s: float,
                      tolerance: float = 0.05) -> float:
    """Self times must add up to the measured operation time.

    Sums the self time of every span name in *summary* (the layers plus
    each root's own share) and compares it with *op_s*, the operation
    time measured by the roots' owner.  Returns the relative error;
    raises when it exceeds *tolerance*.
    """
    total = sum(entry["self_s"] for entry in summary.values())
    error = abs(total - op_s) / op_s if op_s else 0.0
    if error > tolerance:
        raise AssertionError(
            f"trace: layer self times sum to {total:.4f}s but the "
            f"operations took {op_s:.4f}s ({error:.1%} > {tolerance:.0%})")
    return error
