"""A fixed reference kernel that reads how fast the host runs right now.

The benchmark runs on a few vCPUs of a shared host whose speed drifts as
neighbours come and go (the kernel below took 42 to 79 ms within one
hour on a 2-vCPU VM), so a CPU-bound timing taken at one moment differs
from the same timing taken minutes later by more than any regression
bound.  :class:`HostClock` times a fixed, program-independent kernel in
bursts *between* the timed operations of a workload (never inside the
timed window).  Each operation time is tagged with the number of
bursts run before it (:meth:`HostClock.mark`) and, when the run ends,
scaled to reference host speed by the bursts around it::

    seconds * REFERENCE_MS / median(the WINDOW bursts nearest the op)

so the end-to-end figures read "seconds at reference host speed": on a
host running the kernel in ``REFERENCE_MS`` they equal the wall times,
and a slowdown of the host for a few seconds of a run is taken out of
the operations it overlapped.  The kernel is pure Python and imports
nothing from the program, so a change to the program cannot move it;
its mix (recursive tuple walking, dict and set traffic, small-object
allocation, string joins) and its working set of a few MB follow the
work the rewriter and evaluator do, so host contention slows both
about alike.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

#: Median kernel time (ms) on the host the benchmark was sized on (a
#: 2-vCPU 2.0 GHz Xeon VM): the speed every factor is relative to.
REFERENCE_MS = 45.0
#: Bursts whose median scales one operation: the nearest before and
#: after it (a few seconds of a run).
WINDOW = 5
#: Terms the kernel walks: a working set of a few MB, like the
#: program's, so cache and memory contention on the host slows the
#: kernel as it slows the program (over 15 s windows, fixed repo-rw
#: reads over a 240-term kernel's time spread 0.05 IQR/median, over a
#: 3000-term kernel's 0.02).
TERMS = 2000


def _make_terms(count: int) -> list:
    rng = random.Random(20261017)
    names = [f"X{i}" for i in range(12)]
    constants = [f"c{i}" for i in range(30)]

    def term(depth: int):
        if depth == 0 or rng.random() < 0.3:
            return ("var", rng.choice(names)) if rng.random() < 0.5 \
                else ("const", rng.choice(constants))
        return ("fn", f"f{rng.randrange(5)}",
                tuple(term(depth - 1) for _ in range(rng.randint(1, 3))))

    return [term(4) for _ in range(count)]


_TERMS = _make_terms(TERMS)


class _Node:
    __slots__ = ("kind", "name", "children")

    def __init__(self, kind, name, children):
        self.kind = kind
        self.name = name
        self.children = children


def _rename(term, mapping: dict):
    if term[0] == "var":
        name = mapping.get(term[1])
        if name is None:
            name = mapping[term[1]] = f"V{len(mapping)}"
        return ("var", name)
    if term[0] == "const":
        return term
    return ("fn", term[1], tuple(_rename(arg, mapping) for arg in term[2]))


def _render(term) -> str:
    if term[0] != "fn":
        return term[1]
    return term[1] + "(" + ",".join(_render(arg) for arg in term[2]) + ")"


def _nodes(term) -> _Node:
    if term[0] != "fn":
        return _Node(term[0], term[1], ())
    return _Node("fn", term[1], [_nodes(arg) for arg in term[2]])


def _subterms(term, out: set) -> None:
    out.add(term)
    if term[0] == "fn":
        for arg in term[2]:
            _subterms(arg, out)


def kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    seen: dict = {}
    previous: set = set()
    shared = 0
    for term in _TERMS:
        canonical = _rename(term, {})
        key = _render(canonical)
        seen[key] = seen.get(key, 0) + 1
        tree = _nodes(canonical)
        shared += len(tree.children)
        subterms: set = set()
        _subterms(canonical, subterms)
        shared += len(subterms & previous)
        previous = subterms
    return shared + len(sorted(seen, key=lambda k: (len(k), k)))


class HostClock:
    """Interleaved bursts of :func:`kernel`; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def burst(self, cpu: int | None = None) -> None:
        """Time one kernel run (on *cpu* when given, then move back)."""
        previous = None
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            previous = os.sched_getaffinity(0)
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # no such core here: measure where we are
                previous = None
        try:
            started = time.perf_counter()
            kernel()
            self.samples.append((time.perf_counter() - started) * 1e3)
        finally:
            if previous is not None:
                os.sched_setaffinity(0, previous)

    def mark(self) -> int:
        """Tag for an operation timed now: the bursts run so far."""
        return len(self.samples)

    def local_ms(self, mark: int) -> float:
        """Median of the WINDOW bursts nearest to *mark*."""
        start = max(0, min(mark - WINDOW // 2, len(self.samples) - WINDOW))
        return statistics.median(self.samples[start:start + WINDOW])

    def scale(self, timed) -> list[float]:
        """(seconds, mark) pairs as seconds at reference host speed."""
        local: dict[int, float] = {}
        out = []
        for seconds, mark in timed:
            if mark not in local:
                local[mark] = REFERENCE_MS / self.local_ms(mark)
            out.append(seconds * local[mark])
        return out

    def log(self, workload: str) -> None:
        """Report the host's speed on standard error."""
        median = statistics.median(self.samples)
        print(f"{workload}: host kernel median {median:.2f} ms over "
              f"{len(self.samples)} bursts (reference {REFERENCE_MS} ms)",
              file=sys.stderr)
