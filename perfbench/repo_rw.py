"""Workload ``repo-rw``: reads and durable writes on one repository.

A fixed 1000-publication ``generate_bibliography`` store sits behind
``Repository.open`` (durable snapshot + WAL store, sharded query cache)
with three materialized ``conference_view``\\ s.  One thread repeats a
fixed group of two writes and eight reads (see ``GROUP``):

* a read asks one ``conference_query`` (conference x year) in a fresh
  spelling (variables renamed, conditions reordered).  Six reads of a
  group ask the three view-covered conferences twice each, one asks an
  uncovered conference, and one re-asks that uncovered query; the year
  is drawn Zipf-skewed.  The repository answers from the views, the
  cache or the store (the ``route``);
* a write adds one publication through ``Repository.add_*`` and then
  fsyncs the WAL (``DurableStore.flush``), so it is acknowledged only
  after its fsync (flush policy: one fsync per acknowledged write).
  Every fifth write also compacts the store (``DurableStore.compact``)
  and persists the cache shards (``Repository.flush``) before it is
  acknowledged, so several compaction cycles complete in a run.  (The
  shard files are fsynced one by one; doing that on every write made
  write latency a measure of the host disk's momentary fsync delay.)

Compaction is requested explicitly rather than through
``autocompact_ops``: an automatic compaction snapshots the store
*before* applying the WAL record that triggered it and then deletes
the log, so that record is lost on reopen (the durability check below
catches it).  Switch to ``autocompact_ops`` once that is fixed.

Writes invalidate cached answers and leave the views stale, so the
next read pays view refresh and re-evaluation: those reads are the
``side`` class, the other reads give ``p50_ms``/``tail_ms``, and write
latency is reported per layer (the host disk's fsync delay moves it
too much between runs for an end-to-end bound).  After the run the WAL
is cut back to its size at the last acknowledged write, a torn record
is appended (a crash mid-append), the store is reopened, and every
acknowledged publication must be readable.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from contextlib import nullcontext

from calibrate import HostClock
from common import (WORK, check, median, ms, peak_rss_mb,
                    percentile, rng_for, Zipf)

#: Tail percentiles reported for the main and the side class: the
#: highest with at least ten samples beyond it in a run of the
#: benchmark's length.
TAIL = 95
SIDE_TAIL = 75
#: Acknowledged writes (per-layer, traced run): every fifth compacts, so
#: p85 lies among the compacting writes.
WRITE_TAIL = 85
PUBLICATIONS = 1000
#: Seed of the store's publications: the same store for every --seed,
#: so the cost of a read depends on the query drawn, not on the data.
STORE_SEED = 20261017
VIEW_CONFERENCES = ("sigmod", "vldb", "pods")
YEARS = tuple(range(1990, 2000))
#: One group of operations, in order: "w" writes, "c" reads a
#: view-covered conference, "u" an uncovered one, "r" re-reads the last
#: "u" query.  The fixed order keeps the share of each route, and of the
#: reads that pay view refresh (the first after a write), the same in
#: every run; only the queries drawn depend on the seed.
GROUP = ("w", "w", "c", "c", "u", "r", "c", "c", "c", "c")
#: Each new publication: set + 5 atomic children (title, 2 authors,
#: booktitle, year), each with its edge, + the root: 12 WAL records.
#: Every COMPACT_EVERY-th write also compacts the store.
COMPACT_EVERY = 5
SETUP_REPEATS = 5
#: Every n-th read answered from views or cache is compared with a
#: direct evaluation of the same query (outside the timed window).
CHECK_EVERY = 3
ZIPF_S = 1.0


def _build_store(root) -> None:
    from repro.storage.durable import DurableStore
    from repro.workloads.biblio import generate_bibliography
    if root.exists():
        shutil.rmtree(root)
    root.parent.mkdir(parents=True, exist_ok=True)
    store = DurableStore.create(root, cache_shards=8)
    store.ingest(generate_bibliography(PUBLICATIONS, seed=STORE_SEED))
    store.compact()
    store.close()


def _open(root):
    """Open the repository and materialize the views (the set-up)."""
    from repro.repository import Repository
    from repro.tsl import print_query
    from repro.workloads.biblio import conference_view
    repo = Repository.open(root)
    for conference in VIEW_CONFERENCES:
        name = f"v_{conference}"
        repo.define_view(name, print_query(conference_view(conference,
                                                           name)))
    return repo


class Reads:
    """The seeded read stream: which query each read of a group asks."""

    def __init__(self, seed: int) -> None:
        from repro.workloads.biblio import CONFERENCES
        self.rng = rng_for(seed, "repo", "reads")
        self.uncovered = [c for c in CONFERENCES
                          if c not in VIEW_CONFERENCES]
        self.rng.shuffle(self.uncovered)
        #: Per conference, the years in seeded popularity order.
        self.years = {}
        for conference in CONFERENCES:
            years = list(YEARS)
            self.rng.shuffle(years)
            self.years[conference] = years
        self.zipf = Zipf(len(YEARS), ZIPF_S)
        self.covered: list[str] = []
        self.groups = 0
        self.last_uncovered = None

    def next(self, kind: str) -> str:
        if kind == "c":
            if not self.covered:
                self.covered = list(VIEW_CONFERENCES)
                self.rng.shuffle(self.covered)
            target = self._draw(self.covered.pop())
        elif kind == "u":
            conference = self.uncovered[self.groups % len(self.uncovered)]
            self.groups += 1
            target = self.last_uncovered = self._draw(conference)
        else:
            target = self.last_uncovered
        return self._spell(*target)

    def _draw(self, conference: str) -> tuple[str, int]:
        return conference, self.years[conference][self.zipf.sample(
            self.rng)]

    def _spell(self, conference: str, year: int) -> str:
        from repro.tsl import print_query
        from repro.tsl.ast import Query
        from repro.workloads.biblio import conference_query
        query = conference_query(conference, year)
        body = list(query.body)
        self.rng.shuffle(body)
        return print_query(Query(query.head, tuple(body)).rename_apart(
            f"_{self.rng.randrange(10 ** 6)}"))


def _publication(seed: int, index: int, rng) -> dict:
    from repro.workloads.biblio import (CONFERENCES, FIRST_NAMES,
                                        LAST_NAMES, TITLE_WORDS)
    authors = [f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
               for _ in range(2)]
    return {"oid": f"bench{seed}_{index}",
            "title": " ".join(rng.sample(TITLE_WORDS, 3))
            + f" bench {seed}/{index}",
            "authors": authors,
            "booktitle": rng.choice(CONFERENCES),
            "year": rng.choice(YEARS)}


def _write(repo, pub: dict, compact: bool) -> None:
    """One acknowledged write: add the publication, fsync the WAL; every
    COMPACT_EVERY-th write also compacts and persists the cache."""
    oid = pub["oid"]
    repo.add_set(oid, "pub")
    children = [("title", pub["title"]),
                *(("author", author) for author in pub["authors"]),
                ("booktitle", pub["booktitle"]), ("year", pub["year"])]
    for position, (label, value) in enumerate(children):
        child = f"{oid}_{position}"
        repo.add_atomic(child, label, value)
        repo.add_child(oid, child)
    repo.add_root(oid)
    repo.store.flush()
    if compact:
        repo.store.compact()
        repo.flush()


def _wal_size(repo) -> int:
    wal = repo.store.layout.wal
    return wal.stat().st_size if wal.exists() else 0


def _check_durability(root, acked: list[dict], wal_bytes: int,
                      version: int) -> None:
    """Crash after the last acknowledged write, reopen, read them all."""
    from repro.repository import Repository
    from repro.storage.format import StorageLayout
    wal = StorageLayout(root).wal
    if wal.exists():
        with open(wal, "r+b") as handle:
            handle.truncate(wal_bytes)
    with open(wal, "ab") as handle:   # a torn, never-acknowledged append
        handle.write(b'{"op": "atomic", "oid": {"c')
    reopened = Repository.open(root)
    try:
        check(reopened.store.version == version,
              f"durability: reopened at version {reopened.store.version},"
              f" last acknowledged write left {version}")
        report = reopened.query_with_report(
            "<t(P) title {<o(P) t T>}> :- <P pub {<X title T>}>@db",
            use_views=False, use_cache=False)
        titles = {str(value) for value in
                  _atomic_values(report.answer)}
        lost = [pub["oid"] for pub in acked if pub["title"] not in titles]
        check(not lost, f"durability: {len(lost)} acknowledged "
                        f"publications unreadable after reopen, e.g. "
                        f"{lost[:3]}")
    finally:
        reopened.store.close()


def _atomic_values(db):
    for oid in db.oids():
        if db.is_atomic(oid):
            value = db.atomic_value(oid)
            yield getattr(value, "value", value)


class _Runner:
    """One run's state: the repository, the streams and the tallies."""

    def __init__(self, repo, seed: int, tracer, clock: HostClock) -> None:
        self.repo = repo
        self.seed = seed
        self.tracer = tracer
        self.clock = clock
        self.reads_stream = Reads(seed)
        self.rng = rng_for(seed, "repo", "ops")
        #: Latencies per (class, traced): "refresh" is the first read
        #: after a write (it pays the view refresh), "read" the others.
        self.latency = {(kind, traced): []
                        for kind in ("read", "refresh", "write")
                        for traced in (False, True)}
        #: (seconds, clock mark) of the untraced operations, per class.
        self.timed = {kind: [] for kind in ("read", "refresh", "write")}
        self.after_write = False
        self.routes = {"views": 0, "cache": 0, "direct": 0}
        self.acked: list[dict] = []
        self.acked_wal = 0
        self.failed = self.attempted = self.checked = 0
        self.traced_user_bytes = 0

    def step(self, kind: str, traced: bool) -> float:
        """One operation; returns its latency (0 when it raised)."""
        self.attempted += 1
        root = self.tracer.span("op") if traced else nullcontext()
        try:
            if kind == "w":
                return self._write(root, traced)
            return self._read(kind, root, traced)
        except Exception:  # a raised op counts as failed
            self.failed += 1
            print(f"repo-rw: {kind} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return 0.0

    def _read(self, kind: str, root, traced: bool) -> float:
        from repro.oem.equivalence import identical
        text = self.reads_stream.next(kind)
        started = time.perf_counter()
        with root:
            report = self.repo.query_with_report(text)
        elapsed = time.perf_counter() - started
        label = "refresh" if self.after_write else "read"
        self.latency[label, traced].append(elapsed)
        if not traced:
            self.timed[label].append((elapsed, self.clock.mark()))
        self.after_write = False
        self.routes[report.method] += 1
        answered = self.routes["views"] + self.routes["cache"]
        if report.method != "direct" and answered % CHECK_EVERY == 1:
            if traced:
                self.tracer.uninstall()
            direct = self.repo.query_with_report(text, use_views=False,
                                                 use_cache=False)
            check(identical(report.answer, direct.answer),
                  f"repo-rw: {report.method} route answered {text!r} "
                  f"differently from direct evaluation")
            self.checked += 1
            if traced:
                self.tracer.install()
        return elapsed

    def _write(self, root, traced: bool) -> float:
        pub = _publication(self.seed, self.attempted, self.rng)
        compact = (len(self.acked) + 1) % COMPACT_EVERY == 0
        started = time.perf_counter()
        with root:
            _write(self.repo, pub, compact)
        elapsed = time.perf_counter() - started
        self.latency["write", traced].append(elapsed)
        if not traced:
            self.timed["write"].append((elapsed, self.clock.mark()))
        self.after_write = True
        self.acked.append(pub)
        self.acked_wal = _wal_size(self.repo)
        if traced:
            self.traced_user_bytes += len(json.dumps(pub))
        return elapsed

    def all(self, kind: str) -> list[float]:
        return self.latency[kind, False] + self.latency[kind, True]


def run(seed: int, seconds: float, trace: bool, tracer=None) -> dict:
    """Repeat GROUP until *seconds* of operation time; with *trace*,
    every other group runs with the layer spans installed.  A host
    clock burst follows every group (outside the timed window); the
    reported times are scaled to reference host speed by it."""
    clock = HostClock()
    root = WORK / f"repo-{seed}"
    _build_store(root)
    setup_times = []
    repo = None
    for _ in range(SETUP_REPEATS):
        if repo is not None:
            repo.store.close()
        clock.burst()
        started = time.perf_counter()
        repo = _open(root)
        setup_times.append((time.perf_counter() - started, clock.mark()))
    runner = _Runner(repo, seed, tracer, clock)
    cache_before = repo.cache.stats()
    measured = 0.0
    group = 0
    while measured < seconds:
        traced = trace and group % 2 == 1
        if traced:
            tracer.install()
        for kind in GROUP:
            measured += runner.step(kind, traced)
        if traced:
            tracer.uninstall()
        clock.burst()
        group += 1
    cache_after = repo.cache.stats()
    version = repo.store.version
    repo.store.close()
    _check_durability(root, runner.acked, runner.acked_wal, version)
    shutil.rmtree(root)
    check(runner.checked > 0, "repo-rw: no views/cache read was checked")
    ops = sum(len(runner.all(kind)) for kind in ("read", "refresh", "write"))
    out = {"attempted": runner.attempted, "failed": runner.failed}
    if not trace:
        clock.log("repo-rw")
        reads = clock.scale(runner.timed["read"])
        refreshes = clock.scale(runner.timed["refresh"])
        every = [op for timed in runner.timed.values() for op in timed]
        out["metrics"] = {
            "p50_ms": ms(median(reads)),
            "tail_ms": ms(percentile(reads, TAIL)),
            "side_p50_ms": ms(median(refreshes)),
            "side_tail_ms": ms(percentile(refreshes, SIDE_TAIL)),
            "ops_per_s": ops / sum(clock.scale(every)),
            "setup_s": median(clock.scale(setup_times)),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": (runner.attempted - runner.failed)
            / runner.attempted,
        }
        return out
    traced_ops = [latency for (_, traced), values in runner.latency.items()
                  if traced for latency in values]
    # Traced and untraced groups have the same composition, so their
    # median reads compare like for like.
    out["trace"] = {"ops": len(traced_ops), "op_s": sum(traced_ops),
                    "overhead_frac": median(runner.latency["read", True])
                    / median(runner.latency["read", False]) - 1.0}
    out["layers"] = _layers(runner, tracer, cache_before, cache_after)
    return out


def _layers(runner: _Runner, tracer, before: dict, after: dict) -> dict:
    """Repository and storage figures of the traced run."""
    summary = tracer.summary()
    writes = runner.all("write")
    reads = max(len(runner.all("read")) + len(runner.all("refresh")), 1)
    ops = reads + len(writes)
    routes = runner.routes
    consulted = routes["cache"] + routes["direct"]
    fsyncs = [end - start for name, start, end, _ in tracer.all_spans()
              if name == "wal.fsync"]
    traced_writes = max(len(runner.latency["write", True]), 1)
    compact = summary.get("compact", {})
    return {
        "write.p50_ms": ms(median(writes)),
        "write.tail_ms": ms(percentile(writes, WRITE_TAIL)),
        "repo.route.views": routes["views"] / reads,
        "repo.route.cache": routes["cache"] / reads,
        "repo.route.direct": routes["direct"] / reads,
        # Reads the views could not answer went to the cache first.
        "cache.hit_ratio": routes["cache"] / consulted if consulted
        else 0.0,
        "cache.invalidations": (after["invalidations"]
                                - before["invalidations"]) / ops,
        "cache.patches": (after["patches"] - before["patches"]) / ops,
        "wal.fsync_ms.p50": ms(median(fsyncs)) if fsyncs else 0.0,
        "wal.fsync_ms.p99": ms(percentile(fsyncs, 99)) if fsyncs else 0.0,
        "wal.bytes_per_user_byte": tracer.counts["wal.bytes"]
        / max(runner.traced_user_bytes, 1),
        "compact.runs": compact.get("calls", 0),
        "compact.write_stall_ms": ms(compact.get("total_s", 0.0))
        / traced_writes,
    }
