"""Workload ``serve-mix``: traffic against ``python -m repro serve``.

A ``python -m repro serve`` subprocess runs with its shipped defaults
(plus ``--port 0``), pinned to one core while the load generator uses
the other, and is driven over at most two keep-alive connections.  The
request mix, fixed per block of 20:

* 17 ``/rewrite`` requests over 8 view configurations, the query drawn
  Zipf-skewed from a pool of canonical queries and sent as a fresh
  spelling (variables renamed, conditions reordered).  The pool fits
  the server's 1024-entry session memo: the cache-friendly twin of
  ``rewrite-cold``;
* 1 ``/rewrite`` of a never-seen (cold) query;
* 2 ``/evaluate`` requests over an inline 50-person database.

The view configurations, the hot pool (with its popularity order) and
the sequence of cold queries are the same for every seed, so the cost
of serving them is too; the seed drives the popularity draws, the order
within each block, the spellings and the arrival times.

A measured run warms the memo with every pool query (not measured),
then saturates the server in a closed loop over both connections for
``--seconds``: ``ops_per_s`` is its throughput, ``p50_ms``/``tail_ms``
the latency of all its requests and ``side_*`` that of the hot pool's
rewrites.  The traced run (``--trace 1``) offers the
nominal rate as a seeded Poisson stream, timing each request from the
moment it was *due* (so a stall also charges the requests queued
behind it), climbs a fixed rate ladder for the highest rate whose p90
stays within ``LATENCY_LIMIT_MS`` with no failures and no growing
backlog (``serve.max_rps``), and checks the load generator, refusing a
run in which it ran late.  Every 200 response is checked against a
serial in-process call.
"""

from __future__ import annotations

import bisect
import gc
import http.client
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from calibrate import HostClock
from common import (WORK, SetupError, Zipf, block_schedule, check,
                    child_env, median, ms, peak_rss_mb, percentile, rng_for)
from tracing import attribution_error, counted_metrics, layer_metrics

#: Tail percentiles of the saturation phase: all requests (~3500 in a
#: 30 s run) and the side class (the hot pool's rewrites, 85%).
TAIL = 95
SIDE_TAIL = 95
#: The ladder judges its steps on this percentile.
LADDER_TAIL = 90
CONFIGS = 8
#: Seed of the view configurations, query sets and evaluate database.
CONFIG_SEED = 20261017
POOL_PER_CONFIG = 40
#: Never-seen queries kept per pool query (enough for the saturation
#: batch: one cold request in 20).
COLD_PER_HOT = 2
BLOCK = {"hot": 17, "cold": 1, "evaluate": 2}
EVAL_PEOPLE = 50
CONNECTIONS = 2
#: The server and the load generator each get a core of their own.
SERVER_CPU = 1
CLIENT_CPU = 0
#: Offered load (requests/second) of the nominal phase.
NOMINAL_RPS = 30.0
#: The rate ladder: LADDER_BASE * LADDER_STEP**k, k = 0..LADDER_RUNGS-1.
LADDER_BASE = 24.0
LADDER_STEP = 1.05
LADDER_RUNGS = 40
#: A ladder step passes when its LADDER_TAIL percentile (failures count as
#: misses) stays within this limit and the backlog at its end is at
#: most BACKLOG_LIMIT.
LATENCY_LIMIT_MS = 75.0
BACKLOG_LIMIT = 8
#: The generator refuses a run whose own lateness p99 exceeds this.
GEN_LATENESS_LIMIT_MS = 20.0
#: Traced run: share of --seconds for the nominal phase (the rest is
#: the ladder).
NOMINAL_SHARE = 0.6
#: Upper bound on the closed-loop rate, to size the saturation batch.
SATURATION_CAP_RPS = 200
#: The saturation phase runs in chunks of this many seconds, with a
#: host clock burst on each core between chunks.
CHUNK_S = 2.0
LADDER_STEPS = 5
SETUP_REPEATS = 3
ZIPF_S = 1.0
#: Give up on warm-up requests not sent within this many seconds.
WARMUP_LIMIT_S = 60
#: Kill a server that has not announced its port within this time.
START_LIMIT_S = 60


class RunRefused(SetupError):
    """The run measured the load generator, not the server."""


# -- inputs ----------------------------------------------------------------------

def _respell(query, rng):
    """An alpha-renamed, condition-reordered spelling of *query*."""
    from repro.tsl import print_query
    from repro.tsl.ast import Query
    body = list(query.body)
    rng.shuffle(body)
    renamed = Query(query.head, tuple(body)).rename_apart(
        f"_r{rng.randrange(10 ** 6)}")
    return print_query(renamed)


#: Quoted constants (kept) and variables: capitalized identifiers that
#: are not a source name after ``@``.
_TOKEN_RE = re.compile(r"'[^']*'|(?<!@)\b[A-Z][A-Za-z0-9_]*")


def canonical_text(text: str) -> str:
    """A printed rule up to variable renaming and condition order.

    Tries every order of the (few) body conditions, numbering variables
    by first occurrence, and keeps the smallest result.  Printed
    rewritings are compared as text because those built from set
    mappings carry ``{<...>}`` terms inside oids, which the TSL parser
    does not read back.
    """
    head, _, body = text.partition(" :- ")
    conditions = sorted(set(body.split(" AND ")))
    orders = itertools.permutations(conditions) \
        if len(conditions) <= 5 else [conditions]
    best = None
    for order in orders:
        names: dict[str, str] = {}

        def rename(match):
            token = match.group(0)
            if token.startswith("'") or token == "AND":
                return token
            return names.setdefault(token, f"?{len(names)}")

        candidate = _TOKEN_RE.sub(rename, head + " :- "
                                  + " AND ".join(order))
        if best is None or candidate < best:
            best = candidate
    return best


def rewriting_fingerprint(texts) -> tuple:
    """The rewriting set as sorted canonical texts."""
    return tuple(sorted(canonical_text(text) for text in texts))


def make_inputs() -> dict:
    """View configurations, the hot pool, cold queries, evaluate bodies.

    These are the same for every seed, and so is the cost of serving
    them; the seed drives the request stream (:class:`Stream`).
    """
    from repro.oem.serialize import database_to_json
    from repro.oracle.gen import sample_view
    from repro.rewriting.canon import query_key
    from repro.tsl import print_query
    from repro.workloads.people import generate_people
    from repro.workloads.random_oem import (RandomOemConfig,
                                            RandomQueryConfig,
                                            exposing_view,
                                            generate_random_database,
                                            sample_query)
    fixed = rng_for(CONFIG_SEED, "serve", "pool")
    oem = RandomOemConfig(roots=4, max_depth=3, max_fanout=3)
    shape = RandomQueryConfig(conditions=2, max_depth=3, conjunctive=True)
    configs, hot, cold = [], [], []
    for index in range(CONFIGS):
        base = CONFIG_SEED + 7919 * index
        db = generate_random_database(oem, seed=base)
        views = {}
        for k in range(2):
            views[f"E{k}"] = exposing_view(
                sample_query(db, shape, seed=base + 1 + k), name=f"E{k}")
            view = sample_view(db, seed=base + 11 + k, name=f"W{k}")
            if view is not None:
                views[f"W{k}"] = view
        configs.append({name: print_query(view)
                        for name, view in views.items()})
        seen: set[str] = set()
        queries = []
        for offset in range(2000):
            query = sample_query(db, shape, seed=base + 100 + offset)
            key = query_key(query)
            if key not in seen:
                seen.add(key)
                queries.append(query)
            if len(queries) >= (1 + COLD_PER_HOT) * POOL_PER_CONFIG:
                break
        fixed.shuffle(queries)
        hot.extend((index, q) for q in queries[:POOL_PER_CONFIG])
        cold.extend((index, q) for q in queries[POOL_PER_CONFIG:])
    fixed.shuffle(hot)
    fixed.shuffle(cold)
    people = database_to_json(generate_people(EVAL_PEOPLE,
                                              seed=CONFIG_SEED))
    eval_queries = [
        "<f(P) person {<n(P) last L>}> :- "
        "<P p {<N name {<X last L>}>}>@db",
        "<f(P) reach yes> :- <P p {<A address 'palo alto'>}>@db",
        "<f(P) alias {<a(P) first F>}> :- "
        "<P p {<N name {<A alias {<X first F>}>}>}>@db",
        "<g(P) phone {<h(P) v V>}> :- <P p {<X phone V>}>@db",
    ]
    return {"configs": configs, "hot": hot, "cold": cold,
            "people": people, "eval_queries": eval_queries}


class Request:
    __slots__ = ("kind", "path", "body", "key", "due", "sent", "done",
                 "status", "response", "rid", "lateness")

    def __init__(self, kind, path, body, key):
        self.kind = kind      # "hot" | "cold" | "evaluate" | "warm"
        self.path = path
        self.body = body      # encoded JSON
        self.key = key        # what to check the response against
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.response = b""
        self.rid = ""
        self.lateness = 0.0


def _rewrite_request(kind, inputs, item, rng) -> Request:
    config, query = item
    body = {"query": _respell(query, rng),
            "views": inputs["configs"][config]}
    return Request(kind, "/rewrite", json.dumps(body).encode(),
                   ("rewrite", config, query))


class Stream:
    """The seeded request stream (fixed-composition blocks)."""

    def __init__(self, seed: int, inputs: dict) -> None:
        self.inputs = inputs
        self.rng = rng_for(seed, "serve", "stream")
        self.zipf = Zipf(len(inputs["hot"]), ZIPF_S)
        self.cold = list(inputs["cold"])
        self.block: list[str] = []
        self.evaluations = 0

    def next(self) -> Request:
        if not self.block:
            self.block = block_schedule(self.rng, BLOCK)
        kind = self.block.pop()
        inputs = self.inputs
        if kind == "hot":
            item = inputs["hot"][self.zipf.sample(self.rng)]
            return _rewrite_request(kind, inputs, item, self.rng)
        if kind == "cold":
            if not self.cold:
                raise SetupError("serve-mix: ran out of cold queries")
            return _rewrite_request(kind, inputs, self.cold.pop(), self.rng)
        index = self.evaluations % len(inputs["eval_queries"])
        self.evaluations += 1
        body = {"query": inputs["eval_queries"][index],
                "database": inputs["people"]}
        return Request(kind, "/evaluate", json.dumps(body).encode(),
                       ("evaluate", index))


# -- the server ------------------------------------------------------------------

_PORT_RE = re.compile(rb"serving on http://[^:]+:(\d+)")


class Server:
    """A ``repro serve`` child process on an ephemeral port.

    With *trace_out*, the server runs under :mod:`traced_server`, which
    writes its span summary to that file when the server stops.
    """

    def __init__(self, trace_out=None) -> None:
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable,
                    str(Path(__file__).resolve().parent
                        / "traced_server.py"), str(trace_out)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [*argv, "serve", "--port", "0"], env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=_pin(SERVER_CPU))
        self.log: list[bytes] = []
        self._drain = None
        watchdog = threading.Timer(START_LIMIT_S, self.proc.kill)
        watchdog.start()
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - started

    def _read_port(self) -> int:
        while True:
            line = self.proc.stderr.readline()
            if not line:
                raise SetupError(f"serve-mix: server did not start: "
                                 f"{b''.join(self.log[-5:])!r}")
            self.log.append(line)
            match = _PORT_RE.search(line)
            if match:
                break
        # Keep reading stderr so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()
        return int(match.group(1))

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)
            del self.log[:-50]

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_LIMIT_S
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise SetupError("serve-mix: /healthz never answered 200")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        check(status == 200, f"serve-mix: GET {path} answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate gracefully (SIGTERM) and wait for the process."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self._drain is not None:
            self._drain.join(timeout=30)
        self.proc.stderr.close()


# -- the load generator ----------------------------------------------------------

def drive(port: int, requests: list[Request], gaps: list[float] | None,
          tag: str, until: float | None = None) -> dict:
    """Send *requests* over CONNECTIONS keep-alive connections.

    With *gaps* (open loop) request i is due ``sum(gaps[:i+1])`` after
    the start; without (closed loop) each is due when a connection is
    free.  Records per request: due, sent, done, status, body.  Returns
    the generator's own health: lateness (how late a free connection
    sent a due request) and the largest backlog (requests due but not
    yet sent).
    """
    lock = threading.Lock()
    cursor = [0]
    backlog_max = [0]
    errors: list[BaseException] = []
    start = time.perf_counter() + 0.01
    if gaps is not None:
        due = start
        for request, gap in zip(requests, gaps):
            due += gap
            request.due = due
    dues = [request.due for request in requests]

    def worker(number: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests) or (
                            until is not None
                            and time.perf_counter() >= until):
                        return
                    cursor[0] += 1
                request = requests[index]
                free = time.perf_counter()
                if gaps is None:
                    request.due = free
                else:
                    wait = request.due - free
                    if wait > 0:
                        time.sleep(wait)
                now = time.perf_counter()
                if gaps is not None:
                    # Due but unsent right now, this one included.
                    backlog = _count_due(dues, now) - index
                    with lock:
                        backlog_max[0] = max(backlog_max[0], backlog)
                request.lateness = now - max(request.due, free)
                request.rid = f"{tag}-{index}"
                request.sent = now
                try:
                    conn.request("POST", request.path, body=request.body,
                                 headers={"Content-Type":
                                          "application/json",
                                          "X-Repro-Request-Id":
                                          request.rid})
                    response = conn.getresponse()
                    request.response = response.read()
                    request.status = response.status
                except (OSError, http.client.HTTPException):
                    request.status = -1
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=60)
                request.done = time.perf_counter()
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(n,), daemon=True)
               for n in range(CONNECTIONS)]
    # Keep the generator's own garbage collections short: a full
    # collection over the pre-built requests would make it run late.
    gc.collect()
    gc.freeze()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
            if thread.is_alive():
                raise SetupError("serve-mix: a load thread did not finish")
    finally:
        gc.unfreeze()
    if errors:
        raise errors[0]
    sent = requests[:cursor[0]]
    return {"lateness": [r.lateness for r in sent],
            "backlog_max": backlog_max[0], "sent": sent}


def _count_due(dues: list[float], now: float) -> int:
    return bisect.bisect_right(dues, now)


def poisson_gaps(rng, rate: float, count: int) -> list[float]:
    return [rng.expovariate(rate) for _ in range(count)]


def latencies(requests: list[Request]) -> list[float]:
    """Due-to-done seconds; failed requests count as infinitely late."""
    return [r.done - r.due if r.status == 200 else float("inf")
            for r in requests]


def step_passes(requests: list[Request], backlog_end: int) -> bool:
    values = latencies(requests)
    return (percentile([min(v, 1e9) for v in values], LADDER_TAIL)
            <= LATENCY_LIMIT_MS / 1e3 and backlog_end <= BACKLOG_LIMIT)


# -- output checks ---------------------------------------------------------------

def check_responses(requests: list[Request], inputs: dict) -> None:
    """Each 200 response must match a serial in-process call."""
    from repro.oem.serialize import database_from_json, database_to_json
    from repro.rewriting import rewrite
    from repro.tsl import evaluate, parse_query, print_query
    expected: dict = {}
    for request in requests:
        if request.status != 200:
            continue
        body = json.loads(request.response)
        key = request.key
        if key not in expected:
            if key[0] == "rewrite":
                _, config, query = key
                views = {name: parse_query(text, name=name)
                         for name, text in inputs["configs"][config].items()}
                result = rewrite(query, views)
                expected[key] = rewriting_fingerprint(
                    print_query(q) for q in result.queries)
            else:
                db = database_from_json(inputs["people"])
                answer = evaluate(parse_query(
                    inputs["eval_queries"][key[1]]), db)
                expected[key] = json.dumps(database_to_json(answer),
                                           sort_keys=True)
        if key[0] == "rewrite":
            got = rewriting_fingerprint(r["query"]
                                        for r in body["rewritings"])
        else:
            got = json.dumps(body["answer"], sort_keys=True)
        check(got == expected[key],
              f"serve-mix: {request.path} response {request.rid} differs "
              f"from the serial in-process call")


# -- the run ---------------------------------------------------------------------

def _pin(cpu: int):
    """A pre-exec hook pinning the child to *cpu*, when there is one."""
    if cpu not in os.sched_getaffinity(0):
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def measure_setup(clock: HostClock) -> tuple[list, Server]:
    """Spawn-to-healthy times, as (seconds, clock mark) pairs; returns
    the last server, running."""
    times = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        clock.burst(SERVER_CPU)
        server = Server()
        times.append((server.setup_s, clock.mark()))
    return times, server


def run(seed: int, seconds: float, trace: bool, tracer=None) -> dict:
    if CLIENT_CPU in os.sched_getaffinity(0):
        os.sched_setaffinity(0, {CLIENT_CPU})
    inputs = make_inputs()
    if trace:
        return _run_traced(seed, seconds, inputs)
    clock = HostClock()
    setup, server = measure_setup(clock)
    try:
        return _run(server, seed, seconds, inputs, setup, clock)
    finally:
        server.stop()


def _run(server: Server, seed: int, seconds: float, inputs: dict,
         setup: list, clock: HostClock) -> dict:
    """Warm-up, then the saturation phase for *seconds*; times are
    scaled to reference host speed by *clock*.

    The open-loop nominal phase runs in the traced run only: on a
    shared two-vCPU VM its latencies moved by 0.39 (IQR/median) across
    ten seeds, beyond any end-to-end bound, while the closed loop's
    stayed within 0.15.
    """
    stream = Stream(seed, inputs)
    warm = _warm(server, seed, inputs)
    chunks = saturate(server, stream, seconds, clock)
    rss = server.peak_rss_mb()
    measured = [r for requests, _ in chunks for r in requests]
    check_responses(warm + measured, inputs)
    failed = sum(1 for r in measured if r.status != 200)
    ok = [(r.done - r.due, mark) for requests, (_, mark) in chunks
          for r in requests if r.status == 200]
    # The side class: the hot pool's respelled rewrites.  (The cold
    # rewrites and evaluations, 15% of requests, were tried as the side
    # class; their median moved by 0.26-0.31 IQR/median across seeds.)
    side = [(r.done - r.due, mark) for requests, (_, mark) in chunks
            for r in requests if r.status == 200 and r.kind == "hot"]
    clock.log("serve-mix")
    ok_s, side_s = clock.scale(ok), clock.scale(side)
    loop_s = sum(clock.scale(timed for _, timed in chunks))
    return {"attempted": len(measured), "failed": failed,
            "metrics": {
                "p50_ms": ms(median(ok_s)),
                "tail_ms": ms(percentile(ok_s, TAIL)),
                "side_p50_ms": ms(median(side_s)),
                "side_tail_ms": ms(percentile(side_s, SIDE_TAIL)),
                "ops_per_s": (len(measured) - failed) / loop_s,
                "setup_s": median(clock.scale(setup)),
                "peak_rss_mb": rss,
                "ok_frac": (len(measured) - failed) / len(measured),
            }}


def refuse_late_generator(health: dict) -> None:
    """Refuse a run in which the load generator itself ran late."""
    late = ms(percentile(health["lateness"], 99))
    if late > GEN_LATENESS_LIMIT_MS:
        raise RunRefused(f"serve-mix: load generator ran late (p99 "
                         f"{late:.2f} ms > {GEN_LATENESS_LIMIT_MS} ms)")


def saturate(server: Server, stream: "Stream", seconds: float,
             clock: HostClock):
    """Closed loop over every connection, in whole chunks of CHUNK_S
    seconds until *seconds* have passed, with a host clock burst on
    both cores between them (the server's core idles then).  Returns
    per chunk the requests sent and the chunk's (seconds, clock
    mark)."""
    chunks: list = []
    elapsed = sent = 0
    while elapsed < seconds:
        batch = [stream.next()
                 for _ in range(int(SATURATION_CAP_RPS * CHUNK_S))]
        started = time.perf_counter()
        done = drive(server.port, batch, None, f"sat{sent}",
                     until=started + CHUNK_S)["sent"]
        took = max(r.done for r in done) - started
        chunks.append((done, (took, clock.mark())))
        elapsed += took
        sent += len(done)
        clock.burst(SERVER_CPU)
        clock.burst(CLIENT_CPU)
    _log(f"saturation: {sent} requests, {sent / elapsed:.1f} rps")
    return chunks


def find_max_rps(server: Server, stream: "Stream", rng,
                 seconds: float) -> tuple[float, list]:
    """The highest ladder rate meeting the latency limit.

    Climbs with doubling jumps while steps pass, then bisects between
    the highest passing and the lowest failing rung.  Returns the rate
    (0 when even the lowest rung misses) and the requests sent.
    """
    step_s = seconds / LADDER_STEPS
    low, high = -1, LADDER_RUNGS
    rung, jump = _first_rung(), 2
    sent: list = []
    for step in range(LADDER_STEPS):
        rate = LADDER_BASE * LADDER_STEP ** rung
        count = max(int(rate * step_s), 20)
        batch = [stream.next() for _ in range(count)]
        drive(server.port, batch, poisson_gaps(rng, rate, count),
              f"s{step}")
        sent += batch
        passed = step_passes(batch, _backlog_at_last_due(batch))
        if passed:
            low = rung
        else:
            high = rung
        _log(f"ladder {rate:.1f} rps: {len(batch)} requests, "
             f"p{LADDER_TAIL} "
             f"{ms(percentile(latencies(batch), LADDER_TAIL)):.1f} ms, "
             f"{'pass' if passed else 'miss'}")
        if high - low <= 1:
            break
        if high == LADDER_RUNGS:
            rung, jump = min(low + jump, LADDER_RUNGS - 1), jump * 2
        else:
            rung = (low + high) // 2
    rate = LADDER_BASE * LADDER_STEP ** low if low >= 0 else 0.0
    return rate, sent


def _log(message: str) -> None:
    print(f"serve-mix: {message}", file=sys.stderr)


def _first_rung() -> int:
    """The rung nearest the nominal rate: where the ladder starts."""
    return round(math.log(NOMINAL_RPS / LADDER_BASE, LADDER_STEP))


def _backlog_at_last_due(batch: list[Request]) -> int:
    """Requests not yet sent when the step's last request fell due."""
    last_due = batch[-1].due
    return sum(1 for r in batch if r.sent > last_due)


# -- the traced run --------------------------------------------------------------

def _warm(server: Server, seed: int, inputs: dict) -> list[Request]:
    """Every pool query once, closed loop (not measured)."""
    rng = rng_for(seed, "serve", "warm")
    warm = [_rewrite_request("warm", inputs, item, rng)
            for item in inputs["hot"]]
    return drive(server.port, warm, None, "warm",
                 until=time.perf_counter() + WARMUP_LIMIT_S)["sent"]


def _warm_and_nominal(server: Server, seed: int, seconds: float,
                      inputs: dict, before_nominal=None):
    """Warm the memo, then one nominal-rate phase; returns both."""
    rng = rng_for(seed, "serve", "arrivals")
    stream = Stream(seed, inputs)
    warm = _warm(server, seed, inputs)
    if before_nominal is not None:
        before_nominal()
    count = max(int(NOMINAL_RPS * seconds * NOMINAL_SHARE), 20)
    nominal = [stream.next() for _ in range(count)]
    # Requests still unsent long after the schedule ended count as
    # failed (status 0), so a very slow server cannot stall the run.
    health = drive(server.port, nominal,
                   poisson_gaps(rng, NOMINAL_RPS, count), "nom",
                   until=time.perf_counter() + 3 * count / NOMINAL_RPS + 5)
    _log(f"nominal {NOMINAL_RPS:.0f} rps: {len(nominal)} requests, "
         + ", ".join(f"p{q} {ms(percentile(latencies(nominal), q)):.1f}"
                     for q in (50, 75, 80, 85, 90, 95, 98, 99))
         + f" ms; generator lateness p99 "
         f"{ms(percentile(health['lateness'], 99)):.2f} ms")
    return warm, nominal, health, stream


def _memo_tables(server: Server) -> dict:
    return server.get_json("/debug/cache")["tables"]


def _server_layers(server: Server, nominal: list[Request],
                   tables_before: dict) -> dict:
    """Per-layer figures read from the server's own surfaces.

    Memo figures are deltas over the nominal phase (*tables_before* is
    the ``/debug/cache`` snapshot taken after warm-up).
    """
    records = {r["request_id"]: r for r in
               server.get_json("/debug/requests")["requests"]}
    queued, service, wire = [], [], []
    for request in nominal:
        record = records.get(request.rid)
        if record is None or request.status != 200:
            continue
        total_ms = record["duration_ms"]
        wait_ms = record.get("phases_ms", {}).get("queued", 0.0)
        queued.append(wait_ms)
        service.append(total_ms - wait_ms)
        wire.append(ms(request.done - request.sent) - total_ms)
    check(len(service) >= 20, "serve-mix: flight recorder returned too "
                              "few of the nominal requests")
    tables = {
        name: {field: table[field]
               - tables_before.get(name, {}).get(field, 0)
               for field in ("hits", "misses", "evictions")}
        for name, table in _memo_tables(server).items()}
    hits = sum(t["hits"] for t in tables.values())
    lookups = hits + sum(t["misses"] for t in tables.values())
    result = tables.get("rewrite", {})
    result_lookups = result.get("hits", 0) + result.get("misses", 0)
    shed = timeouts = 0.0
    status, text = server.get("/metrics")
    check(status == 200, "serve-mix: /metrics failed")
    for line in text.decode("utf-8").splitlines():
        if line.startswith("repro_server_shed_total"):
            shed += float(line.split()[-1])
        elif line.startswith("repro_server_requests_total") \
                and 'status="408"' in line:
            timeouts += float(line.split()[-1])
    return {
        "server.queue_wait_ms.p50": median(queued),
        "server.queue_wait_ms.p99": percentile(queued, 99),
        "server.service_ms.p50": median(service),
        "server.service_ms.p99": percentile(service, 99),
        "server.wire_ms.p50": median(wire),
        "server.shed": shed,
        "server.timeouts": timeouts,
        "memo.hit_ratio": hits / lookups if lookups else 0.0,
        "memo.result_hit_ratio": result.get("hits", 0) / result_lookups
        if result_lookups else 0.0,
        "memo.evictions": float(sum(t["evictions"]
                                    for t in tables.values())),
    }


def _run_traced(seed: int, seconds: float, inputs: dict) -> dict:
    """Untraced then traced server over the same warm-up + nominal phase.

    The untraced server supplies the figures the server reports about
    itself; the traced one runs under :mod:`traced_server` and supplies
    the layer spans of the nominal phase (warm-up spans are discarded).
    """
    server = Server()
    before: dict = {}
    try:
        warm, nominal, health, stream = _warm_and_nominal(
            server, seed, seconds, inputs,
            before_nominal=lambda: before.update(_memo_tables(server)))
        refuse_late_generator(health)
        layers = _server_layers(server, nominal, before)
        nominal_ok = [r.done - r.due for r in nominal if r.status == 200]
        layers["serve.nominal_p50_ms"] = ms(median(nominal_ok))
        layers["serve.nominal_p90_ms"] = ms(percentile(nominal_ok, 90))
        max_rps, ladder = find_max_rps(
            server, stream, rng_for(seed, "serve", "ladder"),
            seconds * (1 - NOMINAL_SHARE))
    finally:
        server.stop()
    check_responses(warm + nominal + ladder, inputs)
    layers["serve.max_rps"] = max_rps
    WORK.mkdir(exist_ok=True)
    out = WORK / f"serve-trace-{seed}.json"
    traced = Server(trace_out=out)

    def reset_spans() -> None:
        os.kill(traced.proc.pid, signal.SIGUSR1)
        time.sleep(0.2)

    try:
        _, traced_nominal, _, _ = _warm_and_nominal(
            traced, seed, seconds, inputs, before_nominal=reset_spans)
    finally:
        traced.stop()
    check_responses(traced_nominal, inputs)
    report = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    summary = report["summary"]
    op_s = summary.get("request", {}).get("total_s", 0.0)
    layers["trace.attribution_error"] = attribution_error(summary, op_s)
    ops = len(traced_nominal)
    layers.update(layer_metrics(summary, ops))
    layers.update(counted_metrics(Counter(report["counts"]), ops))
    lateness = ms(percentile(health["lateness"], 99))
    layers["gen.lateness_ms.p99"] = lateness
    layers["gen.backlog_max"] = float(health["backlog_max"])

    def mean_latency(requests):
        done = [r.done - r.due for r in requests if r.status == 200]
        return sum(done) / len(done)

    failed = sum(1 for r in nominal + traced_nominal if r.status != 200)
    return {"attempted": len(nominal) + len(traced_nominal),
            "failed": failed,
            "trace": {"local": False, "ops": ops, "op_s": op_s,
                      "overhead_frac": mean_latency(traced_nominal)
                      / mean_latency(nominal) - 1.0},
            "layers": layers}
