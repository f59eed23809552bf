"""Sampling math, the span recorder and the load generators.

The load generators call the public ``ServiceClient`` only.  Each records
per-query latency, how late the generator sent each query, failures,
and the ``(query, result)`` pairs that the workload checks for
correctness after the timed window.
"""

import itertools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext

from repro.workload import ClientExecutor, arrival_schedule, percentile


#: samples every round needs before a phase's statistics are taken per
#: round (ten beyond its p90) rather than over all samples
ROUND_SAMPLES = 100


# ----------------------------------------------------------------------
# sample math
# ----------------------------------------------------------------------
def samples_beyond(n, p):
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``p``-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def tail(samples, p=99):
    """``(value, samples beyond it)`` of the nearest-rank percentile;
    a tail with fewer than ten samples beyond it is report-only."""
    return percentile(samples, p), samples_beyond(len(samples), p)


def median(values):
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans ``(name, start, end, parent, trace, span_id)``
    recorded around the benchmark's calls into each layer.

    A disabled tracer records nothing and costs one attribute read per
    span.  Spans nest through an explicit ``parent`` (load threads do
    not inherit the caller's context) or the enclosing ``span()`` of
    the same thread.
    """

    def __init__(self, on):
        self.on = on
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name, parent=None):
        if not self.on:
            return nullcontext()
        return self._span(name, parent)

    @contextmanager
    def _span(self, name, parent):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        trace = parent[1] if parent else sid
        stack.append((sid, trace))
        start = time.perf_counter()
        try:
            yield (sid, trace)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((name, start, end,
                                   parent[0] if parent else None,
                                   trace, sid))

    def self_times(self):
        """``{name: [self seconds]}``: each span's duration minus the
        part of it that its child spans cover."""
        return self_times(self.spans)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, trace, sid in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "trace": trace, "span": sid})
                         + "\n")


def self_times(spans):
    children = {}
    for name, start, end, parent, _trace, _sid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for name, start, end, _parent, _trace, sid in spans:
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.setdefault(name, []).append(end - start - covered)
    return out


# ----------------------------------------------------------------------
# load generators
# ----------------------------------------------------------------------
class Phase:
    """What one load phase observed, round by round."""

    def __init__(self):
        self.rounds = []      # per round: latencies, seconds due -> answer
        self.round_seconds = []
        self.late = []        # seconds the generator sent past due
        self.answers = []     # (query, result)
        self.per_query = []   # batch round trip / batch size, seconds
        self.failed = 0
        self.attempted = 0
        self._lock = threading.Lock()

    def new_round(self):
        self.rounds.append([])
        self.round_seconds.append(0.0)

    def add(self, query, result, latency, late):
        with self._lock:
            self.attempted += 1
            self.rounds[-1].append(latency)
            self.late.append(late)
            self.answers.append((query, result))

    def fail(self):
        with self._lock:
            self.attempted += 1
            self.failed += 1

    @property
    def latencies(self):
        return [x for r in self.rounds for x in r]

    def _per_round(self):
        return min(map(len, self.rounds)) >= ROUND_SAMPLES

    def percentile(self, p):
        """The median over rounds of each round's percentile when every
        round has ``ROUND_SAMPLES``, so that one disturbed round cannot
        move it; else the percentile of all samples."""
        if self._per_round():
            return median(percentile(r, p) for r in self.rounds)
        return percentile(self.latencies, p)

    @property
    def qps(self):
        """Completions per second, by the same rule as percentiles."""
        if self._per_round():
            return median(len(r) / s for r, s in zip(self.rounds,
                                                     self.round_seconds))
        return len(self.latencies) / sum(self.round_seconds)


def _run_threads(targets):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(clients, queries, rate, seconds, seed, tracer, name,
              phase=None):
    """Poisson arrivals at ``rate``/s for ``seconds``, dealt round-robin
    over ``clients`` (one thread each); latency counts from the
    scheduled arrival, so a stall is charged to every query it
    delays."""
    schedule = arrival_schedule(rate, int(rate * seconds), seed=seed)
    phase = Phase() if phase is None else phase
    phase.new_round()
    k = len(clients)

    with tracer.span(name) as parent:
        def connection(i):
            client = clients[i]
            for j in range(i, len(schedule), k):
                due = start + schedule[j]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                query = queries[j % len(queries)]
                sent = time.perf_counter()
                try:
                    with tracer.span("client.query", parent):
                        result = client.query(query).result
                except Exception:
                    phase.fail()
                    continue
                phase.add(query, result, time.perf_counter() - due,
                          max(0.0, sent - due))

        start = time.perf_counter()
        _run_threads([lambda i=i: connection(i) for i in range(k)])
        phase.round_seconds[-1] = time.perf_counter() - start
    return phase


def closed_loop(clients, next_query, seconds, tracer, name, phase=None):
    """Each client sends its next query when the previous one is
    answered, until ``seconds`` have passed.  Lateness is the gap from
    the previous answer to the next send."""
    phase = Phase() if phase is None else phase
    phase.new_round()
    with tracer.span(name) as parent:
        def connection(client):
            due = time.perf_counter()
            while due < stop:
                query = next_query()
                sent = time.perf_counter()
                try:
                    with tracer.span("client.query", parent):
                        result = client.query(query).result
                except Exception:
                    phase.fail()
                    due = time.perf_counter()
                    continue
                done = time.perf_counter()
                phase.add(query, result, done - sent, sent - due)
                due = done

        start = time.perf_counter()
        stop = start + seconds
        _run_threads([lambda c=c: connection(c) for c in clients])
        phase.round_seconds[-1] = time.perf_counter() - start
    return phase


def batch(client, queries, tracer, name, phase=None):
    """One ``ServiceClient.run`` round trip; each query's latency is
    the batch's round trip."""
    phase = Phase() if phase is None else phase
    phase.new_round()
    t0 = time.perf_counter()
    try:
        with tracer.span(name):
            report = client.run(queries)
    except Exception:
        phase.attempted += len(queries)
        phase.failed += len(queries)
        return phase
    wall = time.perf_counter() - t0
    phase.per_query.append(wall / len(queries))
    for env in report.results:
        phase.add(env.query, env.result, wall, 0.0)
    phase.round_seconds[-1] = wall
    return phase


class TimedExecutor(ClientExecutor):
    """A ``ClientExecutor`` whose mutation and burst round trips are
    timed (and traced)."""

    def __init__(self, client, tracer):
        super().__init__(client)
        self.tracer = tracer
        self.mutate_s = []
        self.burst_s = []
        self.bursts = []      # per burst: [(query, result)] of successes
        self.failed = 0
        self.attempted = 0

    def mutate(self, name, edges):
        t0 = time.perf_counter()
        with self.tracer.span("client.mutate_weights"):
            super().mutate(name, edges)
        self.mutate_s.append(time.perf_counter() - t0)

    def run(self, queries):
        t0 = time.perf_counter()
        with self.tracer.span("client.run"):
            out = super().run(queries)
        self.burst_s.append(time.perf_counter() - t0)
        self.bursts.append([(q, value) for q, (ok, value)
                            in zip(queries, out) if ok])
        self.attempted += len(out)
        self.failed += len(out) - len(self.bursts[-1])
        return out
