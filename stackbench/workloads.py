"""The two workloads: inputs from the seed, timed phases, checks.

Both run the same kinds of phase against their own served stack and
report every end-to-end metric; README.md maps each metric to the phase
that measures it on each workload.
"""

import dataclasses
import hashlib
import heapq
import itertools
import os
import random

from repro.service.queries import DistanceQuery, FlowQuery
from repro.workload import (
    MutateWeights,
    QueryBurst,
    assert_replay_parity,
    evacuation_scenario,
    reference_replay,
    replay_scenario,
)

import measure

#: connections of the normal-load phases
CONNECTIONS = 2
#: connections of the busy phase: a queue on 2 workers
BUSY_CONNECTIONS = 4
#: distinct warm DistanceQuery pairs; fits the 4096-entry result cache
HOT_PAIRS = 512
#: open-loop rates, fixed near 1/6 and 1/3 of the warm stack's
#: two-connection closed-loop throughput (~2200-2900 queries/s on a
#: 2-core x86-64 host); nearer that capacity queueing amplifies every
#: hiccup of the host.  Even the high rate amplifies it too much to
#: gate on (its p50 moved 0.74 IQR/median over ten runs while the
#: closed loops moved 0.26), so that phase is report-only.
LOW_RATE = 400.0
HIGH_RATE = 800.0
#: interleaved rounds of the read phases
ROUNDS = 8
#: independent query streams, one per consumer, so that a seed gives
#: the same queries to each phase however many the others used
STREAMS = ("closed", "busy", "batch", "burst", "overhead", "anatomy")
#: the evacuation scenario -- graph, weights and mutation schedule -- is
#: the same for every ``--seed``, which picks the traffic: per-seed
#: weights change whether a mutation repairs or drops the labels, and
#: so move the write-path metrics by far more than a change under test
SCENARIO_SEED = 7
#: where reference replay digests are cached, per scenario
CACHE_DIR = ".stackbench"


class Divergence(AssertionError):
    """A served answer differs from its independent reference."""


# ----------------------------------------------------------------------
# references, computed in this process from the same seed
# ----------------------------------------------------------------------
def dual_distances(graph, sources):
    """``{source: {face: distance}}`` by Dijkstra over the dual arcs,
    under the lengths a DistanceQuery uses (the edge weight on plus
    darts, 0 on reverse darts)."""
    from repro.planar.dual import DualGraph

    adj = {}
    for _dart, tail, head, length in DualGraph(graph).arcs():
        adj.setdefault(tail, []).append((head, length))
    out = {}
    for source in sources:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, length in adj.get(u, ()):
                if d + length < dist.get(v, d + length + 1):
                    dist[v] = d + length
                    heapq.heappush(heap, (d + length, v))
        out[source] = dist
    return out


def check_answers(graph, answers):
    """Distances equal the Dijkstra reference; flows are feasible and
    their value, like each cut's capacity, equals the centralized
    Edmonds-Karp max-flow value."""
    from repro.baselines import centralized_max_flow
    from repro.core.flow_utils import validate_flow

    sources = {q.f for q, _ in answers if isinstance(q, DistanceQuery)}
    ref = dual_distances(graph, sources)
    values = {}
    for q, r in answers:
        if isinstance(q, DistanceQuery):
            if r != ref[q.f][q.g]:
                raise Divergence(f"{q}: served {r}, reference "
                                 f"{ref[q.f][q.g]}")
            continue
        if (q.s, q.t) not in values:
            values[q.s, q.t] = centralized_max_flow(graph, q.s, q.t)[0]
        if isinstance(q, FlowQuery):
            validate_flow(graph, q.s, q.t, r.flow, r.value)
            got = r.value
        else:
            got = sum(graph.capacities[e] for e in r.cut_edge_ids)
        if got != r.value or got != values[q.s, q.t]:
            raise Divergence(f"{q}: served {r.value} (capacity {got}), "
                             f"reference {values[q.s, q.t]}")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """A served graph from the evacuation scenario, this workload's
    seeded traffic, and a replay of the scenario's mutations."""

    name = ""
    rows = cols = 32
    epochs = 8
    #: queries per batch of the batch phase
    batch_size = 24
    #: share of ``--seconds`` spent in the read phases
    read_share = 0.6

    def __init__(self, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.rngs = {name: random.Random(
            f"stackbench-{self.name}-{name}-{seed}") for name in STREAMS}
        self.scenario = evacuation_scenario(
            rows=self.rows, cols=self.cols, seed=SCENARIO_SEED,
            epochs=self.epochs, queries_per_epoch=24,
            edges_per_epoch=10)
        ((self.graph_name, self.spec),) = self.scenario.graphs
        self.graph = self.spec.build()
        self.used = set()
        self.attempted = self.failed = 0
        self.extra_answers = []   # untimed, against the initial weights
        self.report_only = {}

    # traffic -----------------------------------------------------------
    def new_pair(self, n, stream):
        """A pair from ``range(n)`` that ``stream`` never drew before.
        Each stream's first element lies in its own residue class, so
        no two streams draw the same pair and each stream's sequence
        does not depend on how far the others got."""
        rng, k = self.rngs[stream], STREAMS.index(stream)
        while True:
            a = rng.randrange(n // len(STREAMS)) * len(STREAMS) + k
            b = rng.randrange(n)
            if a != b and (n, a, b) not in self.used:
                self.used.add((n, a, b))
                return a, b

    def read_query(self, stream):
        """A new DistanceQuery, decoded from the repaired labels (flows
        read capacities, which the scenario leaves alone)."""
        f, g = self.new_pair(self.graph.num_faces(), stream)
        return DistanceQuery(self.graph_name, f, g)

    def overhead_query(self):
        return self.read_query("overhead")

    def replay_scenario(self):
        return self.scenario

    # phases ------------------------------------------------------------
    def prepare(self, client):
        """Untimed: bring the stack to the state the timing assumes."""

    def phases(self):
        """The read phases by metric; here the light phase is the
        two-connection closed loop."""
        closed = measure.Phase()
        return {"light": closed, "busy": measure.Phase(),
                "closed": closed, "batch": measure.Phase()}

    def reads(self, clients, tracer):
        """Run the read phases as ``ROUNDS`` interleaved rounds, so each
        metric samples the whole timed window rather than one stretch
        of it."""
        phases = self.phases()
        step = self.read_share * self.seconds / ROUNDS
        for r in range(ROUNDS):
            self.read_round(r, clients, tracer, step, phases)
        return phases

    def read_round(self, r, clients, tracer, seconds, phases):
        lock = measure.threading.Lock()

        def queries(stream):
            def next_query():
                with lock:
                    return self.read_query(stream)
            return next_query

        measure.closed_loop(clients[:CONNECTIONS], queries("closed"),
                            seconds / 2, tracer, "phase.closed",
                            phase=phases["closed"])
        measure.closed_loop(clients[:BUSY_CONNECTIONS], queries("busy"),
                            seconds / 2, tracer, "phase.busy",
                            phase=phases["busy"])
        measure.batch(clients[0], [self.read_query("batch")
                                   for _ in range(self.batch_size)],
                      tracer, "phase.batch", phase=phases["batch"])

    def replay(self, client, tracer):
        scenario = self.replay_scenario()
        executor = measure.TimedExecutor(client, tracer)
        with tracer.span("phase.replay"):
            t0 = measure.time.perf_counter()
            log = replay_scenario(scenario, executor, audit=False)
            seconds = measure.time.perf_counter() - t0
        return scenario, executor, log, seconds

    def timed(self, clients, tracer):
        """Run the timed window; returns its end-to-end metrics."""
        replay = self.replay(clients[0], tracer)
        reads = self.reads(clients, tracer)
        return self.finish(reads, replay)

    def finish(self, reads, replay):
        scenario, executor, _log, seconds = replay
        self.reads_done, self.replay_done = reads, replay
        for phase in self.read_phases():
            self.attempted += phase.attempted
            self.failed += phase.failed
        self.attempted += executor.attempted + sum(
            isinstance(e, MutateWeights) for e in scenario.events)
        self.failed += executor.failed
        light, busy = reads["light"], reads["busy"]
        # printed, not gated: tails and a few short round trips per run
        # move with host noise by more than the largest allowed bound
        self.report_only.update({
            "query_p90_ms": light.percentile(90) * 1e3,
            "busy_p90_ms": busy.percentile(90) * 1e3,
            "mutate_p50_ms": measure.median(executor.mutate_s) * 1e3,
            "burst_p50_ms": measure.median(executor.burst_s) * 1e3})
        if "high" in reads:
            self.report_only.update({
                "high_p50_ms": reads["high"].percentile(50) * 1e3,
                "high_p90_ms": reads["high"].percentile(90) * 1e3})
        for name in (n for n in reads if n != "batch"):
            value, beyond = measure.tail(reads[name].latencies)
            self.report_only[f"{name}_p99_ms"] = value * 1e3
            self.report_only[f"{name}_beyond_p99"] = beyond
            self.report_only[f"{name}_samples"] = len(
                reads[name].latencies)
        return {
            "query_p50_ms": light.percentile(50) * 1e3,
            "busy_p50_ms": busy.percentile(50) * 1e3,
            "throughput_qps": reads["closed"].qps,
            "batch_query_us": measure.median(reads["batch"].per_query)
            * 1e6,
            "replay_s": seconds,
        }

    def read_phases(self):
        """The distinct read phases (light may be the closed loop)."""
        return list({id(p): p
                     for p in self.reads_done.values()}.values())

    # correctness ---------------------------------------------------------
    def replay_graphs(self, scenario, executor):
        """``(graph state, answers)`` for each burst of the replay."""
        graph = self.spec.build()
        bursts = iter(executor.bursts)
        for event in scenario.events:
            if isinstance(event, MutateWeights):
                for eid, w in event.edges:
                    graph.weights[eid] = w
            else:
                yield graph, next(bursts)

    def check(self):
        """Raise on any answer that differs from its reference."""
        scenario, executor, log, _seconds = self.replay_done
        final = None
        for graph, answers in self.replay_graphs(scenario, executor):
            check_answers(graph, answers)
            final = graph
        reads = [a for p in self.read_phases() for a in p.answers]
        check_answers(self.read_graph(final), reads)
        check_answers(self.graph, self.extra_answers)
        if scenario is self.scenario \
                and log.digest() != cached_digest(scenario):
            # a divergence, or a digest cached from other code: a fresh
            # reference decides, and replaces the cached digest
            reference = reference_replay(scenario, audit=False)
            assert_replay_parity(log, reference)
            store_digest(scenario, reference.digest())

    def read_graph(self, final):
        """The weights the read phases ran under."""
        return final


class WarmDistance(Workload):
    """Warm DistanceQuery hits: transport dominates."""

    name = "warm-distance"
    rows = cols = 48
    #: the first two of the eight narrow-band mutations: each repairs
    #: the labels in the master and in every worker (~1.5 s at 48x48)
    replay_epochs = 2
    batch_size = 400
    read_share = 0.8

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        nf = self.graph.num_faces()
        hot = random.Random(f"stackbench-{self.name}-hot-{seed}")
        self.hot = [DistanceQuery(self.graph_name, f, g)
                    for f in hot.sample(range(nf), 16)
                    for g in hot.sample(range(nf), HOT_PAIRS // 16)]
        hot.shuffle(self.hot)
        self.kept = tuple(FlowQuery(self.graph_name,
                                    *self.new_pair(self.graph.n, "burst"))
                          for _ in range(8))

    def overhead_query(self):
        return self.rngs["overhead"].choice(self.hot)

    def replay_scenario(self):
        """The scenario's first ``replay_epochs`` mutations, each
        followed by the kept flows, which every worker has answered: a
        weight mutation migrates their results, so they stay warm (a
        distance burst would time label repair twice over)."""
        events = tuple(
            dataclasses.replace(e, queries=self.kept)
            if isinstance(e, QueryBurst) else e
            for e in self.scenario.events[1:1 + 2 * self.replay_epochs])
        return dataclasses.replace(self.scenario, events=events)

    def prepare(self, client):
        """Serve the hot set, then the kept flows, until every worker's
        result cache holds them."""
        shuffle = random.Random(self.seed)
        target = 0
        for queries in (self.hot, self.kept):
            target += len(queries)
            for _ in range(60):
                client.run(shuffle.sample(queries, len(queries)))
                sizes = [c["results"]["size"]
                         for c in client.stats()["catalogs"].values()]
                if min(sizes) >= target:
                    break
            else:
                raise RuntimeError(f"worker result caches did not "
                                   f"warm: {sizes}")

    def phases(self):
        return {name: measure.Phase()
                for name in ("light", "high", "busy", "closed", "batch")}

    def read_round(self, r, clients, tracer, seconds, phases):
        pair = clients[:CONNECTIONS]
        measure.open_loop(pair, self.hot, LOW_RATE, 0.3 * seconds,
                          f"{self.seed}-{r}-low", tracer, "phase.light",
                          phase=phases["light"])
        measure.open_loop(pair, self.hot, HIGH_RATE, 0.2 * seconds,
                          f"{self.seed}-{r}-high", tracer, "phase.high",
                          phase=phases["high"])
        counter = itertools.count()

        def next_hot():
            return self.hot[next(counter) % HOT_PAIRS]

        measure.closed_loop(pair, next_hot, 0.25 * seconds, tracer,
                            "phase.closed", phase=phases["closed"])
        measure.closed_loop(clients[:BUSY_CONNECTIONS], next_hot,
                            0.25 * seconds, tracer, "phase.busy",
                            phase=phases["busy"])
        start = r * HOT_PAIRS // ROUNDS
        measure.batch(clients[0],
                      (self.hot[start:] + self.hot[:start])[
                          :self.batch_size],
                      tracer, "phase.batch", phase=phases["batch"])

    def timed(self, clients, tracer):
        reads = self.reads(clients, tracer)
        replay = self.replay(clients[0], tracer)
        return self.finish(reads, replay)

    def read_graph(self, final):
        return self.graph


class EvacuationChurn(Workload):
    """The evacuation scenario's mutations and bursts, then reads."""

    name = "evacuation-churn"


def _digest_path(scenario):
    key = hashlib.sha256(scenario.encode()).hexdigest()[:24]
    return os.path.join(CACHE_DIR, f"reference-{key}.digest")


def cached_digest(scenario):
    """The ``reference_replay(audit=False)`` digest cached for
    ``scenario`` under ``CACHE_DIR`` in the working directory, or None.
    It is only a shortcut: ``check`` re-derives the reference whenever
    a replay does not match it."""
    try:
        with open(_digest_path(scenario)) as fh:
            return fh.read().strip()
    except FileNotFoundError:
        return None


def store_digest(scenario, digest):
    path = _digest_path(scenario)
    os.makedirs(CACHE_DIR, exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        fh.write(digest + "\n")
    os.replace(path + ".tmp", path)


WORKLOADS = {w.name: w for w in (WarmDistance, EvacuationChurn)}
