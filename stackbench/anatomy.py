"""Per-layer numbers for the traced run.

Each layer's public call is timed under its own span, in this process,
on a fresh copy of the workload's graph; the served stack contributes
the full-stack round trip and the workers' counters.  Layer numbers are
medians of span self times, so they come from the same records that
``--trace 1`` writes out.

The anatomy of a warm DistanceQuery adds up as

    roundtrip ~ catalog.serve + pool.self + server.self + wire.frame

where ``pool.self`` is ``WarmWorkerPool.submit(q).result()`` minus the
catalog serve, and ``server.self`` is ``ServiceClient.query`` through a
``workers=0`` server minus the serve and the codecs.
``anatomy.unexplained_share`` is how far that sum is from the measured
full-stack round trip.
"""

import measure
import stack

#: repetitions of the microsecond-scale layer calls
REPS = 300
#: repetitions of the cold, ~0.2 s layer calls
COLD_REPS = 4
#: weight mutations applied to the in-process catalog and pool
MUTATIONS = 2

#: layer metric -> the span whose median self time it reports
SPANS = {
    "bdd.build_s": "bdd.build",
    "labeling.build_s": "labeling.build",
    "pool.prewarm_s": "pool.prewarm",
    "pool.start_s": "pool.start",
    "labeling.decode_us": "labeling.decode",
    "catalog.fingerprint_us": "catalog.fingerprint",
    "catalog.serve_us": "catalog.serve",
    "obs.serve_on_us": "obs.serve_on",
    "wire.frame_us": "wire.frame",
    "pool.submit_us": "pool.submit",
    "engine.flow_solve_ms": "engine.flow_solve",
    "engine.cut_ms": "engine.cut",
    "catalog.cold_serve_ms": "catalog.cold_serve",
    "wire.result_ms": "wire.result",
    "pool.submit_ms": "pool.submit_cold",
    "pool.mutate_ms": "pool.mutate",
    "catalog.mutate_ms": "catalog.mutate",
}


def _median_us(tracer, name):
    return measure.median(tracer.self_times()[name]) * 1e6


def distance_pairs(workload, count=64):
    from repro.service.queries import DistanceQuery

    hot = getattr(workload, "hot", None)
    if hot:
        return hot[:count]
    nf = workload.graph.num_faces()
    return [DistanceQuery(workload.graph_name,
                          *workload.new_pair(nf, "anatomy"))
            for _ in range(count)]


def served(workload, client, tracer, phases):
    """Layer numbers read off the workload's own served stack, after
    its timed window."""
    stats = client.stats()
    catalogs = stats["catalogs"].values()
    done = [w["completed"] for w in stats["occupancy"]]

    def ratio(kind):
        hits = sum(c[kind]["hits"] for c in catalogs)
        return hits / max(1, hits + sum(c[kind]["misses"]
                                        for c in catalogs))

    late = [x for p in phases for x in p.late]
    out = {"catalog.result_hit_ratio": ratio("results"),
           "catalog.artifact_hit_ratio": ratio("artifacts"),
           "pool.worker_skew": max(done) / max(1, min(done)),
           "workload.late_p99_ms": measure.percentile(late, 99) * 1e3}
    pairs = distance_pairs(workload)
    for _ in range(4):             # every worker caches every pair
        client.run(pairs)
    for i in range(REPS):
        with tracer.span("client.roundtrip"):
            client.query(pairs[i % len(pairs)])
    out["client.roundtrip_us"] = _median_us(tracer, "client.roundtrip")
    return out, pairs


def in_process(workload, tracer, pairs):
    """Layer numbers from calls made in this process."""
    from repro import obs
    from repro.bdd import build_bdd
    from repro.core import min_st_cut
    from repro.server import QueryServer, ServiceClient, WarmWorkerPool
    from repro.server import wire
    from repro.service.catalog import GraphCatalog
    from repro.service.queries import FlowQuery
    from repro.workload import MutateWeights

    T = tracer
    name, spec = workload.graph_name, workload.spec
    out = {}

    # set-up layers
    with T.span("bdd.build"):
        build_bdd(spec.build(), backend="engine")
    catalog = GraphCatalog()
    catalog.register(name, spec.build())
    entry = catalog.get(name)
    with T.span("labeling.build"):
        labeling = entry.labeling()

    # warm-query layers
    for q in pairs:
        catalog.serve(q)
    for i in range(REPS):
        q = pairs[i % len(pairs)]
        with T.span("labeling.decode"):
            labeling.distance(q.f, q.g)
        with T.span("catalog.fingerprint"):
            entry.fingerprint()
        with T.span("catalog.serve"):
            catalog.serve(q)
    obs.enable()
    try:
        for i in range(REPS):
            with T.span("obs.serve_on"):
                catalog.serve(pairs[i % len(pairs)])
    finally:
        obs.reset()
    q = pairs[0]

    def codecs(query, result, span):
        with T.span(span):
            request = wire.encode_frame(
                {"v": wire.PROTOCOL_VERSION, "id": 1, "verb": "query",
                 "query": wire.query_to_wire(query)})
            wire.query_from_wire(wire.decode_frame(request)["query"])
            response = {"v": wire.PROTOCOL_VERSION, "id": 1, "ok": True}
            response.update(wire.query_result_to_wire(result))
            wire.query_result_from_wire(
                query, wire.decode_frame(wire.encode_frame(response)))

    for _ in range(REPS):
        codecs(q, catalog.serve(q), "wire.frame")

    # cold-query layers
    n = entry.graph.n
    solver = entry.flow_solver()
    for _ in range(COLD_REPS):
        s, t = workload.new_pair(n, "anatomy")
        with T.span("engine.flow_solve"):
            solver.solve(s, t)
        with T.span("engine.cut"):
            min_st_cut(entry.graph, s, t, backend="engine",
                       solver=solver)
        flow = FlowQuery(name, *workload.new_pair(n, "anatomy"))
        with T.span("catalog.cold_serve"):
            result = catalog.serve(flow)
        codecs(flow, result, "wire.result")

    # pool layers: a pool forked from this process, as the server does
    pool = WarmWorkerPool(workers=stack.WORKERS)
    try:
        pool.register(name, spec.build())
        with T.span("pool.prewarm"):
            pool.prewarm(kinds=stack.PREWARM)
        with T.span("pool.start"):
            pool.start()
        for _ in range(4):
            pool.run(pairs)
        for i in range(REPS):
            with T.span("pool.submit"):
                pool.submit(pairs[i % len(pairs)]).result()
        batch = (pairs * (400 // len(pairs) + 1))[:400]
        for _ in range(3):
            with T.span("pool.batch"):
                pool.run(batch)
        for _ in range(COLD_REPS):
            flow = FlowQuery(name, *workload.new_pair(n, "anatomy"))
            with T.span("pool.submit_cold"):
                pool.submit(flow).result()
        mutations = [e for e in workload.scenario.events
                     if isinstance(e, MutateWeights)][:MUTATIONS]
        for event in mutations:
            with T.span("pool.mutate"):
                pool.mutate_weights(name, dict(event.edges))
            pool.drain()
    finally:
        pool.close()

    # the server layer alone: ServiceClient -> QueryServer, workers=0
    pool0 = WarmWorkerPool(workers=0, catalog=catalog).start()
    server0 = QueryServer(pool0).start_background()
    try:
        with ServiceClient(*server0.address) as client0:
            for i in range(REPS):
                with T.span("server.roundtrip"):
                    client0.query(pairs[i % len(pairs)])
    finally:
        server0.shutdown()
        pool0.close()

    # the write path on the in-process catalog (labels and results held)
    dirty = repaired = dropped = 0.0
    for event in mutations:
        with T.span("catalog.mutate"):
            report = catalog.mutate_weights(name, dict(event.edges))
        for row in report["labelings"]:
            # over the dirty-bag threshold the labels are dropped, not
            # repaired, and the row has no repair counts
            dirty += row["dirty_bags"] / row["total_bags"]
            repaired += ((row.get("repaired_leaves", 0)
                          + row.get("repaired_internal", 0))
                         / row["total_bags"])
        dropped += report["results_dropped"]

    scale = {"s": 1e-6, "ms": 1e-3, "us": 1.0}
    for key, span in SPANS.items():
        out[key] = _median_us(T, span) * scale[key.rsplit("_", 1)[1]]
    out["pool.batch_query_us"] = _median_us(T, "pool.batch") / len(batch)
    out["pool.self_us"] = out["pool.submit_us"] - out["catalog.serve_us"]
    out["server.self_us"] = (_median_us(T, "server.roundtrip")
                             - out["catalog.serve_us"]
                             - out["wire.frame_us"])
    out["labeling.dirty_bag_share"] = dirty / len(mutations)
    out["labeling.repaired_share"] = repaired / len(mutations)
    out["catalog.results_dropped"] = dropped / len(mutations)
    return out


def explain(layers):
    """Add ``anatomy.unexplained_share``: how far the layer sum is
    from the full-stack round trip."""
    parts = (layers["catalog.serve_us"] + layers["pool.self_us"]
             + layers["server.self_us"] + layers["wire.frame_us"])
    rt = layers["client.roundtrip_us"]
    layers["anatomy.unexplained_share"] = abs(parts - rt) / rt
    return layers
