"""Served-stack benchmark for the planar max-flow reproduction.

    python3 stackbench/run.py --workload warm-distance --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  It starts the served stack (a
``WarmWorkerPool`` of 2 workers behind a ``QueryServer``, with
``repro.obs`` off) as a child process, drives it through the public
``ServiceClient``, checks every answer against an independent
reference outside the timed window, and prints a report whose last
line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats
the timed window with the benchmark's spans on and reports per-layer
numbers instead (see ``anatomy.py``), and writes the spans to
``.stackbench/``.  The exit code is 0 only for a complete, correct run
after which no process it started is alive.
"""

import argparse
import json
import os
import platform
import signal
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


def host_record(**extra):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "loadavg_before": os.getloadavg(),
            **extra}


def _interrupt(signum, _frame):
    # one interrupt stops the run; later ones must not cut the clean-up
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise KeyboardInterrupt(f"signal {signum}")


def run(workload, tracer, token):
    """Set up, run the timed window, measure; returns
    ``(end-to-end metrics, per-layer metrics or None)``."""
    import anatomy
    import measure
    import workloads
    from stack import Stack, pss_mb

    def new_stack():
        return Stack(token, workload.graph_name, workload.spec)

    setups = []
    for _ in range(0 if tracer.on else SETUPS - 1):
        with new_stack() as stack:
            setups.append(stack.start())
    with new_stack() as stack:
        setups.append(stack.start())
        clients = [stack.client()
                   for _ in range(workloads.BUSY_CONNECTIONS)]
        try:
            workload.prepare(clients[0])
            if tracer.on:
                layers = overhead(workload, clients, tracer)
            with tracer.span("timed"):
                metrics = workload.timed(clients, tracer)
            metrics["pss_mb"] = pss_mb(stack.pids())
            metrics["setup_s"] = measure.median(setups)
            if tracer.on:
                served, pairs = anatomy.served(
                    workload, clients[0], tracer, workload.read_phases())
                layers.update(served)
        finally:
            for c in clients:
                c.close()
    if not tracer.on:
        return metrics, None
    layers.update(anatomy.in_process(workload, tracer, pairs))
    anatomy.explain(layers)
    replay = tracer.self_times()["phase.replay"]
    layers["workload.replay_self_ms"] = measure.median(replay) * 1e3
    return metrics, layers


def overhead(workload, clients, tracer):
    """Tracing overhead: one closed loop in rounds alternating spans
    off and on; the difference of the median per-query latencies."""
    import measure
    import workloads

    pair = clients[:workloads.CONNECTIONS]
    lock = measure.threading.Lock()

    def next_query():
        with lock:
            return workload.overhead_query()

    off, on = measure.Phase(), measure.Phase()
    for _ in range(4):      # alternate, so that host drift hits both
        for phase, traced in ((off, False), (on, True)):
            tracer.on = traced
            measure.closed_loop(pair, next_query, 0.05 * workload.seconds,
                                tracer, "overhead", phase=phase)
    workload.extra_answers += off.answers + on.answers
    base = measure.median(off.latencies)
    delta = measure.median(on.latencies) - base
    return {"trace.overhead_us": delta * 1e6,
            "trace.overhead_share": delta / base}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("stackbench: run from the repository root (src/repro "
              "not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import measure
    import stack
    import workloads
    from repro.errors import ReproError

    if args.workload not in workloads.WORKLOADS:
        print(f"stackbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    alive = stack.marked()
    if alive:
        print(f"stackbench: a benchmark server is still alive "
              f"(pids {alive}); refusing to start", file=sys.stderr)
        return 3

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    host = host_record(workers=stack.WORKERS,
                       connections=workloads.CONNECTIONS,
                       busy_connections=workloads.BUSY_CONNECTIONS)
    token = f"stackbench-{os.getpid()}-{time.monotonic_ns()}"
    tracer = measure.Tracer(on=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    code, result = 1, None
    try:
        metrics, layers = run(workload, tracer, token)
        host["loadavg_after"] = os.getloadavg()
        try:
            workload.check()
            correct = True
        except (AssertionError, ReproError) as exc:
            print(f"stackbench: wrong answer: {exc}", file=sys.stderr)
            correct = False
        if tracer.on:
            os.makedirs(workloads.CACHE_DIR, exist_ok=True)
            tracer.dump(os.path.join(
                workloads.CACHE_DIR,
                f"spans-{args.workload}-s{args.seed}.ndjson"))
        chosen = layers if tracer.on else metrics
        result = {"correct": correct, "attempted": workload.attempted,
                  "failed": workload.failed,
                  "metrics": {k: {"value": v, "unit": unit_of(k)}
                              for k, v in sorted(chosen.items())}}
        code = 0 if correct and workload.failed == 0 else 1
    except KeyboardInterrupt:
        print("stackbench: interrupted", file=sys.stderr)
        code = 130
    except stack.StackError as exc:
        print(f"stackbench: {exc}", file=sys.stderr)
        code = 4
    finally:
        left = stack.descendants() + stack.marked(token)
        if left:
            print(f"stackbench: processes outlived the run: "
                  f"{sorted(set(left))}", file=sys.stderr)
            code = code or 4
            result = None
    if result is not None:
        print(json.dumps({"host": host,
                          "report_only": workload.report_only}))
        print(json.dumps(result))
    return code


def unit_of(name):
    suffix = name.rsplit("_", 1)[-1]
    return {"s": "s", "ms": "ms", "us": "us", "qps": "1/s", "mb": "MiB",
            "share": "ratio", "ratio": "ratio", "skew": "ratio",
            "dropped": "count"}[suffix]


if __name__ == "__main__":
    sys.exit(main())
