"""The served stack under test: one ``WarmWorkerPool`` behind one
``QueryServer``, started by ``run.py`` as a child process.

    python3 stackbench/server.py --token T --name G \\
        --spec grid,48,48,SEED,1,20

It builds the graph from its ``GraphSpec`` fields, registers it,
prewarms the artifact kinds of ``stack.PREWARM``, forks the pool workers, listens on
an ephemeral port and prints ``listening HOST PORT`` as its first
stdout line.  It stops -- always through ``QueryServer.shutdown()`` and
``WarmWorkerPool.close()`` -- when stdin reaches EOF (the parent closed
it or died), or on SIGINT or SIGTERM.  A forked worker inherits the
signal handlers; one that receives a signal directly dies of it instead
of ignoring it, so no signal leaves a worker behind.
"""

import argparse
import os
import signal
import sys
import threading

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from repro.server import QueryServer, WarmWorkerPool  # noqa: E402
from repro.workload import GraphSpec  # noqa: E402
from stack import PREWARM, WORKERS  # noqa: E402


def parse_spec(text):
    family, rows, cols, seed, low, high = text.split(",")
    return GraphSpec(family, int(rows), int(cols), seed=int(seed),
                     low=int(low), high=int(high))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--token", required=True,
                    help="marks this run's processes for the "
                         "leftover-process check")
    ap.add_argument("--name", required=True)
    ap.add_argument("--spec", required=True, type=parse_spec)
    args = ap.parse_args()

    stop = threading.Event()
    owner = os.getpid()

    def on_signal(signum, _frame):
        if os.getpid() != owner:     # a forked worker: die of it
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        stop.set()

    # installed before the fork so no worker is ever without them
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)

    pool = WarmWorkerPool(workers=WORKERS)
    server = None
    try:
        pool.register(args.name, args.spec.build())
        pool.prewarm(kinds=PREWARM)
        pool.start()
        server = QueryServer(pool).start_background()

        def watch_stdin():
            # the raw fd, not sys.stdin: a thread blocked inside the
            # buffered reader would hold its lock at interpreter exit
            while os.read(sys.stdin.fileno(), 4096):
                pass
            stop.set()

        threading.Thread(target=watch_stdin, daemon=True).start()
        host, port = server.address
        print(f"listening {host} {port}", flush=True)
        while not stop.wait(0.2):
            pass
    finally:
        if server is not None:
            server.shutdown()
        pool.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
