"""Self-tests of the benchmark's own machinery, at tiny scale.

    python3 stackbench/selftest.py          # from the repository root
    python3 -m pytest stackbench/selftest.py

They cover the percentile and sample-count math, self time from nested
spans, open-loop lateness, the leftover-process check and the
server's shutdown paths.
"""

import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"),
                os.path.dirname(os.path.abspath(__file__))]

import measure  # noqa: E402
import stack  # noqa: E402


def test_percentile_and_samples_beyond():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 90) == 90
    assert measure.tail(samples) == (99, 1)
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.samples_beyond(999, 99) == 9
    assert measure.samples_beyond(10, 90) == 1
    assert measure.samples_beyond(1, 50) == 0


def test_self_time_subtracts_covered_child_time():
    # (name, start, end, parent, trace, span)
    spans = [("root", 0.0, 10.0, None, 1, 1),
             ("a", 1.0, 4.0, 1, 1, 2),
             ("b", 3.0, 6.0, 1, 1, 3),      # overlaps a: union 1..6
             ("a.child", 2.0, 3.0, 2, 1, 4),
             ("late", 9.0, 12.0, 1, 1, 5)]  # only 9..10 is inside root
    st = measure.self_times(spans)
    assert st["root"] == [10.0 - 5.0 - 1.0]
    assert st["a"] == [2.0]
    assert st["b"] == [3.0]
    assert st["a.child"] == [1.0]


def test_tracer_nests_and_can_be_off():
    tracer = measure.Tracer(on=True)
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    with tracer.span("explicit", parent=outer):
        pass
    by_name = {s[0]: s for s in tracer.spans}
    assert by_name["inner"][3] == by_name["outer"][5]
    assert by_name["explicit"][3] == by_name["outer"][5]
    assert {s[4] for s in tracer.spans} == {by_name["outer"][5]}
    off = measure.Tracer(on=False)
    with off.span("x"):
        pass
    assert off.spans == []


class _Result:
    result = 0


class _SlowFirst:
    """Answers in ~1 ms, except one 60 ms stall on the first query."""

    def __init__(self):
        self.calls = 0

    def query(self, query):
        self.calls += 1
        time.sleep(0.06 if self.calls == 1 else 0.001)
        return _Result()


def test_open_loop_charges_stalls_to_later_queries():
    client = _SlowFirst()
    phase = measure.open_loop([client], [None], rate=200.0, seconds=0.5,
                              seed=1, tracer=measure.Tracer(on=False),
                              name="t")
    assert phase.attempted == 100 and phase.failed == 0
    # a query due during the stall is sent late, and its latency counts
    # from when it was due, so it includes that lateness
    assert max(phase.late) > 0.02
    for latency, late in zip(phase.latencies, phase.late):
        assert latency >= late + 0.001
    # once the backlog drains the generator is on time again
    assert min(phase.late[-10:]) < 0.005


def test_closed_loop_lateness_is_the_gap_between_queries():
    phase = measure.closed_loop([_SlowFirst(), _SlowFirst()],
                                lambda: None, 0.2,
                                measure.Tracer(on=False), "t")
    assert phase.attempted == len(phase.latencies) > 10
    assert max(phase.late) < 0.01
    assert phase.qps > 0


def _fake_server(token, body="import time\ntime.sleep(60)\n", **popen):
    """A process whose command line looks like a benchmark server's."""
    path = os.path.join(ROOT, ".stackbench", "selftest", stack.SERVER)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(body)
    return subprocess.Popen([sys.executable, path, "--token", token],
                            **popen)


def test_leftover_check_finds_and_clears_processes():
    token = f"selftest-{os.getpid()}-{time.monotonic_ns()}"
    proc = _fake_server(token)
    try:
        deadline = time.monotonic() + 10
        while not stack.marked(token) and time.monotonic() < deadline:
            time.sleep(0.01)      # until the child has exec'd
        assert stack.marked(token) == [proc.pid]
        assert proc.pid in stack.descendants()
    finally:
        proc.kill()
        proc.wait(timeout=10)
    assert stack.marked(token) == []
    assert proc.pid not in stack.descendants()


#: a server that forks a worker, then exits cleanly on stdin EOF
#: without stopping it
_ORPHANING = """\
import os, sys, time
if os.fork() == 0:
    time.sleep(60)
    os._exit(0)
sys.stdin.read()
"""


def test_stop_fails_when_a_worker_outlives_a_clean_exit():
    token = f"selftest-{os.getpid()}-{time.monotonic_ns()}"
    s = stack.Stack(token, "g", None)
    s.proc = _fake_server(token, _ORPHANING, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE)
    deadline = time.monotonic() + 10
    while len(stack.marked(token)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    try:
        s.stop()
    except stack.StackError as exc:
        assert "outlived" in str(exc)
    else:
        raise AssertionError("an orphaned worker went unreported")
    # reported, and killed all the same
    assert stack.marked(token) == []


def _tiny_stack(token):
    from repro.workload import GraphSpec

    return stack.Stack(token, "g", GraphSpec("grid", 4, 5, seed=1))


def test_stack_stops_through_stdin_eof():
    token = f"selftest-{os.getpid()}-{time.monotonic_ns()}"
    with _tiny_stack(token) as s:
        assert s.start() > 0
        assert len(s.pids()) == 3          # the server and 2 workers
        with s.client() as c:
            assert c.ping()["pong"]
    assert stack.marked(token) == []


def test_server_stops_with_its_workers_on_sigterm():
    token = f"selftest-{os.getpid()}-{time.monotonic_ns()}"
    s = _tiny_stack(token)
    try:
        s.start()
        s.proc.send_signal(signal.SIGTERM)
        assert s.proc.wait(timeout=20) == 0
        deadline = time.monotonic() + 10
        while stack.marked(token) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert stack.marked(token) == []
    finally:
        s.stop()


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
