"""Start, stop and account for the processes of the served stack.

Every process stays in the caller's process group.  The server child
(``server.py``) is stopped by closing its stdin, which makes it call
``QueryServer.shutdown()`` and ``WarmWorkerPool.close()``; SIGTERM and
SIGKILL are only fallbacks for a child that does not stop.  The forked
pool workers share the child's command line, so a scan of
``/proc/*/cmdline`` for the server script finds them too -- even after
they have been reparented.
"""

import os
import select
import signal
import subprocess
import sys
import time

SERVER = os.path.join("stackbench", "server.py")

#: pool workers of the served stack, one per core of a 2-core host
WORKERS = 2
#: artifact kinds the server builds before it forks its workers
PREWARM = ("flow", "distance")

#: seconds a stopping child gets before each escalation step
STOP_GRACE = 30.0


class StackError(RuntimeError):
    """The served stack failed to start, stop or account for itself."""


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return b""


def _pids():
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def _argv(pid):
    raw = _read(f"/proc/{pid}/cmdline").decode("utf-8", "replace")
    return raw.split("\0")[:-1]


def _alive(pid):
    """True unless ``pid`` is gone or a zombie."""
    stat = _read(f"/proc/{pid}/stat")
    return bool(stat) and stat[stat.rindex(b")") + 2:][:1] != b"Z"


def marked(token=None):
    """Live server processes (server children and their forked
    workers), optionally only those of one run's ``token``."""
    out = []
    for pid in _pids():
        args = _argv(pid)
        if len(args) > 1 and args[1].endswith(SERVER) \
                and (token is None or token in args) and _alive(pid):
            out.append(pid)
    return sorted(out)


def descendants(root=None):
    """Live processes whose parent chain leads to ``root`` (default:
    this process)."""
    root = os.getpid() if root is None else root
    parent = {}
    for pid in _pids():
        stat = _read(f"/proc/{pid}/stat")
        if stat:
            fields = stat[stat.rindex(b")") + 2:].split()
            parent[pid] = int(fields[1])
    out = []
    for pid in parent:
        p = parent.get(pid)
        while p is not None and p > 1:
            if p == root:
                if _alive(pid):
                    out.append(pid)
                break
            p = parent.get(p)
    return sorted(out)


def pss_mb(pids):
    """Summed proportional set size of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        for line in _read(f"/proc/{pid}/smaps_rollup").splitlines():
            if line.startswith(b"Pss:"):
                total_kb += int(line.split()[1])
                break
        else:
            raise StackError(f"no smaps_rollup for pid {pid}")
    return total_kb / 1024.0


class Stack:
    """One server child: ``start()`` returns the set-up seconds from
    spawn to the first successful ping; ``stop()`` ends the child and
    its workers and waits until every one of them has ended."""

    def __init__(self, token, name, spec):
        self.token = token
        self.name = name
        self.spec = spec
        self.proc = None
        self.address = None

    def start(self, timeout=150.0):
        from repro.server import ServiceClient

        s = self.spec
        argv = [sys.executable, SERVER, "--token", self.token,
                "--name", self.name,
                "--spec", f"{s.family},{s.rows},{s.cols},{s.seed},"
                          f"{s.low},{s.high}"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        deadline = time.monotonic() + timeout
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("listening "):
            raise StackError(f"server did not start (got {line!r})")
        _, host, port = line.split()
        self.address = (host, int(port))
        while True:
            try:
                with ServiceClient(*self.address, timeout=10) as c:
                    c.ping()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        return time.perf_counter() - t0

    def client(self):
        from repro.server import ServiceClient

        return ServiceClient(*self.address, timeout=120).connect()

    def pids(self):
        """The server child and its live workers."""
        return marked(self.token)

    def stop(self):
        """Returns the child's exit code (None if it was never started);
        anything but 0 means it did not stop through its own shutdown.
        Raises StackError if a process of this stack outlived the
        child -- after killing it, so that it does not outlive the run
        as well."""
        proc = self.proc
        if proc is None:
            return None
        self.proc = None
        try:
            proc.stdin.close()
        except OSError:
            pass
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                proc.send_signal(sig)
            try:
                proc.wait(timeout=STOP_GRACE)
                break
            except subprocess.TimeoutExpired:
                continue
        proc.stdout.close()
        # the child joins its workers before it exits: any still alive
        # were orphaned
        left = marked(self.token)
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + STOP_GRACE
        while marked(self.token) and time.monotonic() < deadline:
            time.sleep(0.02)
        if left:
            raise StackError(f"processes outlived the server (exit code "
                             f"{proc.returncode}): {left}")
        return proc.returncode

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        code = self.stop()
        if exc_type is None and code not in (0, None):
            raise StackError(f"server exited with code {code}")
        return False
