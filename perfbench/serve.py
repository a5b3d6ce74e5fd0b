"""``serve``: cached region reads through a ``python -m repro serve`` child.

The server runs in its own process with ``--workers 2`` and the default
decoded-chunk cache, serving the Isotropic ``full`` field packed as
``sz`` 16^3 chunks (512 chunks) on an ephemeral loopback TCP port (not
a unix socket: at this commit ``dpz serve`` leaves its socket file
behind after a clean SIGTERM shutdown, which the smoke tests keep as a
strict xfail rather than count against every run).  An untimed fill pass
reads every chunk once, so every timed read is a cache hit: time goes
to ``repro.serve`` (event loop, HTTP/1.1 framing, region frame, worker
hand-off) and the client, and a codec change should leave it flat.

Load comes from this process over one closed-loop connection, because
region readers (notebooks, viewers) wait for each reply.  One
connection keeps the load generator to one thread, so the latency
measured is not two client threads taking turns on the interpreter
lock.  While reads run, the client thread and every server thread
share one CPU: in a closed loop only one side works at a time, and a
reply that has to wake a second, idle virtual CPU waits for the host to
schedule it, which made the tail the host's rather than the program's.
Reads are zipf-skewed (s=1.1) over a seeded pool of aligned and
unaligned boxes, in windows of :data:`WINDOW` reads; each window gives
one p99 and one rate, and the run reports medians over windows.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench import inputs
from perfbench.ledger import (
    Tally,
    counter_delta,
    histogram_delta_quantile,
    median,
    percentile,
)

HOST = "127.0.0.1"
ALIAS = "bench"
FIELD = "iso"
CHUNK = 16
WORKERS = 2
#: Connections of the untimed fill pass.
FILL_CONNECTIONS = 2
#: Region pool size.
POOL = 512
#: Reads per load window: the fewest for which a p99 has 10 reads
#: beyond it, so every window yields one.
WINDOW = 1000


class Child:
    """One ``python -m repro serve`` child and its lifecycle checks.

    The child listens on an ephemeral loopback TCP port (read back from
    the line it logs at start-up), or on ``unix_socket`` when given.
    """

    def __init__(self, store_path: str, *, log_path: str,
                 unix_socket: str | None = None) -> None:
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        where = (["--unix-socket", unix_socket] if unix_socket
                 else ["--host", HOST, "--port", "0"])
        cmd = [sys.executable, "-m", "repro", "serve",
               f"{ALIAS}={store_path}", *where, "--workers", str(WORKERS)]
        self.sock = unix_socket
        self.port = 0
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(cmd, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     start_new_session=True)
        self.pid = self.proc.pid

    def client(self, timeout: float = 30.0) -> Any:
        """A new keep-alive :class:`ServeClient` connection."""
        from repro.serve import ServeClient

        if self.sock is not None:
            return ServeClient(unix_socket=self.sock, timeout=timeout)
        return ServeClient(HOST, self.port, timeout=timeout)

    def _listening(self) -> bool:
        if self.sock is not None:
            return os.path.exists(self.sock)
        if not self.port:
            with open(self.log_path, "rb") as fh:
                m = re.search(rb"on http://[^:]+:(\d+) ", fh.read())
            self.port = int(m.group(1)) if m else 0
        return bool(self.port)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve child exited with {self.proc.returncode} "
                    f"before becoming healthy")
            if self._listening():
                try:
                    with self.client(timeout=5.0) as c:
                        if c.healthz().get("status") == "ok":
                            return
                except Exception:  # not listening yet: poll again
                    pass
            time.sleep(0.02)
        raise RuntimeError(f"serve child not healthy after {timeout:g}s")

    def cpu_seconds(self) -> float:
        """User + system CPU seconds the child has used so far."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")

    def stop(self, tally: Tally) -> Any:
        """SIGTERM, reap with ``os.wait4`` and check the aftermath.

        A non-zero exit, a unix socket file left behind or a process
        still alive in the child's session each count as one failure.
        Returns the child's rusage (``None`` if it had already exited).
        """
        rusage = None
        if self.proc.returncode is None:
            os.kill(self.pid, signal.SIGTERM)
            deadline = time.perf_counter() + 30.0
            while True:
                pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    os.killpg(self.pid, signal.SIGKILL)
                    deadline = float("inf")
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._log.close()
        code = self.proc.returncode
        tally.check(code == 0, f"serve child exited with {code}",
                    lifecycle=True)
        if self.sock is not None:
            tally.check(not os.path.exists(self.sock),
                        f"serve child left its socket {self.sock!r} behind",
                        lifecycle=True)
        try:
            os.killpg(self.pid, 0)
        except ProcessLookupError:
            stray = False
        else:
            stray = True
            os.killpg(self.pid, signal.SIGKILL)
        tally.check(not stray, "a process of the serve child outlived it",
                    lifecycle=True)
        if self.sock is not None and os.path.exists(self.sock):
            os.unlink(self.sock)
        return rusage


@dataclass
class Context:
    seed: int
    data: Any
    store_path: str
    child: Child
    reference: Any = None
    pool: list[tuple[slice, ...]] = field(default_factory=list)
    expected: list[bytes] = field(default_factory=list)

    def close(self, tally: Tally) -> None:
        self.child.stop(tally)
        os.remove(self.store_path)


def setup(seed: int, tmp: str, *, index: int = 0) -> Context:
    """Field, store, child server and the cache fill."""
    from repro.store import Store

    data = inputs.field("Isotropic", "full", seed)
    path = os.path.join(tmp, f"serve{index}.dpzs")
    st = Store.create(path)
    st.add(FIELD, data, codec="sz", eps=inputs.bound(data),
           chunk_shape=CHUNK, n_jobs=0)
    child = Child(path, log_path=os.path.join(tmp, f"serve{index}.log"))
    try:
        child.wait_healthy()
        _fill(child, data.shape)
    except BaseException:
        child.stop(Tally())
        raise
    return Context(seed, data, path, child)


def _fill(child: Child, shape: tuple[int, ...]) -> None:
    """Read every chunk once (warms the server's cache)."""
    from repro.store.chunking import iter_chunks

    chunks = [sl for _, sl in iter_chunks(shape, (CHUNK,) * len(shape))]

    def worker(part: list[tuple[slice, ...]]) -> None:
        with child.client() as c:
            for box in part:
                c.region(ALIAS, FIELD, box)

    threads = [threading.Thread(target=worker,
                                args=(chunks[i::FILL_CONNECTIONS],))
               for i in range(FILL_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def prepare(ctx: Context) -> None:
    """In-process reference (``Store.get``) and the region pool."""
    from repro.store import Store

    ctx.reference = Store.open(ctx.store_path, cache_bytes=0).get(FIELD)
    # Pool order is popularity rank; positions are seeded.
    ctx.pool = inputs.boxes(np.random.default_rng([ctx.seed, 11]),
                            ctx.data.shape, CHUNK, POOL)
    ctx.expected = [np.ascontiguousarray(ctx.reference[b]).tobytes()
                    for b in ctx.pool]


@dataclass
class Window:
    """What one run of back-to-back reads observed."""

    latencies: list[float]
    correct: int
    wall: float
    cpu: float
    server_cpu: float


class Reader:
    """One closed-loop connection making the seeded zipf reads; every
    response is compared with the in-process reference."""

    def __init__(self, ctx: Context, tally: Tally) -> None:
        self.ctx = ctx
        self.tally = tally
        self.rng = np.random.default_rng([ctx.seed, 13])
        self.client = ctx.child.client()
        self.op = 0
        self.cpus = {max(os.sched_getaffinity(0))}
        # Threads the server starts later inherit the mask.
        for task in os.listdir(f"/proc/{ctx.child.pid}/task"):
            os.sched_setaffinity(int(task), self.cpus)

    def read(self, n: int) -> Window:
        from repro.errors import ServeError
        from repro.observability import span

        ctx = self.ctx
        order = inputs.zipf_order(self.rng, len(ctx.pool), n)
        lat: list[float] = []
        fails: list[str] = []
        correct = 0
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        cpu0 = time.process_time()
        srv0 = ctx.child.cpu_seconds()
        start = time.perf_counter()
        for idx in order:
            box = ctx.pool[idx]
            self.op += 1
            with span("bench.serve.region", op=self.op):
                t0 = time.perf_counter()
                try:
                    arr = self.client.region(ALIAS, FIELD, box)
                except ServeError as exc:  # any non-200 or I/O error
                    lat.append(time.perf_counter() - t0)
                    fails.append(f"region {box}: {exc}")
                    continue
                lat.append(time.perf_counter() - t0)
            if arr.tobytes() == ctx.expected[idx]:
                correct += 1
            else:
                fails.append(f"region {box}: response differs from "
                             f"in-process get_region")
        wall = time.perf_counter() - start
        os.sched_setaffinity(0, mask)
        window = Window(lat, correct, wall, time.process_time() - cpu0,
                        ctx.child.cpu_seconds() - srv0)
        self.tally.record(correct, fails)
        return window

    def close(self) -> None:
        self.client.close()


class LoadBench:
    """The timed phase as steps of :data:`WINDOW` reads each."""

    MIN_WINDOWS = 5

    def __init__(self, reader: Reader) -> None:
        self.reader = reader
        self.windows: list[Window] = []

    def ready(self) -> bool:
        return len(self.windows) >= self.MIN_WINDOWS

    def step(self) -> None:
        self.windows.append(self.reader.read(WINDOW))

    def result(self) -> dict[str, float]:
        """p50 over every read; p99 and the rate are medians over
        windows, so one slow spell of the host moves neither by a whole
        run's worth."""
        ws = self.windows
        return {"read.p50_ms": 1e3 * median(x for w in ws
                                            for x in w.latencies),
                "read.p99_ms": 1e3 * median(percentile(w.latencies, 99)
                                            for w in ws),
                "reads_per_s": median(w.correct / w.wall for w in ws)}


def server_ledger(before: dict[str, Any],
                  after: dict[str, Any], window: Window) -> dict[str, float]:
    """Per-layer serve metrics from two ``/metrics.json`` scrapes."""
    d = counter_delta(before, after)
    hits = d.get("store.cache.hits", 0.0)
    misses = d.get("store.cache.misses", 0.0)
    handle = 1e3 * histogram_delta_quantile(before, after,
                                            "serve.request.seconds", 0.5)
    return {
        "serve.handle_p50_ms": handle,
        "serve.overhead_ms": 1e3 * median(window.latencies) - handle,
        "serve.requests": d.get("serve.requests", 0.0),
        "serve.errors": d.get("serve.errors", 0.0),
        "serve.shed": d.get("serve.shed", 0.0),
        "store.cache.hit_frac": hits / (hits + misses) if hits + misses
        else 0.0,
        "store.chunks.decoded": d.get("store.chunks.decoded", 0.0),
        "store.bytes.read": d.get("store.bytes.read", 0.0),
        "store.bytes.decoded": d.get("store.bytes.decoded", 0.0),
        "client.busy_frac": window.cpu / window.wall,
        "server.busy_frac": window.server_cpu / window.wall,
    }


def scrape(ctx: Context) -> dict[str, Any]:
    with ctx.child.client() as c:
        return c.metrics_json()
