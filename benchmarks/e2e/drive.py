"""Sending a workload's queries through the program's public surfaces.

A :class:`Session` owns one run directory inside the checkout: the
generated ``.csp`` inputs, the daemon's unix socket and, for
cache-churn, the snapshot cache.  Queries reach the program as
``python -m repro …`` processes (cold-cli) or through
:class:`repro.server.client.ServerClient` to a ``python -m repro serve``
process (every other workload).  Every answer is checked against
``expected.json``.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from benchmarks.e2e import oracle
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Query,
    cli_argv,
    specs,
    stream,
    write_inputs,
)

#: A query that takes longer than this counts as failed.
QUERY_LIMIT_S = 10.0

#: Scratch space for runs, relative to the checkout root (kept short:
#: a unix socket path must fit in about 100 bytes).
RUN_ROOT = ".bench_e2e"


class Outcome(NamedTuple):
    query: Query
    latency: float
    error: Optional[str]  #: None when the verdict matched the reference
    end: float = 0.0  #: answer time, seconds into the timed phase


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def precompile(root: Path) -> None:
    """Byte-compile the package once so no timed process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )


class Daemon:
    """One ``python -m repro serve`` process and a client connected to it."""

    def __init__(self, root: Path, socket_path: str, jobs: int, log: Path):
        from repro.server.client import ServerClient

        self.socket_path = socket_path
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
             "--jobs", str(jobs)],
            cwd=root,
            env=child_env(root),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.client = ServerClient(socket_path, attempts=1, timeout=QUERY_LIMIT_S)

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.errors import ServerError

        deadline = time.monotonic() + timeout
        while True:
            try:
                self.client.ping()
                return
            except ServerError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"repro serve did not come up on {self.socket_path}")
                time.sleep(0.002)

    def worker_peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` among the live workers."""
        peak = 0
        for worker in self.client.stats()["workers"]:
            try:
                status = Path(f"/proc/{worker['pid']}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
        return peak / 1024.0

    def stop(self) -> None:
        from repro.errors import ReproError

        try:
            self.client.shutdown()
        except (ReproError, OSError):
            pass
        self.client.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def warmup_queries(workload: str, queries: List[Query]) -> List[Query]:
    """Queries sent during set-up.

    deep-walk solves each of its situations once (a violated spec, so
    the walk is short); the other daemon workloads send one small query
    per worker on a situation outside the stream, so the timed phase
    starts with imports done but no situation cached.
    """
    if workload == "deep-walk":
        situations = dict.fromkeys((q.system, q.depth) for q in queries)
        return [
            Query("check", system, depth, specs(system, "violated")[0])
            for system, depth in situations
        ]
    engine = "operational" if workload == "explore" else "denotational"
    warm = Query("check", "copier", 4, "output <= input", engine)
    return [warm] * max(1, WORKLOADS[workload].jobs)


class Session:
    """One workload run: set-up, queries, peak memory, tear-down."""

    def __init__(self, root: Path, workload: str, seed: int, expected: dict):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.expected = expected
        base = root / RUN_ROOT
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="r", dir=base)).relative_to(root)
        self.inputs = self.dir / "inputs"
        self.queries: List[Query] = []
        self.daemon: Optional[Daemon] = None
        self._setups = 0

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate inputs, start the daemon and warm it; returns the
        seconds it took.  A second call replaces the first daemon."""
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        self._setups += 1
        started = time.perf_counter()
        write_inputs(self.root / self.inputs, self.root / "examples" / "csp")
        self.queries = stream(self.workload.name, self.seed)
        if self.workload.jobs == 0:
            subprocess.run(
                [sys.executable, "-c", "import repro.cli"],
                cwd=self.root, env=child_env(self.root), check=True,
            )
        else:
            self.daemon = Daemon(
                self.root,
                str(self.dir / f"s{self._setups}.sock"),
                self.workload.jobs,
                self.root / self.dir / f"serve{self._setups}.log",
            )
            self.daemon.wait_ready()
            for query in warmup_queries(self.workload.name, self.queries):
                response = self._remote(query, None)
                if response.get("status") != "OK":
                    raise RuntimeError(f"warm-up query failed: {response}")
        return time.perf_counter() - started

    # -- queries ------------------------------------------------------------

    def cache_dir(self, index: int, tag: str = "") -> Optional[str]:
        """Snapshot cache directory of the ``index``-th query: a fresh
        one per pass of the stream, so every pass starts cold."""
        if not self.workload.cached:
            return None
        return str(self.dir / f"cache{tag}{index // len(self.queries)}")

    def request(self, query: Query, cache_dir: Optional[str]) -> dict:
        """The serve request ``repro check|traces --server`` would send:
        the client reads and parses the file, then encodes the query."""
        # Module attributes are looked up per call, so a traced replay
        # sees the wrapped functions.
        from repro.process import parser
        from repro.server import protocol

        system = query.target
        text = (self.root / self.inputs / system.file).read_text(encoding="utf-8")
        return protocol.query(
            query.op,
            parser.parse_definitions(text),
            process=system.process,
            spec=query.spec,
            depth=query.depth,
            sample=system.sample,
            sets=system.sets,
            with_cancel=system.with_cancel,
            engine=query.engine,
            cache_dir=cache_dir,
            no_cache=cache_dir is None,
        )

    def _remote(self, query: Query, cache_dir: Optional[str]) -> dict:
        return self.daemon.client.call(self.request(query, cache_dir))

    def run(self, index: int) -> Outcome:
        """Send the ``index``-th query of the (cycled) stream and judge it."""
        from repro.errors import ReproError

        query = self.queries[index % len(self.queries)]
        started = time.perf_counter()
        try:
            if self.daemon is None:
                code, stdout = self._cli(query)
            else:
                response = self._remote(query, self.cache_dir(index))
                code, stdout = int(response.get("exit_code", -1)), response.get("stdout") or ""
        except (ReproError, OSError) as exc:
            return Outcome(query, time.perf_counter() - started, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - started
        error = oracle.mismatch(self.expected, query, code, stdout)
        if error is None and latency > QUERY_LIMIT_S:
            error = f"over the {QUERY_LIMIT_S} s limit"
        return Outcome(query, latency, error)

    def _cli(self, query: Query) -> "tuple[int, str]":
        """Run one ``python -m repro`` process to completion.

        An overdue process is killed by a timer rather than by a
        ``timeout=`` argument: ``Popen.wait(timeout)`` polls with sleeps
        of up to 50 ms, which would round every latency to that grid."""
        path = str(self.inputs / query.target.file)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *cli_argv(query, path)],
            cwd=self.root, env=child_env(self.root), encoding="utf-8",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        timer = threading.Timer(QUERY_LIMIT_S, proc.kill)
        timer.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            timer.cancel()
        return proc.returncode, stdout

    def timed(self, seconds: float) -> List[Outcome]:
        """Closed loop: send the next query once the previous one is
        answered, until ``seconds`` have passed."""
        outcomes: List[Outcome] = []
        started = time.perf_counter()
        while not outcomes or time.perf_counter() - started < seconds:
            outcome = self.run(len(outcomes))
            outcomes.append(outcome._replace(end=time.perf_counter() - started))
        return outcomes

    # -- results ------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the program: the largest CLI child
        (``RUSAGE_CHILDREN``) or the largest serve worker (``VmHWM``)."""
        if self.daemon is None:
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return self.daemon.worker_peak_rss_mb()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        shutil.rmtree(self.root / self.dir, ignore_errors=True)
        try:
            (self.root / RUN_ROOT).rmdir()
        except OSError:
            pass  # another run's directory is still there
