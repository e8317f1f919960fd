"""The ``repro serve`` supervisor: pool, health, retries, load shedding.

The supervisor owns the unix listening socket and ``N`` worker
subprocesses, each reached over its own inherited ``socketpair``.  Every
robustness decision lives here so a worker can stay a dumb loop:

* **supervision** — workers are spawned via ``python -m
  repro.server.worker``; a health thread pings idle workers and lazily
  reaps/respawns any that died while idle.  A worker that crashes or
  hangs *mid-request* (no response within the request's deadline plus a
  grace period) is SIGKILLed and replaced, and the in-flight request is
  re-dispatched to the fresh worker — sound because PR 2's abort-safety
  invariant makes a clean re-run equivalent to an undisturbed one — up
  to ``max_attempts`` total tries before the client gets an ``ERROR``;
* **load shedding** — at most ``queue_limit`` requests may wait for a
  worker; the next one is answered ``OVERLOADED`` (exit code 8)
  immediately instead of queueing unboundedly, and a request that waits
  out its own deadline is shed the same way;
* **idempotency** — responses are cached per request id, and duplicate
  ids arriving while the original is still running wait for it instead
  of computing twice, so a client retry after a lost connection never
  double-counts;
* **recycling** — with ``max_requests`` set, a worker is retired after
  that many served requests (bounding unbounded arena growth across
  many distinct systems) and replaced with a fresh one.

Fault sites: ``serve.dispatch`` fires on every dispatch attempt (an
injected fault there is handled exactly like a worker crash), and the
``--inject`` option arms a plan in the *initial* worker generation only
— respawned workers are always clean, so chaos converges.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.errors import EXIT_SERVER, ServerError
from repro.runtime import faults as _faults
from repro.runtime.faults import FaultInjected
from repro.server import protocol

#: How many completed responses are kept for request-id deduplication.
RESULT_CACHE_SIZE = 256

#: Seconds between health-thread sweeps over the idle pool.
HEALTH_INTERVAL = 5.0

#: Distinct solved systems whose root segments the supervisor keeps for
#: cross-worker sharing (least-recently-used beyond this are dropped).
SHARED_SYSTEMS_SIZE = 8


class WorkerHandle:
    """One worker subprocess plus the supervisor's end of its socketpair."""

    __slots__ = (
        "proc",
        "sock",
        "stream",
        "index",
        "served",
        "generation",
        "shipped",
    )

    def __init__(
        self,
        proc: subprocess.Popen,
        sock: socket.socket,
        index: int,
        generation: int,
    ) -> None:
        self.proc = proc
        self.sock = sock
        self.stream = sock.makefile("rwb")
        self.index = index
        self.served = 0
        self.generation = generation
        #: Situations whose shared roots this worker already holds —
        #: either it solved them itself or a ``warm`` frame delivered
        #: them.  A respawned replacement starts empty, so a fresh
        #: worker is re-warmed on its first matching request.
        self.shipped: set = set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def close(self) -> None:
        for closer in (self.stream.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class Supervisor:
    """Runs the daemon: call :meth:`start`, then :meth:`serve_forever`
    (or drive requests through :class:`~repro.server.client.ServerClient`
    from another process) and finally :meth:`stop`."""

    def __init__(
        self,
        socket_path: str,
        jobs: int = 2,
        queue_limit: int = 16,
        request_timeout: float = 300.0,
        grace: float = 2.0,
        max_attempts: int = 3,
        max_requests: Optional[int] = None,
        inject: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if inject is not None:
            _faults.parse_plan(inject)  # validate eagerly, fail at startup
        self.socket_path = str(socket_path)
        self.jobs = jobs
        self.queue_limit = queue_limit
        self.request_timeout = request_timeout
        self.grace = grace
        self.max_attempts = max_attempts
        self.max_requests = max_requests
        self.inject = inject

        self._listener: Optional[socket.socket] = None
        self._idle: "queue.Queue[WorkerHandle]" = queue.Queue()
        self._workers: List[WorkerHandle] = []
        self._workers_lock = threading.Lock()
        self._waiting = 0
        self._counter_lock = threading.Lock()
        self._results: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._inflight: Dict[str, threading.Event] = {}
        self._results_lock = threading.Lock()
        self._stop = threading.Event()
        self._started = False
        self._threads: List[threading.Thread] = []
        self._spawn_lock = threading.Lock()
        self._generation = 0
        #: situation → solved-system root segments (a flat format-2
        #: payload), harvested from worker responses and shipped to
        #: siblings before their first dispatch of that situation.
        self._shared: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._shared_lock = threading.Lock()
        # observability counters (reported by the ``stats`` op)
        self.requests = 0
        self.shed = 0
        self.respawns = 0
        self.crashes = 0
        self.deduped = 0
        self.retries = 0
        self.ships = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and spawn the worker pool."""
        if self._started:
            return
        self._bind()
        for index in range(self.jobs):
            self._idle.put(self._spawn(index, inject=self.inject))
        self._started = True
        for target, name in (
            (self._accept_loop, "repro-serve-accept"),
            (self._health_loop, "repro-serve-health"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def _bind(self) -> None:
        path = self.socket_path
        if os.path.exists(path):
            # A live daemon answers a probe connection; a stale socket
            # file (previous daemon SIGKILLed) refuses it and is removed.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(1.0)
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                raise ServerError(f"already serving on {path}")
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(self.jobs + self.queue_limit + 8)
        self._listener = listener

    def serve_forever(self) -> None:
        """Block until :meth:`request_stop` (or a ``shutdown`` request)."""
        self.start()
        try:
            while not self._stop.wait(0.2):
                pass
        finally:
            self.stop()

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to unwind (signal-handler safe)."""
        self._stop.set()

    def stop(self) -> None:
        """Tear everything down; idempotent, never raises."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        with self._workers_lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.close()
            if worker.alive():
                worker.proc.terminate()
        deadline = time.monotonic() + self.grace
        for worker in workers:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                worker.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()

    # -- worker pool --------------------------------------------------------

    def _spawn(self, index: int, inject: Optional[str] = None) -> WorkerHandle:
        """One fresh worker subprocess wired up over a socketpair."""
        import repro

        parent, child = socket.socketpair()
        command = [
            sys.executable,
            "-m",
            "repro.server.worker",
            "--fd",
            str(child.fileno()),
        ]
        if inject:
            command += ["--inject", inject]
        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with self._spawn_lock:
            self._generation += 1
            generation = self._generation
        proc = subprocess.Popen(
            command, pass_fds=(child.fileno(),), env=env, close_fds=True
        )
        child.close()
        handle = WorkerHandle(proc, parent, index, generation)
        with self._workers_lock:
            self._workers.append(handle)
        return handle

    def _retire(self, worker: WorkerHandle, crashed: bool = True) -> WorkerHandle:
        """Kill ``worker`` (SIGKILL — it is already dead, hung, or due
        for recycling; nothing gentler is owed) and hand back a fresh
        replacement, *not* queued: the caller decides whether to use it
        for a re-dispatch or release it to the idle pool."""
        self.respawns += 1
        if crashed:
            self.crashes += 1
        worker.close()
        if worker.alive():
            try:
                worker.proc.kill()
            except OSError:
                pass
        try:
            worker.proc.wait(timeout=self.grace)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill is final
            pass
        with self._workers_lock:
            if worker in self._workers:
                self._workers.remove(worker)
        return self._spawn(worker.index)

    def _acquire(self, patience: float) -> Optional[WorkerHandle]:
        """An idle worker, or ``None`` when the request must be shed —
        the bounded queue is full, or ``patience`` ran out first."""
        deadline = time.monotonic() + patience
        waiting = False
        try:
            while True:
                try:
                    worker = self._idle.get_nowait()
                except queue.Empty:
                    if not waiting:
                        with self._counter_lock:
                            if self._waiting >= self.queue_limit:
                                return None
                            self._waiting += 1
                        waiting = True
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    try:
                        worker = self._idle.get(timeout=min(remaining, 0.5))
                    except queue.Empty:
                        continue
                if not worker.alive():
                    # Died while idle: replace it and offer the fresh one.
                    self._idle.put(self._retire(worker))
                    continue
                return worker
        finally:
            if waiting:
                with self._counter_lock:
                    self._waiting -= 1

    def _release(self, worker: WorkerHandle) -> None:
        if (
            self.max_requests is not None
            and worker.served >= self.max_requests
        ):
            self._idle.put(self._retire(worker, crashed=False))
        else:
            self._idle.put(worker)

    def _health_loop(self) -> None:
        """Ping idle workers; reap and respawn any that died or wedged."""
        while not self._stop.wait(HEALTH_INTERVAL):
            for _ in range(self._idle.qsize()):
                try:
                    worker = self._idle.get_nowait()
                except queue.Empty:
                    break
                if not worker.alive() or not self._ping(worker):
                    worker = self._retire(worker)
                self._idle.put(worker)

    def _ping(self, worker: WorkerHandle) -> bool:
        try:
            worker.sock.settimeout(max(self.grace, 1.0))
            protocol.send_frame(worker.stream, {"op": "ping"})
            response = protocol.recv_frame(worker.stream)
            return bool(response) and response.get("status") == "OK"
        except (OSError, ServerError):
            return False

    # -- request handling ---------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            thread = threading.Thread(
                target=self._client_loop, args=(conn,), daemon=True
            )
            thread.start()

    def _client_loop(self, conn: socket.socket) -> None:
        """One connected client: serve request frames until it hangs up."""
        stream = conn.makefile("rwb")
        try:
            while True:
                try:
                    request = protocol.recv_frame(stream)
                except ServerError as exc:
                    protocol.send_frame(
                        stream, protocol.error_response(None, EXIT_SERVER, str(exc))
                    )
                    return
                if request is None:
                    return
                protocol.send_frame(stream, self._handle(request))
        except OSError:
            pass  # client gone: nothing left to answer
        finally:
            for closer in (stream.close, conn.close):
                try:
                    closer()
                except OSError:
                    pass

    def _handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        rid = request.get("id")
        if op == "ping":
            return {
                "id": rid,
                "status": "OK",
                "exit_code": 0,
                "server": "repro-serve",
                "protocol": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(),
            }
        if op == "stats":
            return self._stats_response(rid)
        if op == "shutdown":
            self._stop.set()
            return {"id": rid, "status": "OK", "exit_code": 0}
        if op not in ("check", "traces"):
            return protocol.error_response(
                rid, EXIT_SERVER, f"unknown op {op!r}"
            )
        self.requests += 1
        if not rid:
            return self._dispatch(request)
        # Idempotent ids: a response already computed is replayed; a
        # duplicate of an in-flight request waits for the original.
        while True:
            with self._results_lock:
                cached = self._results.get(rid)
                if cached is not None:
                    self.deduped += 1
                    return cached
                event = self._inflight.get(rid)
                if event is None:
                    event = threading.Event()
                    self._inflight[rid] = event
                    break
            event.wait(timeout=self.request_timeout + self.grace)
        try:
            response = self._dispatch(request)
        finally:
            with self._results_lock:
                self._inflight.pop(rid, None)
                event.set()
        if response.get("status") == "OK":
            with self._results_lock:
                self._results[rid] = response
                while len(self._results) > RESULT_CACHE_SIZE:
                    self._results.popitem(last=False)
        return response

    def _stats_response(self, rid: Optional[str]) -> Dict[str, Any]:
        with self._workers_lock:
            workers = [
                {
                    "pid": w.pid,
                    "served": w.served,
                    "generation": w.generation,
                    "alive": w.alive(),
                }
                for w in self._workers
            ]
        return {
            "id": rid,
            "status": "OK",
            "exit_code": 0,
            "workers": workers,
            "idle": self._idle.qsize(),
            "waiting": self._waiting,
            "queue_limit": self.queue_limit,
            "requests": self.requests,
            "shed": self.shed,
            "respawns": self.respawns,
            "crashes": self.crashes,
            "deduped": self.deduped,
            "retries": self.retries,
            "ships": self.ships,
            "shared_systems": len(self._shared),
        }

    def _ship_shared(self, worker: WorkerHandle, request: Dict[str, Any]) -> None:
        """Warm ``worker`` with another worker's solved roots for this
        request's situation, if the pool has them and this worker does
        not.  Governed requests are skipped — they run in a fresh
        private arena with a fresh checker by design.  Transport
        failures propagate to the dispatch retry loop (the worker is
        retired and the fresh replacement re-warmed)."""
        if request.get("budget"):
            return
        situation = protocol.situation(request)
        with self._shared_lock:
            roots = self._shared.get(situation)
            if roots is not None:
                self._shared.move_to_end(situation)
        if roots is None or situation in worker.shipped:
            return
        protocol.send_frame(
            worker.stream,
            {"op": "warm", "situation": situation, "roots": roots},
        )
        ack = protocol.recv_frame(worker.stream)
        if ack is None:
            raise ServerError(
                f"worker {worker.pid} closed the connection mid-warm"
            )
        if ack.get("status") == "OK":
            worker.shipped.add(situation)
            self.ships += 1
        # An ERROR ack (corrupt segments) leaves the worker alive and
        # unwarmed; the request still computes from cold.

    def _harvest_solved(
        self, worker: WorkerHandle, response: Dict[str, Any]
    ) -> None:
        """Store solved-system roots a worker attached to its response,
        making them shippable to every sibling (the payload never
        reaches clients)."""
        solved = response.pop("solved", None)
        if not isinstance(solved, dict):
            return
        situation = solved.get("situation")
        roots = solved.get("roots")
        if not situation or not isinstance(roots, dict):
            return
        worker.shipped.add(situation)
        with self._shared_lock:
            # Workers export their whole slot map whenever it grew, so a
            # newer frame is always a superset: replace wholesale (two
            # segment payloads cannot be merged — root ids are local to
            # each frame's node tables).
            self._shared[situation] = roots
            self._shared.move_to_end(situation)
            while len(self._shared) > SHARED_SYSTEMS_SIZE:
                self._shared.popitem(last=False)

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch to a worker, healing crashes and hangs along the way."""
        rid = request.get("id")
        budget = request.get("budget") or {}
        deadline = budget.get("deadline")
        patience = float(deadline) if deadline is not None else self.request_timeout
        compute_timeout = (
            float(deadline) + self.grace
            if deadline is not None
            else self.request_timeout
        )
        worker = self._acquire(patience)
        if worker is None:
            self.shed += 1
            return {
                "id": rid,
                "status": "OVERLOADED",
                "exit_code": 8,
                "stdout": "",
                "stderr": (
                    f"error: server overloaded: {self.jobs} worker(s) busy "
                    f"and {self.queue_limit} request(s) already queued"
                ),
                "error": (
                    f"server overloaded: {self.jobs} worker(s) busy and "
                    f"{self.queue_limit} request(s) already queued"
                ),
            }
        last_failure: Optional[BaseException] = None
        attempts = 0
        try:
            while attempts < self.max_attempts:
                attempts += 1
                if attempts > 1:
                    self.retries += 1
                try:
                    _faults.maybe_fail("serve.dispatch")
                    worker.sock.settimeout(compute_timeout)
                    self._ship_shared(worker, request)
                    protocol.send_frame(worker.stream, request)
                    response = protocol.recv_frame(worker.stream)
                    if response is None:
                        raise ServerError(
                            f"worker {worker.pid} closed the connection "
                            f"mid-request"
                        )
                except (FaultInjected, OSError, ServerError) as exc:
                    # Crash, hang (socket timeout is an OSError), torn or
                    # malformed frame, injected dispatch fault: SIGKILL
                    # the worker and re-dispatch on a fresh one.  Sound
                    # because a re-run from clean state computes exactly
                    # what the undisturbed run would have (PR 2).  A
                    # worker that dies mid-warm-splice is healed the same
                    # way — the shared segments stay in the supervisor
                    # and the replacement is re-warmed on retry.
                    last_failure = exc
                    worker = self._retire(worker)
                    continue
                worker.served += 1
                self._harvest_solved(worker, response)
                response.setdefault("attempts", attempts)
                return response
            return protocol.error_response(
                rid,
                EXIT_SERVER,
                f"request failed after {attempts} dispatch attempt(s): "
                f"{last_failure}",
                attempts=attempts,
            )
        finally:
            self._release(worker)
