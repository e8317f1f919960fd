"""The thin client side of ``repro serve``.

:class:`ServerClient` connects to the daemon's unix socket and offers
one method per operation.  Its whole job is *masking transient server
trouble*: a connection refused during a daemon restart, a connection
that dies because the supervisor was mid-respawn, a torn response frame
— each is retried with capped exponential backoff plus full jitter,
and every retry of one logical call carries the *same* request id, so
the supervisor's idempotency cache guarantees the query is computed at
most once no matter how many times the wire fails underneath it.

What is *not* retried: an ``OVERLOADED`` response (the daemon
explicitly shed the request — raising :class:`~repro.errors.Overloaded`
lets the caller decide whether to back off for much longer or fail), an
``ERROR`` response (the query itself is bad; retrying cannot fix it),
and a protocol violation (mismatched versions need a human).
"""

from __future__ import annotations

import os
import random
import socket
import time
from typing import Any, Dict, Optional, Sequence

from repro.errors import Overloaded, ServerError
from repro.runtime.governor import Budget
from repro.server import protocol

#: Default retry schedule: 5 attempts, 0.1 s base doubling to a 2 s cap,
#: each sleep scaled by a uniform [0.5, 1.5) jitter factor.
DEFAULT_ATTEMPTS = 5
DEFAULT_BACKOFF = 0.1
DEFAULT_BACKOFF_CAP = 2.0


class ServerClient:
    """One logical connection to a ``repro serve`` daemon.

    The underlying socket is opened lazily and transparently reopened
    after any failure; use as a context manager (or call :meth:`close`)
    to release it deterministically.
    """

    def __init__(
        self,
        socket_path: str,
        attempts: int = DEFAULT_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        timeout: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.socket_path = str(socket_path)
        self.attempts = attempts
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.timeout = timeout
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._stream: Optional[Any] = None

    # -- connection management ---------------------------------------------

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        for closer in (
            self._stream.close if self._stream else None,
            self._sock.close if self._sock else None,
        ):
            if closer is not None:
                try:
                    closer()
                except OSError:
                    pass
        self._stream = None
        self._sock = None

    def _connect(self) -> Any:
        if self._stream is not None:
            return self._stream
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.socket_path)
        self._sock = sock
        self._stream = sock.makefile("rwb")
        return self._stream

    # -- the retry core -----------------------------------------------------

    def _sleep(self, attempt: int) -> None:
        base = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        time.sleep(base * (0.5 + self._rng.random()))

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send ``request`` and return its response, retrying transient
        transport failures with the same request id throughout."""
        request.setdefault("id", os.urandom(8).hex())
        last_failure: Optional[BaseException] = None
        for attempt in range(1, self.attempts + 1):
            if attempt > 1:
                self._sleep(attempt - 1)
            try:
                stream = self._connect()
                protocol.send_frame(stream, request)
                response = protocol.recv_frame(stream)
            except OSError as exc:
                # Refused (daemon restarting), reset (supervisor died
                # mid-exchange), timed out: drop the socket and retry.
                self.close()
                last_failure = exc
                continue
            if response is None:
                # EOF or torn frame: the connection died after the send;
                # the idempotent id makes the retry safe.
                self.close()
                last_failure = ServerError(
                    "server closed the connection mid-request"
                )
                continue
            status = response.get("status")
            if status == "OVERLOADED":
                raise Overloaded(
                    response.get("error")
                    or "server overloaded; request was shed"
                )
            return response
        raise ServerError(
            f"no response from {self.socket_path} after "
            f"{self.attempts} attempt(s): {last_failure}"
        )

    # -- operations ---------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        response = self.call({"op": "ping"})
        if response.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ServerError(
                f"protocol mismatch: daemon speaks "
                f"{response.get('protocol')!r}, client "
                f"{protocol.PROTOCOL_VERSION!r}"
            )
        return response

    def stats(self) -> Dict[str, Any]:
        return self.call({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        return self.call({"op": "shutdown"})

    def check(
        self,
        definitions: Any,
        spec: Any,
        process: Optional[str] = None,
        depth: int = 5,
        sample: int = 2,
        sets: Sequence[str] = (),
        with_cancel: Optional[str] = None,
        engine: str = "denotational",
        jobs: int = 1,
        budget: Optional[Budget] = None,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
    ) -> Dict[str, Any]:
        """``spec`` may be one assertion or a list of assertions; a list
        is checked as a batch against one warm solved system and the
        response carries a per-assertion ``verdicts`` array."""
        return self.call(
            protocol.query(
                "check",
                definitions,
                process=process,
                spec=spec,
                depth=depth,
                sample=sample,
                sets=sets,
                with_cancel=with_cancel,
                engine=engine,
                jobs=jobs,
                budget=budget,
                cache_dir=cache_dir,
                no_cache=no_cache,
            )
        )

    def traces(
        self,
        definitions: Any,
        process: Optional[str] = None,
        depth: int = 5,
        sample: int = 2,
        sets: Sequence[str] = (),
        with_cancel: Optional[str] = None,
        engine: str = "denotational",
        jobs: int = 1,
        budget: Optional[Budget] = None,
        cache_dir: Optional[str] = None,
        no_cache: bool = False,
    ) -> Dict[str, Any]:
        return self.call(
            protocol.query(
                "traces",
                definitions,
                process=process,
                depth=depth,
                sample=sample,
                sets=sets,
                with_cancel=with_cancel,
                engine=engine,
                jobs=jobs,
                budget=budget,
                cache_dir=cache_dir,
                no_cache=no_cache,
            )
        )
