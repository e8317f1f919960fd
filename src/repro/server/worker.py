"""The ``repro serve`` worker: one warm kernel, one request at a time.

Spawned by the supervisor as ``python -m repro.server.worker --fd N``
with one end of a ``socketpair`` inherited on fd ``N``; reads request
frames off it, answers them, and exits when the supervisor closes its
end.  The loop is deliberately single-threaded: a worker is the unit of
*crash isolation*, not of concurrency — parallelism comes from the pool.

A query is answered by :mod:`repro.query`, the path ``repro check`` and
``repro traces`` take locally; this module only checks the wire fields
and keeps the warm state.  Warmth is the whole point of serving: the
process-global arena kernel accumulates interned nodes across requests,
and per-system :class:`~repro.sat.checker.SatChecker` instances (with
their memoised Denoter or explorer and snapshot caches) are kept in a small
LRU keyed by :func:`repro.server.protocol.situation`, so the hundredth
``P sat R`` query against one solved system pays only the sat walk.

Failure contract:

* a library error inside a query becomes an ``ERROR`` response carrying
  the exact ``error:`` line and exit code the CLI would have produced;
* a :class:`~repro.runtime.faults.FaultInjected` at the
  ``serve.worker_exit`` site becomes ``os._exit`` — a SIGKILL-grade
  crash mid-request, exercised by the chaos suite — and at any other
  site it propagates and kills the worker the ordinary way;
* per-request budgets run under a fresh :class:`Governor` and a fresh
  private arena, so a budget trip yields the same sound ``PARTIAL``
  verdict (plus resume slots) as a governed local run, however warm the
  worker is.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro import query, serialize
from repro.errors import ServerError, exit_code_for
from repro.process.definitions import DefinitionList
from repro.runtime import faults as _faults
from repro.runtime.faults import FaultInjected
from repro.runtime.governor import Budget, activate
from repro.server import protocol

#: Warm checkers kept per semantic situation (definitions, config,
#: bindings, engine, cache placement); least-recently-used beyond this
#: many distinct situations are dropped (their interned nodes stay warm
#: in the process-global arena either way).
CHECKER_POOL_SIZE = 8

_CHECKERS: "OrderedDict[str, Any]" = OrderedDict()

#: Solved-system roots adopted from sibling workers via the supervisor's
#: ``warm`` op, keyed by situation — spliced into this worker's arena and
#: seeded into the next checker built for that situation.
_WARM_ROOTS: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

#: Always empty (nothing writes it); kept because
#: ``benchmarks/e2e/spans.py`` clears it.
_WARM_BLOBS: "OrderedDict[str, Dict[str, dict]]" = OrderedDict()


class MemoryRootsCache:
    """Slot→root cache layered over the optional disk snapshot cache.

    The in-memory layer is the unit of cross-worker solved-system
    sharing: every root this worker solves is recorded under its slot
    (``fresh`` until exported), and roots a sibling solved arrive
    pre-spliced via :meth:`adopt`.  Presents the same ``get``/``put``/
    ``save`` surface as :class:`~repro.traces.snapshot.SnapshotCache`,
    so the checker uses it unchanged."""

    #: Never checkpoint-only — governed requests bypass sharing entirely.
    checkpoint_only = False

    def __init__(self, inner: Any = None, seed: Optional[Dict[str, Any]] = None):
        self.inner = inner
        self.roots: Dict[str, Any] = dict(seed or {})
        self.fresh: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    @property
    def rebuilt(self) -> bool:
        return bool(getattr(self.inner, "rebuilt", False))

    def get(self, slot: str):
        node = self.roots.get(slot)
        if node is None and self.inner is not None:
            node = self.inner.get(slot)
            if node is not None:
                self.roots[slot] = node
        if node is None:
            self.misses += 1
            return None
        self.hits += 1
        return node

    def put(self, slot: str, root: Any) -> None:
        self.roots[slot] = root
        self.fresh[slot] = root
        if self.inner is not None:
            self.inner.put(slot, root)

    def adopt(self, roots: Dict[str, Any]) -> None:
        """Merge spliced sibling roots (never overwriting local solves,
        and never re-exported — the pool already has them)."""
        for slot, node in roots.items():
            self.roots.setdefault(slot, node)

    def take_fresh(self) -> Dict[str, Any]:
        """Roots solved locally since the last export (and reset)."""
        fresh, self.fresh = self.fresh, {}
        return fresh

    def save(self) -> None:
        if self.inner is not None:
            self.inner.save()


def _checker_for(defs: Any, request: Dict[str, Any], governed: bool):
    """A :class:`SatChecker` for this request — reused across requests
    when ungoverned (governed runs need fresh checkpoint-only caches and
    a supply whose memo lives in their own private arena)."""
    if governed:
        return query.open_checker(defs, request, governed)
    key = protocol.situation(request)
    if key in _CHECKERS:
        _CHECKERS.move_to_end(key)
        return _CHECKERS[key]
    checker = query.open_checker(defs, request, governed)
    # Ungoverned checkers cache through the shared-roots layer, so a
    # system a sibling worker already solved warm-starts here too.
    checker.cache = MemoryRootsCache(checker.cache, _WARM_ROOTS.get(key))
    _CHECKERS[key] = checker
    while len(_CHECKERS) > CHECKER_POOL_SIZE:
        _CHECKERS.popitem(last=False)
    return checker


def run_query(request: Dict[str, Any]) -> Dict[str, Any]:
    """Answer one ``check``/``traces`` request through :mod:`repro.query`
    — exactly as the local CLI would — after checking its wire fields."""
    op = request["op"]
    if request.get("engine", "denotational") not in (
        "denotational",
        "operational",
    ):
        raise ServerError(f"unknown engine {request.get('engine')!r}")
    defs = serialize.decode(request["definitions"])
    if not isinstance(defs, DefinitionList):
        raise ServerError("definitions payload is not a definition list")
    specs: list = []
    if op == "check":
        raw = request.get("spec")
        if not raw:
            raise ServerError("check request carries no spec")
        specs = list(raw) if isinstance(raw, list) else [raw]
        if not all(isinstance(s, str) and s for s in specs):
            raise ServerError("check batch carries a non-string spec")
    budget = Budget.from_spec(request.get("budget"))
    governed = budget is not None
    with activate(budget.start() if governed else None):
        answer, cache = query.run(
            defs, op, specs, request, governed, checker_for=_checker_for
        )
    response = {
        "id": request.get("id"),
        "status": "OK",
        "exit_code": answer.exit_code,
        "stdout": answer.stdout,
        "stderr": answer.stderr,
        "pid": os.getpid(),
    }
    if op == "check":
        response["verdicts"] = list(answer.verdicts)
    if answer.resume_slots:
        response["resume_slots"] = list(answer.resume_slots)
    if isinstance(cache, MemoryRootsCache) and cache.take_fresh():
        # Export the *whole* slot map, not just the fresh slots — each
        # segment frame must be self-contained (root ids are local to
        # its node tables), and the supervisor replaces frames wholesale.
        from repro.traces.snapshot import export_segments

        response["solved"] = {
            "situation": protocol.situation(request),
            "roots": export_segments(cache.roots),
        }
    return response


def adopt_roots(request: Dict[str, Any]) -> Dict[str, Any]:
    """The supervisor's ``warm`` op: splice a sibling worker's solved
    roots (flat format-2 segments) into this worker's canonical arena
    and remember them per situation, so the next checker built for that
    situation restores them instead of solving.

    Splicing validates the payload fully — a torn or corrupt segment
    raises and becomes an ``ERROR`` response before any root is adopted
    (rows decoded ahead of the defect stay interned, canonical and
    unreachable), so a worker can never be poisoned by a bad warm
    frame."""
    from repro.traces.snapshot import splice_segments

    rid = request.get("id")
    situation = request.get("situation")
    if not situation or not isinstance(request.get("roots"), dict):
        raise ServerError("warm request carries no situation or roots")
    roots = splice_segments(request["roots"])
    known = _WARM_ROOTS.setdefault(situation, {})
    for slot, node in roots.items():
        known.setdefault(slot, node)
    _WARM_ROOTS.move_to_end(situation)
    while len(_WARM_ROOTS) > CHECKER_POOL_SIZE:
        _WARM_ROOTS.popitem(last=False)
    cached = _CHECKERS.get(situation)
    if cached is not None and isinstance(cached.cache, MemoryRootsCache):
        cached.cache.adopt(roots)
    return {
        "id": rid,
        "status": "OK",
        "exit_code": 0,
        "adopted": len(roots),
        "pid": os.getpid(),
    }


def handle(request: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one request; every failure that is not a simulated crash
    becomes a structured ``ERROR`` response (the worker must survive bad
    queries — robustness would be cheap if only good input arrived)."""
    rid = request.get("id")
    op = request.get("op")
    try:
        if op == "ping":
            return {
                "id": rid,
                "status": "OK",
                "exit_code": 0,
                "pid": os.getpid(),
                "protocol": protocol.PROTOCOL_VERSION,
            }
        if op == "warm":
            return adopt_roots(request)
        if op in ("check", "traces"):
            return run_query(request)
        raise ServerError(f"unknown op {op!r}")
    except FaultInjected:
        raise  # simulated crash: must not be converted to a response
    except Exception as exc:
        return protocol.error_response(
            rid, exit_code_for(exc), str(exc), pid=os.getpid()
        )


def serve(sock: socket.socket) -> None:
    """The request loop: read a frame, answer it, repeat until EOF."""
    stream = sock.makefile("rwb")
    while True:
        request = protocol.recv_frame(stream)
        if request is None:
            return  # supervisor closed its end: clean exit
        try:
            _faults.maybe_fail("serve.worker_exit")
        except FaultInjected:
            # Simulate a SIGKILL-grade crash mid-request: no response, no
            # cleanup, no atexit — exactly what the supervisor must heal.
            os._exit(86)
        response = handle(request)
        try:
            protocol.send_frame(stream, response)
        except OSError:
            return  # supervisor gone mid-response


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-serve-worker")
    parser.add_argument(
        "--fd", type=int, required=True, help="inherited socketpair fd"
    )
    parser.add_argument(
        "--inject",
        metavar="SITE[:AFTER]",
        help="arm a deterministic fault plan in this worker (chaos tests)",
    )
    args = parser.parse_args(argv)
    sock = socket.socket(fileno=args.fd)
    if args.inject:
        with _faults.inject(_faults.parse_plan(args.inject)):
            serve(sock)
    else:
        serve(sock)
    return 0


if __name__ == "__main__":
    sys.exit(main())
