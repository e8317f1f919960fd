"""The ``repro serve`` worker: one warm kernel, one request at a time.

Spawned by the supervisor as ``python -m repro.server.worker --fd N``
with one end of a ``socketpair`` inherited on fd ``N``; reads request
frames off it, answers them, and exits when the supervisor closes its
end.  The loop is deliberately single-threaded: a worker is the unit of
*crash isolation*, not of concurrency — parallelism comes from the pool.

Warmth is the whole point of serving: the process-global arena kernel
accumulates interned nodes across requests, and per-system
:class:`~repro.sat.checker.SatChecker` instances (with their solved
engine bindings and snapshot caches) are kept in a small LRU keyed by
the semantic situation, so the hundredth ``P sat R`` query against one
solved system pays only the sat walk.

Failure contract:

* a library error inside a query becomes an ``ERROR`` response carrying
  the exact ``error:`` line and exit code the CLI would have produced;
* a :class:`~repro.runtime.faults.FaultInjected` at the
  ``serve.worker_exit`` site becomes ``os._exit`` — a SIGKILL-grade
  crash mid-request, exercised by the chaos suite — and at any other
  site it propagates and kills the worker the ordinary way;
* per-request budgets run under a fresh :class:`Governor`, so a
  deadline trip yields the same sound ``PARTIAL`` verdict (plus resume
  slots) as a governed local run.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro import serialize
from repro.errors import BudgetExceeded, ServerError, exit_code_for
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

_CHECKERS: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()

#: Solved-system roots adopted from sibling workers via the supervisor's
#: ``warm`` op, keyed by situation — spliced into this worker's arena and
#: seeded into the next checker built for that situation.
_WARM_ROOTS: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

#: Checkpoint blobs (explorer frontiers, ``forall`` instance receipts)
#: riding the same ``warm`` frames, keyed by situation.  Blobs are plain
#: JSON dicts — no splicing needed — but they are only trusted after the
#: consumer's own validation, exactly like blobs read from disk.
_WARM_BLOBS: "OrderedDict[str, Dict[str, dict]]" = OrderedDict()


def _situation_key(request: Dict[str, Any]) -> str:
    """One string per semantic situation a checker can be reused for.

    Built from the *raw* request fields only, so the supervisor (which
    routes shared solved-system roots by this key) computes the identical
    key."""
    import json

    return json.dumps(
        [
            request.get("definitions"),
            request.get("depth", 5),
            request.get("sample", 2),
            sorted(request.get("sets") or []),
            request.get("with_cancel"),
            request.get("engine", "denotational"),
            request.get("jobs", 1),
            request.get("cache_dir"),
            bool(request.get("no_cache")),
        ],
        sort_keys=True,
        separators=(",", ":"),
    )


class MemoryRootsCache:
    """Slot→root cache layered over the optional disk snapshot cache.

    The in-memory layer is the unit of cross-worker solved-system
    sharing: every root this worker solves is recorded under its slot
    (``fresh`` until exported), and roots a sibling solved arrive
    pre-spliced via :meth:`adopt`.  Presents the same ``get``/``put``/
    ``save`` surface as :class:`~repro.traces.snapshot.SnapshotCache`,
    so checkers and engines use it unchanged."""

    #: Never checkpoint-only — governed requests bypass sharing entirely.
    checkpoint_only = False

    def __init__(
        self,
        inner: Any = None,
        seed: Optional[Dict[str, Any]] = None,
        seed_blobs: Optional[Dict[str, dict]] = None,
    ):
        self.inner = inner
        self.roots: Dict[str, Any] = dict(seed or {})
        self.blobs: Dict[str, dict] = dict(seed_blobs or {})
        self.fresh: Dict[str, Any] = {}
        self.fresh_blobs: Dict[str, dict] = {}
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

    def get_blob(self, slot: str):
        blob = self.blobs.get(slot)
        if blob is None and self.inner is not None:
            blob = self.inner.get_blob(slot)
            if blob is not None:
                self.blobs[slot] = blob
        if blob is None:
            self.misses += 1
            return None
        self.hits += 1
        return blob

    def put_blob(self, slot: str, blob: dict) -> None:
        self.blobs[slot] = blob
        self.fresh_blobs[slot] = blob
        if self.inner is not None:
            self.inner.put_blob(slot, blob)

    def reject(self) -> None:
        """A consumer found adopted or cached content invalid: drop the
        in-memory layer entirely (nothing here is trusted any more) and
        quarantine the disk layer if there is one."""
        self.roots.clear()
        self.blobs.clear()
        self.fresh.clear()
        self.fresh_blobs.clear()
        if self.inner is not None:
            self.inner.reject()

    def adopt(
        self, roots: Dict[str, Any], blobs: Optional[Dict[str, dict]] = None
    ) -> None:
        """Merge spliced sibling roots (never overwriting local solves,
        and never re-exported — the pool already has them)."""
        for slot, node in roots.items():
            self.roots.setdefault(slot, node)
        for slot, blob in (blobs or {}).items():
            self.blobs.setdefault(slot, blob)

    def take_fresh(self) -> Dict[str, Any]:
        """Roots solved locally since the last export (and reset)."""
        fresh, self.fresh = self.fresh, {}
        return fresh

    def take_fresh_blobs(self) -> Dict[str, dict]:
        """Blobs written locally since the last export (and reset)."""
        fresh, self.fresh_blobs = self.fresh_blobs, {}
        return fresh

    def save(self) -> None:
        if self.inner is not None:
            self.inner.save()


def _open_cache(request: Dict[str, Any], defs: Any, config: Any, governed: bool):
    """The snapshot cache for this request — same directory, key, and
    checkpoint-only rules as :func:`repro.cli._open_cache`, so remote
    and local invocations share slots."""
    if request.get("no_cache"):
        return None
    from pathlib import Path

    from repro.traces.snapshot import SnapshotCache, cache_key

    directory = (
        Path(request["cache_dir"])
        if request.get("cache_dir")
        else Path.home() / ".cache" / "repro"
    )
    extra = {
        "sets": sorted(request.get("sets") or []),
        "with_cancel": request.get("with_cancel"),
    }
    return SnapshotCache(
        directory, cache_key(defs, config, extra), checkpoint_only=governed
    )


def _checker_for(request: Dict[str, Any], defs: Any, governed: bool):
    """A :class:`SatChecker` for this request — reused across requests
    when ungoverned (governed runs need fresh checkpoint-only caches and
    must not inherit warm full-depth engine bindings)."""
    from repro.cli import environment_from_options
    from repro.sat.checker import SatChecker
    from repro.semantics.config import SemanticsConfig

    config = SemanticsConfig(
        depth=int(request.get("depth", 5)), sample=int(request.get("sample", 2))
    )
    key = None if governed else _situation_key(request)
    if key is not None and key in _CHECKERS:
        _CHECKERS.move_to_end(key)
        return _CHECKERS[key]
    env = environment_from_options(
        request.get("sets") or [], request.get("with_cancel")
    )
    cache = _open_cache(request, defs, config, governed)
    if not governed:
        # Ungoverned checkers cache through the shared-roots layer, so a
        # system a sibling worker already solved warm-starts here too.
        cache = MemoryRootsCache(
            inner=cache,
            seed=_WARM_ROOTS.get(key),
            seed_blobs=_WARM_BLOBS.get(key),
        )
    checker = SatChecker(
        defs,
        env,
        config,
        engine=request.get("engine", "denotational"),
        jobs=int(request.get("jobs") or 1),
        cache=cache,
    )
    if key is not None:
        _CHECKERS[key] = (checker, cache)
        while len(_CHECKERS) > CHECKER_POOL_SIZE:
            _CHECKERS.popitem(last=False)
    return checker, cache


def run_query(request: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one ``check``/``traces`` request and render its response
    exactly as the local CLI would."""
    from repro.cli import process_target
    from repro.report import check_outcome, traces_outcome

    rid = request.get("id")
    if request.get("engine", "denotational") not in (
        "denotational",
        "operational",
    ):
        raise ServerError(f"unknown engine {request.get('engine')!r}")
    defs = serialize.decode(request["definitions"])
    if not isinstance(defs, DefinitionList):
        raise ServerError("definitions payload is not a definition list")
    target = process_target(defs, request.get("process") or None)
    name = target.name
    budget = Budget.from_spec(request.get("budget"))
    governor = budget.start() if budget is not None else None
    resume_slots: Tuple[str, ...] = ()
    verdicts: list = []
    with activate(governor):
        checker, cache = _checker_for(request, defs, governor is not None)
        try:
            if request["op"] == "check":
                raw = request.get("spec")
                if not raw:
                    raise ServerError("check request carries no spec")
                specs = list(raw) if isinstance(raw, list) else [raw]
                if not all(isinstance(s, str) and s for s in specs):
                    raise ServerError("check batch carries a non-string spec")
                # Batch: every assertion runs against the same checker —
                # the system is solved once, later specs pay only the sat
                # walk.  A budget trip ends the batch (soundly partial).
                for spec in specs:
                    try:
                        result = checker.check(target, spec)
                    except BudgetExceeded as exc:
                        s_out, s_err, s_code = check_outcome(
                            name, spec, trip=exc
                        )
                        if exc.checkpoint is not None:
                            resume_slots = exc.checkpoint.resume_slots()
                        verdicts.append(
                            {
                                "spec": spec,
                                "exit_code": s_code,
                                "stdout": s_out,
                                "stderr": s_err,
                            }
                        )
                        break
                    s_out, s_err, s_code = check_outcome(
                        name, spec, result=result, depth=checker.config.depth
                    )
                    verdicts.append(
                        {
                            "spec": spec,
                            "exit_code": s_code,
                            "stdout": s_out,
                            "stderr": s_err,
                        }
                    )
                stdout = "\n".join(v["stdout"] for v in verdicts if v["stdout"])
                stderr = "\n".join(v["stderr"] for v in verdicts if v["stderr"])
                code = next(
                    (v["exit_code"] for v in verdicts if v["exit_code"]), 0
                )
            else:
                partial = checker.traces_partial(target)
                stdout, stderr, code = traces_outcome(
                    partial, checker.config.depth, checker.engine
                )
        finally:
            if cache is not None:
                cache.save()
    response = {
        "id": rid,
        "status": "OK",
        "exit_code": code,
        "stdout": stdout,
        "stderr": stderr,
        "pid": os.getpid(),
    }
    if request["op"] == "check":
        response["verdicts"] = verdicts
    if resume_slots:
        response["resume_slots"] = list(resume_slots)
    if isinstance(cache, MemoryRootsCache) and (
        cache.take_fresh() or cache.take_fresh_blobs()
    ):
        # Export the *whole* slot map, not just the fresh slots — each
        # segment frame must be self-contained (root ids are local to
        # its node tables), and the supervisor replaces frames wholesale.
        # Checkpoint blobs (explorer frontiers, forall receipts) ride the
        # same frame so a sibling's warm restart skips re-exploration too.
        from repro.traces.snapshot import export_segments

        response["solved"] = {
            "situation": _situation_key(request),
            "roots": export_segments(cache.roots),
            "blobs": dict(cache.blobs),
        }
    return response


def adopt_roots(request: Dict[str, Any]) -> Dict[str, Any]:
    """The supervisor's ``warm`` op: splice a sibling worker's solved
    roots (flat format-2 segments) into this worker's canonical arena
    and remember them per situation, so the next checker built for that
    situation restores them instead of solving.

    Splicing validates the payload fully — a torn or corrupt segment
    raises and becomes an ``ERROR`` response, leaving the arena exactly
    as it was (the bulk path appends only after validation), so a worker
    can never be poisoned by a bad warm frame."""
    from repro.traces.snapshot import splice_segments

    rid = request.get("id")
    situation = request.get("situation")
    if not situation or not isinstance(request.get("roots"), dict):
        raise ServerError("warm request carries no situation or roots")
    blobs = request.get("blobs")
    if blobs is not None and (
        not isinstance(blobs, dict)
        or not all(
            isinstance(k, str) and isinstance(v, dict) for k, v in blobs.items()
        )
    ):
        raise ServerError("warm request carries malformed blobs")
    roots = splice_segments(request["roots"])
    known = _WARM_ROOTS.setdefault(situation, {})
    for slot, node in roots.items():
        known.setdefault(slot, node)
    _WARM_ROOTS.move_to_end(situation)
    while len(_WARM_ROOTS) > CHECKER_POOL_SIZE:
        _WARM_ROOTS.popitem(last=False)
    if blobs:
        known_blobs = _WARM_BLOBS.setdefault(situation, {})
        for slot, blob in blobs.items():
            known_blobs.setdefault(slot, blob)
        _WARM_BLOBS.move_to_end(situation)
        while len(_WARM_BLOBS) > CHECKER_POOL_SIZE:
            _WARM_BLOBS.popitem(last=False)
    cached = _CHECKERS.get(situation)
    if cached is not None and isinstance(cached[1], MemoryRootsCache):
        cached[1].adopt(roots, blobs)
    return {
        "id": rid,
        "status": "OK",
        "exit_code": 0,
        "adopted": len(roots) + len(blobs or ()),
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
