"""Wire protocol of the ``repro serve`` daemon.

Frames are newline-delimited JSON objects (compact separators, so the
payload itself never contains a raw newline) exchanged over a unix
stream socket.  Structured payloads — the definition list a query runs
against — travel as :mod:`repro.serialize` encodings, so the client
parses the ``.csp`` source once and workers decode the AST without
re-lexing.

A *request* carries::

    {"id": <hex>,              # idempotency token, chosen by the client
     "op": "check"|"traces"|"ping"|"stats"|"shutdown",
     "definitions": <serialize.encode(DefinitionList)>,
     "process": <name or null>,
     "spec": <assertion, list of assertions, or null>,
     "depth": N, "sample": N, "sets": [...], "with_cancel": <name|null>,
     "engine": "denotational"|"operational",
     "budget": {"deadline": s, "max_nodes": n, "max_states": n} | null,
     "cache_dir": <path|null>, "no_cache": bool}

A ``check`` request whose ``spec`` is a *list* is a batch: every
assertion is checked against the same warm solved system inside one
worker dispatch, and the response carries a ``verdicts`` array (one
``{"spec", "exit_code", "stdout", "stderr"}`` entry per assertion, in
request order) beside the concatenated top-level rendering.

An older client may still send a ``"jobs": N`` field.  Workers ignore
it, answering as if it were absent, so ``PROTOCOL_VERSION`` is
unchanged.

A *response* carries ``id``, a coarse ``status`` (``OK`` — the query
ran, see ``exit_code`` for the verdict; ``OVERLOADED`` — shed by the
bounded queue; ``ERROR`` — the query could not run), the CLI
``exit_code``, and the exact ``stdout``/``stderr`` text a local
``repro`` invocation would have printed — byte-identical rendering is
the contract the chaos tests pin down.

Framing errors raise :class:`~repro.errors.ServerError`; a clean EOF
returns ``None`` so callers can distinguish "peer gone" (retryable)
from "peer spoke garbage" (not retryable).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence

from repro import serialize
from repro.errors import ServerError
from repro.runtime.governor import Budget

#: Protocol revision, echoed by ``ping`` so mismatched client/daemon
#: pairs fail loudly instead of mis-parsing each other.
PROTOCOL_VERSION = 1

#: Upper bound on one frame (requests carry whole definition lists, and
#: responses whole trace listings, but 64 MiB of either means a bug).
MAX_FRAME = 64 * 1024 * 1024


def send_frame(stream: Any, payload: Dict[str, Any]) -> None:
    """Write one frame to a ``makefile('rwb')``-style binary stream."""
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(blob) > MAX_FRAME:
        raise ServerError(f"frame of {len(blob)} bytes exceeds {MAX_FRAME}")
    stream.write(blob + b"\n")
    stream.flush()


def recv_frame(stream: Any) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on EOF (peer closed — including halfway
    through a frame, which callers must treat as a lost connection, not
    a short message)."""
    line = stream.readline(MAX_FRAME + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME:
        raise ServerError(f"frame exceeds {MAX_FRAME} bytes")
    if not line.endswith(b"\n"):
        return None  # torn frame: the peer died mid-write
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServerError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServerError(f"frame is not an object: {payload!r}")
    return payload


def query(
    op: str,
    definitions: Any,
    process: Optional[str] = None,
    spec: Any = None,
    depth: int = 5,
    sample: int = 2,
    sets: Sequence[str] = (),
    with_cancel: Optional[str] = None,
    engine: str = "denotational",
    budget: Optional[Budget] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
) -> Dict[str, Any]:
    """Build a ``check``/``traces`` request payload (without an ``id`` —
    the client stamps one so retries of the same call share it).

    ``sets`` is sorted exactly like the CLI sorts ``--set`` bindings, so
    a remote query lands on the *same* snapshot cache key as the local
    invocation it mirrors.  ``spec`` may be a single assertion or a list
    of assertions (a batch checked in one dispatch).
    """
    payload: Dict[str, Any] = {
        "op": op,
        "definitions": serialize.encode(definitions),
        "process": process,
        "spec": list(spec) if isinstance(spec, (list, tuple)) else spec,
        "depth": depth,
        "sample": sample,
        "sets": sorted(sets),
        "with_cancel": with_cancel,
        "engine": engine,
        "no_cache": bool(no_cache),
    }
    if budget is not None:
        payload["budget"] = budget.as_spec()
    if cache_dir is not None:
        payload["cache_dir"] = str(cache_dir)
    return payload


def situation(request: Dict[str, Any]) -> str:
    """One string per semantic situation a warm checker can be reused
    for: definitions, config, bindings, engine and cache placement.

    Built from the raw request fields only, so the worker (which keys its
    checker pool by it) and the supervisor (which routes shared
    solved-system roots by it) compute the same key."""
    return json.dumps(
        [
            request.get("definitions"),
            request.get("depth", 5),
            request.get("sample", 2),
            sorted(request.get("sets") or []),
            request.get("with_cancel"),
            request.get("engine", "denotational"),
            request.get("cache_dir"),
            bool(request.get("no_cache")),
        ],
        sort_keys=True,
        separators=(",", ":"),
    )


def error_response(
    request_id: Optional[str], exit_code: int, message: str, **extra: Any
) -> Dict[str, Any]:
    """A structured failure response, stderr-rendered like the CLI."""
    payload = {
        "id": request_id,
        "status": "ERROR",
        "exit_code": exit_code,
        "stdout": "",
        "stderr": f"error: {message}",
    }
    payload.update(extra)
    return payload
