"""Persisted closure snapshots — warm-starting the kernel across runs.

Arena-backed tries serialise naturally: list the distinct node ids
reachable from a set of roots in post-order and dump their segments as
**flat int buffers** — a per-node arity array, parallel
``edge_events``/``edge_children`` edge tables, and the per-node
``counts``/``heights`` metadata (base64-packed via
:func:`repro.serialize.pack_ints`/``pack_ints64``), against a
deduplicated event table.  This mirrors the arena's own
struct-of-arrays layout (ascending arena ids *are* a post-order, since
children are always interned before parents), so encoding is a linear
copy of int spans and never materialises a view object per node.
Decoding re-interns every node — through
:meth:`~repro.traces.trie.Arena.intern` row by row, or, when numpy is
available and every decoded node is fresh, through a vectorised
validation pass and one :meth:`~repro.traces.trie.Arena.append_rows`
splice that registers byte-identical interner keys.  Either way a
snapshot can never introduce a non-canonical node, only save the work
of building canonical ones; stored counts/heights are verified against
the edge tables (the recurrence has a unique solution over a
post-order, so node-local consistency proves them), never trusted.

numpy is this module's alone, and it loads late: :func:`bulk_codec`
imports it on the first bulk encode or decode, not at import time.
numpy costs more to import than the rest of ``repro`` put together,
and a one-shot ``repro check --no-cache``, ``traces --no-cache`` or
``deadlocks``, the ``repro serve`` supervisor and a ``--server``
client never touch a snapshot, so they never load it.  A serve
worker loads it on its first frame export or snapshot operation.
The denotation engine calls :func:`bulk_codec` before it forks
``--jobs`` children: each child exports its roots through the bulk
encoder, and a module loaded before the fork is inherited for free,
where a lazy import would be paid once per child and again by the
parent to splice.

A snapshot is trusted only as a cache, never as truth:

* it is keyed by a content hash of the definition list, the
  :class:`~repro.semantics.config.SemanticsConfig`, and any extra
  inputs (``--set`` bindings, cancel-protocol flags) — any change to
  the inputs changes the key and orphans the old snapshot;
* the key and a format version are stored *inside* the payload and
  re-checked on load;
* any structural defect — bad JSON, dangling indices, unaligned or
  undecodable packed segments, wrong version, wrong key — discards the
  snapshot and rebuilds from scratch (``SnapshotCache.rebuilt`` reports
  that this happened).

Writes are atomic and *durable* (temp file + ``fsync`` + ``os.replace``)
and failures to persist are swallowed: a read-only cache directory
degrades to cold starts, it never breaks the run.  Three more properties
make the cache safe to share between the ``repro serve`` worker pool and
ordinary CLI invocations:

* **quarantine, not deletion** — a corrupt, torn, or key-mismatched file
  is moved to ``<cache>/quarantine/`` (evidence preserved, never read
  again) and the run rebuilds from scratch;
* **one writer at a time** — ``save`` takes a cross-process ``flock`` on
  a per-key lock file, so two workers never interleave a write;
* **merge before write** — under the lock, ``save`` re-reads the file
  and folds slots another process persisted since we loaded into the
  outgoing payload, so concurrent writers union their slots instead of
  losing the last-but-one update (each slot's content is deterministic
  given the key, so a union is always consistent).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import tempfile
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import serialize
from repro.errors import ReproError
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.traces.events import Event
from repro.traces.trie import ClosureNode, current_state, node_id

try:  # POSIX cross-process advisory locking; absent → single-writer hosts
    import fcntl
except ImportError:  # pragma: no cover - all CI hosts are POSIX
    fcntl = None


@functools.lru_cache(maxsize=None)
def bulk_codec() -> Any:
    """The numpy module behind the bulk codec, imported on the first
    call rather than at module load (the module docstring says why);
    ``None`` where numpy is not installed, and the pure-Python codec
    then writes the same bytes.  Call it before ``os.fork``-ing workers
    that export segments, so they inherit the loaded module."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy ships with the toolchain
        return None
    return numpy


#: On-disk layout version: flat arena segments.  Any other format
#: (including the pre-arena format 1) is quarantined and rebuilt.
FORMAT_VERSION = 2

#: Cache-*key* schema version, hashed into :func:`cache_key`.  Kept
#: separate from :data:`FORMAT_VERSION`: a layout change keeps the file
#: name and the old file is simply quarantined and rebuilt on load —
#: bump this only when the *meaning* of a slot's content changes.
#: Version 2: chan-bearing definition lists are
#: solved at ``hide_depth`` and truncated on export, so ``fix:`` slots
#: for such systems now hold deeper roots than version-1 writers stored.
KEY_VERSION = 2


class SnapshotError(ReproError):
    """The snapshot payload is structurally invalid (internal — callers
    of :class:`SnapshotCache` see a rebuild, not an exception)."""


def encode_roots(roots: Dict[str, ClosureNode]) -> dict:
    """Encode named closure roots as flat post-order arena segments.

    Shared subtrees are written once, preserving the kernel's sharing in
    the file: snapshot size tracks *distinct* nodes, not traces.  The
    encoder exploits two arena invariants:

    * ids are assigned children-first, so the reachable ids sorted
      ascending **are** a valid post-order — no DFS bookkeeping;
    * within a node's span, edges ascend by event id, and file event
      indices are assigned by event-id *rank*, so each emitted edge list
      ascends by file event index too (the decoder's fast path checks,
      then relies on, this).

    With numpy available the reachability sweep and the segment copy are
    vectorised gathers over the arena arrays; the pure-Python path emits
    byte-identical payloads.
    """
    arena = None
    for root in roots.values():
        if root.arena is not None:
            arena = root.arena
            break
    if arena is None:
        arena = current_state().arena
    root_ids = {slot: node_id(root, arena) for slot, root in roots.items()}
    np = bulk_codec()
    if np is not None:
        return _encode_bulk(np, arena, root_ids)
    return _encode_sequential(arena, root_ids)


def _encode_sequential(arena, root_ids: Dict[str, int]) -> dict:
    """Pure-Python encoder (numpy-less hosts); same payload bytes."""
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len

    reachable = set()
    stack: List[int] = []
    for rid in root_ids.values():
        if rid not in reachable:
            reachable.add(rid)
            stack.append(rid)
    while stack:
        nid = stack.pop()
        start = edge_start[nid]
        for k in range(start, start + edge_len[nid]):
            child = edge_children[k]
            if child not in reachable:
                reachable.add(child)
                stack.append(child)
    order = sorted(reachable)
    position = {nid: i for i, nid in enumerate(order)}

    used: set = set()
    for nid in order:
        start = edge_start[nid]
        used.update(edge_events[start : start + edge_len[nid]])
    used_eids = sorted(used)
    rank = {eid: i for i, eid in enumerate(used_eids)}

    arity: List[int] = []
    flat_events: List[int] = []
    flat_children: List[int] = []
    for nid in order:
        start = edge_start[nid]
        length = edge_len[nid]
        arity.append(length)
        for k in range(start, start + length):
            flat_events.append(rank[edge_events[k]])
            flat_children.append(position[edge_children[k]])

    return {
        "events": [serialize.encode(arena.events[eid]) for eid in used_eids],
        "arity": serialize.pack_ints(arity),
        "edge_events": serialize.pack_ints(flat_events),
        "edge_children": serialize.pack_ints(flat_children),
        "counts": serialize.pack_ints64([arena.counts[nid] for nid in order]),
        "heights": serialize.pack_ints([arena.heights[nid] for nid in order]),
        "roots": {slot: position[rid] for slot, rid in root_ids.items()},
    }


def _as_i32(values) -> "array":
    """A native ``array('i')`` spliced from a numpy buffer (C-level)."""
    out = array("i")
    out.frombytes(values.astype("int32", copy=False).tobytes())
    return out


def _encode_bulk(np, arena, root_ids: Dict[str, int]) -> dict:
    """Vectorised encoder: frontier reachability sweep + ragged gather."""
    es = np.frombuffer(arena.edge_start, dtype=np.int32).astype(np.int64)
    el = np.frombuffer(arena.edge_len, dtype=np.int32).astype(np.int64)
    ee = np.frombuffer(arena.edge_events, dtype=np.int32)
    ec = np.frombuffer(arena.edge_children, dtype=np.int32)

    n = arena.node_count()
    seen = np.zeros(n, dtype=bool)
    frontier = np.unique(np.fromiter(root_ids.values(), dtype=np.int64))
    seen[frontier] = True
    mark = np.zeros(n, dtype=bool)  # per-wave dedupe scratch (no sorting)
    while frontier.size:
        lens = el[frontier]
        total = int(lens.sum())
        if not total:
            break
        starts = es[frontier]
        offs = np.zeros(frontier.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=offs[1:])
        idx = np.repeat(starts - offs, lens) + np.arange(total)
        children = ec[idx]
        mark[:] = False
        mark[children[~seen[children]]] = True
        frontier = np.flatnonzero(mark)
        seen[frontier] = True

    order = np.flatnonzero(seen)  # ascending ids = valid post-order
    lens = el[order]
    total = int(lens.sum())
    offs = np.zeros(order.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=offs[1:])
    idx = np.repeat(es[order] - offs, lens) + np.arange(total)
    ev = ee[idx]
    ch = ec[idx]

    used_eids = np.unique(ev)
    rank = np.zeros(int(used_eids[-1]) + 1 if used_eids.size else 1, dtype=np.int32)
    rank[used_eids] = np.arange(used_eids.size, dtype=np.int32)
    position = np.zeros(int(order[-1]) + 1 if order.size else 1, dtype=np.int32)
    position[order] = np.arange(order.size, dtype=np.int32)

    counts = array("q")
    counts.frombytes(
        np.frombuffer(arena.counts, dtype=np.int64)[order].tobytes()
    )
    heights = np.frombuffer(arena.heights, dtype=np.int32)[order]

    return {
        "events": [serialize.encode(arena.events[int(e)]) for e in used_eids],
        "arity": serialize.pack_ints(_as_i32(lens)),
        "edge_events": serialize.pack_ints(_as_i32(rank[ev])),
        "edge_children": serialize.pack_ints(_as_i32(position[ch])),
        "counts": serialize.pack_ints64(counts),
        "heights": serialize.pack_ints(_as_i32(heights)),
        "roots": {
            slot: int(position[rid]) for slot, rid in root_ids.items()
        },
    }


def decode_roots(data: dict) -> Dict[str, ClosureNode]:
    """Decode :func:`encode_roots` output, re-interning every node into
    the current kernel state's arena.

    Raises :class:`SnapshotError` on any structural defect; never
    returns partially decoded state.  Nothing from the file is trusted:
    segments must align, every child index must respect post-order,
    every event index must hit the table, and every node goes back
    through the interner's packed-key gate.
    """
    try:
        events = [serialize.decode(e) for e in data["events"]]
        if not all(isinstance(e, Event) for e in events):
            raise SnapshotError("event table holds a non-event")
        arity = serialize.unpack_ints(data["arity"])
        flat_events = serialize.unpack_ints(data["edge_events"])
        flat_children = serialize.unpack_ints(data["edge_children"])
        if len(flat_events) != len(flat_children):
            raise SnapshotError(
                f"edge segments disagree: {len(flat_events)} events vs "
                f"{len(flat_children)} children"
            )
        if sum(arity) != len(flat_events):
            raise SnapshotError(
                f"arity total {sum(arity)} does not cover "
                f"{len(flat_events)} edges"
            )
        counts = serialize.unpack_ints64(data["counts"])
        heights = serialize.unpack_ints(data["heights"])
        if len(counts) != len(arity) or len(heights) != len(arity):
            raise SnapshotError(
                f"counts/heights segments hold {len(counts)}/{len(heights)} "
                f"entries for {len(arity)} nodes"
            )
        arena = current_state().arena
        eids = [arena.intern_event(e) for e in events]
        ids: Optional[List[int]] = None
        if len(arity) and array("i").itemsize == 4:
            np = bulk_codec()
            if np is not None:
                ids = _decode_bulk(
                    np, arena, eids, arity, flat_events, flat_children,
                    counts, heights,
                )
        if ids is None:
            ids = _decode_sequential(
                arena, eids, arity, flat_events, flat_children, counts, heights
            )
        # ``ids`` is the remap table of this splice — payload-local
        # post-order index to canonical arena id.
        from repro.traces.stats import KERNEL_STATS

        KERNEL_STATS.remap_entries += len(ids)
        roots: Dict[str, ClosureNode] = {}
        for slot, idx in data["roots"].items():
            if not isinstance(slot, str) or not 0 <= idx < len(ids):
                raise SnapshotError(f"bad root entry {slot!r}: {idx!r}")
            roots[slot] = arena.view(ids[idx])
        return roots
    except SnapshotError:
        raise
    except (serialize.SerializationError, ReproError) as exc:
        raise SnapshotError(f"undecodable snapshot payload: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot payload: {exc!r}") from exc


def _decode_sequential(
    arena, eids, arity, flat_events, flat_children, counts, heights
):
    """Per-node decode through :meth:`Arena.intern` — the path every
    host has, and the fallback whenever the bulk path cannot apply
    (numpy missing, nodes already interned, odd payloads).  The file's
    ``counts``/``heights`` segments are cross-checked against the values
    the interner derives — a node whose stored metadata disagrees with
    its own edge tables rejects the whole payload."""
    n_events = len(eids)
    ids: List[int] = []
    append = ids.append
    intern = arena.intern
    arena_counts = arena.counts
    arena_heights = arena.heights
    pos = 0
    for i, a in enumerate(arity):
        if a < 0:
            raise SnapshotError(f"negative arity {a} at node {i}")
        pairs = []
        for k in range(pos, pos + a):
            ev = flat_events[k]
            child = flat_children[k]
            if not 0 <= ev < n_events:
                raise SnapshotError(f"bad event index {ev} at node {i}")
            if not 0 <= child < i:
                raise SnapshotError(
                    f"child index {child} breaks post-order"
                )
            pairs.append((eids[ev], ids[child]))
        pos += a
        pairs.sort()
        flat: List[int] = []
        for j, (eid, cid) in enumerate(pairs):
            if j and eid == pairs[j - 1][0]:
                raise SnapshotError(
                    f"duplicate event on node {i}: two edges share one "
                    f"event index"
                )
            flat.append(eid)
            flat.append(cid)
        nid = intern(flat)
        if arena_counts[nid] != counts[i] or arena_heights[nid] != heights[i]:
            raise SnapshotError(
                f"counts/heights disagree with edge tables at node {i}"
            )
        append(nid)
    return ids


def _decode_bulk(
    np, arena, eids, arity, flat_events, flat_children, counts, heights
):
    """Vectorised decode: validate every structural property of the
    payload with numpy, then splice whole segments into the arena via
    :meth:`Arena.append_rows`.

    Validation is *not* weakened — bounds, post-order, per-node event
    sortedness/distinctness, counts/heights consistency, and
    interner-key freshness are all checked before a single byte is
    appended; the packed keys registered are byte-identical to what
    per-node :meth:`Arena.intern` would compute, so the decoded rows are
    canonical by construction.  The ``counts``/``heights`` recurrences
    have exactly one solution over a post-order file, so checking each
    node's stored value against its children's stored values — one
    ``reduceat`` sweep, no fixpoint — proves the segments correct before
    they are spliced in verbatim.  Returns ``None`` (caller falls back
    to the sequential path) whenever the batch cannot be appended
    wholesale: per-node events arrive unsorted, the file repeats a node,
    or any node is already interned (warm arena).
    """
    arity_np = np.frombuffer(arity, dtype=np.int32)
    fe = np.frombuffer(flat_events, dtype=np.int32)
    fc = np.frombuffer(flat_children, dtype=np.int32)
    n_nodes = len(arity_np)
    if arity_np.size and int(arity_np.min()) < 0:
        i = int(np.argmin(arity_np))
        raise SnapshotError(f"negative arity {int(arity_np[i])} at node {i}")
    node_of_edge = np.repeat(np.arange(n_nodes, dtype=np.int64), arity_np)
    n_events = len(eids)
    bad = (fe < 0) | (fe >= n_events)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise SnapshotError(
            f"bad event index {int(fe[k])} at node {int(node_of_edge[k])}"
        )
    bad = (fc < 0) | (fc >= node_of_edge)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise SnapshotError(f"child index {int(fc[k])} breaks post-order")

    loc = np.asarray(eids, dtype=np.int64)[fe] if fe.size else fe.astype(np.int64)
    within = node_of_edge[1:] == node_of_edge[:-1]
    step = loc[1:] - loc[:-1]
    if bool(np.any((step < 0) & within)):
        return None  # events unsorted inside a node: sort + re-validate
    dup = (step == 0) & within
    if bool(dup.any()):
        k = int(np.flatnonzero(dup)[0])
        raise SnapshotError(
            f"duplicate event on node {int(node_of_edge[k])}: two edges "
            f"share one event index"
        )

    new_mask = arity_np > 0
    n_new = int(new_mask.sum())
    counts_np = np.frombuffer(counts, dtype=np.int64)
    heights_np = np.frombuffer(heights, dtype=np.int32).astype(np.int64)
    leaf_rows = ~new_mask
    if not (
        bool(np.all(counts_np[leaf_rows] == 1))
        and bool(np.all(heights_np[leaf_rows] == 0))
    ):
        raise SnapshotError("counts/heights disagree with edge tables")
    if n_new == 0:
        return [0] * n_nodes
    edge_offs = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(arity_np, out=edge_offs[1:])
    starts = edge_offs[:-1][new_mask]
    # One sweep suffices: children precede parents, and the count/height
    # recurrences have a unique solution, so node-local consistency of
    # the *stored* values proves them all correct.
    want_counts = 1 + np.add.reduceat(counts_np[fc], starts)
    want_heights = np.maximum.reduceat(heights_np[fc] + 1, starts)
    if not (
        np.array_equal(want_counts, counts_np[new_mask])
        and np.array_equal(want_heights, heights_np[new_mask])
    ):
        raise SnapshotError("counts/heights disagree with edge tables")

    base = arena.node_count()
    if base + n_new > 2**31 - 1 or len(arena.edge_events) + fe.size > 2**31 - 1:
        return None  # would overflow 32-bit segments (absurd scale)
    ids_np = np.zeros(n_nodes, dtype=np.int64)
    ids_np[new_mask] = base + np.arange(n_new, dtype=np.int64)
    cid = ids_np[fc]
    loc32 = loc.astype(np.int32)
    interleaved = np.empty(2 * fe.size, dtype=np.int32)
    interleaved[0::2] = loc32
    interleaved[1::2] = cid.astype(np.int32)
    buf = interleaved.tobytes()

    byte_offs = (edge_offs * 8).tolist()
    keys = [buf[a:b] for a, b in zip(byte_offs, byte_offs[1:]) if a != b]
    interner = arena.interner
    distinct = set(keys)
    if len(distinct) != n_new or not interner.keys().isdisjoint(distinct):
        return None  # repeated or already-interned nodes: dedupe per node

    arena_starts = len(arena.edge_events) + starts
    got = arena.append_rows(
        n_new,
        loc32.tobytes(),
        interleaved[1::2].tobytes(),
        arena_starts.astype(np.int32).tobytes(),
        arity_np[new_mask].tobytes(),
        counts_np[new_mask].tobytes(),
        heights_np[new_mask].astype(np.int32).tobytes(),
        keys,
    )
    assert got == base
    from repro.traces.stats import KERNEL_STATS

    KERNEL_STATS.interner_hits += n_nodes - n_new
    return ids_np.tolist()


def _decode_blobs(data: Any) -> Dict[str, dict]:
    """Structural check of a snapshot's blob table: absent is fine, and
    present means an object mapping slot names to objects.  Content
    validation (are the states decodable? do indices land?) belongs to
    the consumer, which calls :meth:`SnapshotCache.reject` on defects."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise SnapshotError("blob table is not an object")
    for slot, blob in data.items():
        if not isinstance(slot, str) or not isinstance(blob, dict):
            raise SnapshotError(f"bad blob entry {slot!r}")
    return dict(data)


def export_segments(roots: Dict[str, ClosureNode]) -> dict:
    """Encode ``roots`` as a flat segment payload for *in-memory*
    shipping — over a worker-process pipe or a serve-pool socket —
    rather than a snapshot file.

    This is :func:`encode_roots` by another name: the wire layout and
    the file layout are deliberately the same format-2 segments, so the
    process dispatcher and the solved-system share path reuse the
    vectorised codec (and its validation on the receiving side) without
    a second format.
    """
    return encode_roots(roots)


def splice_segments(payload: dict) -> Dict[str, ClosureNode]:
    """Splice a shipped segment payload into the current kernel state.

    Decodes with full validation (:func:`decode_roots`) under a
    suspended governor: callers on the splice path — the engine's
    process dispatcher, the serve warm-roots adopter — account for the
    shipped work explicitly (per-unit node deltas reported by the child,
    or not at all for cache warming), so the splice itself must not
    double-charge the ambient budget.
    """
    with _governor.suspended():
        return decode_roots(payload)


def cache_key(definitions: Any, config: Any, extra: Any = None) -> str:
    """Content hash identifying one semantic situation.

    Any input that can change a closure must feed the key: the
    definition list itself, the denotation config (depth, sample,
    hide-depth), and caller-provided extras (environment ``--set``
    bindings, protocol flags).  Hash collisions aside, equal keys imply
    equal denotations — the invariant the cache relies on.  The hashed
    version is :data:`KEY_VERSION`, not the file layout version.
    """
    payload = {
        "version": KEY_VERSION,
        "definitions": serialize.encode(definitions),
        "config": [config.depth, config.sample, config.hide_depth],
        "extra": extra,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


#: Budget-aware checkpoint slots.  ``fix:{name}@level{k}`` holds the
#: closure of ``name`` completed at depth ``k`` of a governed run's
#: deepening schedule; ``frontier:{name}@level{k}`` holds the explorer's
#: visible-trace closure completed at BFS level ``k`` (plus a state blob,
#: see :meth:`SnapshotCache.put_blob`); ``forall:{name}@instance{i}``
#: records one verified instance of a universal check.  Each slot's
#: content is fully determined by the definitions and config (the cache
#: key) and the level/instance — never by the budget that interrupted
#: the run — so serving these slots keeps governed invocations
#: deterministic.
_CHECKPOINT_SLOT = re.compile(
    r"(?:fix|frontier):.+@level\d+\Z|forall:.+@instance\d+\Z"
)


def fix_slot(name: str) -> str:
    """The ungoverned full-solve slot for ``name`` — the vocabulary the
    denotation engine persists solved SCC entries under.  Defined here so
    both semantics draw their slot names from one module."""
    return f"fix:{name}"


def checkpoint_slot(name: str, level: int) -> str:
    """The slot holding ``name``'s closure completed at depth ``level``."""
    return f"fix:{name}@level{level}"


def frontier_slot(name: str, level: int) -> str:
    """The slot holding ``name``'s explorer frontier completed at BFS
    level ``level`` (trace-closure root + serialised frontier states)."""
    return f"frontier:{name}@level{level}"


def forall_slot(name: str, instance: int) -> str:
    """The slot recording that instance ``instance`` of the universal
    check ``name`` verified at the configured depth."""
    return f"forall:{name}@instance{instance}"


def is_checkpoint_slot(slot: str) -> bool:
    """True for slots in the deterministic checkpoint vocabularies
    (``fix:…@level{k}``, ``frontier:…@level{k}``, ``forall:…@instance{i}``)."""
    return _CHECKPOINT_SLOT.match(slot) is not None


class SnapshotCache:
    """One snapshot file: named closure slots for one cache key.

    Slots are free-form strings (``fix:name``, ``traces:...:d5``); the
    engine and sat checker agree on the vocabulary.  ``get`` misses
    rather than raising; ``save`` silently degrades on unwritable
    directories.

    With ``checkpoint_only=True`` (governed runs) the cache serves and
    records **only** checkpoint slots (``fix:{name}@level{k}``,
    ``frontier:{name}@level{k}``, ``forall:{name}@instance{i}``): those
    are per-completed-step values of a deepening schedule, deterministic
    regardless of where a budget tripped, while the full-depth slot
    vocabulary is reserved for ungoverned runs whose results are always
    complete.

    Beside closure roots, slots may carry **blobs** — small
    JSON-compatible dicts (serialised explorer states, verified
    ``forall`` instances) stored under the same names and the same
    key/quarantine discipline.  Blob *structure* is validated here (an
    object of objects); blob *content* is validated by the consumer,
    which calls :meth:`reject` on anything defective so the evidence is
    quarantined exactly like a torn file.
    """

    def __init__(
        self, directory: Path, key: str, checkpoint_only: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.key = key
        self.checkpoint_only = checkpoint_only
        self.path = self.directory / f"snapshot-{key}.json"
        self.hits = 0
        self.misses = 0
        self.loaded = False
        self.rebuilt = False
        self.quarantined = False
        self._dirty = False
        self._roots: Dict[str, ClosureNode] = {}
        self._blobs: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        try:
            self._roots, self._blobs = self._decode_file(raw)
            self.loaded = True
        except (json.JSONDecodeError, SnapshotError, ReproError):
            # Corrupted, stale, or foreign snapshot: rebuild from scratch
            # and move the evidence aside so it is never read again.
            self._roots = {}
            self._blobs = {}
            self.rebuilt = True
            self._quarantine()

    def _decode_file(
        self, raw: str
    ) -> Tuple[Dict[str, ClosureNode], Dict[str, dict]]:
        """Decode one snapshot file's text, rejecting anything that is
        not *this* cache key in a known format."""
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise SnapshotError("payload is not an object")
        if data.get("key") != self.key:
            raise SnapshotError("key mismatch")
        fmt = data.get("format")
        if fmt != FORMAT_VERSION:
            raise SnapshotError(f"format {fmt!r}")
        return decode_roots(data), _decode_blobs(data.get("blobs"))

    def _quarantine(self) -> None:
        """Move the defective file to ``<cache>/quarantine/`` — rebuilt,
        never trusted, and never fatal: any filesystem trouble leaves the
        file in place, where the next load rebuilds over it anyway."""
        try:
            qdir = self.directory / "quarantine"
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(self.path, qdir / self.path.name)
            self.quarantined = True
        except OSError:
            pass

    def get(self, slot: str) -> Optional[ClosureNode]:
        if self.checkpoint_only and not is_checkpoint_slot(slot):
            self.misses += 1
            return None
        node = self._roots.get(slot)
        if node is None:
            self.misses += 1
        else:
            self.hits += 1
        return node

    def put(self, slot: str, node: ClosureNode) -> None:
        if self.checkpoint_only and not is_checkpoint_slot(slot):
            return
        if self._roots.get(slot) is not node:
            self._roots[slot] = node
            self._dirty = True

    def get_blob(self, slot: str) -> Optional[dict]:
        """The JSON blob stored under ``slot``, or ``None`` (same
        checkpoint-only gating as :meth:`get`)."""
        if self.checkpoint_only and not is_checkpoint_slot(slot):
            self.misses += 1
            return None
        blob = self._blobs.get(slot)
        if blob is None:
            self.misses += 1
        else:
            self.hits += 1
        return blob

    def put_blob(self, slot: str, blob: dict) -> None:
        """Record a JSON-compatible dict under ``slot`` (persisted on the
        next :meth:`save`, merged like closure slots)."""
        if self.checkpoint_only and not is_checkpoint_slot(slot):
            return
        if self._blobs.get(slot) != blob:
            self._blobs[slot] = blob
            self._dirty = True

    def reject(self) -> None:
        """Consumer-detected corruption: a blob decoded structurally but
        its *content* failed validation (undecodable state, index out of
        bounds, frontier/closure mismatch).  Quarantine the file and drop
        everything loaded from it — the caller rebuilds cold, exactly as
        if the file had been torn."""
        self._roots = {}
        self._blobs = {}
        self._dirty = False
        self.rebuilt = True
        self._quarantine()

    def __len__(self) -> int:
        return len(self._roots)

    @contextmanager
    def _writer_lock(self) -> Iterator[None]:
        """Cross-process exclusive lock serialising writers of this key.

        Advisory ``flock`` on a per-key lock file (not the snapshot file
        itself — that gets atomically replaced, which would orphan the
        lock).  Hosts without ``fcntl``, or a directory where the lock
        file cannot be opened, degrade to unlocked writes — exactly the
        pre-lock behaviour, still atomic per write."""
        if fcntl is None:
            yield
            return
        try:
            fd = os.open(
                str(self.directory / f".lock-{self.key}"),
                os.O_CREAT | os.O_RDWR,
                0o644,
            )
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _disk_state(self) -> Tuple[Dict[str, ClosureNode], Dict[str, dict]]:
        """Slots currently on disk — possibly written by another process
        since we loaded.  Folding them into our save turns concurrent
        writers into a slot *union* (no lost update); a defective disk
        copy contributes nothing (the next load quarantines it)."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}, {}
        try:
            return self._decode_file(raw)
        except (json.JSONDecodeError, SnapshotError, ReproError):
            return {}, {}

    def save(self) -> None:
        """Persist atomically and durably (temp file + ``fsync`` +
        ``os.replace``) under the cross-process writer lock, merging
        slots a concurrent writer persisted since we loaded; never
        raises on filesystem trouble.

        Runs with the ambient governor suspended: persistence must not
        spend the budget of the computation it is saving (a tripped run
        still writes its checkpoint slots, and merging a peer's slots
        re-interns nodes that are not this run's work).
        """
        if not self._dirty:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._writer_lock(), _governor.suspended():
                merged, merged_blobs = self._disk_state()
                merged.update(self._roots)
                merged_blobs.update(self._blobs)
                data = encode_roots(merged)
                data["format"] = FORMAT_VERSION
                data["key"] = self.key
                if merged_blobs:
                    data["blobs"] = merged_blobs
                blob = json.dumps(data, separators=(",", ":"))
                _faults.maybe_fail("snapshot.write")
                fd, tmp = tempfile.mkstemp(
                    prefix=".snapshot-", suffix=".tmp", dir=str(self.directory)
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        handle.write(blob)
                        handle.flush()
                        os.fsync(handle.fileno())
                    _faults.maybe_fail("snapshot.write")
                    os.replace(tmp, self.path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except OSError:
            return
        self._dirty = False
