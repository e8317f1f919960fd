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
Decoding re-interns every node row by row through
:meth:`~repro.traces.trie.Arena.intern`, so a snapshot can never
introduce a non-canonical node, only save the work of building
canonical ones; stored counts/heights are checked against the values
the interner derives from the edge tables, never trusted.

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
  again) and the run rebuilds from scratch; a healthy file that a
  governed run cannot afford to decode stays where it is and serves
  that run nothing;
* **one writer at a time** — ``save`` takes a cross-process ``flock`` on
  a per-key lock file, so two workers never interleave a write;
* **merge before write** — under the lock, ``save`` re-reads the file
  and folds slots another process persisted since we loaded into the
  outgoing payload, so concurrent writers union their slots instead of
  losing the last-but-one update (each slot's content is deterministic
  given the key, so a union is always consistent).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro import serialize
from repro.errors import BudgetExceeded, ReproError
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.traces.events import Event
from repro.traces.stats import KERNEL_STATS
from repro.traces.trie import ClosureNode, current_state, node_id

try:  # POSIX cross-process advisory locking; absent → single-writer hosts
    import fcntl
except ImportError:  # pragma: no cover - all CI hosts are POSIX
    fcntl = None


#: On-disk layout version: flat arena segments.  Any other format
#: (including the pre-arena format 1) is quarantined and rebuilt.
FORMAT_VERSION = 2

#: Cache-*key* schema version, hashed into :func:`cache_key`.  Kept
#: separate from :data:`FORMAT_VERSION`: a layout change keeps the file
#: name and the old file is simply quarantined and rebuilt on load —
#: bump this only when the *meaning* of a slot's content changes.
#: Version 2: chan-bearing definition lists were solved at
#: ``hide_depth`` and truncated on export, so the ``fix:`` slots of such
#: systems held deeper roots than version-1 writers stored.  Nothing
#: reads a ``fix:`` slot any more: a closure is ``traces:…:d{depth}``
#: whichever run built it, and the ``fix:`` slots of older files ride
#: along unread through merge-before-write.
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
      ascends by file event index too.
    """
    arena = None
    for root in roots.values():
        if root.arena is not None:
            arena = root.arena
            break
    if arena is None:
        arena = current_state().arena
    root_ids = {slot: node_id(root, arena) for slot, root in roots.items()}
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


def decode_roots(data: dict) -> Dict[str, ClosureNode]:
    """Decode :func:`encode_roots` output, re-interning every node into
    the current kernel state's arena.

    Raises :class:`SnapshotError` on any structural defect and returns
    no root from a defective payload; nodes decoded before the defect
    stay interned, canonical and unreachable.  Nothing from the file is
    trusted: segments must align, every child index must respect
    post-order, every event index must hit the table, and every node
    goes back through the interner's packed-key gate.

    Under a governor the re-interned nodes are charged to the budget.  A
    payload with more nodes than ``--max-nodes`` has left is refused up
    front with :class:`BudgetExceeded`, nothing interned or charged; a
    trip mid-decode (the deadline) propagates unchanged.  Neither is a
    defect.
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
        # A load the budget cannot pay for in full is refused before it
        # starts: half of one would spend the budget and serve nothing.
        # Every row but the leaf may intern a fresh node.
        governor = _governor.current()
        limit = governor.budget.max_nodes if governor is not None else None
        fresh = len(arity) - 1
        if limit is not None and governor.nodes_interned + fresh > limit:
            raise BudgetExceeded("interned-node", limit, governor.checkpoint())
        arena = current_state().arena
        eids = [arena.intern_event(e) for e in events]
        ids = _decode_sequential(
            arena, eids, arity, flat_events, flat_children, counts, heights
        )
        # ``ids`` is the remap table of this splice — payload-local
        # post-order index to canonical arena id.
        KERNEL_STATS.remap_entries += len(ids)
        roots: Dict[str, ClosureNode] = {}
        for slot, idx in data["roots"].items():
            if not isinstance(slot, str) or not 0 <= idx < len(ids):
                raise SnapshotError(f"bad root entry {slot!r}: {idx!r}")
            roots[slot] = arena.view(ids[idx])
        return roots
    except (SnapshotError, BudgetExceeded):
        raise
    except (serialize.SerializationError, ReproError) as exc:
        raise SnapshotError(f"undecodable snapshot payload: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotError(f"malformed snapshot payload: {exc!r}") from exc


def _decode_sequential(
    arena, eids, arity, flat_events, flat_children, counts, heights
):
    """Per-node decode through :meth:`Arena.intern`.  The file's
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


def export_segments(roots: Dict[str, ClosureNode]) -> dict:
    """Encode ``roots`` as a flat segment payload for *in-memory*
    shipping over a serve-pool socket rather than a snapshot file.

    This is :func:`encode_roots` by another name: the wire layout and
    the file layout are deliberately the same format-2 segments, so the
    solved-system share path reuses the codec (and its validation on the
    receiving side) without a second format.
    """
    return encode_roots(roots)


#: The packed int segments of a format-2 payload.
_SEGMENTS = ("arity", "edge_events", "edge_children", "counts", "heights")


def splice_segments(payload: dict) -> Dict[str, ClosureNode]:
    """Splice a shipped segment payload into the current kernel state.

    Decodes with full validation (:func:`decode_roots`) under a
    suspended governor: the caller, the serve warm-roots adopter, warms
    a cache and charges no query's budget.  A payload that decodes
    counts its nodes and packed segment bytes as spliced traffic.
    """
    with _governor.suspended():
        roots = decode_roots(payload)
    # Byte size of each segment, read off its validated base64 (three
    # bytes per four characters, less padding); ``counts`` holds eight
    # bytes per node.
    sizes = {
        key: len(payload[key]) // 4 * 3 - payload[key].count("=")
        for key in _SEGMENTS
    }
    KERNEL_STATS.spliced_ids += sizes["counts"] // 8
    KERNEL_STATS.spliced_bytes += sum(sizes.values())
    return roots


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


class SnapshotCache:
    """One snapshot file: named closure slots for one cache key.

    Slots are free-form strings.  The sat checker writes them: every
    run, governed or not, stores each named target's closure under
    ``traces:{engine}:{name}:d{depth}``, one slot per depth it built.
    ``get`` misses rather than raising; ``save`` silently degrades on
    unwritable directories.
    """

    def __init__(self, directory: Path, key: str) -> None:
        self.directory = Path(directory)
        self.key = key
        self.path = self.directory / f"snapshot-{key}.json"
        self.hits = 0
        self.misses = 0
        self.loaded = False
        self.rebuilt = False
        self.quarantined = False
        self._dirty = False
        self._roots: Dict[str, ClosureNode] = {}
        self._load()

    def _load(self) -> None:
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        try:
            self._roots = self._decode_file(raw)
            self.loaded = True
        except BudgetExceeded:
            # A healthy file this run cannot afford to decode: keep it
            # for a run that can, and start this one cold.
            pass
        except (json.JSONDecodeError, SnapshotError, ReproError):
            # Corrupted, stale, or foreign snapshot: rebuild from scratch
            # and move the evidence aside so it is never read again.
            self._roots = {}
            self.rebuilt = True
            self._quarantine()

    def _decode_file(self, raw: str) -> Dict[str, ClosureNode]:
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
        return decode_roots(data)

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
        node = self._roots.get(slot)
        if node is None:
            self.misses += 1
        else:
            self.hits += 1
        return node

    def put(self, slot: str, node: ClosureNode) -> None:
        if self._roots.get(slot) is not node:
            self._roots[slot] = node
            self._dirty = True

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

    def _disk_state(self) -> Dict[str, ClosureNode]:
        """Slots currently on disk — possibly written by another process
        since we loaded.  Folding them into our save turns concurrent
        writers into a slot *union* (no lost update); a defective disk
        copy contributes nothing (the next load quarantines it)."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}
        try:
            return self._decode_file(raw)
        except (json.JSONDecodeError, SnapshotError, ReproError):
            return {}

    def save(self) -> None:
        """Persist atomically and durably (temp file + ``fsync`` +
        ``os.replace``) under the cross-process writer lock, merging
        slots a concurrent writer persisted since we loaded; never
        raises on filesystem trouble.

        Runs with the ambient governor suspended: persistence must not
        spend the budget of the computation it is saving (a tripped run
        still writes the closures of the depths it completed, and merging a peer's slots
        re-interns nodes that are not this run's work).
        """
        if not self._dirty:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._writer_lock(), _governor.suspended():
                merged = self._disk_state()
                merged.update(self._roots)
                data = encode_roots(merged)
                data["format"] = FORMAT_VERSION
                data["key"] = self.key
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
