"""Arena trace-trie kernel — struct-of-arrays storage for prefix closures.

A prefix-closed set of traces (paper §3.1) *is* a tree: the root is the
empty trace, and a node has one child per event that can extend it.  The
kernel stores those trees in an :class:`Arena`: a node is an ``int`` id
naming one row of a set of parallel ``array`` segments (edge span, trace
count, height), its edges are ``(event id, child id)`` pairs in two flat
edge tables, and events and channels are interned to small ints in id
tables of their own.  Nodes are **structurally hash-consed**: interning
is keyed on the packed bytes of the ``(event id, child id)`` edge list,
so building a node that exists returns the existing id, and

* identical subtrees are shared, storing a closure in space proportional
  to its *distinct* suffix behaviours rather than its trace count;
* semantic equality of closures is **id equality** (and pointer equality
  of the per-id view objects), making memo tables keyed on ids O(1) and
  exact;
* prefix closure holds **by construction** — every id reachable from a
  root names a member, so there is nothing to verify at runtime;
* a node costs a handful of array slots instead of a Python object, a
  dict, and a tuple — and snapshots become flat dumps of the arena
  segments (:mod:`repro.traces.snapshot`).

:class:`ClosureNode` survives as a thin **view**: a lazily-materialised
object over one ``(arena, id)`` pair, exposing the pre-arena object API
(``items``, ``children``, ``count``, ``height``) so everything above the
kernel keeps working unchanged.  Views are canonical per id —
``arena.view(i)`` always returns the same object — so pointer identity
of views coincides with id equality.

Arena, interner, and memo tables live in a :class:`KernelState`.  There
is one global state; a governed query swaps in a fresh private state
via :func:`private_state`, so ``--max-nodes`` counts the same fresh
nodes however warm the process is.  The override is thread-local, so
library callers may run kernels on their own threads the same way.
**Arena ids are state-local**: using a view from one state inside
another raises :class:`~repro.errors.KernelStateError` rather than
silently aliasing — see :func:`node_id`.

Operators over nodes live in :mod:`repro.traces.operations`; this module
provides construction, interning, the lattice operations, the delta
primitives, and the derived queries (:func:`iter_traces`,
:func:`descend`, :func:`node_channels`).  All counters report into
:mod:`repro.traces.stats`.
"""

from __future__ import annotations

import threading
from array import array
from collections import deque
from contextlib import contextmanager
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import KernelStateError
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.traces.events import EMPTY_TRACE, Channel, Event, Trace
from repro.traces.stats import KERNEL_STATS


def _item_sort_key(kv: Tuple[Event, "ClosureNode"]):
    return kv[0].sort_key()


class ClosureNode:
    """A view over one interned arena node = one prefix-closed trace set.

    Never construct directly — go through :func:`make_node` (or the
    operators), which intern structurally identical nodes onto one id,
    or :meth:`Arena.view`, which returns the canonical view per id.
    Equality and hashing are object identity, which per-id view caching
    makes coincide with structural equality within a kernel state.

    ``items`` and ``children`` are materialised lazily from the arena's
    edge tables on first access (sorted by event sort key, the
    enumeration order the pre-arena kernel used) and cached on the view;
    the hot operator paths never touch them — they run on ids.
    """

    __slots__ = ("arena", "id", "_items", "_children")

    def __init__(self, arena: Optional["Arena"], nid: int) -> None:
        self.arena = arena
        self.id = nid
        self._items: Optional[Tuple[Tuple[Event, "ClosureNode"], ...]] = None
        self._children: Optional[Dict[Event, "ClosureNode"]] = None

    @property
    def items(self) -> Tuple[Tuple[Event, "ClosureNode"], ...]:
        items = self._items
        if items is None:
            arena = self.arena
            if arena is None:
                items = ()
            else:
                start = arena.edge_start[self.id]
                end = start + arena.edge_len[self.id]
                edge_events = arena.edge_events
                edge_children = arena.edge_children
                events = arena.events
                view = arena.view
                pairs = [
                    (events[edge_events[k]], view(edge_children[k]))
                    for k in range(start, end)
                ]
                pairs.sort(key=_item_sort_key)
                items = tuple(pairs)
            self._items = items
        return items

    @property
    def children(self) -> Dict[Event, "ClosureNode"]:
        children = self._children
        if children is None:
            children = self._children = dict(self.items)
        return children

    @property
    def count(self) -> int:
        arena = self.arena
        return arena.counts[self.id] if arena is not None else 1

    @property
    def height(self) -> int:
        arena = self.arena
        return arena.heights[self.id] if arena is not None else 0

    @property
    def is_leaf(self) -> bool:
        arena = self.arena
        return arena is None or arena.edge_len[self.id] == 0

    def __repr__(self) -> str:
        return f"ClosureNode(<{self.count} traces, height {self.height}>)"


#: ⟦STOP⟧ = {⟨⟩} — the leaf.  One singleton shared by every arena: node 0
#: of every arena is the leaf, and every arena's ``view(0)`` is this
#: object, so ``node is EMPTY_NODE`` stays meaningful across states.
EMPTY_NODE: ClosureNode = ClosureNode(None, 0)


class Arena:
    """Struct-of-arrays node store: one trie kernel's entire population.

    Parallel segments, indexed by node id:

    * ``edge_start[i]`` / ``edge_len[i]`` — the node's span in the edge
      tables;
    * ``counts[i]`` — trace count (1 + Σ child counts);
    * ``heights[i]`` — longest trace length.

    Flat edge tables, indexed by edge position:

    * ``edge_events[k]`` — event id of edge ``k``;
    * ``edge_children[k]`` — child node id of edge ``k``.

    Within a node's span, edges are sorted by **event id**, which makes
    the packed edge list a canonical interning key per arena and lets
    binary operators merge spans by linear int-walk instead of building
    event-keyed dicts.  (Views re-sort by event *sort key* when
    materialising ``items``, preserving the pre-arena enumeration
    order.)

    Id tables intern :class:`~repro.traces.events.Event` and
    :class:`~repro.traces.events.Channel` values to dense ints;
    ``event_channel[e]`` maps an event id to its channel id so ``hide``
    and ``parallel`` classify edges without touching Event objects.

    Node 0 is always the leaf (⟦STOP⟧), seeded at construction.
    """

    __slots__ = (
        "edge_start",
        "edge_len",
        "edge_events",
        "edge_children",
        "counts",
        "heights",
        "interner",
        "views",
        "events",
        "event_ids",
        "event_channel",
        "channels",
        "channel_ids",
        "channel_cache",
    )

    def __init__(self) -> None:
        self.edge_start = array("i", [0])
        self.edge_len = array("i", [0])
        self.edge_events = array("i")
        self.edge_children = array("i")
        self.counts = array("q", [1])
        self.heights = array("i", [0])
        #: packed ``(event id, child id)`` byte key → node id.
        self.interner: Dict[bytes, int] = {b"": 0}
        #: node id → canonical view (sparse: only ids somebody viewed).
        self.views: Dict[int, ClosureNode] = {0: EMPTY_NODE}
        self.events: List[Event] = []
        self.event_ids: Dict[Event, int] = {}
        self.event_channel = array("i")
        self.channels: List[Channel] = []
        self.channel_ids: Dict[Channel, int] = {}
        #: node id → frozenset of channels (for :func:`node_channels`).
        self.channel_cache: Dict[int, FrozenSet[Channel]] = {0: frozenset()}

    # -- id tables ---------------------------------------------------------

    def intern_event(self, event: Event) -> int:
        """The dense id of ``event``, registering it on first sight."""
        eid = self.event_ids.get(event)
        if eid is None:
            cid = self.intern_channel(event.channel)
            eid = len(self.events)
            self.events.append(event)
            self.event_channel.append(cid)
            self.event_ids[event] = eid
        return eid

    def intern_channel(self, chan: Channel) -> int:
        """The dense id of ``chan``, registering it on first sight."""
        cid = self.channel_ids.get(chan)
        if cid is None:
            cid = len(self.channels)
            self.channels.append(chan)
            self.channel_ids[chan] = cid
        return cid

    # -- node interning ----------------------------------------------------

    def intern(self, flat: List[int]) -> int:
        """The id of the node with edge list ``flat`` — interleaved
        ``[e0, c0, e1, c1, ...]`` pairs sorted by ascending event id.

        The interning key is the packed bytes of ``flat``; hashing it is
        a C-level byte hash, not a tuple-of-objects hash.  On a miss the
        governed/fault-injected abort points fire *before* anything is
        appended, and the segments are appended edges-first, node row
        next, interner entry last — an abort can strand only unreachable
        trailing edge slots, never a visible half node (the abort-safety
        contract of docs/robustness.md).
        """
        key = array("i", flat).tobytes()
        nid = self.interner.get(key)
        if nid is not None:
            KERNEL_STATS.interner_hits += 1
            return nid
        KERNEL_STATS.interner_misses += 1
        _faults.maybe_fail("trie.intern")
        _governor.note_node()
        counts = self.counts
        heights = self.heights
        count = 1
        height = 0
        for i in range(1, len(flat), 2):
            child = flat[i]
            count += counts[child]
            h = heights[child] + 1
            if h > height:
                height = h
        nid = len(self.edge_start)
        start = len(self.edge_events)
        self.edge_events.extend(flat[0::2])
        self.edge_children.extend(flat[1::2])
        self.edge_start.append(start)
        self.edge_len.append(len(flat) // 2)
        counts.append(count)
        heights.append(height)
        self.interner[key] = nid
        return nid

    def view(self, nid: int) -> ClosureNode:
        """The canonical view object for ``nid`` (one per id, forever)."""
        node = self.views.get(nid)
        if node is None:
            node = self.views[nid] = ClosureNode(self, nid)
        return node

    # -- accounting --------------------------------------------------------

    def node_count(self) -> int:
        return len(self.edge_start)

    def segment_bytes(self) -> int:
        """Bytes held by the arena's array segments (the flat storage the
        object kernel used to spend per-node Python objects on)."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self.edge_start,
                self.edge_len,
                self.edge_events,
                self.edge_children,
                self.counts,
                self.heights,
                self.event_channel,
            )
        )


class KernelState:
    """An arena plus its id-keyed memo tables.

    Memo keys hold node ids, so memos are only valid against the arena
    whose rows they reference — clearing or swapping the arena must drop
    the memos with it, which is why they live together.
    """

    __slots__ = ("arena", "memos")

    def __init__(self) -> None:
        self.arena = Arena()
        self.memos: Dict[str, Dict] = {}

    def memo(self, name: str) -> Dict:
        """The (lazily created) memo table for operator ``name``."""
        table = self.memos.get(name)
        if table is None:
            table = self.memos[name] = {}
        return table


_GLOBAL = KernelState()
_TLS = threading.local()


def _state() -> KernelState:
    return getattr(_TLS, "state", None) or _GLOBAL


def current_state() -> KernelState:
    """The kernel state the calling thread is running against."""
    return _state()


@contextmanager
def private_state() -> Iterator[KernelState]:
    """Run the calling *thread* against a fresh private kernel state.

    Nodes built inside are interned into a private arena that starts
    empty: no contention with other threads, and no hits on what earlier
    work left interned.  The private arena seeds its own node 0, and
    ``view(0)`` is :data:`EMPTY_NODE` everywhere, so the ⟦STOP⟧ closure
    stays canonical across states.

    **Arena ids are state-local.**  A view that leaks out of the
    ``with`` block (or into it, from the ambient state) is only readable
    — iterating its traces still works, because the view carries its
    arena.  But passing it to any constructing operator running against
    a different state raises :class:`~repro.errors.KernelStateError`:
    its id names a row of the *other* arena, and using the bare int here
    would silently alias an unrelated node.  Cross the boundary with
    :func:`~repro.traces.snapshot.export_segments` and
    :func:`~repro.traces.snapshot.splice_segments`, which rebuild the
    structure under the target state's node and event ids.
    """
    previous = getattr(_TLS, "state", None)
    _TLS.state = KernelState()
    try:
        yield _TLS.state
    finally:
        _TLS.state = previous


def node_id(node: ClosureNode, arena: Arena) -> int:
    """``node``'s id in ``arena`` — the entry gate every operator passes
    views through.  :data:`EMPTY_NODE` is id 0 in every arena; any other
    foreign view raises :class:`~repro.errors.KernelStateError` (see
    :func:`private_state`)."""
    if node.arena is arena:
        return node.id
    if node.arena is None:
        return 0
    raise KernelStateError(
        "trie node used across kernel states: arena ids are state-local "
        "(a node built under private_state() or before clear_interner() "
        "must be exported and spliced back, not used directly)"
    )


def make_node(children: Mapping[Event, ClosureNode]) -> ClosureNode:
    """The interned node with exactly the given children."""
    if not children:
        return EMPTY_NODE
    arena = _state().arena
    intern_event = arena.intern_event
    pairs = sorted(
        (intern_event(event), node_id(child, arena))
        for event, child in children.items()
    )
    flat: List[int] = []
    for eid, cid in pairs:
        flat.append(eid)
        flat.append(cid)
    return arena.view(arena.intern(flat))


def interner_size() -> int:
    """Number of distinct subtrees interned in the current state."""
    return _state().arena.node_count()


def arena_info() -> Dict[str, int]:
    """Size account of the current state's arena: node/edge rows, flat
    segment bytes, id-table sizes, and views materialised."""
    arena = _state().arena
    return {
        "nodes": arena.node_count(),
        "edges": len(arena.edge_events),
        "segment_bytes": arena.segment_bytes(),
        "events": len(arena.events),
        "channels": len(arena.channels),
        "views": len(arena.views),
    }


def clear_interner() -> None:
    """Drop the current state's arena — every node row, the edge tables,
    the event/channel id tables — and every memo table, by installing a
    fresh arena.  Only for benchmarks and tests that need a cold kernel.

    Views from the discarded generation remain *readable* (they carry
    their arena), but using one where a new node would be built raises
    :class:`~repro.errors.KernelStateError` — a stale id must never
    silently alias a row of the new arena.  :data:`EMPTY_NODE` is
    arena-agnostic and stays canonical.
    """
    state = _state()
    state.arena = Arena()
    state.memos.clear()


# -- construction -----------------------------------------------------------


def node_from_traces(traces: Iterable[Trace]) -> ClosureNode:
    """The interned trie of the prefix closure of ``traces``.

    Closure is automatic: inserting a trace creates every node along its
    path, i.e. every prefix.
    """
    arena = _state().arena
    intern_event = arena.intern_event
    root: Dict = {}
    for s in traces:
        level = root
        for event in s:
            level = level.setdefault(intern_event(event), {})
    if not root:
        return EMPTY_NODE
    return arena.view(_intern_tree(arena, root))


def _intern_tree(arena: Arena, tree: Dict) -> int:
    """Intern a nested ``{event id: subtree}`` dict bottom-up with an
    explicit stack, so a trace of any length can be inserted without
    touching the interpreter recursion limit (deep linear processes are
    legitimate inputs)."""
    interned: Dict[int, int] = {}
    stack: List[Tuple[Dict, bool]] = [(tree, False)]
    while stack:
        subtree, expanded = stack.pop()
        if expanded:
            pairs = sorted(
                (eid, interned[id(sub)] if sub else 0)
                for eid, sub in subtree.items()
            )
            flat: List[int] = []
            for e, c in pairs:
                flat.append(e)
                flat.append(c)
            interned[id(subtree)] = arena.intern(flat)
            continue
        stack.append((subtree, True))
        for sub in subtree.values():
            if sub:
                stack.append((sub, False))
    return interned[id(tree)]


# -- derived queries --------------------------------------------------------
#
# The enumeration queries run over views (they exist to hand Event
# objects and traces back to callers anyway) and therefore also work on
# stale or foreign views: reading never constructs, so it never needs
# the current state.


def descend(node: ClosureNode, s: Trace) -> Optional[ClosureNode]:
    """The subtree reached by following ``s`` from ``node`` — the closure
    ``{t | s⌢t ∈ P}`` — or ``None`` when ``s ∉ P``."""
    for event in s:
        node = node.children.get(event)  # type: ignore[assignment]
        if node is None:
            return None
    return node


def contains_trace(node: ClosureNode, s: Trace) -> bool:
    """``s ∈ P`` by trie walk."""
    return descend(node, s) is not None


def iter_traces(node: ClosureNode) -> Iterator[Trace]:
    """All traces, shortest first, lexicographic (by event sort key)
    within a length — the canonical enumeration order of the flat-set
    representation, preserved for reproducibility."""
    queue: Deque[Tuple[Trace, ClosureNode]] = deque([(EMPTY_TRACE, node)])
    while queue:
        prefix, current = queue.popleft()
        yield prefix
        for event, child in current.items:
            queue.append((prefix + (event,), child))


def iter_trace_set(node: ClosureNode) -> FrozenSet[Trace]:
    """The flat ``frozenset`` of traces (materialised on demand)."""
    return frozenset(iter_traces(node))


def node_channels(node: ClosureNode) -> FrozenSet[Channel]:
    """All channels occurring anywhere in the trie (cached per id in the
    arena; shared subtrees are visited once).  Computed bottom-up with an
    explicit stack so arbitrarily deep tries cannot overflow."""
    arena = node.arena
    if arena is None:
        return frozenset()
    cache = arena.channel_cache
    cached = cache.get(node.id)
    if cached is not None:
        return cached
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    event_channel = arena.event_channel
    channels = arena.channels
    stack: List[Tuple[int, bool]] = [(node.id, False)]
    while stack:
        nid, expanded = stack.pop()
        if nid in cache:
            continue
        start = edge_start[nid]
        end = start + edge_len[nid]
        if expanded:
            chans = set()
            for k in range(start, end):
                chans.add(channels[event_channel[edge_events[k]]])
                chans |= cache[edge_children[k]]
            cache[nid] = frozenset(chans)
            continue
        stack.append((nid, True))
        for k in range(start, end):
            child = edge_children[k]
            if child not in cache:
                stack.append((child, False))
    return cache[node.id]


def maximal_traces(node: ClosureNode) -> FrozenSet[Trace]:
    """Traces ending at leaves — those with no extension in the set."""
    return frozenset(
        prefix
        for prefix, current in _walk_with_prefix(node)
        if current.is_leaf
    )


def _walk_with_prefix(
    node: ClosureNode,
) -> Iterator[Tuple[Trace, ClosureNode]]:
    queue: Deque[Tuple[Trace, ClosureNode]] = deque([(EMPTY_TRACE, node)])
    while queue:
        prefix, current = queue.popleft()
        yield prefix, current
        for event, child in current.items:
            queue.append((prefix + (event,), child))


def distinct_nodes(node: ClosureNode) -> int:
    """Number of *distinct* nodes reachable from ``node`` — the kernel's
    actual storage cost, as opposed to ``node.count`` traces."""
    arena = node.arena
    if arena is None:
        return 1
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    seen = {node.id}
    stack = [node.id]
    while stack:
        nid = stack.pop()
        start = edge_start[nid]
        for k in range(start, start + edge_len[nid]):
            child = edge_children[k]
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen)


# -- lattice operations (§3.1) ---------------------------------------------
#
# The lattice structure lives in the kernel (rather than in
# repro.traces.operations) because FiniteClosure's own methods need it and
# the operator layer imports FiniteClosure.  Each public operator resolves
# its memo table from the current kernel state once, then threads it
# through the recursion — per-call resolution would cost a thread-local
# lookup on every node visit.  The recursions run on bare ids: node spans
# are edge lists sorted by event id, so a binary operator is a linear
# merge-walk over two int spans, and memo keys are small int tuples.


def union_nodes(a: ClosureNode, b: ClosureNode) -> ClosureNode:
    """``P ∪ Q`` — prefix closures are closed under union (§3.1).

    Shared subtrees are merged once: recursion is memoised on the id
    *pair*, and equal ids short-circuit immediately.
    """
    state = _state()
    arena = state.arena
    ai = node_id(a, arena)
    bi = node_id(b, arena)
    if ai == bi or bi == 0:
        return a
    if ai == 0:
        return b
    rid = union_ids(
        arena, ai, bi, state.memo("union"), KERNEL_STATS.memo("union")
    )
    return arena.view(rid)


def union_ids(arena: Arena, a: int, b: int, memo: Dict, stats) -> int:
    if a == b:
        return a
    if a == 0:
        return b
    if b == 0:
        return a
    key = (a, b) if a <= b else (b, a)
    cached = memo.get(key)
    if cached is not None:
        stats.hits += 1
        return cached
    stats.misses += 1
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    ka = edge_start[a]
    ea = ka + edge_len[a]
    kb = edge_start[b]
    eb = kb + edge_len[b]
    flat: List[int] = []
    while ka < ea and kb < eb:
        eva = edge_events[ka]
        evb = edge_events[kb]
        if eva == evb:
            flat.append(eva)
            flat.append(
                union_ids(arena, edge_children[ka], edge_children[kb], memo, stats)
            )
            ka += 1
            kb += 1
        elif eva < evb:
            flat.append(eva)
            flat.append(edge_children[ka])
            ka += 1
        else:
            flat.append(evb)
            flat.append(edge_children[kb])
            kb += 1
    while ka < ea:
        flat.append(edge_events[ka])
        flat.append(edge_children[ka])
        ka += 1
    while kb < eb:
        flat.append(edge_events[kb])
        flat.append(edge_children[kb])
        kb += 1
    result = arena.intern(flat)
    memo[key] = result
    return result


def intersect_nodes(a: ClosureNode, b: ClosureNode) -> ClosureNode:
    """``P ∩ Q`` — closed under intersection (§3.1)."""
    state = _state()
    arena = state.arena
    ai = node_id(a, arena)
    bi = node_id(b, arena)
    if ai == bi:
        return a
    if ai == 0 or bi == 0:
        return EMPTY_NODE
    rid = intersect_ids(
        arena, ai, bi, state.memo("intersection"), KERNEL_STATS.memo("intersection")
    )
    return arena.view(rid)


def intersect_ids(arena: Arena, a: int, b: int, memo: Dict, stats) -> int:
    if a == b:
        return a
    if a == 0 or b == 0:
        return 0
    key = (a, b) if a <= b else (b, a)
    cached = memo.get(key)
    if cached is not None:
        stats.hits += 1
        return cached
    stats.misses += 1
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    ka = edge_start[a]
    ea = ka + edge_len[a]
    kb = edge_start[b]
    eb = kb + edge_len[b]
    flat: List[int] = []
    while ka < ea and kb < eb:
        eva = edge_events[ka]
        evb = edge_events[kb]
        if eva == evb:
            flat.append(eva)
            flat.append(
                intersect_ids(
                    arena, edge_children[ka], edge_children[kb], memo, stats
                )
            )
            ka += 1
            kb += 1
        elif eva < evb:
            ka += 1
        else:
            kb += 1
    result = arena.intern(flat)
    memo[key] = result
    return result


def truncate_node(node: ClosureNode, depth: int) -> ClosureNode:
    """Traces of length ≤ ``depth`` — still prefix-closed.

    Driven by an explicit post-order stack rather than recursion: the
    recursion depth would equal the trie height, and deep linear tries
    (a 10⁴-event process is legitimate input) must truncate without
    overflowing the interpreter stack.
    """
    state = _state()
    arena = state.arena
    nid = node_id(node, arena)
    if depth <= 0:
        return EMPTY_NODE
    if arena.heights[nid] <= depth:
        return arena.view(nid)
    rid = truncate_ids(
        arena, nid, depth, state.memo("truncate"), KERNEL_STATS.memo("truncate")
    )
    return arena.view(rid)


def _truncated_child(arena: Arena, child: int, depth: int, memo: Dict) -> int:
    """The already-resolved truncation of ``child`` to ``depth`` (base
    cases inline, recursive cases from the memo filled by the driver)."""
    if depth <= 0:
        return 0
    if arena.heights[child] <= depth:
        return child
    return memo[(child, depth)]


def truncate_ids(arena: Arena, nid: int, depth: int, memo: Dict, stats) -> int:
    if depth <= 0:
        return 0
    heights = arena.heights
    if heights[nid] <= depth:
        return nid
    cached = memo.get((nid, depth))
    if cached is not None:
        stats.hits += 1
        return cached
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    stack: List[Tuple[int, int]] = [(nid, depth)]
    while stack:
        current, d = stack[-1]
        if (current, d) in memo:
            stack.pop()
            continue
        start = edge_start[current]
        end = start + edge_len[current]
        dd = d - 1
        pending = []
        if dd > 0:
            for k in range(start, end):
                child = edge_children[k]
                if heights[child] > dd and (child, dd) not in memo:
                    pending.append((child, dd))
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        stats.misses += 1
        _faults.maybe_fail("trie.truncate")
        flat: List[int] = []
        for k in range(start, end):
            flat.append(edge_events[k])
            flat.append(_truncated_child(arena, edge_children[k], dd, memo))
        memo[(current, d)] = arena.intern(flat)
    return memo[(nid, depth)]


# -- delta frontiers --------------------------------------------------------
#
# The §3.3 chain grows monotonically: level i+1 extends level i.  Because
# nodes are hash-consed, the *unchanged* regions of the new trie reuse the
# old trie's ids, so the set of subtrees that are fresh at a level — the
# **delta frontier** — is found by a simultaneous id walk that prunes on
# id equality.  The engine uses these queries to skip re-denotations
# whose inputs changed only below the depth they consult.

#: Pair-walk budget for delta queries; past it the delta is reported as
#: "changed at depth 0" (never skip), so a huge frontier degrades to full
#: re-denotation instead of an expensive analysis.
DELTA_WALK_CAP = 4096

def _edge_map(arena: Arena, nid: int) -> Dict[int, int]:
    """One node's span as an ``{event id: child id}`` dict."""
    start = arena.edge_start[nid]
    end = start + arena.edge_len[nid]
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    return {edge_events[k]: edge_children[k] for k in range(start, end)}


def delta_depth(
    old: ClosureNode, new: ClosureNode, cap: int = DELTA_WALK_CAP
) -> Optional[int]:
    """The minimum length of a trace in ``new ∖ old`` — the shallowest
    depth at which ``new`` grew.

    ``None`` when ``new`` adds no trace (in the monotone chains this is
    called on, that means the roots are identical).  ``truncate(new, d)
    is truncate(old, d)`` for every ``d < delta_depth(old, new)`` — the
    equality :class:`~repro.semantics.fixpoint.ApproximationChain`'s
    horizon skip relies on.  Returns ``0`` when the
    pair walk exceeds ``cap``: a conservative "changed everywhere" that
    forces callers back to full re-denotation.  Memoised per (old, new)
    id pair in the kernel state.
    """
    state = _state()
    arena = state.arena
    oid = node_id(old, arena)
    nid = node_id(new, arena)
    if oid == nid:
        return None
    memo = state.memo("delta-depth")
    stats = KERNEL_STATS.memo("delta-depth")
    key = (oid, nid)
    cached = memo.get(key, _DELTA_MISS)
    if cached is not _DELTA_MISS:
        stats.hits += 1
        return cached
    stats.misses += 1
    KERNEL_STATS.delta_queries += 1
    _governor.tick()
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    result: Optional[int] = None
    visited = 0
    seen = set()
    frontier: List[Tuple[int, int]] = [(oid, nid)]
    depth = 0
    while frontier and result is None:
        depth += 1
        nxt: List[Tuple[int, int]] = []
        for o, n in frontier:
            old_children = _edge_map(arena, o)
            start = edge_start[n]
            for k in range(start, start + edge_len[n]):
                o_child = old_children.get(edge_events[k])
                if o_child is None:
                    result = depth
                    break
                child = edge_children[k]
                if o_child == child:
                    continue
                pair_key = (o_child, child)
                if pair_key in seen:
                    continue
                seen.add(pair_key)
                visited += 1
                if visited > cap:
                    KERNEL_STATS.delta_capped += 1
                    result = 0
                    break
                nxt.append((o_child, child))
            if result is not None:
                break
        frontier = nxt
    if result != 0:
        # Only genuine answers are cached; a capped walk's conservative 0
        # reflects this call's budget, not the pair, and must not shadow a
        # later walk with a larger cap.
        memo[key] = result
    return result


#: Distinguishes "memo holds None" from "memo miss" in delta_depth.
_DELTA_MISS = object()


def subset_nodes(a: ClosureNode, b: ClosureNode) -> bool:
    """The lattice order ``P ⊆ Q``, by simultaneous id walk with sharing."""
    arena = _state().arena
    ai = node_id(a, arena)
    bi = node_id(b, arena)
    if ai == bi or ai == 0:
        return True
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    seen = set()

    def walk(x: int, y: int) -> bool:
        if x == y:
            return True
        pair = (x, y)
        if pair in seen:
            return True
        seen.add(pair)
        y_children = _edge_map(arena, y)
        start = edge_start[x]
        for k in range(start, start + edge_len[x]):
            y_child = y_children.get(edge_events[k])
            if y_child is None or not walk(edge_children[k], y_child):
                return False
        return True

    return walk(ai, bi)
