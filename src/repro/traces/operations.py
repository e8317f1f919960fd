"""The paper's operators on prefix closures (§3.1), over the trie kernel.

* ``prefix(a, P)``       — ``(a → P) = {⟨⟩} ∪ {a⌢s | s ∈ P}``;
* ``hide(P, C)``         — ``P \\ C = {s \\ C | s ∈ P}`` (the ``chan`` operator);
* ``pad(P, C, events)``  — ``P ⇑ C``: traces of ``P`` interleaved with
  arbitrary communications on the channels of ``C``;
* ``parallel(P, X, Q, Y)`` — ``P ‖_{X,Y} Q = (P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y))``,
  computed directly by synchronised merge rather than by building the two
  padded sets (which are huge);
* ``after_event(P, a)``  — the derivative ``{s | a⌢s ∈ P}``;
* ``union``/``intersection``/``truncate`` — the lattice operations,
  re-exported from the kernel for symmetry.

Every operator is a recursive function over **arena node ids** with a
per-operation memo table keyed on small int tuples: a subtree shared by
many traces is processed **once**, not once per trace.  Channels are
classified by their interned channel id (``arena.event_channel`` maps an
edge's event id straight to its channel id), so the hot loops never hash
an :class:`~repro.traces.events.Event` or
:class:`~repro.traces.events.Channel` object.  Because a node's edge
span is sorted by event id, results are assembled as already-sorted flat
edge lists and handed to :meth:`~repro.traces.trie.Arena.intern`
directly.  Results are prefix-closed by construction (the §3.1 theorems;
the property tests in ``tests/traces/test_trie_equivalence.py``
re-verify each operator against the flat-set reference in
:mod:`repro.traces._reference`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SemanticsError
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.traces.events import Channel, Event, Trace
from repro.traces.prefix_closure import FiniteClosure
from repro.traces.stats import KERNEL_STATS
from repro.traces.trie import (
    DELTA_WALK_CAP,
    EMPTY_NODE,
    Arena,
    current_state,
    delta_depth as _delta_depth_nodes,
    make_node,
    node_id,
    truncate_ids,
    union_ids,
)

#: Refuse a fully-interleaved (no shared channel) parallel composition
#: once the product of the component trace counts passes this bound: the
#: result would be a combinatorial interleaving explosion that no sharing
#: can absorb.  Callers that really mean it can pre-truncate the
#: components or pass an explicit small ``depth``.
MAX_DISJOINT_PRODUCT = 250_000

# Memo tables live in the kernel state (per-thread under
# ``private_state()``); each public operator resolves its tables once —
# its own and the union table its recursion leans on — and threads them
# through.


def prefix(a: Event, p: FiniteClosure) -> FiniteClosure:
    """``(a → P)`` — the process that first communicates ``a``, then
    behaves like ``P`` (§3.1).  One node interning; ``P``'s trie is
    shared, not copied."""
    return FiniteClosure.from_node(make_node({a: p.root}))


def after_event(p: FiniteClosure, a: Event) -> FiniteClosure:
    """``P after a`` — the behaviours of ``P`` once ``a`` has occurred:
    ``{s | a⌢s ∈ P}``.  Empty behaviour (STOP) if ``a`` is impossible.
    A single child lookup on the trie."""
    child = p.root.children.get(a)
    return FiniteClosure.from_node(child if child is not None else EMPTY_NODE)


def union(p: FiniteClosure, q: FiniteClosure) -> FiniteClosure:
    """``P ∪ Q`` (§3.1) — memoised recursive merge."""
    return p.union(q)


def intersection(p: FiniteClosure, q: FiniteClosure) -> FiniteClosure:
    """``P ∩ Q`` (§3.1) — memoised recursive meet."""
    return p.intersection(q)


def truncate(p: FiniteClosure, depth: int) -> FiniteClosure:
    """Traces of length ≤ ``depth``."""
    return p.truncate(depth)


def _channel_id_set(arena: Arena, channels: Iterable[Channel]) -> FrozenSet[int]:
    """Intern a channel set to a frozenset of channel ids (sorted first,
    so the ids handed to a fresh arena do not depend on set iteration
    order — id tables stay deterministic run to run)."""
    return frozenset(arena.intern_channel(c) for c in sorted(set(channels)))


def hide(p: FiniteClosure, channels: Iterable[Channel]) -> FiniteClosure:
    """``P \\ C`` — conceal all communications on channels of ``C``
    (the semantics of ``chan C; P``, §3.1/§3.2).

    Restricting a prefix-closed set is prefix-closed: ``(st)\\C`` always
    begins with ``s\\C``.  On the trie, hiding a child edge unions the
    hidden child's (recursively hidden) subtree into the current node.
    """
    hidden = frozenset(channels)
    if not hidden:
        return p
    state = current_state()
    arena = state.arena
    nid = node_id(p.root, arena)
    hidden_cids = _channel_id_set(arena, hidden)
    with _governor.recursion_guard("hide"):
        rid = _hide_id(
            arena,
            nid,
            hidden_cids,
            state.memo("hide"),
            KERNEL_STATS.memo("hide"),
            state.memo("union"),
            KERNEL_STATS.memo("union"),
        )
    return FiniteClosure.from_node(arena.view(rid))


def _hide_id(
    arena: Arena,
    nid: int,
    hidden: FrozenSet[int],
    memo: Dict,
    stats,
    union_memo: Dict,
    union_stats,
) -> int:
    if nid == 0:
        return 0
    key = (nid, hidden)
    cached = memo.get(key)
    if cached is not None:
        stats.hits += 1
        return cached
    stats.misses += 1
    _faults.maybe_fail("op.hide")
    _governor.tick()
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    event_channel = arena.event_channel
    start = arena.edge_start[nid]
    end = start + arena.edge_len[nid]
    visible: List[int] = []
    absorbed = 0
    for k in range(start, end):
        eid = edge_events[k]
        child = _hide_id(
            arena, edge_children[k], hidden, memo, stats, union_memo, union_stats
        )
        if event_channel[eid] in hidden:
            absorbed = union_ids(arena, absorbed, child, union_memo, union_stats)
        else:
            visible.append(eid)
            visible.append(child)
    result = union_ids(arena, arena.intern(visible), absorbed, union_memo, union_stats)
    memo[key] = result
    return result


def pad(
    p: FiniteClosure,
    channels: Iterable[Channel],
    pad_events: Iterable[Event],
    depth: int,
) -> FiniteClosure:
    """``P ⇑ C`` — interleave each trace of ``P`` with arbitrary
    communications on the channels of ``C`` (§3.1: the communications
    "ignored by P").

    The paper's ``⇑`` adjoins *all* messages on the channels of ``C``; a
    finite representation needs an explicit finite alphabet, so callers
    pass ``pad_events`` (every event must lie on a channel of ``C``) and a
    ``depth`` bound on result length.

    .. warning::
       Padding is intrinsically exponential: every one of the ``k``
       padding events may occur at every position of every trace, so the
       result grows as Θ((k+1)^depth) even for a singleton ``P``.  Keep
       ``depth`` small, or prefer :func:`parallel`, which merges without
       materialising the padded sets.
    """
    if depth < 0:
        raise ValueError(f"pad depth must be non-negative, got {depth}")
    pad_set = tuple(sorted(set(pad_events), key=Event.sort_key))
    chan_set = frozenset(channels)
    for e in pad_set:
        if e.channel not in chan_set:
            raise ValueError(f"padding event {e!r} not on a padding channel")
    state = current_state()
    arena = state.arena
    nid = node_id(p.root, arena)
    pad_eids = tuple(sorted(arena.intern_event(e) for e in pad_set))
    with _governor.recursion_guard("pad"):
        rid = _pad_id(
            arena,
            nid,
            pad_eids,
            depth,
            state.memo("pad"),
            KERNEL_STATS.memo("pad"),
            state.memo("union"),
            KERNEL_STATS.memo("union"),
            state.memo("truncate"),
            KERNEL_STATS.memo("truncate"),
        )
    return FiniteClosure.from_node(arena.view(rid))


def _pad_id(
    arena: Arena,
    nid: int,
    pad_eids: Tuple[int, ...],
    depth: int,
    memo: Dict,
    stats,
    union_memo: Dict,
    union_stats,
    trunc_memo: Dict,
    trunc_stats,
) -> int:
    if depth <= 0:
        return 0
    if not pad_eids:
        return truncate_ids(arena, nid, depth, trunc_memo, trunc_stats)
    key = (nid, pad_eids, depth)
    cached = memo.get(key)
    if cached is not None:
        stats.hits += 1
        return cached
    stats.misses += 1
    _faults.maybe_fail("op.pad")
    _governor.tick()
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    start = arena.edge_start[nid]
    end = start + arena.edge_len[nid]
    children: Dict[int, int] = {
        edge_events[k]: _pad_id(
            arena,
            edge_children[k],
            pad_eids,
            depth - 1,
            memo,
            stats,
            union_memo,
            union_stats,
            trunc_memo,
            trunc_stats,
        )
        for k in range(start, end)
    }
    # A padding event leaves progress inside P unchanged; if P itself can
    # also perform it, both continuations are possible — union them.
    stalled = _pad_id(
        arena,
        nid,
        pad_eids,
        depth - 1,
        memo,
        stats,
        union_memo,
        union_stats,
        trunc_memo,
        trunc_stats,
    )
    for eid in pad_eids:
        existing = children.get(eid)
        children[eid] = (
            union_ids(arena, existing, stalled, union_memo, union_stats)
            if existing is not None
            else stalled
        )
    flat: List[int] = []
    for eid in sorted(children):
        flat.append(eid)
        flat.append(children[eid])
    result = arena.intern(flat)
    memo[key] = result
    return result


def parallel(
    p: FiniteClosure,
    x: Iterable[Channel],
    q: FiniteClosure,
    y: Iterable[Channel],
    depth: Optional[int] = None,
) -> FiniteClosure:
    """``P ‖_{X,Y} Q`` (§3.1).

    ``X`` must cover every channel ``P`` uses and ``Y`` every channel ``Q``
    uses.  A product trace ``s`` over ``X ∪ Y`` is included iff
    ``s \\ (Y−X) ∈ P`` and ``s \\ (X−Y) ∈ Q``: events on shared channels
    ``X ∩ Y`` need simultaneous participation of both components, events on
    private channels proceed independently.

    Computed by memoised synchronised merge over the two tries —
    equivalent to the paper's ``(P ⇑ (Y−X)) ∩ (Q ⇑ (X−Y))`` but without
    materialising the padded sets (an equivalence the test suite checks on
    small instances).  Each distinct ``(P-subtree, Q-subtree)`` pair is
    merged once, however many interleavings reach it.

    When ``X`` and ``Y`` are disjoint there is no synchronisation at all
    and the result is the full interleaving of the two trace sets, which
    explodes combinatorially; beyond :data:`MAX_DISJOINT_PRODUCT` the
    composition raises :class:`~repro.errors.SemanticsError` rather than
    silently building an enormous intermediate.
    """
    x_set = frozenset(x)
    y_set = frozenset(y)
    missing_p = p.channels() - x_set
    if missing_p:
        raise ValueError(f"left process uses channels outside X: {sorted(missing_p)}")
    missing_q = q.channels() - y_set
    if missing_q:
        raise ValueError(f"right process uses channels outside Y: {sorted(missing_q)}")
    shared = x_set & y_set

    if not shared and len(p) * len(q) > MAX_DISJOINT_PRODUCT:
        raise SemanticsError(
            f"parallel composition with disjoint alphabets X ∩ Y = ∅ would "
            f"interleave {len(p)} × {len(q)} traces — an exponential padding "
            f"blow-up; truncate the components or synchronise on a shared "
            f"channel"
        )

    if depth is None:
        depth = p.depth() + q.depth()

    state = current_state()
    arena = state.arena
    np = node_id(p.root, arena)
    nq = node_id(q.root, arena)
    shared_cids = _channel_id_set(arena, shared)
    with _governor.recursion_guard("parallel"):
        rid = _par_id(
            arena,
            np,
            nq,
            shared_cids,
            depth,
            state.memo("parallel"),
            KERNEL_STATS.memo("parallel"),
            state.memo("union"),
            KERNEL_STATS.memo("union"),
        )
    return FiniteClosure.from_node(arena.view(rid))


def _par_id(
    arena: Arena,
    np: int,
    nq: int,
    shared: FrozenSet[int],
    depth: int,
    memo: Dict,
    stats,
    union_memo: Dict,
    union_stats,
) -> int:
    if depth <= 0 or (np == 0 and nq == 0):
        return 0
    key = (np, nq, shared, depth)
    cached = memo.get(key)
    if cached is not None:
        stats.hits += 1
        return cached
    stats.misses += 1
    _faults.maybe_fail("op.parallel")
    _governor.tick()
    edge_events = arena.edge_events
    edge_children = arena.edge_children
    edge_start = arena.edge_start
    edge_len = arena.edge_len
    event_channel = arena.event_channel
    q_start = edge_start[nq]
    q_end = q_start + edge_len[nq]
    q_edges = {edge_events[k]: edge_children[k] for k in range(q_start, q_end)}
    children: Dict[int, int] = {}
    p_start = edge_start[np]
    for k in range(p_start, p_start + edge_len[np]):
        eid = edge_events[k]
        p_child = edge_children[k]
        if event_channel[eid] in shared:
            q_child = q_edges.get(eid)
            if q_child is not None:
                children[eid] = _par_id(
                    arena,
                    p_child,
                    q_child,
                    shared,
                    depth - 1,
                    memo,
                    stats,
                    union_memo,
                    union_stats,
                )
        else:
            children[eid] = _par_id(
                arena, p_child, nq, shared, depth - 1, memo, stats,
                union_memo, union_stats,
            )
    for eid, q_child in q_edges.items():
        if event_channel[eid] not in shared:
            # X-coverage makes a private-event collision impossible (it
            # would put the channel in X ∩ Y); union defensively anyway.
            merged = _par_id(
                arena, np, q_child, shared, depth - 1, memo, stats,
                union_memo, union_stats,
            )
            existing = children.get(eid)
            children[eid] = (
                union_ids(arena, existing, merged, union_memo, union_stats)
                if existing is not None
                else merged
            )
    flat: List[int] = []
    for eid in sorted(children):
        flat.append(eid)
        flat.append(children[eid])
    result = arena.intern(flat)
    memo[key] = result
    return result


def interleavings(s: Trace, t: Trace) -> Iterator[Trace]:
    """All merges of two traces preserving each one's internal order.

    A reference helper used to cross-check :func:`pad` and
    :func:`parallel` on small inputs.
    """
    if not s:
        yield t
        return
    if not t:
        yield s
        return
    for rest in interleavings(s[1:], t):
        yield (s[0],) + rest
    for rest in interleavings(s, t[1:]):
        yield (t[0],) + rest


def union_all(closures: Iterable[FiniteClosure]) -> FiniteClosure:
    """∪ᵢ Pᵢ — prefix closures are closed under arbitrary unions (§3.1)."""
    state = current_state()
    arena = state.arena
    memo = state.memo("union")
    stats = KERNEL_STATS.memo("union")
    root = 0
    for c in closures:
        root = union_ids(arena, root, node_id(c.root, arena), memo, stats)
    return FiniteClosure.from_node(arena.view(root))


# -- delta queries -----------------------------------------------------------
#
# Successive levels of a §3.3 approximation chain only *grow*, and the
# hash-consed kernel keeps the unchanged regions id-identical across
# levels.  These queries expose that sharing to the fixpoint layers.  Note
# that the operator memo keys above are already "delta-aware" for free:
# they are keyed on interned node ids, so re-applying an operator to a
# grown closure pays only along its fresh frontier — every untouched
# subtree is a memo hit.

def delta_depth(
    old: FiniteClosure, new: FiniteClosure, cap: int = DELTA_WALK_CAP
) -> Optional[int]:
    """Minimum length of a trace in ``new ∖ old``; ``None`` when ``new``
    adds nothing; ``0`` when the walk was capped (conservative).

    For monotone chains (``old ⊆ new``) this is exactly the shallowest
    depth at which the closures differ: ``truncate(old, d) == truncate(new,
    d)`` — pointer-identically — for every ``d < delta_depth(old, new)``.
    """
    return _delta_depth_nodes(old.root, new.root, cap)
