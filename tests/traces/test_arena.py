"""Unit tests for the struct-of-arrays arena kernel.

Three contracts the arena adds on top of the object kernel's semantics:

* **per-id view identity** — ``arena.view(i)`` is one object forever, so
  pointer identity of views coincides with id equality;
* **state-locality** — a node id names a row of *one* arena; a view
  carried across kernel states (out of ``private_state()``, or across
  ``clear_interner()``) stays readable but raises
  :class:`~repro.errors.KernelStateError` the moment an operator would
  build with it;
* **full reset** — ``clear_interner()`` drops the node segments *and*
  the event/channel id tables, not just the interner dict.
"""

import pytest

from repro.errors import KernelStateError
from repro.traces.events import channel, event
from repro.traces.trie import (
    EMPTY_NODE,
    arena_info,
    clear_interner,
    current_state,
    interner_size,
    iter_trace_set,
    make_node,
    node_from_traces,
    node_id,
    private_state,
    truncate_node,
    union_nodes,
)

A = channel("a")
B = channel("b")
A0 = event(A, 0)
A1 = event(A, 1)
B0 = event(B, 0)


def _abc_node():
    return node_from_traces([(A0, B0), (A1,)])


class TestViewIdentity:
    def test_view_is_canonical_per_id(self):
        node = _abc_node()
        arena = node.arena
        assert arena.view(node.id) is node

    def test_same_structure_same_view(self):
        assert _abc_node() is _abc_node()

    def test_children_are_canonical_views(self):
        node = _abc_node()
        child = node.children[A0]
        assert node.arena.view(child.id) is child
        # reaching the same subtree via a different construction lands on
        # the same view object
        again = node_from_traces([(A0, B0)]).children[A0]
        assert again is child

    def test_empty_node_is_arena_agnostic(self):
        assert make_node({}) is EMPTY_NODE
        with private_state():
            assert make_node({}) is EMPTY_NODE
            assert node_from_traces([]) is EMPTY_NODE

    def test_items_sorted_by_event_sort_key(self):
        node = node_from_traces([(B0,), (A1,), (A0,)])
        assert [e for e, _ in node.items] == sorted(
            [A0, A1, B0], key=lambda e: e.sort_key()
        )


class TestStateLocality:
    def test_leaked_private_view_raises_in_ambient_ops(self):
        with private_state():
            leaked = _abc_node()
        with pytest.raises(KernelStateError):
            union_nodes(leaked, _abc_node())
        with pytest.raises(KernelStateError):
            make_node({A0: leaked})

    def test_ambient_view_raises_inside_private_state(self):
        ambient = _abc_node()
        with private_state():
            with pytest.raises(KernelStateError):
                truncate_node(ambient, 1)

    def test_node_id_rejects_foreign_view(self):
        with private_state():
            foreign = _abc_node()
        with pytest.raises(KernelStateError):
            node_id(foreign, current_state().arena)

    def test_empty_node_crosses_states_freely(self):
        with private_state():
            assert node_id(EMPTY_NODE, current_state().arena) == 0
            assert union_nodes(EMPTY_NODE, _abc_node()) is not None

    def test_leaked_view_stays_readable(self):
        with private_state():
            leaked = _abc_node()
        # traversal reads the view's own arena — no new state involved
        assert iter_trace_set(leaked) == {(), (A0,), (A0, B0), (A1,)}
        assert leaked.count == 4
        assert leaked.height == 2


class TestClearInterner:
    def test_resets_nodes_and_id_tables(self):
        _abc_node()
        info = arena_info()
        assert info["nodes"] > 1 and info["events"] >= 3
        clear_interner()
        info = arena_info()
        assert interner_size() == 1  # just the seeded leaf
        assert info["nodes"] == 1
        assert info["edges"] == 0
        assert info["events"] == 0
        assert info["channels"] == 0

    def test_stale_view_readable_but_not_combinable(self):
        stale = _abc_node()
        clear_interner()
        assert iter_trace_set(stale) == {(), (A0,), (A0, B0), (A1,)}
        with pytest.raises(KernelStateError):
            union_nodes(stale, node_from_traces([(A0,)]))

    def test_rebuild_after_clear_is_deterministic(self):
        clear_interner()  # both builds start from an empty arena
        first = _abc_node()
        first_ids = (first.id, first.children[A0].id)
        clear_interner()
        second = _abc_node()
        # same construction order ⇒ same id assignment in the new arena
        assert (second.id, second.children[A0].id) == first_ids


class TestArenaInfo:
    def test_accounts_nodes_edges_and_tables(self):
        clear_interner()
        node = _abc_node()
        info = arena_info()
        assert info["nodes"] == interner_size()
        # edges: a->b0 tree has root(2 edges) + a0-child(1 edge)
        assert info["edges"] == 3
        assert info["events"] == 3
        assert info["channels"] == 2
        assert info["segment_bytes"] > 0
        assert info["views"] >= 1
        assert node.arena.segment_bytes() == info["segment_bytes"]

    def test_packed_key_hits_counted(self):
        from repro.traces.stats import KERNEL_STATS

        _abc_node()
        before = KERNEL_STATS.interner_hits
        _abc_node()  # every node is a packed-key hit the second time
        assert KERNEL_STATS.interner_hits > before
