"""Unit tests for the sub-level delta primitive of the trie kernel.

``delta_depth`` is the approximation chain's horizon oracle: the
shallowest depth at which one chain level grew over its predecessor.
It exploits
hash-consing — pointer-identical subtrees are pruned without descent —
so the tests below exercise sharing explicitly.
"""

from repro.traces.events import trace
from repro.traces.operations import delta_depth as closure_delta_depth
from repro.traces.prefix_closure import FiniteClosure
from repro.traces.stats import KERNEL_STATS, reset_stats
from repro.traces.trie import delta_depth, node_from_traces, truncate_node

A = trace(("a", 1))
AB = trace(("a", 1), ("b", 2))
ABC = trace(("a", 1), ("b", 2), ("c", 3))
XY = trace(("x", 1), ("y", 2))


class TestDeltaDepth:
    def test_identical_roots_yield_none(self):
        root = node_from_traces([AB])
        assert delta_depth(root, root) is None

    def test_subset_only_growth_is_none(self):
        # new ⊆ old adds nothing; in monotone chains this means
        # stabilisation even when the roots differ as objects.
        old = node_from_traces([AB, XY])
        new = node_from_traces([AB])
        assert delta_depth(old, new) is None

    def test_depth_of_an_extended_trace(self):
        old = node_from_traces([AB])
        new = node_from_traces([ABC])
        assert delta_depth(old, new) == 3

    def test_depth_of_a_new_branch_at_the_root(self):
        old = node_from_traces([AB])
        new = node_from_traces([AB, XY])
        assert delta_depth(old, new) == 1

    def test_truncation_identity_below_the_delta_depth(self):
        # The soundness bar for horizon skips: every truncation strictly
        # below delta_depth is pointer-identical between old and new.
        old = node_from_traces([AB])
        new = node_from_traces([ABC])
        d = delta_depth(old, new)
        for k in range(d):
            assert truncate_node(new, k) is truncate_node(old, k)
        assert truncate_node(new, d) is not truncate_node(old, d)

    def test_cap_returns_conservative_zero(self):
        old = node_from_traces([AB])
        new = node_from_traces([ABC, XY])
        assert delta_depth(old, new, cap=0) == 0

    def test_capped_result_is_not_memoised(self):
        # A capped walk reflects the call's budget, not the pair; a later
        # generous query must still get the precise answer.
        old = node_from_traces([trace(("p", 1), ("q", 2))])
        new = node_from_traces(
            [trace(("p", 1), ("q", 2), ("r", 3)), trace(("s", 4))]
        )
        assert delta_depth(old, new, cap=0) == 0
        assert delta_depth(old, new) == 1

    def test_repeat_queries_hit_the_memo(self):
        old = node_from_traces([trace(("m", 1))])
        new = node_from_traces([trace(("m", 1), ("m", 2))])
        reset_stats()
        first = delta_depth(old, new)
        walks_after_first = KERNEL_STATS.delta_queries
        second = delta_depth(old, new)
        assert first == second == 2
        # The memo absorbs the second call entirely: no new walk.
        assert KERNEL_STATS.delta_queries == walks_after_first
        assert KERNEL_STATS.memo("delta-depth").hits >= 1


class TestClosureWrappers:
    def test_closure_delta_depth_matches_node_level(self):
        old = FiniteClosure.from_traces([AB])
        new = FiniteClosure.from_traces([ABC])
        assert closure_delta_depth(old, new) == delta_depth(old.root, new.root)

    def test_stats_snapshot_exposes_delta_section(self):
        reset_stats()
        old = FiniteClosure.from_traces([A])
        new = FiniteClosure.from_traces([AB])
        closure_delta_depth(old, new)
        snap = KERNEL_STATS.snapshot()
        assert snap["delta"]["queries"] >= 1
