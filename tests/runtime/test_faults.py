"""Exception safety under deterministic fault injection.

The governor may abort a computation at any trigger site.  These tests
prove the invariant that makes such aborts sound: the interner and every
memo table only store *completed* results, so after an abort at **any**
site, at **any** visit count, a clean re-run computes exactly what the
flat-set oracle (:mod:`repro.traces._reference`) says it should.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.runtime import faults
from repro.runtime.faults import FaultInjected, FaultPlan
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import denote
from repro.semantics.fixpoint import ApproximationChain
from repro.traces import _reference as ref
from repro.traces import operations as ops
from repro.traces.events import channel, event
from repro.traces.prefix_closure import FiniteClosure
from repro.traces.trie import make_node

CHANNELS = ("a", "b", "wire")
VALUES = (0, 1)

events = st.builds(event, st.sampled_from(CHANNELS), st.sampled_from(VALUES))
traces = st.lists(events, max_size=5).map(tuple)
trace_lists = st.lists(traces, max_size=8)
hidden_sets = st.lists(
    st.sampled_from([channel(c) for c in CHANNELS]), max_size=2
).map(frozenset)

#: Unique-channel generator for tests that need *fresh* interner misses
#: (the interner is process-global, so already-seen shapes never miss).
_FRESH = itertools.count()


def _fresh_channel() -> str:
    return f"fresh{next(_FRESH)}"


def _kernel_workload(trace_list, other_list, hidden):
    """A composite trie-kernel computation passing several trigger sites."""
    p = FiniteClosure.from_traces(trace_list)
    q = FiniteClosure.from_traces(other_list)
    merged = ops.hide(ops.union(p, q), hidden)
    return ops.truncate(merged, 3)


def _kernel_oracle(trace_list, other_list, hidden):
    p = FiniteClosure.from_traces(trace_list)
    q = FiniteClosure.from_traces(other_list)
    return ref.truncate(ref.hide(ref.union(p, q), hidden), 3)


class TestPlans:
    def test_maybe_fail_is_noop_without_plan(self):
        faults.maybe_fail("trie.intern")  # must not raise

    def test_observation_mode_counts_without_firing(self):
        defs = parse_definitions("p = a!0 -> b!1 -> p")
        with faults.observe() as plan:
            denote(Name("p"), defs, config=SemanticsConfig(depth=4, sample=2))
        assert not plan.fired
        assert plan.total > 0
        assert plan.counts.get("denote.unfold", 0) >= 0  # counts recorded per site

    def test_plan_fires_at_exact_visit(self):
        plan = FaultPlan(site="s", after=3)
        plan.visit("s")
        plan.visit("other")
        plan.visit("s")
        with pytest.raises(FaultInjected) as info:
            plan.visit("s")
        assert info.value.site == "s"
        assert info.value.visit == 3
        plan.visit("s")  # a fired plan never fires twice

    def test_after_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(after=0)

    def test_serving_sites_are_registered(self):
        # PR 7 trigger sites, depended on by the daemon chaos harness.
        for site in ("serve.dispatch", "serve.worker_exit", "snapshot.write"):
            assert site in faults.SITES

    def test_parse_plan_site_and_count(self):
        plan = faults.parse_plan("serve.worker_exit:3")
        assert plan.site == "serve.worker_exit"
        assert plan.after == 3

    def test_parse_plan_defaults_to_first_visit(self):
        plan = faults.parse_plan("snapshot.write")
        assert plan.site == "snapshot.write"
        assert plan.after == 1

    def test_parse_plan_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.parse_plan("no.such.site:2")

    def test_intern_site_aborts_before_insertion(self):
        # A genuinely fresh shape misses the interner; firing at that miss
        # must leave the interner without the aborted node.
        name = _fresh_channel()
        child = make_node({})
        with faults.inject(FaultPlan(site="trie.intern", after=1)):
            with pytest.raises(FaultInjected):
                make_node({event(name, 0): child})
        # clean re-run interns the node normally and it behaves
        node = make_node({event(name, 0): child})
        assert node.children[event(name, 0)] is child
        assert node is make_node({event(name, 0): child})


class TestKernelExceptionSafety:
    @settings(max_examples=60, deadline=None)
    @given(
        trace_lists,
        trace_lists,
        hidden_sets,
        st.sampled_from(faults.SITES),
        st.integers(min_value=1, max_value=6),
    )
    def test_abort_anywhere_then_rerun_matches_oracle(
        self, ts_p, ts_q, hidden, site, after
    ):
        plan = FaultPlan(site=site, after=after)
        try:
            with faults.inject(plan):
                _kernel_workload(ts_p, ts_q, hidden)
        except FaultInjected:
            pass
        got = _kernel_workload(ts_p, ts_q, hidden)
        want = _kernel_oracle(ts_p, ts_q, hidden)
        assert got == want  # pointer equality of interned roots
        assert got.traces == want.traces  # and flat-set equality

    @settings(max_examples=30, deadline=None)
    @given(
        trace_lists,
        trace_lists,
        st.sampled_from(faults.SITES),
        st.integers(min_value=1, max_value=6),
    )
    def test_parallel_abort_then_rerun_matches_oracle(self, ts_p, ts_q, site, after):
        p = FiniteClosure.from_traces(ts_p)
        q = FiniteClosure.from_traces(ts_q)
        alphabet = p.channels() | q.channels()
        try:
            with faults.inject(FaultPlan(site=site, after=after)):
                ops.parallel(p, alphabet, q, alphabet, depth=4)
        except FaultInjected:
            pass
        got = ops.parallel(p, alphabet, q, alphabet, depth=4)
        want = ref.parallel(p, alphabet, q, alphabet, depth=4)
        assert got == want and got.traces == want.traces


class TestSnapshotWriteExceptionSafety:
    """Quantified abort-safety for the snapshot writer: abort the save
    at *any* trigger visit and the on-disk file is still a complete
    decodable snapshot (the old one — never a torn hybrid), and a clean
    re-save persists everything that was pending."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_abort_anywhere_leaves_old_or_new_never_torn(self, after):
        import shutil
        import tempfile
        from pathlib import Path

        from repro.traces.prefix_closure import FiniteClosure
        from repro.traces.snapshot import SnapshotCache

        directory = Path(tempfile.mkdtemp(prefix="repro-snapfault-"))
        try:
            key = "deadbeef" * 4
            root_a = FiniteClosure.from_traces([(event("a", 0),)]).root
            root_b = FiniteClosure.from_traces([(event("b", 1),)]).root
            cache = SnapshotCache(directory, key)
            cache.put("fix:a", root_a)
            cache.save()
            cache.put("fix:b", root_b)
            try:
                with faults.inject(
                    FaultPlan(site="snapshot.write", after=after)
                ):
                    cache.save()  # may abort before or after the temp write
            except FaultInjected:
                pass
            mid = SnapshotCache(directory, key)
            assert not mid.rebuilt and not mid.quarantined
            assert mid.get("fix:a") is root_a  # old state always intact
            cache.save()  # clean re-save completes the interrupted write
            final = SnapshotCache(directory, key)
            assert final.get("fix:a") is root_a
            assert final.get("fix:b") is root_b
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestSemanticsExceptionSafety:
    DEFS = (
        "copier = input?x:NAT -> wire!x -> copier;"
        "recopier = wire?y:NAT -> output!y -> recopier;"
        "network = chan wire; (copier || recopier)"
    )

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(faults.SITES),
        st.integers(min_value=1, max_value=40),
    )
    def test_denotation_abort_then_rerun_matches_reference_kernel(self, site, after):
        defs = parse_definitions(self.DEFS)
        cfg = SemanticsConfig(depth=4, sample=2)
        try:
            with faults.inject(FaultPlan(site=site, after=after)):
                denote(Name("network"), defs, config=cfg)
        except FaultInjected:
            pass
        got = denote(Name("network"), defs, config=cfg)
        want = denote(Name("network"), defs, config=cfg, kernel="reference")
        assert got == want and got.traces == want.traces

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=5))
    def test_fixpoint_step_abort_then_rerun_stabilises_identically(self, after):
        defs = parse_definitions("p = a!0 -> b!1 -> p")
        cfg = SemanticsConfig(depth=4, sample=2)
        aborted = ApproximationChain(defs, config=cfg)
        try:
            with faults.inject(FaultPlan(site="fixpoint.step", after=after)):
                aborted.run_until_stable()
        except FaultInjected:
            pass
        clean = ApproximationChain(defs, config=cfg)
        clean.run_until_stable()
        want = denote(Name("p"), defs, config=cfg, kernel="reference")
        assert clean.closure_for("p") == want
