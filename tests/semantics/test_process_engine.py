"""The engine's ``jobs > 1`` path: forked worker processes.

Each worker *process* solves its same-rank SCCs into a private arena and
ships packed flat segments back over a pipe; the parent splices them into
the canonical store in plan order.  These tests pin down

* **pointer identity** — final roots identical to a sequential solve, so
  every downstream consumer (checker, report, snapshots) is oblivious to
  how the fixpoint was scheduled;
* **exact accounting** — the ambient governor's ``note_nodes`` totals
  match a sequential run on a cold arena (children report solve deltas
  only; dependency carry-in is not double-charged);
* **isolation** — cross-process node ids enter the parent only via the
  splice path; raw foreign views still raise
  :class:`~repro.errors.KernelStateError`;
* **fault tolerance** — budget trips cross the pipe as budget trips, and
  a child that dies without a payload falls back to an in-process solve.
"""

import os

import pytest

from repro.errors import BudgetExceeded, KernelStateError
from repro.process.parser import parse_definitions
from repro.runtime.governor import Budget, activate
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.semantics.engine import DenotationEngine
from repro.systems import multiplier, philosophers, protocol
from repro.traces.stats import KERNEL_STATS, reset_stats
from repro.traces.trie import make_node, private_state

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="forked workers need os.fork"
)

CFG = SemanticsConfig(depth=4, sample=3)

#: Two independent recursive processes over disjoint channels: two
#: singleton SCCs at the same rank, the smallest plan that actually
#: fans out across workers.
DISJOINT = (
    "left = a?x:{0,1} -> a!x -> left; "
    "right = b?x:{0,1} -> b!x -> right"
)

SYSTEMS = [
    pytest.param(multiplier, id="multiplier"),
    pytest.param(protocol, id="protocol"),
    pytest.param(philosophers, id="philosophers"),
]


def _roots(engine_fix):
    flat = {}
    for name, value in engine_fix.items():
        if isinstance(value, dict):
            for subscript, closure in value.items():
                flat[(name, subscript)] = closure.root
        else:
            flat[(name, None)] = value.root
    return flat


class TestPointerIdentity:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_roots_identical_to_sequential(self, system):
        defs, env = system.definitions(), system.environment()
        sequential = _roots(DenotationEngine(defs, env, CFG).fixpoint())
        spliced = _roots(DenotationEngine(defs, env, CFG, jobs=2).fixpoint())
        assert set(sequential) == set(spliced)
        for key, root in sequential.items():
            assert spliced[key] is root

    def test_cold_arena_roots_survive_the_splice(self):
        """On a cold arena the children's nodes are genuinely foreign —
        the splice path must rebuild them canonically, and a sequential
        solve afterwards must land on the very same views."""
        defs = parse_definitions(DISJOINT)
        with private_state():
            spliced = _roots(DenotationEngine(defs, config=CFG, jobs=2).fixpoint())
            sequential = _roots(DenotationEngine(defs, config=CFG).fixpoint())
            for key, root in sequential.items():
                assert spliced[key] is root

    def test_splice_path_is_exercised(self):
        defs = parse_definitions(DISJOINT)
        with private_state():
            reset_stats()
            DenotationEngine(defs, config=CFG, jobs=2).fixpoint()
            assert KERNEL_STATS.spliced_ids > 0
            assert KERNEL_STATS.spliced_bytes > 0
            assert KERNEL_STATS.remap_entries > 0
        reset_stats()


class TestCheckerEquivalence:
    def test_verdict_and_result_identical(self):
        defs, env = protocol.definitions(), protocol.environment()
        from repro.process.ast import Name

        sequential = SatChecker(defs, env, CFG).check(
            Name("protocol"), "output <= input"
        )
        parallel = SatChecker(defs, env, CFG, jobs=2).check(
            Name("protocol"), "output <= input"
        )
        assert parallel == sequential  # NamedTuple: verdict-for-verdict


class TestGovernorAccounting:
    def _nodes_interned(self, **engine_kwargs):
        defs = parse_definitions(DISJOINT)
        with private_state():
            governor = Budget(max_nodes=10**9).start()
            with activate(governor):
                DenotationEngine(defs, config=CFG, **engine_kwargs).fixpoint()
            return governor.nodes_interned

    def test_note_nodes_matches_sequential_exactly(self):
        assert self._nodes_interned(jobs=2) == self._nodes_interned()

    def test_budget_trip_crosses_the_pipe(self):
        defs = parse_definitions(DISJOINT)
        with private_state():
            governor = Budget(max_nodes=3).start()
            with activate(governor):
                with pytest.raises(BudgetExceeded):
                    DenotationEngine(defs, config=CFG, jobs=2).fixpoint()
            assert governor.exhausted


class TestIsolation:
    def test_raw_cross_state_use_still_raises(self):
        """The splice path is the *only* sanctioned crossing: a view
        carried raw out of a private arena is rejected the moment an
        operator would build with it."""
        from repro.traces.events import channel, event
        from repro.traces.trie import node_from_traces

        a0 = event(channel("a"), 0)
        with private_state():
            foreign = node_from_traces([(a0,)])
        with pytest.raises(KernelStateError):
            make_node({a0: foreign})


class TestFaultTolerance:
    def test_dead_child_falls_back_in_process(self, monkeypatch):
        defs, env = philosophers.definitions(), philosophers.environment()
        sequential = _roots(DenotationEngine(defs, env, CFG).fixpoint())

        def die(self, indices, rank, fd):
            os.close(fd)  # EOF with no payload: a crash before the write

        monkeypatch.setattr(DenotationEngine, "_child_run", die)
        survived = _roots(DenotationEngine(defs, env, CFG, jobs=2).fixpoint())
        for key, root in sequential.items():
            assert survived[key] is root
