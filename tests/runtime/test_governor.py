"""Budgets, governors, and checkpoints.

Covers the governor in isolation (budget validation, ambient
activation), each budget axis threaded through a real subsystem
(interner, fixpoint chain, explorer), and the per-call accounting
contract of the explorer.
"""

import pytest

from repro.errors import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OPERATIONAL,
    EXIT_PARSE,
    EXIT_PROOF,
    EXIT_SEMANTICS,
    BudgetExceeded,
    DefinitionError,
    EvaluationError,
    OperationalError,
    ProofError,
    ReproError,
    SemanticsError,
    exit_code_for,
)
from repro.operational.explorer import Explorer
from repro.operational.step import OperationalSemantics
from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.runtime import governor as gov_mod
from repro.runtime.governor import Budget, activate
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import denote
from repro.semantics.fixpoint import ApproximationChain
from repro.traces.trie import clear_interner

COPIER = "copier = input?x:NAT -> wire!x -> copier"
DEADLOCKER = (
    "p = w!1 -> out!1 -> STOP;"
    "q = w?x:{2..3} -> STOP;"
    "net = p || q"
)


class TestBudget:
    @pytest.mark.parametrize(
        "kwargs",
        [{"deadline": -1}, {"max_nodes": -1}, {"max_states": -5}],
    )
    def test_negative_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_nodes=10).unlimited

    def test_start_gives_fresh_governor(self):
        budget = Budget(max_nodes=3)
        governor = budget.start()
        assert governor.budget is budget
        assert governor.nodes_interned == 0
        assert not governor.exhausted


class TestAmbient:
    def test_hooks_are_noops_without_governor(self):
        assert gov_mod.current() is None
        gov_mod.note_node()
        gov_mod.note_state()
        gov_mod.tick()  # must not raise

    def test_activate_restores_on_exit(self):
        outer = Budget(max_nodes=100).start()
        inner = Budget(max_nodes=200).start()
        with activate(outer):
            assert gov_mod.current() is outer
            with activate(inner):
                assert gov_mod.current() is inner
            assert gov_mod.current() is outer
        assert gov_mod.current() is None

    def test_activate_none_is_noop(self):
        with activate(None) as governor:
            assert governor is None
            assert gov_mod.current() is None


class TestTrips:
    def test_max_nodes_trips_on_interner_growth(self):
        clear_interner()
        defs = parse_definitions(COPIER)
        governor = Budget(max_nodes=5).start()
        with activate(governor):
            with pytest.raises(BudgetExceeded, match="interned-node budget"):
                denote(Name("copier"), defs, config=SemanticsConfig(depth=6, sample=2))
        assert governor.exhausted
        assert governor.nodes_interned > 5

    def test_deadline_zero_trips_fixpoint_step(self):
        defs = parse_definitions(COPIER)
        chain = ApproximationChain(defs, config=SemanticsConfig(depth=3, sample=2))
        governor = Budget(deadline=0.0).start()
        with activate(governor):
            with pytest.raises(BudgetExceeded, match="wall-clock"):
                chain.run_until_stable()

    def test_max_states_trips_explorer_via_governor(self):
        defs = parse_definitions("count[n:NAT] = c!n -> count[n+1]")
        from repro.process.ast import ArrayRef
        from repro.values.expressions import const

        semantics = OperationalSemantics(defs, sample=2)
        governor = Budget(max_states=40).start()
        with activate(governor):
            with pytest.raises(BudgetExceeded) as info:
                Explorer(semantics).visible_traces(ArrayRef("count", const(0)), 100)
        assert info.value.resource == "explored-state"
        # the explorer restamped the trip with its own completed depth
        assert info.value.checkpoint.phase == "explore"

    def test_trip_checkpoint_reports_recorded_progress(self):
        governor = Budget(max_nodes=1).start()
        governor.record_progress(phase="sat", completed_depth=3, traces_verified=12)
        with pytest.raises(BudgetExceeded) as info:
            with activate(governor):
                gov_mod.note_node()
                gov_mod.note_node()
        checkpoint = info.value.checkpoint
        assert checkpoint.completed_depth == 3
        assert checkpoint.traces_verified == 12
        assert "verified to depth 3" in str(info.value)


class TestExplorerAccounting:
    """Satellite 1: the state budget is per call, not per explorer."""

    def test_budget_does_not_leak_across_calls(self):
        defs = parse_definitions(
            "p = a!0 -> p | b!1 -> STOP; q = c!0 -> q | d!1 -> STOP"
        )
        semantics = OperationalSemantics(defs, sample=2)
        probe_p = Explorer(semantics)
        probe_p.visible_traces(Name("p"), 4)
        cost_p = probe_p.states_touched
        probe_q = Explorer(semantics)
        probe_q.visible_traces(Name("q"), 4)
        cost_q = probe_q.states_touched
        assert cost_p > 0 and cost_q > 0
        # enough for either query alone, not for both combined: with the
        # old cumulative counter the second query would trip
        explorer = Explorer(semantics, max_states=max(cost_p, cost_q) + 1)
        explorer.visible_traces(Name("p"), 4)
        explorer.visible_traces(Name("q"), 4)
        assert explorer.states_touched <= max(cost_p, cost_q) + 1

    def test_deadlock_report_includes_exploration_cost(self):
        defs = parse_definitions(DEADLOCKER)
        semantics = OperationalSemantics(defs, sample=2)
        report = Explorer(semantics).deadlock_report(Name("net"), 2)
        assert report.complete
        assert report.states_touched > 0
        assert report.completed_depth >= 0
        assert report.deadlocks  # p offers w!1, q only accepts {2..3}
        assert "states touched" in str(report)

    def test_find_deadlocks_matches_report(self):
        defs = parse_definitions(DEADLOCKER)
        semantics = OperationalSemantics(defs, sample=2)
        report = Explorer(semantics).deadlock_report(Name("net"), 2)
        assert Explorer(semantics).find_deadlocks(Name("net"), 2) == list(
            report.deadlocks
        )

    def test_tripped_deadlock_report_returns_its_trip(self):
        # net is stuck after its hidden w-step, which max_states=1 cuts off
        defs = parse_definitions(
            "p = w!1 -> STOP; q = w?x:{1} -> STOP; net = chan w; (p || q)"
        )
        semantics = OperationalSemantics(defs, sample=2)
        report = Explorer(semantics, max_states=1).deadlock_report(Name("net"), 2)
        assert not report.complete and report.deadlocks == ()
        assert report.completed_depth is None
        assert report.trip.checkpoint.completed_depth is None
        assert "no depth completed" in str(report)
        with pytest.raises(BudgetExceeded, match="explorer-state"):
            Explorer(semantics, max_states=1).find_deadlocks(Name("net"), 2)
        assert Explorer(semantics).find_deadlocks(Name("net"), 2) == [()]


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc,code",
        [
            (BudgetExceeded("wall-clock", "1s"), EXIT_BUDGET),
            (DefinitionError("dup"), EXIT_PARSE),
            (OSError("missing"), EXIT_PARSE),
            (SemanticsError("bad"), EXIT_SEMANTICS),
            (EvaluationError("bad"), EXIT_SEMANTICS),
            (OperationalError("stuck"), EXIT_OPERATIONAL),
            (ProofError("rejected"), EXIT_PROOF),
            (ReproError("other"), EXIT_ERROR),
        ],
    )
    def test_mapping(self, exc, code):
        assert exit_code_for(exc) == code
