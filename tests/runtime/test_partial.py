"""Governed ``sat`` checking: sound partial verdicts by deepening.

Under an ambient governor the checker verifies depth 0, 1, … in turn, so
a budget trip still yields "verified to depth k, no counterexample" —
and because bounded closures are monotone in depth, a counterexample
found at any depth is a *complete* refutation regardless of the budget.
"""

import pytest

from repro.errors import BudgetExceeded
from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.runtime.governor import Budget, activate
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.traces.trie import clear_interner

COPIER = "copier = input?x:NAT -> wire!x -> copier"


def checker(depth=6):
    return SatChecker(
        parse_definitions(COPIER), config=SemanticsConfig(depth=depth, sample=2)
    )


class TestGovernedCheck:
    def test_budget_trip_reports_verified_depth(self):
        clear_interner()
        with activate(Budget(max_nodes=15).start()):
            with pytest.raises(BudgetExceeded) as info:
                checker(depth=8).check(Name("copier"), "wire <= input")
        checkpoint = info.value.checkpoint
        assert checkpoint.phase == "sat"
        assert checkpoint.completed_depth is not None
        assert checkpoint.completed_depth < 8
        assert checkpoint.traces_verified > 0
        assert "verified to depth" in str(info.value)

    def test_ample_budget_completes_with_depth(self):
        with activate(Budget(max_nodes=1_000_000).start()):
            result = checker(depth=4).check(Name("copier"), "wire <= input")
        assert result.holds
        assert result.verified_depth == 4

    def test_counterexample_is_complete_even_when_governed(self):
        with activate(Budget(max_nodes=1_000_000).start()):
            result = checker(depth=6).check(Name("copier"), "input <= wire")
        assert not result.holds
        assert result.counterexample is not None
        assert result.verified_depth is not None

    def test_deadline_zero_trips_before_depth_zero(self):
        with activate(Budget(deadline=0.0).start()):
            with pytest.raises(BudgetExceeded) as info:
                checker(depth=4).check(Name("copier"), "wire <= input")
        assert info.value.checkpoint.completed_depth is None

    def test_ungoverned_check_unchanged(self):
        result = checker(depth=4).check(Name("copier"), "wire <= input")
        assert result.holds
        assert result.verified_depth == 4  # one pass, at the configured depth

    def test_governed_verdict_matches_ungoverned(self):
        ungoverned = checker(depth=4).check(Name("copier"), "wire <= input")
        with activate(Budget(max_nodes=1_000_000).start()):
            governed = checker(depth=4).check(Name("copier"), "wire <= input")
        assert governed.holds == ungoverned.holds


class TestTracesPartial:
    def test_ungoverned_is_complete(self):
        result = checker(depth=3).traces_partial(Name("copier"))
        assert result.complete
        assert result.verified_depth == 3
        assert result.closure is not None and len(result.closure) > 1

    def test_budget_trip_keeps_last_finished_closure(self):
        clear_interner()
        with activate(Budget(max_nodes=15).start()):
            result = checker(depth=8).traces_partial(Name("copier"))
        assert not result.complete
        assert result.verified_depth is not None and result.verified_depth < 8
        assert result.closure is not None
        # the partial closure is exact at its depth: every trace real
        assert result.closure.depth() <= result.verified_depth

    def test_partial_closure_is_prefix_of_full(self):
        clear_interner()
        with activate(Budget(max_nodes=15).start()):
            partial = checker(depth=8).traces_partial(Name("copier"))
        full = checker(depth=8).traces_of(Name("copier"))
        assert partial.closure is not None
        assert partial.closure.issubset(full)

    def test_deadline_zero_yields_no_closure(self):
        with activate(Budget(deadline=0.0).start()):
            result = checker(depth=4).traces_partial(Name("copier"))
        assert not result.complete
        assert result.closure is None
