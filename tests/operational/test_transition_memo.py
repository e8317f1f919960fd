"""The per-call transition memo against a cold derivation.

Inside :meth:`Explorer.visible_traces` and :meth:`Explorer.deadlock_report`
the semantics derives each component's transitions once and reuses them
for every configuration that contains the component.  Every
configuration such a call steps must get the moves that a fresh
semantics, with no memo, derives for it — as a multiset, because the
explorer reads moves unordered.  And the memo must be unreachable once
the call returns or trips: a long-lived explorer keeps its closure,
moves and successor memos across queries, but not this one.
"""

import gc
import types
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.errors import BudgetExceeded
from repro.operational.explorer import Explorer
from repro.operational.step import OperationalSemantics
from repro.process.ast import ArrayRef, Name, Parallel
from repro.process.definitions import DefinitionList, ProcessDef
from repro.process.parser import parse_definitions
from repro.soundness.generators import ProcessGenerator
from repro.systems import buffer, copier, multiplier, philosophers, protocol
from repro.values.environment import Environment
from repro.values.expressions import Const


def _system(system, *args, sample):
    return lambda: (system.definitions(*args), system.environment(), sample)


def _generated(seed, nested):
    gen = ProcessGenerator(seed=seed, max_depth=3, allow_networks=True)
    term = Parallel(gen.network(), gen.network()) if nested else gen.network()
    return lambda: (DefinitionList([ProcessDef("sys", term)]), Environment(), 2)


#: label → (definitions/env/sample factory, process, depth)
INPUTS = {
    "copier": (_system(copier, sample=2), Name("network"), 7),
    "copier.copier": (_system(copier, sample=2), Name("copier"), 5),
    "protocol": (_system(protocol, sample=2), Name("protocol"), 6),
    "multiplier": (_system(multiplier, sample=2), Name("multiplier"), 4),
    "phil3": (_system(philosophers, 3, sample=3), Name("table"), 7),
    "phil4": (_system(philosophers, 4, sample=2), Name("table"), 5),
    "buf2": (_system(buffer, 2, sample=2), Name("buffer"), 7),
    "buf3": (_system(buffer, 3, sample=3), Name("buffer"), 4),
    **{
        f"network seed={seed}": (_generated(seed, nested=False), Name("sys"), 5)
        for seed in range(10)
    },
    **{
        f"nested network seed={seed}": (_generated(seed, nested=True), Name("sys"), 5)
        for seed in range(10)
    },
}


def _semantics(make):
    definitions, env, sample = make()
    return OperationalSemantics(definitions, env, sample=sample)


@pytest.fixture
def recorded(monkeypatch):
    """Every memo a call opens, and every (configuration, moves) pair
    derived under one.  Both spies sit on the class, so the test holds
    the memos, not the explorer or its semantics."""
    memos, derived = [], []
    memoised, moves = OperationalSemantics.memoised, OperationalSemantics.moves

    @contextmanager
    def spy_memoised(self):
        with memoised(self):
            memos.append(self._memo)
            yield

    def spy_moves(self, state):
        result = moves(self, state)
        if self._memo is not None:
            derived.append((state, result))
        return result

    monkeypatch.setattr(OperationalSemantics, "memoised", spy_memoised)
    monkeypatch.setattr(OperationalSemantics, "moves", spy_moves)
    return memos, derived


def _reachable(root):
    """Ids of the objects ``root`` reaches through its data: containers,
    instance fields, and the closure cells of functions (a configuration's
    offers resume through closures), but not classes, modules or a
    function's globals."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    pass
            stack.extend(obj.__defaults__ or ())
            continue
        stack.extend(gc.get_referents(obj))
    return seen


def _assert_memo_gone(explorer, memos):
    # A repeated query is served by the moves memo and derives nothing,
    # so only the first call's memo must have entries.
    assert memos and memos[0], "no call derived a transition under its memo"
    assert explorer.semantics._memo is None
    reachable = _reachable(explorer)
    for memo in memos:
        assert id(memo) not in reachable
        assert not any(id(entry) in reachable for entry in memo.values())


@pytest.mark.parametrize("label", list(INPUTS))
def test_memoised_moves_equal_a_cold_derivation(label, recorded):
    make, term, depth = INPUTS[label]
    memos, derived = recorded
    explorer = Explorer(_semantics(make))
    explorer.visible_traces(term, depth)
    explorer.deadlock_report(term, depth)
    assert len(memos) == 2 and derived

    cold = _semantics(make)
    for state, moves in derived:
        assert Counter(moves) == Counter(cold.moves(state)), state
    assert {state for state, _ in derived} == set(explorer._moves_memo)


@pytest.mark.parametrize("label", ["protocol", "phil3", "nested network seed=3"])
def test_memo_is_dropped_when_each_call_returns(label, recorded):
    make, term, depth = INPUTS[label]
    memos, _ = recorded
    explorer = Explorer(_semantics(make))
    explorer.visible_traces(term, depth)
    _assert_memo_gone(explorer, memos)
    report = explorer.deadlock_report(term, depth)
    assert report.trip is None
    _assert_memo_gone(explorer, memos)
    assert len(memos) == 2


def test_memo_is_dropped_after_a_state_budget_trip(recorded):
    memos, _ = recorded
    make = _system(philosophers, 3, sample=3)
    unbudgeted = Explorer(_semantics(make))
    unbudgeted.deadlock_report(Name("table"), 7)
    for max_states in (1, 5, unbudgeted.states_touched // 2):
        explorer = Explorer(_semantics(make), max_states=max_states)
        with pytest.raises(BudgetExceeded):
            explorer.visible_traces(Name("table"), 7)
        _assert_memo_gone(explorer, memos)
        report = explorer.deadlock_report(Name("table"), 7)
        assert report.trip is not None
        _assert_memo_gone(explorer, memos)


def test_memo_is_dropped_after_an_infinite_network_trips(recorded):
    memos, _ = recorded
    semantics = OperationalSemantics(
        parse_definitions("count[n:NAT] = c!n -> count[n+1]"), sample=2
    )
    explorer = Explorer(semantics, max_states=40)
    with pytest.raises(BudgetExceeded):
        explorer.visible_traces(ArrayRef("count", Const(0)), 100)
    _assert_memo_gone(explorer, memos)
