"""The subset-construction explorer against the trace-keyed walk it replaced.

:class:`TraceKeyedWalk` is that walk, kept as the oracle with no
optimisation in it: its frontier maps every visible trace to the
τ-closed set of configurations the trace reaches, and each level steps
every (trace, configuration) pair.  It builds its closure from the flat
trace set.  Only the τ-closure memo is kept, because the count of
configurations touched is defined with it.

On every input the explorer must intern the oracle's root (pointer
identity), touch as many configurations, and report the same deadlocks,
depth and checkpoint; under every ``max_states`` budget up to the
unbudgeted count it must trip at the oracle's level.
"""

from collections import deque

import pytest

from repro.errors import BudgetExceeded
from repro.operational.explorer import Explorer
from repro.operational.step import OperationalSemantics
from repro.process.ast import Name
from repro.process.definitions import DefinitionList, ProcessDef
from repro.soundness.generators import ProcessGenerator
from repro.systems import buffer, copier, multiplier, philosophers, protocol
from repro.traces.prefix_closure import FiniteClosure
from repro.values.environment import Environment


class _Tripped(Exception):
    pass


class TraceKeyedWalk:
    def __init__(self, semantics, max_states=200_000):
        self.semantics, self.max_states = semantics, max_states
        self.closures, self.touched = {}, 0

    def tau_closure(self, state):
        if state not in self.closures:
            seen, queue = {state}, deque([state])
            while queue:
                self.touched += 1
                if self.touched > self.max_states:
                    raise _Tripped
                for step in self.semantics.steps(queue.popleft()):
                    if step.event is None and step.state not in seen:
                        seen.add(step.state)
                        queue.append(step.state)
            self.closures[state] = frozenset(seen)
        return self.closures[state]

    def start(self, term):
        self.touched = 0
        return {(): self.tau_closure(self.semantics.initial_state(term))}

    def expand(self, frontier):
        successors = {}
        for trace, states in frontier.items():
            for state in states:
                for step in self.semantics.steps(state):
                    if step.event is not None:
                        successors.setdefault(trace + (step.event,), set()).update(
                            self.tau_closure(step.state)
                        )
        return successors

    def visible_traces(self, term, depth):
        """(closure or None, touched, (completed depth, traces) of a trip)."""
        traces, level = set(), 0
        try:
            frontier = self.start(term)
            traces = {()}
            for level in range(depth):
                frontier = self.expand(frontier)
                if not frontier:
                    break
                traces.update(frontier)
        except _Tripped:
            return None, self.touched, (level, len(traces))
        return FiniteClosure(traces), self.touched, None

    def deadlock_report(self, term, depth):
        """(deadlocks, touched, completed depth, traces of that depth, tripped)."""
        deadlocks, completed, scanned = [], None, 0
        try:
            frontier = self.start(term)
            for level in range(depth + 1):
                deadlocks += sorted(
                    trace
                    for trace, states in frontier.items()
                    if any(not self.semantics.steps(s) for s in states)
                )
                completed, scanned = level, len(frontier)
                frontier = self.expand(frontier)
                if not frontier:
                    break
        except _Tripped:
            return tuple(deadlocks), self.touched, completed, scanned, True
        return tuple(deadlocks), self.touched, completed, scanned, False


def _semantics(system, *args, sample):
    return OperationalSemantics(
        system.definitions(*args), system.environment(), sample=sample
    )


def _network(seed):
    term = ProcessGenerator(seed=seed, max_depth=3).network()
    defs = DefinitionList([ProcessDef("sys", term)])
    return OperationalSemantics(defs, Environment(), sample=2)


#: label → (semantics factory, process, depth)
INPUTS = {
    **{
        f"explore phil3 depth={d}": (lambda: _semantics(philosophers, 3, sample=3), "table", d)
        for d in (6, 7, 8, 9)
    },
    **{
        f"explore phil4 depth={d}": (lambda: _semantics(philosophers, 4, sample=4), "table", d)
        for d in (5, 6)
    },
    **{
        f"explore copier depth={d}": (lambda: _semantics(copier, sample=2), "network", d)
        for d in (7, 8, 9)
    },
    **{
        f"explore buf2 depth={d}": (lambda: _semantics(buffer, 2, sample=2), "buffer", d)
        for d in (7, 8, 9)
    },
    "deadlocks phil3 depth=5": (lambda: _semantics(philosophers, 3, sample=3), "table", 5),
    "deadlocks buf3 depth=4": (lambda: _semantics(buffer, 3, sample=3), "buffer", 4),
    "copier depth=6": (lambda: _semantics(copier, sample=2), "network", 6),
    "copier.copier depth=5": (lambda: _semantics(copier, sample=2), "copier", 5),
    "protocol depth=6": (lambda: _semantics(protocol, sample=2), "protocol", 6),
    "multiplier depth=4": (lambda: _semantics(multiplier, sample=2), "multiplier", 4),
    "buf4 depth=5": (lambda: _semantics(buffer, 4, sample=2), "buffer", 5),
    "phil2 depth=8": (lambda: _semantics(philosophers, 2, sample=2), "table", 8),
    **{
        f"network seed={seed}": (lambda seed=seed: _network(seed), "sys", 5)
        for seed in range(8)
    },
}


@pytest.mark.parametrize("label", list(INPUTS))
def test_explorer_matches_trace_keyed_walk(label):
    make, proc, depth = INPUTS[label]
    explorer = Explorer(make())
    oracle = TraceKeyedWalk(make())

    closure = explorer.visible_traces(Name(proc), depth)
    expected, touched, trip = oracle.visible_traces(Name(proc), depth)
    assert trip is None
    assert closure.root is expected.root
    assert explorer.states_touched == touched

    report = explorer.deadlock_report(Name(proc), depth)
    deadlocks, touched, completed, _, tripped = oracle.deadlock_report(Name(proc), depth)
    assert not tripped and report.trip is None
    assert report.deadlocks == deadlocks
    assert report.states_touched == touched
    assert report.completed_depth == completed

    # A second query on the same explorer is served by its memos, as
    # the trace-keyed walk's second query was served by its closures.
    explorer.visible_traces(Name(proc), depth)
    oracle.visible_traces(Name(proc), depth)
    assert explorer.states_touched == oracle.touched


def _trip(call):
    try:
        return call(), None
    except BudgetExceeded as exc:
        return None, exc


#: (label, semantics factory, process, depth) swept over every budget
BUDGETED = (
    ("copier", lambda: _semantics(copier, sample=2), "network", 8),
    ("phil3", lambda: _semantics(philosophers, 3, sample=3), "table", 6),
)


@pytest.mark.parametrize("label, make, proc, depth", BUDGETED, ids=[b[0] for b in BUDGETED])
def test_every_state_budget_trips_where_the_walk_trips(label, make, proc, depth):
    semantics = make()
    unbudgeted = TraceKeyedWalk(semantics)
    unbudgeted.deadlock_report(Name(proc), depth)
    for max_states in range(1, unbudgeted.touched + 1):
        closure, exc = _trip(
            lambda: Explorer(semantics, max_states).visible_traces(Name(proc), depth)
        )
        _, touched, trip = TraceKeyedWalk(semantics, max_states).visible_traces(
            Name(proc), depth
        )
        if trip is None:
            assert exc is None and closure is not None
        else:
            assert exc is not None, max_states
            checkpoint = exc.checkpoint
            assert checkpoint.phase == "explore"
            assert (checkpoint.completed_depth, checkpoint.traces_verified) == trip
            assert checkpoint.states_explored == touched

        report = Explorer(semantics, max_states).deadlock_report(Name(proc), depth)
        deadlocks, touched, completed, scanned, tripped = TraceKeyedWalk(
            semantics, max_states
        ).deadlock_report(Name(proc), depth)
        assert report.deadlocks == deadlocks, max_states
        assert report.states_touched == touched
        assert report.completed_depth == completed
        assert (report.trip is not None) == tripped
        if tripped:
            checkpoint = report.trip.checkpoint
            assert checkpoint.phase == "deadlock"
            assert checkpoint.completed_depth == completed
            assert checkpoint.traces_verified == scanned
            assert checkpoint.states_explored == touched
