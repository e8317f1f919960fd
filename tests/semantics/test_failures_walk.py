"""``failures()`` over τ-closed state sets against the trace-keyed loop.

:func:`trace_keyed_failures` is the loop ``failures()`` replaced, kept
as the oracle with no optimisation in it: every visible trace keeps the
τ-closed set of configurations it reaches, each level steps every
(trace, configuration) pair, and every trace's refusal family is built
from its own set.  Only the τ-closure memo is kept, because the count of
configurations touched, and so a ``max_states`` trip, is defined with it.

On every input ``failures()`` must return the oracle's failure set, and
under every ``max_states`` budget up to the unbudgeted count it must
raise exactly when the oracle runs out.
"""

from collections import deque

import pytest

from repro.errors import BudgetExceeded
from repro.process.ast import Choice, Name, STOP
from repro.process.parser import parse_process
from repro.semantics.failures import (
    Failures,
    InternalChoiceSemantics,
    RefusalFamily,
    failures,
)
from repro.systems import philosophers, protocol


class _Tripped(Exception):
    pass


def trace_keyed_failures(process, semantics, depth, max_states=200_000):
    """(failure set, configurations touched); raises :class:`_Tripped`
    once more than ``max_states`` configurations are touched."""
    closures = {}
    touched = 0

    def tau_closure(state):
        nonlocal touched
        if state not in closures:
            seen, queue = {state}, deque([state])
            while queue:
                touched += 1
                if touched > max_states:
                    raise _Tripped
                for step in semantics.moves(queue.popleft()):
                    if step.event is None and step.state not in seen:
                        seen.add(step.state)
                        queue.append(step.state)
            closures[state] = frozenset(seen)
        return closures[state]

    frontier = {(): tau_closure(semantics.initial_state(process))}
    reached = dict(frontier)
    for _ in range(depth):
        successors = {}
        for trace, states in frontier.items():
            for state in states:
                for step in semantics.moves(state):
                    if step.event is not None:
                        successors.setdefault(trace + (step.event,), set()).update(
                            tau_closure(step.state)
                        )
        if not successors:
            break
        frontier = {trace: frozenset(states) for trace, states in successors.items()}
        reached.update(frontier)

    alphabet = frozenset(
        step.event
        for states in reached.values()
        for state in states
        for step in semantics.moves(state)
        if step.event is not None
    )
    families = {}
    for trace, states in reached.items():
        stable = [
            semantics.moves(state)
            for state in states
            if all(step.event is not None for step in semantics.moves(state))
        ]
        refusals = {alphabet - frozenset(step.event for step in steps) for steps in stable}
        families[trace] = RefusalFamily(
            maximal=frozenset(r for r in refusals if not any(r < o for o in refusals)),
            diverges=not stable,
        )
    return Failures(alphabet, families), touched


P = parse_process("a!0 -> b!1 -> STOP")


def _system(system, *args, sample):
    return lambda: InternalChoiceSemantics(
        system.definitions(*args), system.environment(), sample=sample
    )


def _bare():
    return InternalChoiceSemantics(sample=2)


#: label → (semantics factory, process, depth)
INPUTS = {
    **{
        f"phil3 depth={d}": (_system(philosophers, 3, sample=3), Name("table"), d)
        for d in (3, 5)
    },
    **{
        f"protocol depth={d}": (_system(protocol, sample=2), Name("protocol"), d)
        for d in (3, 5)
    },
    "STOP | P depth=4": (_bare, Choice(STOP, P), 4),
    "P depth=4": (_bare, P, 4),
    "mid-run STOP depth=4": (
        _bare,
        parse_process("a!0 -> (STOP | b!1 -> STOP)"),
        4,
    ),
    "nested STOP | depth=5": (
        _bare,
        parse_process("STOP | a!0 -> (b!1 -> STOP | a!0 -> STOP)"),
        5,
    ),
}


@pytest.mark.parametrize("label", list(INPUTS))
def test_failures_match_the_trace_keyed_loop(label):
    make, process, depth = INPUTS[label]
    expected, _ = trace_keyed_failures(process, make(), depth)
    assert failures(process, make(), depth) == expected


#: Swept over every budget: all inputs but 3-seat philosophers at depth
#: 5, whose 304 budgets would take the sweep past 15 s.
SWEPT = [label for label in INPUTS if label != "phil3 depth=5"]


@pytest.mark.parametrize("label", SWEPT)
def test_every_state_budget_trips_where_the_loop_trips(label):
    make, process, depth = INPUTS[label]
    semantics = make()
    expected, unbudgeted = trace_keyed_failures(process, semantics, depth)
    with pytest.raises(_Tripped):
        trace_keyed_failures(process, semantics, depth, unbudgeted - 1)
    # The loop's count only grows, so the loop trips under exactly the
    # budgets below its unbudgeted count.
    for max_states in range(1, unbudgeted + 1):
        try:
            result = failures(process, semantics, depth, max_states=max_states)
        except BudgetExceeded:
            assert max_states < unbudgeted
        else:
            assert max_states == unbudgeted
            assert result == expected
