"""Seeded ``repro simulate`` runs: the one caller that depends on step order.

A seeded :class:`~repro.operational.scheduler.RandomScheduler` picks an
index into :meth:`~repro.operational.step.OperationalSemantics.steps`,
so what a run does depends on the order the steps come in.  The
histories below were recorded with ``steps`` sorted by the rendered
event and successor configuration; ``steps`` must keep that order
however the unordered ``moves`` it sorts are derived.
"""

import pytest

from repro.operational.scheduler import RandomScheduler, Scheduler, simulate
from repro.operational.step import OperationalSemantics, step_order
from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.query import environment_from_options
from repro.systems import philosophers, protocol

#: system → (source, process, ``--set`` bindings, ``--with-cancel`` name),
#: as ``repro simulate`` builds them (sample 2)
SYSTEMS = {
    "philosophers": (philosophers.source(3), "table", [], None),
    "protocol": (protocol.SOURCE, "protocol", ["M=0,1"], "f"),
}

STEPS = 36

#: (system, seed) → the run's full history, τ for an internal step
HISTORIES = {
    ("philosophers", 3): (
        "grab[0].0 reach[0].0 eat[0].0 grab[2].2 drop[0].0 reach[2].2 "
        "eat[2].2 release[0].0 grab[1].1 drop[2].2 reach[1].1 release[2].2 "
        "grab[0].0 eat[1].1 drop[1].1 reach[0].0 eat[0].0 release[1].1 "
        "drop[0].0 grab[2].2 reach[2].2 eat[2].2 release[0].0 drop[2].2 "
        "release[2].2 grab[1].1 reach[1].1 grab[0].0 eat[1].1 drop[1].1 "
        "release[1].1 grab[1].1 reach[1].1 eat[1].1 drop[1].1 reach[0].0"
    ),
    # ends in the deadlock where every philosopher holds one fork
    ("philosophers", 6): (
        "grab[2].2 grab[0].0 reach[0].0 eat[0].0 drop[0].0 reach[2].2 "
        "eat[2].2 release[0].0 grab[1].1 drop[2].2 reach[1].1 release[2].2 "
        "grab[0].0 eat[1].1 drop[1].1 reach[0].0 eat[0].0 release[1].1 "
        "drop[0].0 release[0].0 grab[1].1 grab[0].0 reach[1].1 eat[1].1 "
        "drop[1].1 release[1].1 reach[0].0 eat[0].0 drop[0].0 release[0].0 "
        "grab[0].0 grab[1].1 grab[2].2"
    ),
    ("philosophers", 7): (
        "grab[1].1 grab[0].0 reach[1].1 eat[1].1 drop[1].1 reach[0].0 "
        "release[1].1 eat[0].0 drop[0].0 grab[2].2 reach[2].2 release[0].0 "
        "grab[1].1 eat[2].2 drop[2].2 reach[1].1 release[2].2 eat[1].1 "
        "drop[1].1 grab[0].0 reach[0].0 release[1].1 eat[0].0 drop[0].0 "
        "grab[2].2 reach[2].2 release[0].0 grab[1].1 eat[2].2 drop[2].2 "
        "release[2].2 reach[1].1 eat[1].1 drop[1].1 grab[0].0 release[1].1"
    ),
    ("protocol", 0): (
        "input.1 τ τ τ τ input.1 output.1 τ τ output.1 input.0 τ τ input.0 "
        "output.0 τ τ τ τ τ τ input.1 output.0 τ τ input.1 output.1 τ τ "
        "output.1 input.1 τ τ τ τ output.1"
    ),
    ("protocol", 1): (
        "input.0 τ τ input.0 output.0 τ τ output.0 input.1 τ τ τ τ τ τ "
        "output.1 input.0 τ τ output.0 input.0 τ τ input.0 output.0 τ τ τ τ "
        "τ τ τ τ input.1 output.0 τ"
    ),
    ("protocol", 2): (
        "input.0 τ τ τ τ τ τ output.0 input.0 τ τ τ τ output.0 input.1 τ τ "
        "input.0 output.1 τ τ input.1 output.0 τ τ τ τ τ τ τ τ input.0 "
        "output.1 τ τ τ"
    ),
}


class Recording(Scheduler):
    """A seeded random scheduler that keeps each configuration it enters."""

    def __init__(self, seed):
        self.inner = RandomScheduler(seed)
        self.entered = []

    def choose(self, steps):
        step = self.inner.choose(steps)
        self.entered.append(step.state)
        return step


def _run(system, seed):
    source, proc, sets, cancel = SYSTEMS[system]
    semantics = OperationalSemantics(
        parse_definitions(source), environment_from_options(sets, cancel), sample=2
    )
    scheduler = Recording(seed)
    run = simulate(Name(proc), semantics, max_steps=STEPS, scheduler=scheduler)
    visited = [semantics.initial_state(Name(proc)), *scheduler.entered]
    return semantics, run, visited


@pytest.mark.parametrize("system, seed", list(HISTORIES))
def test_seeded_run_reproduces_the_recorded_history(system, seed):
    _, run, _ = _run(system, seed)
    history = " ".join("τ" if e is None else repr(e) for e in run.full_history)
    assert history == HISTORIES[system, seed]
    assert run.deadlocked == (len(run.full_history) < STEPS)


@pytest.mark.parametrize("system, seed", list(HISTORIES))
def test_steps_are_the_moves_in_step_order(system, seed):
    semantics, _, visited = _run(system, seed)
    for state in visited:
        moves = semantics.moves(state)
        assert semantics.steps(state) == tuple(sorted(moves, key=step_order))
