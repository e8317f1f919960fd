"""Single-run simulation of a process network under a scheduling policy.

Where the explorer enumerates *all* behaviours, a scheduler resolves the
non-determinism one way and produces a single execution — the library's
stand-in for actually deploying the network on real processors.  Runs
record both visible communications and internal (τ) steps, and report
whether the network ended in deadlock (no transition available), the
phenomenon the paper's proof system famously cannot rule out (§4).
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.operational.state import State
from repro.operational.step import OperationalSemantics, Step
from repro.process.ast import Process
from repro.traces.events import Event, Trace


class Scheduler:
    """Strategy interface: pick one of the available steps."""

    def choose(self, steps: Sequence[Step]) -> Step:
        raise NotImplementedError


class RandomScheduler(Scheduler):
    """Uniformly random choice; seedable for reproducibility."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def choose(self, steps: Sequence[Step]) -> Step:
        return steps[self._rng.randrange(len(steps))]


class DeterministicScheduler(Scheduler):
    """Always the first step in the deterministic order — useful for
    reproducible smoke runs and as a worst-case fairness example."""

    def choose(self, steps: Sequence[Step]) -> Step:
        return steps[0]


class SimulationRun(NamedTuple):
    """The outcome of one simulated execution."""

    #: Visible communications, in order.
    trace: Trace
    #: Every step taken, with ``None`` marking internal steps.
    full_history: Tuple[Optional[Event], ...]
    #: The final configuration.
    final_state: State
    #: True when the run stopped because no transition was available.
    deadlocked: bool

    @property
    def internal_steps(self) -> int:
        return sum(1 for event in self.full_history if event is None)


def simulate(
    term: Process,
    semantics: OperationalSemantics,
    max_steps: int = 100,
    scheduler: Optional[Scheduler] = None,
) -> SimulationRun:
    """Run ``term`` for up to ``max_steps`` transitions.

    >>> from repro.process import parse_definitions, Name
    >>> defs = parse_definitions("copier = input?x:NAT -> wire!x -> copier")
    >>> sem = OperationalSemantics(defs)
    >>> run = simulate(Name("copier"), sem, max_steps=4,
    ...                scheduler=DeterministicScheduler())
    >>> [repr(e) for e in run.trace]
    ['input.0', 'wire.0', 'input.0', 'wire.0']
    """
    if scheduler is None:
        scheduler = RandomScheduler(seed=0)
    state = semantics.initial_state(term)
    history: List[Optional[Event]] = []
    visible: List[Event] = []
    deadlocked = False
    for _ in range(max_steps):
        steps = semantics.steps(state)
        if not steps:
            deadlocked = True
            break
        step = scheduler.choose(steps)
        history.append(step.event)
        if step.event is not None:
            visible.append(step.event)
        state = step.state
    return SimulationRun(tuple(visible), tuple(history), state, deadlocked)
