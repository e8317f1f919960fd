"""Operational simulator — the "intended implementation" of §3.

The denotational semantics (:mod:`repro.semantics`) says *which traces* a
process has; this package says *how a network actually runs*: a
small-step labelled transition system whose states are process
configurations and whose labels are communications (or τ for concealed
internal communications introduced by ``chan``).

* :mod:`repro.operational.state`     — immutable network configurations;
* :mod:`repro.operational.step`      — the transition relation;
* :mod:`repro.operational.scheduler` — single-run simulation under a
  scheduling policy;
* :mod:`repro.operational.explorer`  — exhaustive breadth-first subset
  construction over τ-closed state sets, producing the visible-trace
  closure (cross-validated against the denotational semantics in the
  integration tests).
"""

from repro.operational.explorer import Explorer, explore_traces
from repro.operational.scheduler import (
    DeterministicScheduler,
    RandomScheduler,
    Scheduler,
    SimulationRun,
    simulate,
)
from repro.operational.state import ChanState, LeafState, ParallelState, State, lift
from repro.operational.step import OperationalSemantics, Step

__all__ = [
    "State",
    "LeafState",
    "ParallelState",
    "ChanState",
    "lift",
    "OperationalSemantics",
    "Step",
    "Scheduler",
    "RandomScheduler",
    "DeterministicScheduler",
    "SimulationRun",
    "simulate",
    "Explorer",
    "explore_traces",
]
