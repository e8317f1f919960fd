"""Exhaustive exploration of a network's visible behaviours.

The explorer performs a breadth-first search of the configuration space,
treating internal (τ) steps as invisible: it computes, level by level,
the set of *visible traces* of length ≤ depth together with the
configurations reachable under each trace.  The result is a
:class:`~repro.traces.prefix_closure.FiniteClosure` directly comparable
with the bounded denotational semantics — the consistency check at the
heart of the integration test suite.

τ-cycles (e.g. the protocol's unbounded NACK retransmissions) are finite
in configuration space and handled by the closure's visited set; a
``max_states`` budget guards against genuinely infinite-state networks.

Budget accounting is **per call**: each public entry point resets the
touched-state counter, so one long-lived explorer serving many queries
does not leak budget from one query into the next (the τ-closure memo
*is* shared — it caches only completed closures, so reuse is sound).
On exhaustion :meth:`Explorer.visible_traces` raises
:class:`~repro.errors.BudgetExceeded` whose checkpoint names the deepest
completed BFS level; :meth:`Explorer.deadlock_report` instead returns
the deadlocks found so far, with the trip attached to its report.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.errors import BudgetExceeded
from repro.operational.state import State
from repro.operational.step import OperationalSemantics
from repro.process.ast import Process
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.traces.events import Event, Trace
from repro.traces.prefix_closure import FiniteClosure


class DeadlockReport(NamedTuple):
    """Outcome of a deadlock search, including its exploration cost.

    After a budget trip ``deadlocks`` holds those found before it, every
    deadlock of length ≤ ``completed_depth`` among them, and ``trip``
    is the :class:`~repro.errors.BudgetExceeded` that stopped the search.
    """

    deadlocks: Tuple[Trace, ...]  #: shortest-first traces reaching a stuck state
    states_touched: int  #: configurations visited by this search
    completed_depth: Optional[int]  #: deepest level scanned (None: none was)
    trip: Optional[BudgetExceeded] = None  #: the budget trip, if one cut it short

    @property
    def complete(self) -> bool:
        return self.trip is None

    def __str__(self) -> str:
        status = "complete" if self.complete else "PARTIAL"
        reach = (
            "with no depth completed"
            if self.completed_depth is None
            else f"to depth {self.completed_depth}"
        )
        return (
            f"{len(self.deadlocks)} deadlock(s) {reach} "
            f"({status}, {self.states_touched} states touched)"
        )


class Explorer:
    """Breadth-first enumerator of visible traces."""

    def __init__(
        self,
        semantics: OperationalSemantics,
        max_states: int = 200_000,
    ) -> None:
        self.semantics = semantics
        self.max_states = max_states
        self._closure_memo: Dict[State, FrozenSet[State]] = {}
        self._states_touched = 0

    def _begin(self) -> None:
        """Reset per-call accounting (the τ-closure memo persists: it holds
        only completed closures, so reuse across calls is sound)."""
        self._states_touched = 0

    @property
    def states_touched(self) -> int:
        """Configurations visited by the most recent query."""
        return self._states_touched

    # -- τ-closure ---------------------------------------------------------

    def tau_closure(self, state: State) -> FrozenSet[State]:
        """All configurations reachable from ``state`` by internal steps."""
        if state in self._closure_memo:
            return self._closure_memo[state]
        seen: Set[State] = {state}
        queue: Deque[State] = deque([state])
        while queue:
            current = queue.popleft()
            self._touch()
            for step in self.semantics.steps(current):
                if step.is_internal and step.state not in seen:
                    seen.add(step.state)
                    queue.append(step.state)
        # Inserted only once fully computed — an abort above leaves the
        # memo consistent (exception safety).
        result = frozenset(seen)
        self._closure_memo[state] = result
        return result

    def _touch(self) -> None:
        _faults.maybe_fail("explorer.step")
        _governor.note_state()
        self._states_touched += 1
        if self._states_touched > self.max_states:
            raise BudgetExceeded("explorer-state", self.max_states)

    # -- trace enumeration -----------------------------------------------------

    def visible_traces(self, term: Process, depth: int) -> FiniteClosure:
        """Every visible trace of length ≤ ``depth``.

        A budget trip raises :class:`~repro.errors.BudgetExceeded` whose
        checkpoint counts the traces of length ≤ ``completed_depth`` found
        before it — a sound under-approximation.
        """
        self._begin()
        traces: Set[Trace] = set()
        level = 0
        try:
            initial = self.semantics.initial_state(term)
            frontier = {(): self.tau_closure(initial)}
            traces = {()}
            for level in range(depth):
                governor = _governor.current()
                if governor is not None:
                    governor.check_deadline()
                    governor.record_progress(
                        phase="explore",
                        completed_depth=level,
                        traces_verified=len(traces),
                    )
                next_frontier: Dict[Trace, Set[State]] = {}
                for trace, states in frontier.items():
                    for state in states:
                        for event, successor in self._visible_steps(state):
                            extended = trace + (event,)
                            next_frontier.setdefault(extended, set()).update(
                                self.tau_closure(successor)
                            )
                if not next_frontier:
                    break
                frontier = {t: frozenset(s) for t, s in next_frontier.items()}
                traces.update(frontier)
        except BudgetExceeded as exc:
            raise exc.with_checkpoint(
                _governor.trip_checkpoint(
                    exc, "explore", level, len(traces), self._states_touched
                )
            ) from None
        return FiniteClosure(frozenset(traces), _trusted=True)

    def _visible_steps(self, state: State) -> List[Tuple[Event, State]]:
        result = []
        for step in self.semantics.steps(state):
            if not step.is_internal:
                assert step.event is not None
                result.append((step.event, step.state))
        return result

    # -- deadlock search ---------------------------------------------------

    def deadlock_report(self, term: Process, depth: int) -> DeadlockReport:
        """Visible traces after which some reachable configuration has no
        transition at all — the behaviour the paper's partial-correctness
        system cannot exclude (§4) — together with the exploration cost.

        A budget trip does not raise: the report carries the deadlocks
        found so far and the trip.  ``completed_depth`` is then the
        deepest level whose deadlock scan finished (``None`` when a trip
        in the initial τ-closure left no level scanned), so the report
        lists every deadlock of length ≤ ``completed_depth``.
        """
        self._begin()
        deadlocks: List[Trace] = []
        completed: Optional[int] = None
        scanned = 0  # the traces of level ``completed``
        trip: Optional[BudgetExceeded] = None
        try:
            initial = self.semantics.initial_state(term)
            frontier = {(): self.tau_closure(initial)}
            for level in range(depth + 1):
                governor = _governor.current()
                if governor is not None:
                    governor.check_deadline()
                    governor.record_progress(
                        phase="deadlock", completed_depth=completed
                    )
                for trace, states in sorted(frontier.items()):
                    for state in states:
                        if not self.semantics.steps(state):
                            deadlocks.append(trace)
                            break
                completed, scanned = level, len(frontier)
                next_frontier: Dict[Trace, Set[State]] = {}
                for trace, states in frontier.items():
                    for state in states:
                        for event, successor in self._visible_steps(state):
                            next_frontier.setdefault(trace + (event,), set()).update(
                                self.tau_closure(successor)
                            )
                frontier = {t: frozenset(s) for t, s in next_frontier.items()}
                if not frontier:
                    break
        except BudgetExceeded as exc:
            trip = exc.with_checkpoint(
                _governor.trip_checkpoint(
                    exc, "deadlock", completed, scanned, self._states_touched
                )
            )
        return DeadlockReport(
            deadlocks=tuple(sorted(deadlocks, key=len)),
            states_touched=self._states_touched,
            completed_depth=completed,
            trip=trip,
        )

    def find_deadlocks(self, term: Process, depth: int) -> List[Trace]:
        """Shortest-first deadlock traces (see :meth:`deadlock_report`);
        a budget trip is raised, not returned."""
        report = self.deadlock_report(term, depth)
        if report.trip is not None:
            raise report.trip
        return list(report.deadlocks)


def explore_traces(
    term: Process,
    semantics: OperationalSemantics,
    depth: int,
    max_states: int = 200_000,
) -> FiniteClosure:
    """One-shot convenience wrapper around :class:`Explorer`."""
    return Explorer(semantics, max_states).visible_traces(term, depth)
