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
Exhaustion raises :class:`~repro.errors.BudgetExceeded` carrying a
checkpoint whose payload holds the last completed BFS frontier; passing
that checkpoint back via ``resume=`` continues the search where it
stopped instead of re-exploring from the initial configuration.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.errors import BudgetExceeded, OperationalError
from repro.operational.state import State
from repro.operational.step import OperationalSemantics
from repro.process.ast import Process
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.runtime.governor import Checkpoint
from repro.traces.events import Event, Trace
from repro.traces.prefix_closure import FiniteClosure


class DeadlockReport(NamedTuple):
    """Outcome of a deadlock search, including its exploration cost."""

    deadlocks: Tuple[Trace, ...]  #: shortest-first traces reaching a stuck state
    states_touched: int  #: configurations visited by this search
    completed_depth: int  #: deepest BFS level fully scanned
    complete: bool = True  #: False when a budget cut the search short

    def __str__(self) -> str:
        status = "complete" if self.complete else "PARTIAL"
        return (
            f"{len(self.deadlocks)} deadlock(s) to depth {self.completed_depth} "
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

    def visible_traces(
        self,
        term: Process,
        depth: int,
        resume: Optional[Checkpoint] = None,
    ) -> FiniteClosure:
        """Every visible trace of length ≤ ``depth``.

        ``resume`` accepts the checkpoint of a previous budget trip on the
        same term: the search restarts from the saved frontier, so work
        already paid for is not repeated.  A budget trip raises
        :class:`~repro.errors.BudgetExceeded` whose checkpoint holds every
        trace of length ≤ ``completed_depth`` — a sound under-approximation
        — plus the frontier needed to resume.
        """
        self._begin()
        frontier: Dict[Trace, FrozenSet[State]] = {}
        traces: Set[Trace] = set()
        level = 0
        try:
            if resume is not None:
                frontier, traces, level = _restore(resume)
            else:
                initial = self.semantics.initial_state(term)
                frontier = {(): self.tau_closure(initial)}
                traces = {()}
            for level in range(level, depth):
                governor = _governor.current()
                if governor is not None:
                    governor.check_deadline()
                    governor.record_progress(
                        phase="explore",
                        completed_depth=level,
                        traces_verified=len(traces),
                        payload=_payload(frontier, traces, level),
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
                self._checkpoint("explore", frontier, traces, level, exc)
            ) from None
        return FiniteClosure(frozenset(traces), _trusted=True)

    def _visible_steps(self, state: State) -> List[Tuple[Event, State]]:
        result = []
        for step in self.semantics.steps(state):
            if not step.is_internal:
                assert step.event is not None
                result.append((step.event, step.state))
        return result

    def _checkpoint(
        self,
        phase: str,
        frontier: Dict[Trace, FrozenSet[State]],
        traces: Set[Trace],
        level: int,
        exc: BudgetExceeded,
        extra: Optional[Dict[str, object]] = None,
    ) -> Checkpoint:
        inner = exc.checkpoint
        payload = _payload(frontier, traces, level)
        if extra:
            payload.update(extra)
        return Checkpoint(
            phase=phase,
            completed_depth=level,
            traces_verified=len(traces),
            states_explored=self._states_touched,
            nodes_interned=inner.nodes_interned if inner is not None else 0,
            elapsed=inner.elapsed if inner is not None else 0.0,
            payload=payload,
        )

    # -- deadlock search ---------------------------------------------------

    def deadlock_report(self, term: Process, depth: int) -> DeadlockReport:
        """Visible traces after which some reachable configuration has no
        transition at all — the behaviour the paper's partial-correctness
        system cannot exclude (§4) — together with the exploration cost.

        On a budget trip the raised :class:`~repro.errors.BudgetExceeded`
        carries the deadlocks found so far in its checkpoint payload
        (``payload["deadlocks"]``), sound for every fully scanned level.
        """
        self._begin()
        frontier: Dict[Trace, FrozenSet[State]] = {}
        deadlocks: List[Trace] = []
        completed = -1
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
                next_frontier: Dict[Trace, Set[State]] = {}
                for trace, states in sorted(frontier.items()):
                    for state in states:
                        if not self.semantics.steps(state):
                            deadlocks.append(trace)
                            break
                for trace, states in frontier.items():
                    for state in states:
                        for event, successor in self._visible_steps(state):
                            next_frontier.setdefault(trace + (event,), set()).update(
                                self.tau_closure(successor)
                            )
                completed = level
                frontier = {t: frozenset(s) for t, s in next_frontier.items()}
                if not frontier:
                    break
        except BudgetExceeded as exc:
            found = tuple(sorted(deadlocks, key=len))
            raise exc.with_checkpoint(
                self._checkpoint(
                    "deadlock",
                    frontier,
                    set(frontier),
                    max(completed, 0),
                    exc,
                    extra={"deadlocks": found},
                )
            ) from None
        return DeadlockReport(
            deadlocks=tuple(sorted(deadlocks, key=len)),
            states_touched=self._states_touched,
            completed_depth=completed,
            complete=True,
        )

    def find_deadlocks(self, term: Process, depth: int) -> List[Trace]:
        """Shortest-first deadlock traces (see :meth:`deadlock_report`)."""
        return list(self.deadlock_report(term, depth).deadlocks)


def _payload(
    frontier: Dict[Trace, FrozenSet[State]],
    traces: Set[Trace],
    level: int,
) -> Dict[str, object]:
    return {
        "frontier": dict(frontier),
        "traces": frozenset(traces),
        "level": level,
    }


def _restore(
    checkpoint: Checkpoint,
) -> Tuple[Dict[Trace, FrozenSet[State]], Set[Trace], int]:
    payload = checkpoint.payload if isinstance(checkpoint.payload, dict) else {}
    frontier = payload.get("frontier")
    if not frontier:
        raise OperationalError(
            "checkpoint carries no explorer frontier to resume from"
        )
    traces = set(payload.get("traces") or {()})
    level = int(payload.get("level") or 0)
    return dict(frontier), traces, level


def explore_traces(
    term: Process,
    semantics: OperationalSemantics,
    depth: int,
    max_states: int = 200_000,
) -> FiniteClosure:
    """One-shot convenience wrapper around :class:`Explorer`."""
    return Explorer(semantics, max_states).visible_traces(term, depth)
