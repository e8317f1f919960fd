"""Exhaustive exploration of a network's visible behaviours.

The explorer is a subset construction over the configuration space,
treating internal (τ) steps as invisible.  Level ``k`` of its
breadth-first walk holds the distinct *τ-closed state sets* that the
visible traces of length ``k`` reach — not the traces themselves.  Two
traces that reach the same set have the same futures, because what a
network can do next depends only on the configurations it may be in.
So each set is stepped once per level however many traces reach it,
and the closure is interned bottom-up straight into the trie arena,
hash-consed over (set, remaining depth):

* node(S, 0) = ⟦STOP⟧;
* node(S, k) = {e ↦ node(τ(succ_e(S)), k − 1)}.

The result is a :class:`~repro.traces.prefix_closure.FiniteClosure`
directly comparable with the bounded denotational semantics — the
consistency check at the heart of the integration test suite.  Nodes
are interned level by level from the deepest up, each node's events in
:meth:`~repro.traces.events.Event.sort_key` order, and the sets of a
level in the order the walk discovered them, so the arena rows (and
the snapshot files written from them) do not depend on the hash seed.

τ-cycles (e.g. the protocol's unbounded NACK retransmissions) are finite
in configuration space and handled by the closure's visited set; a
``max_states`` budget guards against genuinely infinite-state networks.

The explorer memoises three things across calls, each stored only once
complete so that an abort leaves them consistent: each configuration's
τ-closure, each configuration's
:meth:`~repro.operational.step.OperationalSemantics.moves`, and each
set's successor map e ↦ τ(succ_e(S)).  It reads the moves, not the
sorted :meth:`~repro.operational.step.OperationalSemantics.steps`:
closures are sets, successor maps are sorted by event, and levels keep
the order the walk discovers their sets in, which the order of a
configuration's moves does not change.  Each of
:meth:`Explorer.visible_traces` and :meth:`Explorer.deadlock_report`
also runs inside
:meth:`~repro.operational.step.OperationalSemantics.memoised`, so a
component's transitions are derived once per call however many
configurations contain it; that memo dies when the call returns or
trips.  Budget accounting is
**per call**: each public entry point resets the touched-state counter,
so one long-lived explorer serving many queries does not leak budget
from one query into the next.  A configuration is *touched* each time
a τ-closure computation visits it, and each configuration's closure is
computed once per explorer.  Every closure a trace-keyed walk would
compute at a level is computed here at that level too, so the count at
the end of each level, and with it the level at which a ``max_states``
budget trips, is the trace-keyed walk's.  On
exhaustion :meth:`Explorer.visible_traces` raises
:class:`~repro.errors.BudgetExceeded` whose checkpoint names the deepest
completed BFS level; :meth:`Explorer.deadlock_report` instead returns
the deadlocks found so far, with the trip attached to its report.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.errors import BudgetExceeded
from repro.operational.state import State
from repro.operational.step import OperationalSemantics, Step
from repro.process.ast import Process
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.traces.events import Event, Trace
from repro.traces.prefix_closure import FiniteClosure
from repro.traces.trie import ClosureNode, current_state

#: A τ-closed set of configurations: one node of the subset construction.
StateSet = FrozenSet[State]

#: A set's successor map, e ↦ τ(succ_e(S)), in event sort-key order.
Successors = Tuple[Tuple[Event, StateSet], ...]


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
    """Breadth-first enumerator of visible traces over τ-closed state sets."""

    def __init__(
        self,
        semantics: OperationalSemantics,
        max_states: int = 200_000,
    ) -> None:
        self.semantics = semantics
        self.max_states = max_states
        self._closure_memo: Dict[State, StateSet] = {}
        self._moves_memo: Dict[State, Tuple[Step, ...]] = {}
        self._successor_memo: Dict[StateSet, Successors] = {}
        self._states_touched = 0

    def _begin(self) -> None:
        """Reset per-call accounting (the memos persist: they hold only
        completed results, so reuse across calls is sound)."""
        self._states_touched = 0

    @property
    def states_touched(self) -> int:
        """Configurations visited by the most recent query."""
        return self._states_touched

    def moves(self, state: State) -> Tuple[Step, ...]:
        """The steps of ``state``, memoised, in no particular order."""
        moves = self._moves_memo.get(state)
        if moves is None:
            moves = self._moves_memo[state] = self.semantics.moves(state)
        return moves

    # -- τ-closure ---------------------------------------------------------

    def tau_closure(self, state: State) -> StateSet:
        """All configurations reachable from ``state`` by internal steps."""
        if state in self._closure_memo:
            return self._closure_memo[state]
        seen: Set[State] = {state}
        queue: Deque[State] = deque([state])
        while queue:
            current = queue.popleft()
            self._touch()
            for step in self.moves(current):
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

    def successors(self, states: StateSet) -> Successors:
        """e ↦ τ(succ_e(S)) for every visible event ``e`` some member of
        ``states`` offers, sorted by event."""
        known = self._successor_memo.get(states)
        if known is not None:
            return known
        targets: Dict[Event, Set[State]] = {}
        for state in states:
            for step in self.moves(state):
                if step.event is not None:
                    targets.setdefault(step.event, set()).update(
                        self.tau_closure(step.state)
                    )
        result = tuple(
            (event, frozenset(targets[event]))
            for event in sorted(targets, key=Event.sort_key)
        )
        self._successor_memo[states] = result
        return result

    # -- trace enumeration -----------------------------------------------------

    def visible_traces(self, term: Process, depth: int) -> FiniteClosure:
        """Every visible trace of length ≤ ``depth``.

        A budget trip raises :class:`~repro.errors.BudgetExceeded` whose
        checkpoint counts the traces of length ≤ ``completed_depth`` found
        before it — a sound under-approximation.  A trip inside the
        initial τ-closure completes no depth (``None``) and counts no
        trace, as in :meth:`deadlock_report`.
        """
        self._begin()
        traces = 0  # of length ≤ level
        level: Optional[int] = None  # None until the initial τ-closure is done
        try:
            with _governor.recursion_guard("explore"), self.semantics.memoised():
                initial = self.tau_closure(self.semantics.initial_state(term))
                frontier: Dict[StateSet, int] = {initial: 1}  # set → traces reaching it
                levels = [frontier]
                traces, level = 1, 0
                for level in range(depth):
                    governor = _governor.current()
                    if governor is not None:
                        governor.check_deadline()
                        governor.record_progress(
                            phase="explore",
                            completed_depth=level,
                            traces_verified=traces,
                        )
                    next_frontier: Dict[StateSet, int] = {}
                    for states, count in frontier.items():
                        for _event, target in self.successors(states):
                            next_frontier[target] = next_frontier.get(target, 0) + count
                    if not next_frontier:
                        break
                    frontier = next_frontier
                    levels.append(frontier)
                    traces += sum(frontier.values())
        except BudgetExceeded as exc:
            raise exc.with_checkpoint(
                _governor.trip_checkpoint(
                    exc, "explore", level, traces, self._states_touched
                )
            ) from None
        return FiniteClosure.from_node(self._intern(levels))

    def _intern(self, levels: List[Dict[StateSet, int]]) -> ClosureNode:
        """The root node(S₀, depth), interned from the deepest level up.

        The sets of the last level walked are leaves: either the depth
        bound stops there, or none of them has a visible step."""
        arena = current_state().arena
        intern_event = arena.intern_event
        below: Dict[StateSet, int] = dict.fromkeys(levels[-1], 0)
        for frontier in reversed(levels[:-1]):
            here: Dict[StateSet, int] = {}
            for states in frontier:
                pairs = sorted(
                    (intern_event(event), below[target])
                    for event, target in self._successor_memo[states]
                )
                flat: List[int] = []
                for pair in pairs:
                    flat.extend(pair)
                here[states] = arena.intern(flat) if flat else 0
            below = here
        (root,) = below.values()  # level 0 holds the initial set alone
        return arena.view(root)

    # -- deadlock search ---------------------------------------------------

    def deadlock_report(self, term: Process, depth: int) -> DeadlockReport:
        """Visible traces after which some reachable configuration has no
        transition at all — the behaviour the paper's partial-correctness
        system cannot exclude (§4) — together with the exploration cost.

        A budget trip does not raise: the report carries the deadlocks
        found so far and the trip.  ``completed_depth`` is then the
        deepest level whose deadlock scan finished (``None`` when a trip
        in the initial τ-closure left no level scanned), so the report
        lists every deadlock of length ≤ ``completed_depth``.  The last
        level is expanded like every other, so the states touched, and
        the level a ``max_states`` budget trips at, are the trace-keyed
        walk's.
        """
        self._begin()
        deadlocks: List[Trace] = []
        completed: Optional[int] = None
        scanned = 0  # the traces of level ``completed``
        trip: Optional[BudgetExceeded] = None
        try:
            with _governor.recursion_guard("deadlock"), self.semantics.memoised():
                initial = self.tau_closure(self.semantics.initial_state(term))
                frontier: Dict[StateSet, List[Trace]] = {initial: [()]}
                for level in range(depth + 1):
                    governor = _governor.current()
                    if governor is not None:
                        governor.check_deadline()
                        governor.record_progress(
                            phase="deadlock", completed_depth=completed
                        )
                    stuck: List[Trace] = []
                    for states, traces in frontier.items():
                        if any(not self.moves(state) for state in states):
                            stuck.extend(traces)
                    deadlocks.extend(sorted(stuck))
                    completed = level
                    scanned = sum(len(traces) for traces in frontier.values())
                    next_frontier: Dict[StateSet, List[Trace]] = {}
                    for states, traces in frontier.items():
                        for event, target in self.successors(states):
                            next_frontier.setdefault(target, []).extend(
                                trace + (event,) for trace in traces
                            )
                    frontier = next_frontier
                    if not frontier:
                        break
        except BudgetExceeded as exc:
            trip = exc.with_checkpoint(
                _governor.trip_checkpoint(
                    exc, "deadlock", completed, scanned, self._states_touched
                )
            )
        return DeadlockReport(
            deadlocks=tuple(deadlocks),
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
