"""The transition relation of the operational semantics.

A configuration offers three kinds of transition:

* :class:`Comm` — a concrete communication ``c.m`` (an output, or an input
  already resolved by synchronisation), leading to a successor state;
* :class:`Offer` — a *symbolic input*: the component is ready to accept
  **any** value of a set ``M`` on channel ``c``.  Keeping inputs symbolic
  is what makes synchronisation *receptive*: when a partner outputs
  ``c.v``, the offer matches iff ``v ∈ M`` — exact membership, not the
  bounded sample — so computed values (the multiplier's ``v[i]*x + y``)
  synchronise correctly;
* :class:`Tau` — an internal step: a communication on a channel concealed
  by ``chan``, which "occurs independently and automatically whenever the
  processes connected by the channel are all ready for it" (§1.2 item 8).

Synchronisation on a shared channel pairs an output with an input offer
(the paper: "one of them determines the value transmitted … and the other
is prepared to accept any value"), two equal outputs (both determine the
same value), or two input offers (both accept: the value ranges over the
*intersection* of their sets — the paper's simultaneous-input note).

Only at the top level — the network's interface with its environment —
are offers expanded into concrete events, sampled with the configured
bound: :meth:`OperationalSemantics.moves` does that, in no particular
order, and :meth:`OperationalSemantics.steps` sorts the moves into the
order :func:`step_order` fixes.  Only a single scheduled run
(:mod:`repro.operational.scheduler`) needs that order;
:class:`repro.operational.explorer.Explorer` reads the moves, because
nothing it returns depends on the order of a configuration's steps.

A configuration's transitions are built from its components'.  Inside
a :meth:`OperationalSemantics.memoised` block each configuration's
transitions — every leaf, ‖ and ``chan`` node at any depth — are derived
once.  A step changes one or two components, so stepping the successor
re-derives only the nodes on the path from its root to the changed
components; the others' transitions come from the memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import OperationalError
from repro.operational.state import ChanState, LeafState, ParallelState, State, lift
from repro.process.ast import (
    ArrayRef,
    Chan,
    Choice,
    Input,
    Name,
    Output,
    Parallel,
    Process,
    Stop,
)
from repro.process.definitions import DefinitionList, NO_DEFINITIONS
from repro.traces.events import Channel, Event
from repro.values.domains import Domain, IntersectionDomain
from repro.values.environment import Environment
from repro.values.expressions import Const


class Comm(NamedTuple):
    """A concrete communication transition."""

    event: Event
    state: State


class Offer(NamedTuple):
    """A symbolic input: accepts any ``v ∈ domain`` on ``channel``;
    ``resume(v)`` is the successor state."""

    channel: Channel
    domain: Domain
    resume: Callable[[object], State]


class Tau(NamedTuple):
    """An internal (concealed) step."""

    state: State


Transition = Union[Comm, Offer, Tau]


class Step(NamedTuple):
    """A resolved transition as seen by schedulers and explorers:
    ``event`` is ``None`` for internal steps."""

    event: Optional[Event]
    state: State

    @property
    def is_internal(self) -> bool:
        return self.event is None


def step_order(step: Step) -> Tuple[str, str]:
    """The sort key of :meth:`OperationalSemantics.steps`: internal steps
    first, then by the rendered event and the rendered successor."""
    return ("" if step.event is None else repr(step.event), repr(step.state))


class OperationalSemantics:
    """The transition relation, parameterised like the denotational
    semantics: a definition list, a global environment (set names, host
    functions), and a sample bound used only when expanding *top-level*
    input offers into concrete events."""

    def __init__(
        self,
        definitions: DefinitionList = NO_DEFINITIONS,
        env: Optional[Environment] = None,
        sample: int = 3,
    ) -> None:
        self.definitions = definitions
        self.env = env if env is not None else Environment()
        self.sample = sample
        self._memo: Optional[Dict[State, List[Transition]]] = None

    # -- entry points ---------------------------------------------------------

    def initial_state(self, term: Process) -> State:
        """The starting configuration for a process term."""
        return lift(term, self.definitions, self.env)

    @contextmanager
    def memoised(self) -> Iterator[None]:
        """Derive each configuration's transitions once inside the block.

        The memo is dropped when the block exits, normally or by an
        exception: it holds every sub-configuration a walk touched with
        its transitions, so keeping it past one walk would grow with
        every query a long-lived explorer answers."""
        self._memo = {}
        try:
            yield
        finally:
            self._memo = None

    def transitions(self, state: State) -> List[Transition]:
        """All raw transitions (offers kept symbolic).  Callers must not
        modify the list: inside :meth:`memoised` it is the memo's."""
        memo = self._memo
        if memo is not None:
            known = memo.get(state)
            if known is not None:
                return known
        if isinstance(state, LeafState):
            result = self._term_transitions(state.term)
        elif isinstance(state, ParallelState):
            result = self._parallel_transitions(state)
        elif isinstance(state, ChanState):
            result = self._chan_transitions(state)
        else:
            raise OperationalError(f"unknown state {state!r}")
        if memo is not None:
            memo[state] = result
        return result

    def steps(self, state: State) -> Tuple[Step, ...]:
        """:meth:`moves` in :func:`step_order`, so that a seeded
        scheduler makes the same choices in every process."""
        return tuple(sorted(self.moves(state), key=step_order))

    def moves(self, state: State) -> Tuple[Step, ...]:
        """Transitions with top-level offers expanded to sampled events,
        in no particular order.  This is the network-as-a-whole view:
        the environment supplies input values from the sample."""
        resolved: List[Step] = []
        for transition in self.transitions(state):
            if isinstance(transition, Comm):
                resolved.append(Step(transition.event, transition.state))
            elif isinstance(transition, Tau):
                resolved.append(Step(None, transition.state))
            else:
                for value in transition.domain.enumerate(self.sample):
                    resolved.append(
                        Step(
                            Event(transition.channel, value),
                            transition.resume(value),
                        )
                    )
        return tuple(resolved)

    # -- sequential terms ------------------------------------------------------

    def _term_transitions(self, term: Process, _budget: int = 1000) -> List[Transition]:
        if _budget <= 0:
            raise OperationalError("unfolding limit exceeded while stepping")
        if isinstance(term, Stop):
            return []
        if isinstance(term, Output):
            channel = term.channel.evaluate(self.env)
            message = term.message.evaluate(self.env)
            return [Comm(Event(channel, message), self._resume(term.continuation))]
        if isinstance(term, Input):
            channel = term.channel.evaluate(self.env)
            domain = term.domain.evaluate(self.env)

            def resume(value: object, term: Input = term) -> State:
                continuation = term.continuation.substitute(term.variable, Const(value))
                return self._resume(continuation)

            return [Offer(channel, domain, resume)]
        if isinstance(term, Choice):
            return self._term_transitions(term.left, _budget - 1) + self._term_transitions(
                term.right, _budget - 1
            )
        if isinstance(term, Name):
            definition = self.definitions.lookup_process(term.name)
            return self._term_transitions(definition.body, _budget - 1)
        if isinstance(term, ArrayRef):
            definition = self.definitions.lookup_array(term.name)
            value = term.index.evaluate(self.env)
            domain = definition.domain.evaluate(self.env)
            if value not in domain:
                raise OperationalError(
                    f"subscript {value!r} of {term.name!r} outside its domain"
                )
            return self._term_transitions(definition.instantiate(Const(value)), _budget - 1)
        if isinstance(term, (Parallel, Chan)):
            # A network appearing under a prefix: build its configuration.
            return self.transitions(lift(term, self.definitions, self.env))
        raise OperationalError(f"unknown process term {term!r}")

    def _resume(self, continuation: Process) -> State:
        return lift(continuation, self.definitions, self.env)

    # -- parallel composition ---------------------------------------------------

    def _parallel_transitions(self, state: ParallelState) -> List[Transition]:
        shared = state.shared
        left = self.transitions(state.left)
        right = self.transitions(state.right)
        result: List[Transition] = []

        # Independent moves: τ always; communications and offers on
        # channels outside the shared set.
        for transition in left:
            lifted = self._lift_left(transition, state, shared)
            if lifted is not None:
                result.append(lifted)
        for transition in right:
            lifted = self._lift_right(transition, state, shared)
            if lifted is not None:
                result.append(lifted)

        # Synchronised moves on shared channels.
        left_shared = [t for t in left if self._on_shared(t, shared)]
        right_shared = [t for t in right if self._on_shared(t, shared)]
        for lt in left_shared:
            for rt in right_shared:
                result.extend(self._synchronise(lt, rt, state))
        return result

    @staticmethod
    def _on_shared(transition: Transition, shared) -> bool:
        if isinstance(transition, Comm):
            return transition.event.channel in shared
        if isinstance(transition, Offer):
            return transition.channel in shared
        return False

    def _lift_left(
        self, transition: Transition, state: ParallelState, shared
    ) -> Optional[Transition]:
        if isinstance(transition, Tau):
            return Tau(state.with_children(transition.state, state.right))
        if isinstance(transition, Comm):
            if transition.event.channel in shared:
                return None
            return Comm(
                transition.event, state.with_children(transition.state, state.right)
            )
        if transition.channel in shared:
            return None
        resume = transition.resume
        return Offer(
            transition.channel,
            transition.domain,
            lambda v: state.with_children(resume(v), state.right),
        )

    def _lift_right(
        self, transition: Transition, state: ParallelState, shared
    ) -> Optional[Transition]:
        if isinstance(transition, Tau):
            return Tau(state.with_children(state.left, transition.state))
        if isinstance(transition, Comm):
            if transition.event.channel in shared:
                return None
            return Comm(
                transition.event, state.with_children(state.left, transition.state)
            )
        if transition.channel in shared:
            return None
        resume = transition.resume
        return Offer(
            transition.channel,
            transition.domain,
            lambda v: state.with_children(state.left, resume(v)),
        )

    def _synchronise(
        self, lt: Transition, rt: Transition, state: ParallelState
    ) -> List[Transition]:
        """Pairings of one left and one right shared-channel transition."""
        if isinstance(lt, Comm) and isinstance(rt, Comm):
            # Output/output: only if they determine the same communication.
            if lt.event == rt.event:
                return [Comm(lt.event, state.with_children(lt.state, rt.state))]
            return []
        if isinstance(lt, Comm) and isinstance(rt, Offer):
            if lt.event.channel == rt.channel and lt.event.message in rt.domain:
                return [
                    Comm(
                        lt.event,
                        state.with_children(lt.state, rt.resume(lt.event.message)),
                    )
                ]
            return []
        if isinstance(lt, Offer) and isinstance(rt, Comm):
            if rt.event.channel == lt.channel and rt.event.message in lt.domain:
                return [
                    Comm(
                        rt.event,
                        state.with_children(lt.resume(rt.event.message), rt.state),
                    )
                ]
            return []
        assert isinstance(lt, Offer) and isinstance(rt, Offer)
        # Input/input: both accept; the value ranges over the intersection
        # (the paper's simultaneous-input case).
        if lt.channel != rt.channel:
            return []
        l_resume, r_resume = lt.resume, rt.resume
        return [
            Offer(
                lt.channel,
                IntersectionDomain((lt.domain, rt.domain)),
                lambda v: state.with_children(l_resume(v), r_resume(v)),
            )
        ]

    # -- hiding -----------------------------------------------------------------

    def _chan_transitions(self, state: ChanState) -> List[Transition]:
        result: List[Transition] = []
        for transition in self.transitions(state.body):
            if isinstance(transition, Tau):
                result.append(Tau(state.with_body(transition.state)))
            elif isinstance(transition, Comm):
                if transition.event.channel in state.hidden:
                    result.append(Tau(state.with_body(transition.state)))
                else:
                    result.append(
                        Comm(transition.event, state.with_body(transition.state))
                    )
            else:
                if transition.channel in state.hidden:
                    # An input offer on a concealed channel fires silently
                    # with a non-determinate value (§1.2 item 8: concealed
                    # communications "occur automatically … if more than
                    # one is possible the choice is non-determinate"), so
                    # ⟦chan C; P⟧ = ⟦P⟧\C keeps those traces.  Values are
                    # drawn from the bounded sample, mirroring the
                    # denotational enumeration.
                    for value in transition.domain.enumerate(self.sample):
                        result.append(
                            Tau(state.with_body(transition.resume(value)))
                        )
                    continue
                result.append(
                    Offer(
                        transition.channel,
                        transition.domain,
                        # bind per-iteration: lambdas capture variables late
                        lambda v, resume=transition.resume: state.with_body(
                            resume(v)
                        ),
                    )
                )
        return result
