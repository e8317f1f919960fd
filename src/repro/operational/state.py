"""Immutable network configurations for the operational semantics.

A configuration mirrors the *network structure* of a process expression —
the paper's box-and-wire diagrams — while sequential behaviour stays as a
term:

* :class:`LeafState` — a sequential component, represented by its closed
  process term (input bindings are performed by substitution, so states
  need no environments and hash structurally);
* :class:`ParallelState` — two sub-networks with their *static* alphabets
  ``X`` and ``Y``.  Alphabets are computed once when the configuration is
  built (the paper's ‖ is annotated with fixed channel sets; re-inferring
  them as components evolve would wrongly let a partner's channel fall out
  of the synchronisation set mid-run);
* :class:`ChanState` — a sub-network with a set of concealed channels.

:func:`lift` converts a process expression whose root is ``‖``/``chan``
into the corresponding configuration, unfolding name references as needed.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.errors import OperationalError
from repro.process.analysis import concrete_channels
from repro.process.ast import ArrayRef, Chan, Name, Parallel, Process
from repro.process.definitions import DefinitionList
from repro.traces.events import Channel
from repro.values.environment import Environment


class State:
    """Abstract immutable configuration."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))  # type: ignore[attr-defined]

    def _key(self) -> Tuple[object, ...]:
        raise NotImplementedError


class LeafState(State):
    """A sequential component: a closed process term."""

    __slots__ = ("term",)

    def __init__(self, term: Process) -> None:
        self.term = term

    def _key(self) -> Tuple[object, ...]:
        return (self.term,)

    def __repr__(self) -> str:
        return f"⟪{self.term!r}⟫"


class ParallelState(State):
    """Two sub-networks composed with fixed alphabets ``x`` and ``y``."""

    __slots__ = ("left", "right", "x", "y")

    def __init__(
        self,
        left: State,
        right: State,
        x: FrozenSet[Channel],
        y: FrozenSet[Channel],
    ) -> None:
        self.left = left
        self.right = right
        self.x = frozenset(x)
        self.y = frozenset(y)

    @property
    def shared(self) -> FrozenSet[Channel]:
        return self.x & self.y

    def with_children(self, left: State, right: State) -> "ParallelState":
        return ParallelState(left, right, self.x, self.y)

    def _key(self) -> Tuple[object, ...]:
        return (self.left, self.right, self.x, self.y)

    def __repr__(self) -> str:
        return f"({self.left!r} ‖ {self.right!r})"


class ChanState(State):
    """A sub-network whose communications on ``hidden`` are concealed."""

    __slots__ = ("hidden", "body")

    def __init__(self, hidden: FrozenSet[Channel], body: State) -> None:
        self.hidden = frozenset(hidden)
        self.body = body

    def with_body(self, body: State) -> "ChanState":
        return ChanState(self.hidden, body)

    def _key(self) -> Tuple[object, ...]:
        return (self.hidden, self.body)

    def __repr__(self) -> str:
        inner = ", ".join(repr(c) for c in sorted(self.hidden))
        return f"(chan {inner}; {self.body!r})"


def lift(
    term: Process,
    definitions: DefinitionList,
    env: Environment,
    _unfold_budget: int = 1000,
) -> State:
    """Build the configuration for a process term.

    Network operators at the root become structural nodes (with alphabets
    fixed *now*); name references whose bodies are networks are unfolded.
    Sequential roots stay as :class:`LeafState`.
    """
    if _unfold_budget <= 0:
        raise OperationalError(
            "unfolding limit exceeded while building a configuration; "
            "is a definition an unguarded alias cycle?"
        )
    if isinstance(term, Parallel):
        if term.left_channels is not None:
            x = term.left_channels.evaluate(env)
        else:
            x = concrete_channels(term.left, definitions, env)
        if term.right_channels is not None:
            y = term.right_channels.evaluate(env)
        else:
            y = concrete_channels(term.right, definitions, env)
        return ParallelState(
            lift(term.left, definitions, env, _unfold_budget - 1),
            lift(term.right, definitions, env, _unfold_budget - 1),
            x,
            y,
        )
    if isinstance(term, Chan):
        hidden = term.channels.evaluate(env)
        return ChanState(hidden, lift(term.body, definitions, env, _unfold_budget - 1))
    if isinstance(term, Name):
        definition = definitions.lookup(term.name)
        if definition.is_array:
            raise OperationalError(f"{term.name!r} is an array, used without subscript")
        body = definition.body
        if isinstance(body, (Parallel, Chan, Name, ArrayRef)):
            return lift(body, definitions, env, _unfold_budget - 1)
        return LeafState(term)
    if isinstance(term, ArrayRef):
        definition = definitions.lookup_array(term.name)
        from repro.values.expressions import Const

        value = term.index.evaluate(env)
        body = definition.instantiate(Const(value))
        if isinstance(body, (Parallel, Chan, Name, ArrayRef)):
            return lift(body, definitions, env, _unfold_budget - 1)
        return LeafState(term)
    return LeafState(term)
