"""The semantic function ⟦·⟧ρ as bounded trace enumeration (paper §3.2).

Each process expression is mapped onto the prefix closure of its possible
traces, truncated at ``config.depth``:

* ``⟦STOP⟧ = {⟨⟩}``;
* ``⟦c!e → P⟧ = (c.ρ⟦e⟧ → ⟦P⟧)``;
* ``⟦c?x:M → P⟧ = ∪_{v∈M} (c.v → ⟦P⟧ρ[v/x])`` — with ``M`` sampled when
  infinite;
* ``⟦P | Q⟧ = ⟦P⟧ ∪ ⟦Q⟧``;
* ``⟦P ‖ Q⟧`` — synchronised merge over the inferred or annotated
  alphabets;
* ``⟦chan L; P⟧ = ⟦P⟧ \\ L`` — with the body explored to
  ``config.hide_depth``;
* names and array references unfold their defining equations.
  Unfolding computes exactly ``∪ᵢ aᵢ`` restricted to the depth bound —
  the least fixed point of §3.3 — which the test suite confirms against
  the explicit :class:`~repro.semantics.fixpoint.ApproximationChain`.

Guardedness (validated by :class:`~repro.process.definitions.DefinitionList`)
makes each step into a name lower the depth, except through ``chan``,
whose body restarts at ``hide_depth``: there an unfold can meet its own
key again, and :meth:`Denoter._unfold` iterates that key to the fixpoint.

Definition bodies are denoted in the *base* environment (plus the array
parameter, for arrays): equations are closed except for global bindings
such as message types ``M`` and host functions, which makes memoisation by
``(name, argument, depth)`` sound.

Unfoldings are memoised as hash-consed trie roots: a memo hit returns the
*same* :class:`~repro.traces.trie.ClosureNode`, so every downstream
operator's own memo table hits by pointer equality and shared subtrees
are processed once per shape, not once per unfolding site.  ``kernel``
selects the operator implementation — ``"trie"`` (the default, memoised
recursive node functions) or ``"reference"`` (the flat-set baseline in
:mod:`repro.traces._reference`, kept for cross-checks and benchmarks).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import SemanticsError
from repro.process.analysis import concrete_channels
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
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
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.traces import _reference as _reference_ops
from repro.traces import operations as _trie_ops
from repro.traces.events import Event
from repro.traces.prefix_closure import STOP_CLOSURE, FiniteClosure
from repro.traces.stats import KERNEL_STATS
from repro.values.environment import Environment

#: Operator implementations selectable per Denoter.
KERNELS = {"trie": _trie_ops, "reference": _reference_ops}

#: An unfold: (name, subscript — ``None`` for a plain name —, depth).
UnfoldKey = Tuple[str, object, int]

#: ``Denoter._low`` while nothing unfinished was read: above every level.
_NOTHING_READ = 1 << 62


class Denoter:
    """Computes bounded denotations of process expressions.

    One instance holds the environment (variables, set names, host
    functions), the definition list, the bounds, and a memo table for
    unfolded definitions, shared by every :meth:`denote` call and depth
    (a :class:`~repro.sat.checker.SatChecker` keeps one for all its
    queries).  Optionally, ``process_bindings`` maps process
    names directly to closures (plain processes) or to ``value → closure``
    functions (process arrays); the fixpoint chain uses this to denote a
    body under the *previous* approximation, exactly the paper's
    ``ρ[aᵢ/p]⟦P⟧``.
    """

    def __init__(
        self,
        definitions: DefinitionList = NO_DEFINITIONS,
        env: Optional[Environment] = None,
        config: SemanticsConfig = DEFAULT_CONFIG,
        process_bindings: Optional[Dict[str, object]] = None,
        kernel: str = "trie",
    ) -> None:
        if kernel not in KERNELS:
            raise SemanticsError(
                f"unknown kernel {kernel!r}; choose from {sorted(KERNELS)}"
            )
        self.definitions = definitions
        self.env = env if env is not None else Environment()
        self.config = config
        self.process_bindings = process_bindings or {}
        self.kernel = kernel
        self._ops = KERNELS[kernel]
        #: Final unfoldings.
        self._memo: Dict[UnfoldKey, FiniteClosure] = {}
        #: Keys in progress → their stack level.
        self._active: Dict[UnfoldKey, int] = {}
        #: Current approximations of re-entered keys.
        self._approx: Dict[UnfoldKey, FiniteClosure] = {}
        #: Results that read an unfinished key → (result, the stack level
        #: of the key they wait for).
        self._provisional: Dict[UnfoldKey, Tuple[FiniteClosure, int]] = {}
        #: Lowest stack level read by the unfold in progress.
        self._low = _NOTHING_READ
        #: Approximation changes so far: a pass that adds none settles.
        self._changes = 0

    # -- public API ---------------------------------------------------------

    def denote(self, process: Process, depth: Optional[int] = None) -> FiniteClosure:
        """``⟦process⟧`` up to ``depth`` (default: the configured depth)."""
        if depth is None:
            depth = self.config.depth
        with _governor.recursion_guard("denotation"):
            return self._denote(process, self.env, depth)

    def denote_name(self, name: str, depth: Optional[int] = None) -> FiniteClosure:
        """``⟦p⟧`` for a defined process name."""
        return self.denote(Name(name), depth)

    # -- the semantic equations ------------------------------------------------

    def _denote(self, process: Process, env: Environment, depth: int) -> FiniteClosure:
        _governor.tick()
        if isinstance(process, Stop):
            return STOP_CLOSURE
        if isinstance(process, Output):
            return self._denote_output(process, env, depth)
        if isinstance(process, Input):
            return self._denote_input(process, env, depth)
        if isinstance(process, Choice):
            return self._ops.union(
                self._denote(process.left, env, depth),
                self._denote(process.right, env, depth),
            )
        if isinstance(process, Parallel):
            return self._denote_parallel(process, env, depth)
        if isinstance(process, Chan):
            return self._denote_chan(process, env, depth)
        if isinstance(process, Name):
            return self._denote_name(process, env, depth)
        if isinstance(process, ArrayRef):
            return self._denote_array_ref(process, env, depth)
        raise SemanticsError(f"unknown process node {process!r}")

    def _denote_output(self, process: Output, env: Environment, depth: int) -> FiniteClosure:
        if depth <= 0:
            return STOP_CLOSURE
        channel = process.channel.evaluate(env)
        message = process.message.evaluate(env)
        continuation = self._denote(process.continuation, env, depth - 1)
        return self._ops.prefix(Event(channel, message), continuation)

    def _denote_input(self, process: Input, env: Environment, depth: int) -> FiniteClosure:
        if depth <= 0:
            return STOP_CLOSURE
        channel = process.channel.evaluate(env)
        domain = process.domain.evaluate(env)
        branches = []
        for value in domain.enumerate(self.config.sample):
            continuation = self._denote(
                process.continuation, env.bind(process.variable, value), depth - 1
            )
            branches.append(self._ops.prefix(Event(channel, value), continuation))
        return self._ops.union_all(branches)

    def _denote_parallel(self, process: Parallel, env: Environment, depth: int) -> FiniteClosure:
        if process.left_channels is not None:
            x = process.left_channels.evaluate(env)
        else:
            x = concrete_channels(process.left, self.definitions, env)
        if process.right_channels is not None:
            y = process.right_channels.evaluate(env)
        else:
            y = concrete_channels(process.right, self.definitions, env)
        left = self._denote(process.left, env, depth)
        right = self._denote(process.right, env, depth)
        return self._ops.parallel(left, x, right, y, depth=depth)

    def _denote_chan(self, process: Chan, env: Environment, depth: int) -> FiniteClosure:
        hidden = process.channels.evaluate(env)
        inner_depth = max(self.config.hide_depth, depth)
        body = self._denote(process.body, env, inner_depth)
        return self._ops.truncate(self._ops.hide(body, hidden), depth)

    def _denote_name(self, process: Name, env: Environment, depth: int) -> FiniteClosure:
        if process.name in self.process_bindings:
            bound = self.process_bindings[process.name]
            if not isinstance(bound, FiniteClosure):
                raise SemanticsError(
                    f"process name {process.name!r} bound to a non-closure"
                )
            return self._ops.truncate(bound, depth)
        return self._unfold((process.name, None, depth))

    def _denote_array_ref(self, process: ArrayRef, env: Environment, depth: int) -> FiniteClosure:
        value = process.index.evaluate(env)
        if process.name in self.process_bindings:
            bound = self.process_bindings[process.name]
            if not callable(bound):
                raise SemanticsError(
                    f"process array {process.name!r} bound to a non-function"
                )
            closure = bound(value)
            if not isinstance(closure, FiniteClosure):
                raise SemanticsError(
                    f"array binding for {process.name!r} returned a non-closure"
                )
            return self._ops.truncate(closure, depth)
        domain = self.definitions.lookup_array(process.name).domain.evaluate(self.env)
        if value not in domain:
            raise SemanticsError(
                f"subscript {value!r} of {process.name!r} outside its domain "
                f"{domain!r}"
            )
        return self._unfold((process.name, value, depth))

    # -- unfolding ------------------------------------------------------------

    def _unfold(self, key: UnfoldKey) -> FiniteClosure:
        """``⟦name⟧`` or ``⟦name[subscript]⟧`` at the key's depth, memoised.

        A miss marks the key in progress with its stack level.  A key met
        again in progress reads its current approximation, ⟦STOP⟧ at
        first, and lowers :attr:`_low` to its level; so does a held
        result.  A body that read nothing unfinished is final; one that
        did is settled by :meth:`_close`.  Keys are finitely many (no
        depth exceeds ``max(depth, hide_depth)``) and none is entered
        twice on one stack, so the recursion is bounded."""
        stats = KERNEL_STATS.memo("denote-unfold")
        result = self._memo.get(key)
        if result is not None:
            stats.hits += 1
            return result
        active = self._active
        level = active.get(key)
        if level is None and self._provisional:
            held = self._provisional.get(key)
            if held is not None:
                result, level = held
        if level is not None:
            if level < self._low:
                self._low = level
            if result is None:
                result = self._approx.setdefault(key, STOP_CLOSURE)
            return result
        stats.misses += 1
        _faults.maybe_fail("denote.unfold")
        name, subscript, depth = key
        if subscript is None:
            body, env = self.definitions.lookup_process(name).body, self.env
        else:
            definition = self.definitions.lookup_array(name)
            body = definition.body
            env = self.env.bind(definition.parameter, subscript)
        level = active[key] = len(active)
        outer_low, start = self._low, self._changes
        self._low = _NOTHING_READ
        try:
            result = self._denote(body, env, depth)
            low = self._low
            if low <= level:
                result, low = self._close(key, level, body, env, depth, result, start)
        finally:
            del active[key]
            if not active:  # all settled, or a trip left held results
                self._approx.clear()
                self._provisional.clear()
        if low < level:
            self._low = min(low, outer_low)
            return result
        self._low = outer_low
        self._memo[key] = result
        return result

    def _close(
        self,
        key: UnfoldKey,
        level: int,
        body: Process,
        env: Environment,
        depth: int,
        result: FiniteClosure,
        start: int,
    ) -> Tuple[FiniteClosure, int]:
        """Settle a key whose body read an unfinished key, the lowest at
        stack level :attr:`_low`; returns the result and the level it
        still waits for (:data:`_NOTHING_READ` once final).  ``start``
        is :attr:`_changes` when the key's first pass began.

        * Below ``level``: the result waits for an outer key.  It is held
          with that level, as is everything held for this key, and
          becomes the key's approximation (a change if it grew).
        * At ``level``: the key read itself.  Its body is denoted again
          against the result until a whole pass changes no
          approximation; then everything held for it is final.

        Approximations start at ⟦STOP⟧ and are results of the equations
        on smaller ones, so they stay below the least fixpoint; a pass
        that changes none is a solution below it, hence the chain's
        value."""
        held = self._provisional
        changes = start
        while True:
            low = self._low
            inside = [k for k, (_, tie) in held.items() if tie == level]
            if low < level:
                if self._approx.get(key, result).root is not result.root:
                    self._changes += 1
                self._approx[key] = result
                for inner in inside:
                    held[inner] = (held[inner][0], low)
                held[key] = (result, low)
                return result, low
            if low > level or (
                self._approx[key].root is result.root and self._changes == changes
            ):
                for inner in inside:
                    self._memo[inner] = held.pop(inner)[0]
                    self._approx.pop(inner, None)
                self._approx.pop(key, None)
                self._changes = start  # the churn of this key's passes
                return result, _NOTHING_READ
            self._approx[key] = result
            for inner in inside:
                del held[inner]
            changes = self._changes
            self._low = _NOTHING_READ
            result = self._denote(body, env, depth)


def denote(
    process: Process,
    definitions: DefinitionList = NO_DEFINITIONS,
    env: Optional[Environment] = None,
    config: SemanticsConfig = DEFAULT_CONFIG,
    depth: Optional[int] = None,
    kernel: str = "trie",
) -> FiniteClosure:
    """One-shot convenience wrapper around :class:`Denoter`."""
    return Denoter(definitions, env, config, kernel=kernel).denote(process, depth)
