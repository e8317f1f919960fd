"""A failures semantics — the §4 "more realistic model of non-determinism".

The paper's conclusion concedes that in the prefix-closure model
``STOP | P = P``: the possibility of *deciding* to deadlock is invisible,
and hopes that "the adoption of a more realistic model of non-determinism
will permit the formulation of proof rules for the total correctness of
processes".  That model became the *failures* model of CSP
(Brookes–Hoare–Roscoe, 1984).  This module implements its bounded
counterpart on top of the operational substrate, as the paper's
future-work extension:

* ``|`` is read as **internal** choice: the process commits to a branch
  by an invisible τ-step (:class:`InternalChoiceSemantics`) — "the choice
  between them … may be time-dependent" (§4);
* a **failure** is a pair ``(s, X)``: after trace ``s`` the process can
  reach a *stable* state (no τ available) that refuses every event of
  ``X``;
* :func:`failures` computes the bounded failure set, representing each
  trace's refusal family by its maximal refusal sets;
* :func:`failures_equivalent` then *distinguishes* ``STOP | P`` from
  ``P`` — after ⟨⟩ the former can refuse everything — resolving exactly
  the example §4 complains about, while agreeing with trace equivalence
  on deterministic processes.

Divergence (a state with τ-cycles and no reachable stable state) yields
an empty refusal family for the affected trace and is reported on the
result; the bounded model does not attempt the full failures/divergences
treatment.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set

from repro.operational.explorer import Explorer, StateSet
from repro.operational.step import OperationalSemantics, Tau, Transition
from repro.process.ast import Choice, Process
from repro.traces.events import Event, Trace


class InternalChoiceSemantics(OperationalSemantics):
    """The operational semantics with ``P | Q`` resolved by a τ-step.

    All other constructs behave exactly as in
    :class:`~repro.operational.step.OperationalSemantics`; only
    :class:`~repro.process.ast.Choice` changes, from transition-union
    (external resolution at the first event) to an invisible commitment.
    """

    def _term_transitions(self, term: Process, _budget: int = 1000) -> List[Transition]:
        if isinstance(term, Choice):
            return [
                Tau(self._resume(term.left)),
                Tau(self._resume(term.right)),
            ]
        return super()._term_transitions(term, _budget)


class RefusalFamily(NamedTuple):
    """The refusals after one trace: a downward-closed family of event
    sets, represented by its maximal elements."""

    maximal: FrozenSet[FrozenSet[Event]]
    diverges: bool

    def can_refuse(self, events: FrozenSet[Event]) -> bool:
        return any(events <= m for m in self.maximal)


class Failures:
    """The bounded failure set of a process: trace → refusal family."""

    def __init__(
        self,
        alphabet: FrozenSet[Event],
        families: Dict[Trace, RefusalFamily],
    ) -> None:
        self.alphabet = alphabet
        self._families = dict(families)

    def traces(self) -> FrozenSet[Trace]:
        return frozenset(self._families)

    def after(self, trace: Trace) -> RefusalFamily:
        try:
            return self._families[trace]
        except KeyError:
            raise KeyError(f"trace {trace!r} not in the bounded failure set") from None

    def can_refuse(self, trace: Trace, events: FrozenSet[Event]) -> bool:
        """Is ``(trace, events)`` a failure?"""
        return self.after(trace).can_refuse(frozenset(events))

    def deadlock_failures(self) -> FrozenSet[Trace]:
        """Traces after which the whole alphabet can be refused — the
        observable deadlock possibilities the trace model hides."""
        return frozenset(
            t for t, fam in self._families.items() if fam.can_refuse(self.alphabet)
        )

    def diverging_traces(self) -> FrozenSet[Trace]:
        return frozenset(t for t, fam in self._families.items() if fam.diverges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Failures)
            and self.alphabet == other.alphabet
            and self._families == other._families
        )

    def __repr__(self) -> str:
        return f"Failures(<{len(self._families)} traces>)"


def _maximal(sets: Set[FrozenSet[Event]]) -> FrozenSet[FrozenSet[Event]]:
    out = []
    for candidate in sets:
        if not any(candidate < other for other in sets):
            out.append(candidate)
    return frozenset(out)


def failures(
    process: Process,
    semantics: InternalChoiceSemantics,
    depth: int,
    alphabet: Optional[FrozenSet[Event]] = None,
    max_states: int = 200_000,
) -> Failures:
    """The bounded failure set of ``process`` up to trace length ``depth``.

    ``alphabet`` defaults to every event observable within the bound; the
    refusal family after each trace is computed from the stable states
    reachable by τ.  The traces are walked over the explorer's τ-closed
    state sets (:meth:`~repro.operational.explorer.Explorer.successors`),
    and each distinct set's refusal family is computed once, however
    many traces reach it.
    """
    explorer = Explorer(semantics, max_states=max_states)
    # Level by level, as the explorer walks: each trace reaches one
    # τ-closed state set, and its extension by ``e`` reaches the set's
    # successor τ(succ_e(S)).
    frontier: Dict[Trace, StateSet] = {
        (): explorer.tau_closure(semantics.initial_state(process))
    }
    reached = dict(frontier)
    for _ in range(depth):
        frontier = {
            trace_ + (event,): target
            for trace_, states in frontier.items()
            for event, target in explorer.successors(states)
        }
        if not frontier:
            break
        reached.update(frontier)
    distinct = set(reached.values())

    # The observable alphabet: everything any reached state can do.
    if alphabet is None:
        alphabet = frozenset(
            step.event
            for states in distinct
            for state in states
            for step in explorer.moves(state)
            if not step.is_internal
        )

    # Each distinct set's refusal family, computed once.
    family_of: Dict[StateSet, RefusalFamily] = {}
    for states in distinct:
        maximal_sets: Set[FrozenSet[Event]] = set()
        any_stable = False
        for state in states:
            steps = explorer.moves(state)
            if any(step.is_internal for step in steps):
                continue  # unstable: refusals are not observable here
            any_stable = True
            initials = frozenset(
                step.event for step in steps if step.event is not None
            )
            maximal_sets.add(alphabet - initials)
        family_of[states] = RefusalFamily(
            maximal=_maximal(maximal_sets), diverges=not any_stable
        )
    return Failures(
        alphabet, {trace_: family_of[states] for trace_, states in reached.items()}
    )


def failures_of(
    process: Process,
    definitions=None,
    env=None,
    depth: int = 4,
    sample: int = 2,
) -> Failures:
    """Convenience wrapper building the internal-choice semantics."""
    from repro.process.definitions import NO_DEFINITIONS

    semantics = InternalChoiceSemantics(
        definitions if definitions is not None else NO_DEFINITIONS,
        env,
        sample=sample,
    )
    return failures(process, semantics, depth)


def failures_difference(
    left: Process,
    right: Process,
    definitions=None,
    env=None,
    depth: int = 4,
    sample: int = 2,
) -> Optional[str]:
    """A human-readable witness separating two processes in the failures
    model, or ``None`` if they are bounded-failures-equivalent.

    Both failure sets are computed over the *union* alphabet so refusal
    sets are comparable.
    """
    f_left = failures_of(left, definitions, env, depth, sample)
    f_right = failures_of(right, definitions, env, depth, sample)
    alphabet = f_left.alphabet | f_right.alphabet
    from repro.process.definitions import NO_DEFINITIONS

    defs = definitions if definitions is not None else NO_DEFINITIONS
    sem = InternalChoiceSemantics(defs, env, sample=sample)
    f_left = failures(left, sem, depth, alphabet=alphabet)
    f_right = failures(right, sem, depth, alphabet=alphabet)

    if f_left.traces() != f_right.traces():
        only = (f_left.traces() ^ f_right.traces())
        witness = sorted(only, key=len)[0]
        side = "left" if witness in f_left.traces() else "right"
        return f"trace {witness!r} possible only on the {side}"
    for trace_ in sorted(f_left.traces(), key=len):
        lf, rf = f_left.after(trace_), f_right.after(trace_)
        if lf.maximal != rf.maximal:
            return (
                f"after {trace_!r}: refusals differ "
                f"(left max {sorted(map(sorted, map(lambda s: list(map(repr, s)), lf.maximal)))} vs "
                f"right max {sorted(map(sorted, map(lambda s: list(map(repr, s)), rf.maximal)))})"
            )
        if lf.diverges != rf.diverges:
            return f"after {trace_!r}: divergence differs"
    return None


def failures_equivalent(
    left: Process,
    right: Process,
    definitions=None,
    env=None,
    depth: int = 4,
    sample: int = 2,
) -> bool:
    """Bounded failures equivalence — strictly finer than trace
    equivalence: it distinguishes ``STOP | P`` from ``P`` (§4)."""
    return (
        failures_difference(left, right, definitions, env, depth, sample) is None
    )


def failures_refines(
    implementation: Process,
    specification: Process,
    definitions=None,
    env=None,
    depth: int = 4,
    sample: int = 2,
) -> bool:
    """Bounded failures refinement ``Spec ⊑F Impl``: every trace of the
    implementation is a trace of the specification *and* every refusal of
    the implementation is permitted by the specification.

    Strictly finer than trace refinement: an implementation that can
    deadlock where the specification cannot is rejected here even though
    its trace set shrinks.  (Divergent implementation traces — no stable
    state — are accepted vacuously on the refusal side, consistent with
    the bounded model's treatment of divergence.)
    """
    from repro.process.definitions import NO_DEFINITIONS

    defs = definitions if definitions is not None else NO_DEFINITIONS
    sem = InternalChoiceSemantics(defs, env, sample=sample)
    f_spec = failures(specification, sem, depth)
    f_impl = failures(implementation, sem, depth, alphabet=None)
    alphabet = f_spec.alphabet | f_impl.alphabet
    f_spec = failures(specification, sem, depth, alphabet=alphabet)
    f_impl = failures(implementation, sem, depth, alphabet=alphabet)
    if not f_impl.traces() <= f_spec.traces():
        return False
    for trace_ in f_impl.traces():
        impl_family = f_impl.after(trace_)
        spec_family = f_spec.after(trace_)
        for refusal in impl_family.maximal:
            if not spec_family.can_refuse(refusal):
                return False
    return True
