"""Algebraic laws of the trace model.

§3.1 proves a handful of theorems (closure, distributivity); this module
states the full algebra of the prefix-closure model as *checkable laws*
— each law is a function taking concrete processes (and a configuration)
and returning whether the two sides denote equal bounded trace sets,
together with the list of all laws for the property-test sweep.

The laws are the trace-model fragment of what later became the CSP
algebra: choice is associative/commutative/idempotent with unit STOP
(the §4 defect, stated positively), parallel composition is commutative
and associative on matching alphabets, hiding distributes over choice and
composes over disjoint channel sets.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.process.ast import Chan, Choice, Parallel, Process, STOP
from repro.process.channels import ChannelList
from repro.process.definitions import DefinitionList, NO_DEFINITIONS
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.semantics.equivalence import trace_difference
from repro.values.environment import Environment


class LawCheck(NamedTuple):
    """Outcome of checking one law instance."""

    law: str
    holds: bool
    witness: Optional[Tuple[str, tuple]]

    def __bool__(self) -> bool:
        return self.holds


class Law(NamedTuple):
    """A named algebraic law: ``build(processes) -> (lhs, rhs)``."""

    name: str
    arity: int
    build: Callable[..., Tuple[Process, Process]]
    #: how many channel-list parameters the law takes (hiding laws)
    channel_arity: int = 0

    @property
    def needs_channels(self) -> bool:
        return self.channel_arity > 0


def _check(
    name: str,
    lhs: Process,
    rhs: Process,
    definitions: DefinitionList,
    env: Optional[Environment],
    config: SemanticsConfig,
) -> LawCheck:
    witness = trace_difference(lhs, rhs, definitions, env, config)
    return LawCheck(name, witness is None, witness)


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------


def choice_commutative(p: Process, q: Process) -> Tuple[Process, Process]:
    """P | Q = Q | P (union is commutative)."""
    return Choice(p, q), Choice(q, p)


def choice_associative(p: Process, q: Process, r: Process) -> Tuple[Process, Process]:
    """(P | Q) | R = P | (Q | R)."""
    return Choice(Choice(p, q), r), Choice(p, Choice(q, r))


def choice_idempotent(p: Process) -> Tuple[Process, Process]:
    """P | P = P."""
    return Choice(p, p), p


def choice_unit_stop(p: Process) -> Tuple[Process, Process]:
    """STOP | P = P — the §4 defect, read as an algebraic law of this model."""
    return Choice(STOP, p), p


def parallel_commutative(p: Process, q: Process) -> Tuple[Process, Process]:
    """P ‖ Q = Q ‖ P (with inferred alphabets)."""
    return Parallel(p, q), Parallel(q, p)


def parallel_associative(p: Process, q: Process, r: Process) -> Tuple[Process, Process]:
    """(P ‖ Q) ‖ R = P ‖ (Q ‖ R)."""
    return Parallel(Parallel(p, q), r), Parallel(p, Parallel(q, r))


def parallel_unit_stop_disjoint(p: Process) -> Tuple[Process, Process]:
    """P ‖ STOP = P when STOP's alphabet is empty (no shared channels)."""
    return Parallel(p, STOP), p


def hide_choice_distribution(
    p: Process, q: Process, channels: ChannelList
) -> Tuple[Process, Process]:
    """chan L; (P | Q) = (chan L; P) | (chan L; Q) — hiding distributes
    through union (§3.1 distributivity)."""
    return Chan(channels, Choice(p, q)), Choice(Chan(channels, p), Chan(channels, q))


def hide_hide_composition(
    p: Process, channels: ChannelList, channels2: ChannelList
) -> Tuple[Process, Process]:
    """chan L1; chan L2; P = chan L2; chan L1; P."""
    return Chan(channels, Chan(channels2, p)), Chan(channels2, Chan(channels, p))


#: The registry the property tests and benches sweep over.
ALL_LAWS: List[Law] = [
    Law("choice-commutative", 2, choice_commutative),
    Law("choice-associative", 3, choice_associative),
    Law("choice-idempotent", 1, choice_idempotent),
    Law("choice-unit-stop", 1, choice_unit_stop),
    Law("parallel-commutative", 2, parallel_commutative),
    Law("parallel-associative", 3, parallel_associative),
    Law("parallel-unit-stop", 1, parallel_unit_stop_disjoint),
    Law("hide-choice-distribution", 2, hide_choice_distribution, 1),
    Law("hide-hide-composition", 1, hide_hide_composition, 2),
]


def check_law(
    law: Law,
    processes: Tuple[Process, ...],
    channels: Optional[Tuple[ChannelList, ...]] = None,
    definitions: DefinitionList = NO_DEFINITIONS,
    env: Optional[Environment] = None,
    config: SemanticsConfig = DEFAULT_CONFIG,
) -> LawCheck:
    """Check one law on concrete operands."""
    args: list = list(processes[: law.arity])
    if law.channel_arity:
        provided = tuple(channels or ())
        if len(provided) < law.channel_arity:
            raise ValueError(
                f"law {law.name!r} needs {law.channel_arity} channel lists"
            )
        args.extend(provided[: law.channel_arity])
    lhs, rhs = law.build(*args)
    return _check(law.name, lhs, rhs, definitions, env, config)


def refines(
    implementation: Process,
    specification: Process,
    definitions: DefinitionList = NO_DEFINITIONS,
    env: Optional[Environment] = None,
    config: SemanticsConfig = DEFAULT_CONFIG,
) -> bool:
    """Trace refinement ``Spec ⊑T Impl``: every trace of the implementation
    is a trace of the specification — the verification order the trace
    model supports (containment in the §3.1 lattice)."""
    from repro.semantics.denotation import Denoter

    denoter = Denoter(definitions, env, config)
    return denoter.denote(implementation).issubset(denoter.denote(specification))
