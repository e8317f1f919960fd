"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also catching programming
mistakes such as :class:`TypeError` from their own code.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class BudgetExceeded(ReproError):
    """A resource budget tripped and the computation stopped cooperatively.

    Carries the :class:`~repro.runtime.governor.Checkpoint` describing
    what had been *soundly completed* when the budget ran out — the
    deepest finished level, traces verified so far, states explored and,
    for a governed check, the snapshot slots a rerun resumes from — so
    callers can report a partial result ("verified to depth k, no
    counterexample").
    """

    def __init__(self, resource: str, limit: object, checkpoint: object = None) -> None:
        message = f"{resource} budget of {limit} exceeded"
        if checkpoint is not None:
            message += f" — {checkpoint.describe()}"
        super().__init__(message)
        self.resource = resource
        self.limit = limit
        self.checkpoint = checkpoint

    def with_checkpoint(self, checkpoint: object) -> "BudgetExceeded":
        """The same trip, re-raised with an enriched checkpoint (outer
        layers know more about what they had completed than the inner
        counter that tripped)."""
        return BudgetExceeded(self.resource, self.limit, checkpoint)


class KernelStateError(ReproError):
    """A trie node was used against a kernel state it does not belong to.

    Arena node ids are state-local: a :class:`~repro.traces.trie.ClosureNode`
    view built inside one :class:`~repro.traces.trie.KernelState` (a worker's
    ``private_state()``, or a generation discarded by ``clear_interner()``)
    names a row of *that* state's arena and nothing else.  Feeding it to an
    operator running against a different state would silently alias an
    unrelated node, so the kernel raises instead; carry nodes across states
    as segment payloads (:func:`~repro.traces.snapshot.export_segments`,
    then :func:`~repro.traces.snapshot.splice_segments`).
    """


class EvaluationError(ReproError):
    """An expression, set expression, or assertion could not be evaluated."""


class UnboundVariableError(EvaluationError):
    """A variable, process name, or channel was looked up but never bound."""

    def __init__(self, name: str, kind: str = "variable") -> None:
        super().__init__(f"unbound {kind}: {name!r}")
        self.name = name
        self.kind = kind


class DomainError(EvaluationError):
    """A value fell outside the set expression that was meant to contain it,
    or an infinite set was used where a finite one is required."""


class ParseError(ReproError):
    """The process- or assertion-notation parser rejected its input, or
    a command-line option was malformed (no ``position`` then)."""

    def __init__(
        self, message: str, position: Optional[int] = None, text: str = ""
    ) -> None:
        line = col = None
        if position is not None:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = f"{message} at line {line}, column {col}"
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = col


class DefinitionError(ReproError):
    """A process definition list is malformed (duplicate names, unguarded
    recursion where a guard is required, reference to an undefined name)."""


class SemanticsError(ReproError):
    """The denotational semantics could not be computed as requested."""


class OperationalError(ReproError):
    """The operational simulator was driven into an invalid configuration."""


class SubstitutionError(ReproError):
    """An assertion substitution would capture a bound variable or is
    otherwise ill-formed."""


class ProofError(ReproError):
    """Base class for failures of the proof checker."""


class RuleApplicationError(ProofError):
    """An inference rule was applied to premises of the wrong shape."""


class SideConditionError(ProofError):
    """A rule's side condition (freshness, channel-name disjointness, ...)
    does not hold for the attempted application."""


class DischargeError(ProofError):
    """The oracle could not discharge a pure (process-free) premise."""


class ServerError(ReproError):
    """The ``repro serve`` daemon (or its client) failed structurally —
    connection lost beyond the retry budget, malformed wire frame, worker
    pool crashed repeatedly on one request.  Distinct from the errors a
    *query* can produce, which travel inside a response and keep their
    own exit codes."""


class Overloaded(ServerError):
    """The daemon shed this request because its bounded queue was full.

    Deliberately explicit instead of queueing unboundedly: the client
    knows immediately that the verdict was never computed and may retry
    later; nothing was partially evaluated."""


# ---------------------------------------------------------------------------
# CLI exit-code taxonomy
# ---------------------------------------------------------------------------

#: Input could not be read or parsed (bad file, bad notation).
EXIT_PARSE = 2
#: The semantics could not be computed (bad bounds, unbound names, ...).
EXIT_SEMANTICS = 3
#: A resource budget tripped; a partial result was reported.
EXIT_BUDGET = 4
#: The operational simulator hit an invalid configuration.
EXIT_OPERATIONAL = 5
#: The proof checker rejected a derivation.
EXIT_PROOF = 6
#: Any other library error.
EXIT_ERROR = 7
#: The ``repro serve`` daemon shed the request (bounded queue full).
EXIT_OVERLOADED = 8
#: Client/daemon failure: connection lost beyond the retry budget,
#: malformed frames, or a request that crashed every worker it was
#: dispatched to.
EXIT_SERVER = 9


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI's exit-code taxonomy.

    One family, one code, so scripts can branch on the *kind* of failure
    without scraping stderr.
    """
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET
    if isinstance(exc, Overloaded):
        return EXIT_OVERLOADED
    if isinstance(exc, ServerError):
        return EXIT_SERVER
    if isinstance(exc, (ParseError, DefinitionError, OSError)):
        return EXIT_PARSE
    if isinstance(exc, (SemanticsError, EvaluationError, SubstitutionError)):
        return EXIT_SEMANTICS
    if isinstance(exc, OperationalError):
        return EXIT_OPERATIONAL
    if isinstance(exc, ProofError):
        return EXIT_PROOF
    return EXIT_ERROR
