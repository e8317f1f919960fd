"""The proof checker: re-validates every node of a proof tree.

A proof is accepted only if every rule application matches its validator
(:data:`repro.proof.rules.VALIDATORS`), every assumption leaf is licensed
by the current context (initial assumptions, plus hypotheses introduced by
the recursion rule), and every oracle leaf is discharged by the
:class:`~repro.proof.oracle.Oracle` — with eigenvariables (introduced by
``generalize``) constrained to their declared domains.

The resulting :class:`CheckReport` lists the oracle discharges — the trust
boundary of the proof — and basic statistics.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import RuleApplicationError, SideConditionError
from repro.process.definitions import DefinitionList, NO_DEFINITIONS
from repro.proof.judgments import Judgment, Pure
from repro.proof.oracle import Oracle, Verdict
from repro.proof.proof import ProofNode
from repro.proof.rules import VALIDATORS
from repro.assertions.ast import ConstTerm, Term, VarTerm
from repro.values.expressions import SetExpr


class OracleDischarge(NamedTuple):
    """Record of one semantically discharged pure premise."""

    judgment: Judgment
    verdict: Verdict


class CheckReport(NamedTuple):
    """Outcome of checking a proof."""

    conclusion: Judgment
    nodes: int
    rules_used: Mapping[str, int]
    discharges: Tuple[OracleDischarge, ...]

    def summary(self) -> str:
        rules = ", ".join(f"{r}×{n}" for r, n in sorted(self.rules_used.items()))
        return (
            f"checked ⊢ {self.conclusion!r}\n"
            f"  {self.nodes} nodes; rules: {rules}\n"
            f"  {len(self.discharges)} side conditions discharged semantically"
        )


class _Context:
    """Checking context threaded through validators."""

    __slots__ = ("checker", "assumptions", "eigenvars")

    def __init__(
        self,
        checker: "ProofChecker",
        assumptions: FrozenSet[Judgment],
        eigenvars: Mapping[str, SetExpr],
    ) -> None:
        self.checker = checker
        self.assumptions = assumptions
        self.eigenvars = dict(eigenvars)

    @property
    def definitions(self) -> DefinitionList:
        return self.checker.definitions

    @property
    def env(self):
        """The oracle's environment (for evaluating channel subscripts in
        side conditions)."""
        return self.checker.oracle.env

    def check(
        self,
        node: ProofNode,
        extra_assumptions: Tuple[Judgment, ...] = (),
        extra_eigenvars: Optional[Mapping[str, SetExpr]] = None,
    ) -> None:
        assumptions = self.assumptions
        if extra_assumptions:
            assumptions = assumptions | frozenset(extra_assumptions)
        eigenvars = self.eigenvars
        if extra_eigenvars:
            eigenvars = {**eigenvars, **extra_eigenvars}
        self.checker._check_node(node, assumptions, eigenvars)

    def require_membership(self, term: Term, domain: SetExpr) -> None:
        """Side condition of ∀-elimination: the instantiating term's value
        must lie in the quantifier's domain."""
        if isinstance(term, VarTerm):
            declared = self.eigenvars.get(term.name)
            if declared == domain:
                return
            raise SideConditionError(
                f"forall-sat-elim: {term.name!r} is not an eigenvariable over "
                f"{domain!r} (declared: {declared!r})"
            )
        if isinstance(term, ConstTerm):
            semantic = domain.evaluate(self.checker.oracle.env)
            if term.value in semantic:
                return
            raise SideConditionError(
                f"forall-sat-elim: constant {term.value!r} not in {domain!r}"
            )
        raise SideConditionError(
            f"forall-sat-elim: cannot justify membership of {term!r} in {domain!r}"
        )


class ProofChecker:
    """Validates proof trees against a definition list and an oracle."""

    def __init__(
        self,
        definitions: DefinitionList = NO_DEFINITIONS,
        oracle: Optional[Oracle] = None,
    ) -> None:
        self.definitions = definitions
        self.oracle = oracle if oracle is not None else Oracle()
        self._discharges: List[OracleDischarge] = []

    def check(
        self,
        proof: ProofNode,
        assumptions: Tuple[Judgment, ...] = (),
    ) -> CheckReport:
        """Validate ``proof`` under initial ``assumptions``; raises
        :class:`~repro.errors.ProofError` on any defect."""
        self._discharges = []
        self._check_node(proof, frozenset(assumptions), {})
        return CheckReport(
            conclusion=proof.conclusion,
            nodes=proof.size(),
            rules_used=dict(proof.rules_used()),
            discharges=tuple(self._discharges),
        )

    # -- internals ------------------------------------------------------------

    def _check_node(
        self,
        node: ProofNode,
        assumptions: FrozenSet[Judgment],
        eigenvars: Mapping[str, SetExpr],
    ) -> None:
        if node.rule == "assumption":
            if node.conclusion not in assumptions:
                raise RuleApplicationError(
                    f"assumption {node.conclusion!r} is not in the context"
                )
            return
        if node.rule == "oracle":
            conclusion = node.conclusion
            if not isinstance(conclusion, Pure):
                raise RuleApplicationError("oracle leaves must conclude pure judgments")
            verdict = self.oracle.require(conclusion.formula, eigenvars)
            self._discharges.append(OracleDischarge(conclusion, verdict))
            return
        validator = VALIDATORS.get(node.rule)
        if validator is None:
            raise RuleApplicationError(f"unknown rule {node.rule!r}")
        validator(node, _Context(self, assumptions, eigenvars))
