"""The retransmission protocol (paper §1.3 examples 2–4, §2.2, Table 1).

Definitions (Δ1, Δ2, Δ3 of §2.2)::

    sender   = input?y:M -> q[y]
    q[x:M]   = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])
    receiver = wire?z:M -> (wire!ACK -> output!z -> receiver
                            | wire!NACK -> receiver)
    protocol = chan wire; (sender || receiver)

Theorems reproduced:

* **Table 1 / §2.2(1)** — ``Δ1 ⊢ sender sat f(wire) ≤ input`` (together
  with the stronger lemma ``∀x∈M. q[x] sat f(wire) ≤ x⌢input``), both via
  the automated tactic and via :func:`table1_proof`, an explicit
  step-by-step construction following the paper's numbered lines;
* **§2.2(2)** — ``Δ1, Δ2 ⊢ receiver sat output ≤ f(wire)`` (the paper
  leaves this as an exercise; we do it);
* **§2.2(3)** — ``Δ1, Δ2, Δ3 ⊢ protocol sat output ≤ input`` via
  parallelism, consequence (transitivity of ≤), and the chan rule.

``f`` is the cancellation function of §2.2
(:func:`repro.assertions.sequences.cancel_protocol`).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.assertions.ast import Formula, Implies, VarTerm
from repro.assertions.parser import parse_assertion
from repro.assertions.sequences import cancel_protocol
from repro.assertions.substitution import blank_channels, prefix_channel
from repro.process.ast import Input, Name, Output
from repro.process.definitions import DefinitionList
from repro.process.parser import parse_definitions
from repro.proof.checker import CheckReport, ProofChecker
from repro.proof.judgments import Sat
from repro.proof.oracle import Oracle, OracleConfig
from repro.proof.proof import ProofNode
from repro.proof.rules import (
    alternative,
    assume,
    consequence,
    forall_sat_elim,
    generalize,
    input_rule,
    oracle_leaf,
    output_rule,
    recursion,
    recursion_goal_with_defs,
)
from repro.proof.tactics import SatProver
from repro.sat.checker import SatChecker, SatResult
from repro.semantics.config import SemanticsConfig
from repro.values.domains import FiniteDomain
from repro.values.environment import Environment

SOURCE = """
sender = input?y:M -> q[y];
q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x]);
receiver = wire?z:M -> (wire!ACK -> output!z -> receiver
                        | wire!NACK -> receiver);
protocol = chan wire; (sender || receiver)
"""

CHANNELS = frozenset({"input", "wire", "output"})

#: The default message alphabet M (any finite set disjoint from the
#: acknowledgement signals works).
DEFAULT_MESSAGES = frozenset({0, 1})


def definitions() -> DefinitionList:
    return parse_definitions(SOURCE)


def environment(messages=DEFAULT_MESSAGES) -> Environment:
    """Binds the message type ``M`` and the cancellation function ``f``."""
    return (
        Environment()
        .bind("M", FiniteDomain(messages))
        .bind("f", cancel_protocol)
    )


def specifications() -> Mapping[str, Formula]:
    return {
        "sender": parse_assertion("f(wire) <= input", CHANNELS),
        "q": parse_assertion("f(wire) <= x ^ input", CHANNELS),
        "receiver": parse_assertion("output <= f(wire)", CHANNELS),
        "protocol": parse_assertion("output <= input", CHANNELS),
    }


def invariants() -> Dict[str, object]:
    specs = specifications()
    return {
        "sender": specs["sender"],
        "q": ("x", specs["q"]),
        "receiver": specs["receiver"],
        "protocol": specs["protocol"],
    }


def oracle(messages=DEFAULT_MESSAGES) -> Oracle:
    pool = tuple(sorted(messages, key=repr)) + ("ACK", "NACK")
    return Oracle(environment(messages), OracleConfig(value_pool=pool))


def prover(messages=DEFAULT_MESSAGES) -> SatProver:
    return SatProver(definitions(), oracle(messages), invariants())


def prove_all(messages=DEFAULT_MESSAGES) -> Dict[str, CheckReport]:
    """Machine-check §2.2(1)–(3) via the automated tactic."""
    sat_prover = prover(messages)
    checker = ProofChecker(definitions(), sat_prover.oracle)
    reports: Dict[str, CheckReport] = {}
    for name in ("sender", "q", "receiver", "protocol"):
        proof = sat_prover.prove_name(name)
        reports[name] = checker.check(proof)
    return reports


def check_all(
    depth: int = 5, sample: int = 3, messages=DEFAULT_MESSAGES
) -> Dict[str, SatResult]:
    """Bounded model checking of the same claims."""
    checker = SatChecker(
        definitions(),
        environment(messages),
        SemanticsConfig(depth=depth, sample=sample),
    )
    specs = specifications()
    results = {
        "sender": checker.check(Name("sender"), specs["sender"]),
        "receiver": checker.check(Name("receiver"), specs["receiver"]),
        "protocol": checker.check(Name("protocol"), specs["protocol"]),
    }
    from repro.process.ast import ArrayRef
    from repro.values.expressions import Const

    results["q"] = checker.check_forall(
        "x",
        FiniteDomain(messages),
        lambda v: ArrayRef("q", Const(v)),
        specs["q"],
    )
    return results


# ---------------------------------------------------------------------------
# Table 1, step by step.
# ---------------------------------------------------------------------------


def table1_proof(messages=DEFAULT_MESSAGES) -> ProofNode:
    """The proof displayed in Table 1, constructed rule by rule.

    The paper proves the *second auxiliary inference* of the recursion
    rule: under the hypothetical assumptions

    * (1) ``sender sat f(wire) ≤ input``                       (assumption)
    * (2) ``∀x∈M. q[x] sat f(wire) ≤ x⌢input``                 (assumption)

    it derives that both equation bodies satisfy their invariants, and the
    recursion rule then concludes ``sender sat f(wire) ≤ input``.  The
    numbered comments below cite the corresponding Table 1 lines.
    """
    defs = definitions()
    specs = specifications()
    r_sender = specs["sender"]  # f(wire) ≤ input
    s_q = specs["q"]  # f(wire) ≤ x ⌢ input
    q_def = defs.lookup_array("q")
    sender_def = defs.lookup_process("sender")
    domain_m = q_def.domain

    hyp_sender = Sat(Name("sender"), r_sender)  # line (1)
    hyp_q = recursion_goal_with_defs("q", ("x", s_q), defs)  # line (2)

    # ---- sender's body: (input?y:M → q[y]) sat f(wire) ≤ input ----------
    sender_body = sender_def.body
    assert isinstance(sender_body, Input)
    # line (3): f(⟨⟩) ≤ ⟨⟩ — "(def f)"
    sender_empty = oracle_leaf(blank_channels(r_sender))
    # line (5): ∀-elim of (2) at the fresh variable v
    q_at_v = forall_sat_elim(assume(hyp_q), VarTerm("v"))
    # line (4): the input rule needs ∀v∈M. q[v] sat f(wire) ≤ v⌢input
    sender_forall = generalize("v", sender_body.domain, q_at_v)
    sender_body_proof = input_rule(
        sender_body, r_sender, sender_empty, sender_forall
    )  # line (4), "input (2),(3)"

    # ---- q's body: (wire!x → (…ACK… | …NACK…)) sat f(wire) ≤ x⌢input ----
    q_body = q_def.body
    assert isinstance(q_body, Output)
    # After the output rule, the goal becomes S1 = S^wire_(x⌢wire):
    s1 = prefix_channel(s_q, q_body.channel, VarTerm("x"))
    choice = q_body.continuation

    ack_branch, nack_branch = choice.left, choice.right  # type: ignore[attr-defined]

    # ACK branch — lines (8)–(11), (15):
    #   (8)+(9) "(def f)": f(wire) ≤ input ⇒ f(x⌢v⌢wire) ≤ x⌢input, v∈{ACK}
    s1_ack = prefix_channel(s1, ack_branch.channel, VarTerm("v"))
    ack_fact = oracle_leaf(Implies(r_sender, s1_ack))
    #   (10) consequence: sender sat f(x⌢v⌢wire) ≤ x⌢input
    ack_sender = consequence(assume(hyp_sender), ack_fact)
    #   (11) ∀-introduction over v∈{ACK}
    ack_forall = generalize("v", ack_branch.domain, ack_sender)
    #   (15) input rule (with (14) "(def f)" as the emptiness premise)
    ack_empty = oracle_leaf(blank_channels(s1))  # line (14)
    ack_proof = input_rule(ack_branch, s1, ack_empty, ack_forall)

    # NACK branch — lines (12)–(13), (16):
    #   (5)-(7) instantiate assumption (2) at the eigenvariable x
    q_at_x = forall_sat_elim(assume(hyp_q), VarTerm("x"))  # line (7)
    #   (12) "(def f)": f(wire) ≤ x⌢input ⇒ f(x⌢v⌢wire) ≤ x⌢input, v∈{NACK}
    s1_nack = prefix_channel(s1, nack_branch.channel, VarTerm("v"))
    nack_fact = oracle_leaf(Implies(s_q, s1_nack))
    nack_q = consequence(q_at_x, nack_fact)  # line (12), consequence
    nack_forall = generalize("v", nack_branch.domain, nack_q)  # line (13)
    nack_empty = oracle_leaf(blank_channels(s1))
    nack_proof = input_rule(nack_branch, s1, nack_empty, nack_forall)  # line (16)

    # line (17): alternative rule combines the branches
    choice_proof = alternative(ack_proof, nack_proof)

    # line (19): output rule, with (18) "(def f)" as the emptiness premise
    q_output_empty = oracle_leaf(blank_channels(s_q))  # line (18)
    q_body_proof = output_rule(q_body, s_q, q_output_empty, choice_proof)

    # lines (20)–(21): generalise over x∈M
    q_body_forall = generalize("x", domain_m, q_body_proof)

    # Assemble the recursion rule (§2.1 rule 10, list-of-equations form).
    empty_sender = oracle_leaf(blank_channels(r_sender))
    from repro.assertions.ast import ForAll

    empty_q = oracle_leaf(ForAll("x", domain_m, blank_channels(s_q)))
    return recursion(
        defs,
        {"sender": r_sender, "q": ("x", s_q)},
        {"sender": empty_sender, "q": empty_q},
        {"sender": sender_body_proof, "q": q_body_forall},
        goal_name="sender",
    )


def check_table1_proof(messages=DEFAULT_MESSAGES) -> CheckReport:
    """Build and validate the explicit Table 1 proof."""
    proof = table1_proof(messages)
    checker = ProofChecker(definitions(), oracle(messages))
    return checker.check(proof)
