"""Denotational semantics of process expressions (paper §3.2–3.3).

A process denotes a prefix-closed set of traces.  True denotations are
usually infinite; this package computes the *bounded* denotation — every
trace up to a configured depth, with infinite message sets sampled (see
DESIGN.md §4) — which is exact for all claims about traces within the
bound.

* :mod:`repro.semantics.config`      — enumeration bounds;
* :mod:`repro.semantics.denotation`  — the semantic function ⟦·⟧ρ;
* :mod:`repro.semantics.fixpoint`    — the §3.3 approximation chain
  a₀ ⊆ a₁ ⊆ … for recursive definitions;
* :mod:`repro.semantics.equivalence` — trace equivalence up to depth;
* :mod:`repro.semantics.laws`        — the algebraic laws of the model,
  as checkable statements;
* :mod:`repro.semantics.failures`    — the §4 "future work": a bounded
  failures model that distinguishes ``STOP | P`` from ``P``.
"""

from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import Denoter, denote
from repro.semantics.equivalence import trace_difference, trace_equivalent
from repro.semantics.failures import (
    Failures,
    InternalChoiceSemantics,
    failures,
    failures_difference,
    failures_equivalent,
    failures_of,
    failures_refines,
)
from repro.semantics.engine import DenotationEngine
from repro.semantics.fixpoint import ApproximationChain, fixpoint_denotation
from repro.semantics.laws import ALL_LAWS, Law, LawCheck, check_law, refines

__all__ = [
    "SemanticsConfig",
    "Denoter",
    "denote",
    "ApproximationChain",
    "DenotationEngine",
    "fixpoint_denotation",
    "trace_equivalent",
    "trace_difference",
    "ALL_LAWS",
    "Law",
    "LawCheck",
    "check_law",
    "refines",
    "Failures",
    "InternalChoiceSemantics",
    "failures",
    "failures_of",
    "failures_difference",
    "failures_equivalent",
    "failures_refines",
]
