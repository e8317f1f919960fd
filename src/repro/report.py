"""One-shot reproduction report: every paper claim, re-measured.

:func:`reproduction_report` runs the experiment battery (E1–E10 of
EXPERIMENTS.md) and renders a markdown summary of claim vs. measured —
the programmatic counterpart of ``pytest benchmarks/``.  Exposed on the
CLI as ``python -m repro reproduce``.

``quick=True`` shrinks bounds (depth, trials) so the whole battery runs
in seconds; the default bounds match EXPERIMENTS.md.

Under an ambient :class:`~repro.runtime.governor.Governor` the battery
degrades instead of dying: an experiment that trips its budget is
reported as ``PARTIAL`` with the checkpoint's "verified to depth k"
line, and once the governor is exhausted the remaining experiments are
skipped rather than started against a spent budget.
"""

from __future__ import annotations

import time
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.errors import EXIT_BUDGET, BudgetExceeded
from repro.runtime import governor as _governor


class ExperimentOutcome(NamedTuple):
    experiment: str
    claim: str
    measured: str
    ok: bool
    seconds: float
    partial: bool = False


def _run(
    experiment: str, claim: str, body: Callable[[], "tuple[str, bool]"]
) -> ExperimentOutcome:
    started = time.perf_counter()
    partial = False
    try:
        measured, ok = body()
    except BudgetExceeded as exc:  # a budget trip is a partial result
        checkpoint = exc.checkpoint
        detail = checkpoint.describe() if checkpoint is not None else str(exc)
        measured, ok, partial = f"PARTIAL: {detail}", False, True
    except Exception as exc:  # a crash is a failed reproduction, not a crash
        measured, ok = f"ERROR: {exc}", False
    return ExperimentOutcome(
        experiment, claim, measured, ok, time.perf_counter() - started, partial
    )


def _skipped(experiment: str, claim: str) -> ExperimentOutcome:
    return ExperimentOutcome(
        experiment, claim, "SKIPPED (budget exhausted)", False, 0.0, True
    )


def render_partial(exc: BudgetExceeded) -> str:
    """One structured stderr block for a CLI command cut short by its
    budget: what ran out, and what was soundly established before it did."""
    lines = [f"budget exhausted: {exc.resource} limit of {exc.limit} reached"]
    checkpoint = exc.checkpoint
    if checkpoint is not None:
        lines.append(f"partial result: {checkpoint.describe()}")
        if checkpoint.resume_slots():
            # Both engines persist deterministic ``fix:…@level{k}``
            # checkpoint slots — tell the user the trip is resumable, not
            # just how far it got.
            lines.append(
                "resume: re-invoke with the same cache directory to "
                "continue from the persisted checkpoints"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared CLI/daemon verdict rendering
# ---------------------------------------------------------------------------
#
# ``repro check``/``repro traces`` and the ``repro serve`` worker render
# through the same functions, so a verdict computed remotely is
# *byte-identical* to the one a fresh single-process invocation prints —
# the property the serve chaos tests assert after crash/retry cycles.


def format_traces(closure) -> str:
    """The indented ``⟨…⟩`` trace listing, one line per trace."""
    lines = []
    for trace in closure:
        inner = ", ".join(repr(e) for e in trace)
        lines.append(f"  ⟨{inner}⟩")
    return "\n".join(lines)


def check_outcome(
    name: str,
    spec: str,
    result=None,
    trip: "Optional[BudgetExceeded]" = None,
    depth: "Optional[int]" = None,
) -> "Tuple[str, str, int]":
    """Render one ``P sat R`` verdict as ``(stdout, stderr, exit_code)``.

    Pass ``result`` (a :class:`~repro.sat.checker.SatResult`) for a
    completed check, or ``trip`` for a budget-interrupted one; ``depth``
    is the configured bound, used when the result does not carry a
    verified depth of its own.
    """
    if trip is not None:
        return (
            f"PARTIAL: {name} sat {spec} — no counterexample found",
            render_partial(trip),
            EXIT_BUDGET,
        )
    if result.holds:
        depth_note = (
            f"depth ≤ {result.verified_depth}"
            if result.verified_depth is not None
            else f"depth ≤ {depth}"
        )
        return (
            f"HOLDS: {name} sat {spec}  "
            f"({result.traces_checked} traces, {depth_note})",
            "",
            0,
        )
    return (
        f"VIOLATED: {name} sat {spec}\n{result.counterexample.describe()}",
        "",
        1,
    )


def traces_outcome(result, depth: int, engine: str) -> "Tuple[str, str, int]":
    """Render a (possibly partial) trace enumeration as
    ``(stdout, stderr, exit_code)``; ``result`` is a
    :class:`~repro.sat.checker.PartialTraces`."""
    if result.closure is None:
        return (
            "",
            "budget exhausted before even depth 0 completed; no traces "
            "to report",
            EXIT_BUDGET,
        )
    listing = format_traces(result.closure)
    if result.complete:
        head = (
            f"{len(result.closure)} traces (depth ≤ {depth}, "
            f"engine {engine}):"
        )
        return (f"{head}\n{listing}" if listing else head, "", 0)
    head = (
        f"PARTIAL: {len(result.closure)} traces (verified to depth "
        f"{result.verified_depth} of {depth}, engine {engine}):"
    )
    return (
        f"{head}\n{listing}" if listing else head,
        f"budget exhausted at depth {result.verified_depth}; traces up to "
        f"that length are exact",
        EXIT_BUDGET,
    )


def run_experiments(quick: bool = False) -> List[ExperimentOutcome]:
    """Run the battery; returns one outcome per experiment row."""
    from repro.process.ast import Choice, Name, STOP
    from repro.process.parser import parse_process
    from repro.semantics.config import SemanticsConfig
    from repro.semantics.denotation import denote
    from repro.semantics.equivalence import trace_equivalent
    from repro.semantics.fixpoint import ApproximationChain
    from repro.operational.explorer import explore_traces
    from repro.operational.step import OperationalSemantics
    from repro.soundness.harness import run_all_rule_experiments
    from repro.systems import copier, multiplier, protocol

    depth = 3 if quick else 4
    trials = 40 if quick else 200
    cfg = SemanticsConfig(depth=depth, sample=2)
    specs: List[tuple] = []

    def e1() -> "tuple[str, bool]":
        defs = protocol.definitions()
        env = protocol.environment()
        denotational = denote(Name("protocol"), defs, env=env, config=cfg)
        semantics = OperationalSemantics(defs, env, sample=cfg.sample)
        operational = explore_traces(Name("protocol"), semantics, cfg.depth)
        same = denotational == operational
        return (
            f"protocol: {len(denotational)} traces, denotational "
            f"{'==' if same else '!='} operational",
            same,
        )

    specs.append(("E1", "§1.2–1.3 trace sets; denotational = operational", e1))

    def e2() -> "tuple[str, bool]":
        copier_results = copier.check_all(depth=depth + 1, sample=2)
        mult_results = multiplier.check_all(depth=depth, sample=2)
        all_hold = all(r.holds for r in copier_results.values()) and all(
            r.holds for r in mult_results.values()
        )
        return (
            f"copier claims {len(copier_results)}✓, multiplier claims "
            f"{len(mult_results)}✓",
            all_hold,
        )

    specs.append(("E2", "every §2 sat claim holds", e2))

    def e3() -> "tuple[str, bool]":
        report = protocol.check_table1_proof()
        ok = repr(report.conclusion) == "sender sat f(wire) <= input"
        return (
            f"{report.nodes} nodes, {len(report.discharges)} discharges",
            ok,
        )

    specs.append(("E3", "Table 1 checks line by line", e3))

    def e4_e5() -> "tuple[str, bool]":
        reports = protocol.prove_all()
        ok = set(reports) == {"sender", "q", "receiver", "protocol"}
        sizes = ", ".join(f"{k}:{v.nodes}" for k, v in sorted(reports.items()))
        return sizes, ok

    specs.append(("E4+E5", "receiver exercise and protocol theorem proved", e4_e5))

    def e6() -> "tuple[str, bool]":
        from repro.traces.events import event
        from repro.traces.operations import prefix
        from repro.traces.prefix_closure import FiniteClosure

        p = FiniteClosure.from_traces(
            [tuple(event("a", i) for i in range(depth))]
        )
        lifted = prefix(event("z", 0), p)
        return ("prefix closure preserved", lifted.is_prefix_closed())

    specs.append(("E6", "§3.1 closure theorems", e6))

    def e7() -> "tuple[str, bool]":
        from repro.semantics.engine import DenotationEngine
        from repro.systems import philosophers

        chain = ApproximationChain(copier.definitions(), copier.environment(), cfg)
        steps = chain.run_until_stable()
        # copier's network hides ``wire``, so the chain iterates at its
        # internal solve depth (hide_depth) — the depth+1 bound applies
        # to that depth, not the requested one.
        ok = steps <= chain.solve_depth + 1 and chain.is_monotone()

        # The dependency-graph engine must reproduce the monolithic chain
        # exactly — pointer-identical roots per definition — across the
        # full systems suite, including array-indexed definitions
        # (philosophers: dict-valued entries checked per subscript) and
        # chan-hidden bodies (protocol).  Philosophers references phil[2]
        # and fork[2], so the cross-check needs sample >= 3; depth is
        # bounded to keep the report battery quick.
        xcfg = SemanticsConfig(depth=min(cfg.depth, 4), sample=3)
        suites = [
            ("copier", copier.definitions(), copier.environment()),
            ("protocol", protocol.definitions(), protocol.environment()),
            (
                "philosophers",
                philosophers.definitions(),
                philosophers.environment(),
            ),
        ]
        agreed = True
        for label, defs, env in suites:
            use = cfg if label == "copier" else xcfg
            sys_chain = ApproximationChain(defs, env, use)
            sys_chain.run_until_stable()
            engine = DenotationEngine(defs, env, use)
            for name, closure in sys_chain.fixpoint().items():
                if isinstance(closure, dict):
                    agreed = agreed and all(
                        engine.closure_for(name, sub).root is sub_closure.root
                        for sub, sub_closure in closure.items()
                    )
                else:
                    agreed = agreed and (
                        engine.closure_for(name).root is closure.root
                    )
        ok = ok and agreed
        return (
            f"stabilised in {steps} steps (depth {cfg.depth}); "
            f"engine roots {'identical' if agreed else 'DIVERGED'} "
            f"on {len(suites)} systems",
            ok,
        )

    specs.append(("E7", "fixpoint chain converges monotonically", e7))

    def e8() -> "tuple[str, bool]":
        results = run_all_rule_experiments(trials=trials, seed=2026)
        violations = sum(r.violations for r in results)
        vacuous = [r.rule for r in results if r.premises_held == 0]
        ok = violations == 0 and not vacuous
        return (f"{len(results)} rules, {violations} violations", ok)

    specs.append(("E8", "§3.4 validity: zero violations", e8))

    def e9() -> "tuple[str, bool]":
        p = parse_process("a!0 -> b!1 -> STOP")
        identity = trace_equivalent(Choice(STOP, p), p, config=cfg)
        from repro.semantics.failures import failures_equivalent

        distinguished = not failures_equivalent(Choice(STOP, p), p)
        return (
            f"STOP|P = P in traces: {identity}; ≠ in failures: {distinguished}",
            identity and distinguished,
        )

    specs.append(("E9", "§4 limitations (and the failures fix)", e9))

    def e10() -> "tuple[str, bool]":
        from repro.traces.events import channel, trace
        from repro.traces.histories import ch

        s = trace(
            ("input", 27), ("wire", 27), ("input", 0), ("wire", 0), ("input", 3)
        )
        h = ch(s)
        ok = h(channel("input")) == (27, 0, 3) and h(channel("wire")) == (27, 0)
        return ("ch example matches §3.3", ok)

    specs.append(("E10", "the worked ch(s) example", e10))

    outcomes: List[ExperimentOutcome] = []
    governor = _governor.current()
    for name, claim, body in specs:
        if governor is not None and governor.expired():
            # Don't start an experiment against a spent budget: report it
            # as skipped so the table still accounts for every row.
            outcomes.append(_skipped(name, claim))
            continue
        outcomes.append(_run(name, claim, body))
    return outcomes


def render_report(outcomes: List[ExperimentOutcome], quick: bool = False) -> str:
    """Render battery outcomes as a markdown table."""
    lines = [
        "# Reproduction report",
        "",
        f"mode: {'quick' if quick else 'full'}",
        "",
        "| exp | claim | measured | status | time |",
        "|-----|-------|----------|--------|------|",
    ]
    for outcome in outcomes:
        if outcome.ok:
            status = "✓"
        elif outcome.partial:
            status = "◐ PARTIAL"
        else:
            status = "✗ FAILED"
        lines.append(
            f"| {outcome.experiment} | {outcome.claim} | {outcome.measured} "
            f"| {status} | {outcome.seconds:.1f}s |"
        )
    failed = sum(1 for o in outcomes if not o.ok and not o.partial)
    partial = sum(1 for o in outcomes if o.partial)
    reproduced = len(outcomes) - failed - partial
    summary = f"**{reproduced}/{len(outcomes)} experiments reproduce"
    if partial:
        summary += f" ({partial} partial under the active budget)"
    summary += ".**"
    lines.append("")
    lines.append(summary)
    return "\n".join(lines)


def reproduction_report(quick: bool = False) -> str:
    """The battery's outcomes rendered as a markdown table."""
    return render_report(run_experiments(quick=quick), quick=quick)
