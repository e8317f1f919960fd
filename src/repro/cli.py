"""Command-line interface: ``python -m repro <command> …``.

Work with process definition files written in the paper's notation::

    $ cat copier.csp
    copier   = input?x:NAT -> wire!x -> copier;
    recopier = wire?y:NAT -> output!y -> recopier;
    network  = chan wire; (copier || recopier)

    $ python -m repro traces copier.csp --process network --depth 4
    $ python -m repro check copier.csp --process network --spec "output <= input"
    $ python -m repro prove copier.csp --goal network \
          --invariant "copier=wire <= input" \
          --invariant "recopier=output <= wire" \
          --invariant "network=output <= input"
    $ python -m repro simulate copier.csp --process network --steps 10
    $ python -m repro deadlocks copier.csp --process network --depth 3
    $ python -m repro stats copier.csp --process network --depth 6

Named message sets are declared with ``--set M=0,1``; the protocol's
cancellation function is available as ``--with-cancel f``.

``traces``/``check``/``stats`` unfold the definitions on demand, budget
or not, which computes the §3.3 least fixpoint.  Solved closures are
snapshotted under ``~/.cache/repro`` (override with ``--cache-dir``,
disable with ``--no-cache``) so repeated runs on one system warm-start.
``--engine operational`` caches its explored closures in the same
snapshot slots, so a repeated operational query skips the explorer too.
``check`` accepts ``--spec`` repeatedly: all assertions are checked
against one warm solved system, verdicts printed in order, and the exit
code is the first failing assertion's.  ``stats --explain-plan`` prints
the dependency-graph engine's SCC schedule and each SCC's level count.

Long-running commands accept resource budgets — ``--deadline SECONDS``,
``--max-nodes N`` (freshly interned trie nodes), ``--max-states N``
(explorer configurations).  A command whose budget runs out prints the
sound *partial* result ("verified to depth k") and exits with the budget
exit code (4) instead of dying mid-computation.  Every failure class
maps to its own exit code (parse 2, semantics 3, budget 4, operational
5, proof 6, other 7, overloaded 8, server 9); ``--debug`` re-raises the
underlying exception with its full traceback.

``repro serve --socket PATH --jobs N`` runs a crash-tolerant daemon:
worker processes keep kernels warm across queries, crashed or hung
workers are respawned and their in-flight requests transparently
retried, and a bounded queue sheds excess load explicitly.  Point
``check``/``traces`` at it with ``--server PATH``.  Both sides answer
through :mod:`repro.query`, so verdict text and exit codes are
identical to a local run, just without the cold start.  Out-of-range
numeric flags (``--depth -1``, ``--sample 0``, …) are usage errors
(exit 2).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from repro import query
from repro.assertions.parser import parse_assertion
from repro.errors import (
    EXIT_BUDGET,
    BudgetExceeded,
    ParseError,
    ReproError,
    exit_code_for,
)
from repro.process.analysis import channel_names
from repro.process.ast import Name
from repro.process.parser import parse_definitions
from repro.process.pretty import pretty_definitions
from repro.query import environment_from_options, process_target
from repro.runtime.governor import Budget, activate
from repro.runtime import governor as _governor


def _load(args: argparse.Namespace):
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{args.file} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    return parse_definitions(source)


def _options(args: argparse.Namespace) -> dict:
    """The :mod:`repro.query` options of ``check``/``traces``/``stats``."""
    return dict(
        process=args.process,
        depth=args.depth,
        sample=args.sample,
        sets=args.set or [],
        with_cancel=args.with_cancel,
        engine=args.engine,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    )


def cmd_parse(args: argparse.Namespace) -> int:
    defs = _load(args)
    print(pretty_definitions(defs))
    return 0


def _emit(stdout: str, stderr: str, code: int) -> int:
    """Print a rendered ``(stdout, stderr, exit_code)`` outcome."""
    if stdout:
        print(stdout)
    if stderr:
        print(stderr, file=sys.stderr)
    return code


def _query(args: argparse.Namespace, op: str, specs: Sequence[str] = ()) -> int:
    """Answer ``check``/``traces`` through :mod:`repro.query`, here or —
    with ``--server`` — in a ``repro serve`` worker.  The file is parsed
    locally either way (syntax errors stay local and fast); the AST
    travels serialised, and the response carries the exact stdout/stderr
    a local run would have printed."""
    defs = _load(args)
    options = _options(args)
    if args.server:
        from repro.server import protocol
        from repro.server.client import ServerClient

        request = protocol.query(
            op,
            defs,
            spec=specs or None,
            budget=Budget.from_spec(vars(args)),
            **options,
        )
        with ServerClient(args.server) as client:
            response = client.call(request)
        return _emit(
            response.get("stdout") or "",
            response.get("stderr") or "",
            int(response.get("exit_code", 0)),
        )
    answer, _ = query.run(defs, op, specs, options)
    return _emit(answer.stdout, answer.stderr, answer.exit_code)


def cmd_traces(args: argparse.Namespace) -> int:
    return _query(args, "traces")


def cmd_check(args: argparse.Namespace) -> int:
    return _query(args, "check", args.spec)


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.report import partial_traces_note, render_partial
    from repro.traces.stats import format_stats, reset_stats

    defs = _load(args)
    reset_stats()
    checker = query.open_checker(defs, _options(args))
    cache = checker.cache
    target = process_target(defs, args.process)
    code = 0
    try:
        if args.explain_plan:
            from repro.semantics.engine import DenotationEngine

            print(DenotationEngine(defs, checker.env, checker.config).explain())
        elif args.spec:
            result = checker.check(target, args.spec)
            verdict = "HOLDS" if result.holds else "VIOLATED"
            print(
                f"{verdict}: {target.name} sat {args.spec}  "
                f"({result.traces_checked} traces, depth ≤ {args.depth})"
            )
        else:
            # Under a budget, the depth schedule's deepest finished
            # closure, as `traces` lists it.
            partial = checker.traces_partial(target)
            closure = partial.closure
            if closure is not None:
                reach = (
                    f"depth ≤ {args.depth}"
                    if partial.complete
                    else f"verified to depth {partial.verified_depth} of "
                    f"{args.depth}"
                )
                print(
                    f"{'' if partial.complete else 'PARTIAL: '}"
                    f"{target.name}: {len(closure)} traces in "
                    f"{closure.node_count()} trie nodes ({reach}, engine "
                    f"{args.engine})"
                )
            if not partial.complete:
                print(partial_traces_note(partial), file=sys.stderr)
                code = EXIT_BUDGET
    except BudgetExceeded as exc:
        print(render_partial(exc), file=sys.stderr)
        code = EXIT_BUDGET
    finally:
        if cache is not None:
            cache.save()
    if cache is not None:
        # All branches report the cache account; both engines' closure
        # slots hit/miss through the same counters.
        print(
            f"snapshot cache: {cache.hits} hits, {cache.misses} "
            f"misses{' (rebuilt: stale/corrupt)' if cache.rebuilt else ''}"
        )
    print()
    print(format_stats())
    governor = _governor.current()
    if governor is not None:
        print()
        print(governor.summary())
    return code


def cmd_prove(args: argparse.Namespace) -> int:
    from repro.proof.checker import ProofChecker
    from repro.proof.oracle import Oracle, OracleConfig
    from repro.proof.tactics import SatProver

    defs = _load(args)
    env = environment_from_options(args.set, args.with_cancel)
    all_channels = set()
    for definition in defs:
        all_channels |= channel_names(Name(definition.name), defs)

    invariants = {}
    for spec in args.invariant or []:
        head, _, formula_text = spec.partition("=")
        if not _:
            raise ParseError(f"--invariant expects NAME=FORMULA, got {spec!r}")
        head = head.strip()
        formula = parse_assertion(formula_text.strip(), all_channels)
        if ":" in head:
            name, _, param = head.partition(":")
            invariants[name.strip()] = (param.strip(), formula)
        else:
            definition = defs.lookup(head)
            if definition.is_array:
                invariants[head] = (definition.parameter, formula)
            else:
                invariants[head] = formula

    pool = [0, 1, "ACK", "NACK"]
    oracle = Oracle(env, OracleConfig(value_pool=tuple(pool)))
    prover = SatProver(defs, oracle, invariants)
    goal = args.goal or list(defs)[-1].name
    try:
        proof = prover.prove_name(goal)
        report = ProofChecker(defs, oracle).check(proof)
    except BudgetExceeded:
        raise
    except ReproError as exc:
        print(f"PROOF FAILED: {exc}")
        return 1
    print(report.summary())
    if args.show_proof:
        print()
        print(proof.pretty())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.operational.scheduler import RandomScheduler, simulate
    from repro.operational.step import OperationalSemantics

    defs = _load(args)
    env = environment_from_options(args.set, args.with_cancel)
    semantics = OperationalSemantics(defs, env, sample=args.sample)
    run = simulate(
        process_target(defs, args.process),
        semantics,
        max_steps=args.steps,
        scheduler=RandomScheduler(seed=args.seed),
    )
    for event in run.full_history:
        print("  τ (internal)" if event is None else f"  {event!r}")
    if run.deadlocked:
        print("DEADLOCK: no transition available")
        return 1
    return 0


def cmd_deadlocks(args: argparse.Namespace) -> int:
    from repro.operational.explorer import Explorer
    from repro.operational.step import OperationalSemantics
    from repro.report import format_traces, render_partial

    defs = _load(args)
    env = environment_from_options(args.set, args.with_cancel)
    semantics = OperationalSemantics(defs, env, sample=args.sample)
    report = Explorer(semantics).deadlock_report(
        process_target(defs, args.process), args.depth
    )
    if report.trip is not None:
        print(
            f"PARTIAL: search stopped early with {len(report.deadlocks)} "
            f"deadlocking trace(s) found so far:"
        )
        if report.deadlocks:
            print(format_traces(report.deadlocks))
        print(render_partial(report.trip), file=sys.stderr)
        return EXIT_BUDGET
    if not report.deadlocks:
        print(
            f"no deadlock reachable within {args.depth} visible events "
            f"({report.states_touched} states touched)"
        )
        return 0
    print(
        f"{len(report.deadlocks)} deadlocking trace(s) "
        f"({report.states_touched} states touched):"
    )
    print(format_traces(report.deadlocks))
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.server.supervisor import Supervisor

    supervisor = Supervisor(
        args.socket,
        jobs=args.jobs,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        grace=args.grace,
        max_attempts=args.max_attempts,
        max_requests=args.max_requests,
        inject=args.inject,
    )

    def _terminate(signum, frame):
        supervisor.request_stop()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    print(
        f"repro serve: {args.jobs} worker(s) on {args.socket}",
        file=sys.stderr,
    )
    supervisor.serve_forever()
    return 0


def _at_least(minimum, kind=int, exclusive=False):
    """An argparse ``type`` for a finite ``kind`` number no smaller than
    ``minimum`` (greater than it, with ``exclusive``): out of range is a
    usage error (exit 2), not a traceback or a wrong answer."""

    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < minimum or (exclusive and value == minimum):
            bound = "greater than" if exclusive else "at least"
            raise argparse.ArgumentTypeError(
                f"must be {bound} {minimum}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSP partial-correctness toolkit (Zhou & Hoare 1981)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def debug_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--debug",
            action="store_true",
            help="re-raise errors with full tracebacks instead of one-line "
            "stderr summaries",
        )

    def budget_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deadline",
            type=_at_least(0, float),
            metavar="SECONDS",
            help="wall-clock budget; exceeded → partial result, exit 4",
        )
        p.add_argument(
            "--max-nodes",
            type=_at_least(0),
            metavar="N",
            help="budget of freshly interned trie nodes",
        )
        p.add_argument(
            "--max-states",
            type=_at_least(0),
            metavar="N",
            help="budget of explored operational configurations",
        )

    def common(p: argparse.ArgumentParser, engine: bool = False) -> None:
        p.add_argument("file", help="definitions file in the paper's notation")
        p.add_argument("--process", help="process name (default: last equation)")
        p.add_argument(
            "--depth", type=_at_least(0), default=5, help="trace depth bound"
        )
        p.add_argument(
            "--sample", type=_at_least(1), default=2, help="values per infinite set"
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="NAME=v1,v2",
            help="bind a named message set (repeatable)",
        )
        p.add_argument(
            "--with-cancel",
            metavar="NAME",
            help="bind the §2.2 cancellation function under this name",
        )
        if engine:
            p.add_argument(
                "--engine",
                choices=("denotational", "operational"),
                default="denotational",
            )
            p.add_argument(
                "--cache-dir",
                metavar="DIR",
                help="snapshot cache directory (default: ~/.cache/repro)",
            )
            p.add_argument(
                "--no-cache",
                action="store_true",
                help="neither read nor write the snapshot cache",
            )
        budget_flags(p)
        debug_flag(p)

    p = sub.add_parser("parse", help="parse and pretty-print definitions")
    p.add_argument("file")
    debug_flag(p)
    p.set_defaults(func=cmd_parse)

    def server_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--server",
            metavar="SOCKET",
            help="route the query to a repro serve daemon at this unix "
            "socket instead of computing locally",
        )

    p = sub.add_parser("traces", help="enumerate bounded traces")
    common(p, engine=True)
    server_flag(p)
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("check", help="model-check P sat R")
    common(p, engine=True)
    server_flag(p)
    p.add_argument(
        "--spec",
        action="append",
        required=True,
        help='assertion, e.g. "wire <= input" (repeatable: all '
        "assertions are checked against one warm solved system)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "stats",
        help="run a traces/check workload and report trace-trie kernel "
        "counters (interner size, memo hit rates)",
    )
    common(p, engine=True)
    p.add_argument(
        "--spec",
        help="optionally check this assertion instead of only denoting",
    )
    p.add_argument(
        "--explain-plan",
        action="store_true",
        help="print the engine's SCC condensation, the topological ranks "
        "it solves them in, and the levels each SCC's chain ran, instead "
        "of denoting",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("prove", help="prove P sat R with the §2.1 rules")
    common(p)
    p.add_argument(
        "--invariant",
        action="append",
        metavar="NAME=FORMULA",
        help="invariant annotation (repeatable; arrays: NAME:param=FORMULA)",
    )
    p.add_argument("--goal", help="name to prove (default: last equation)")
    p.add_argument("--show-proof", action="store_true", help="print the derivation")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("simulate", help="run one scheduled execution")
    common(p)
    p.add_argument("--steps", type=_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("deadlocks", help="search for reachable deadlocks")
    common(p)
    p.set_defaults(func=cmd_deadlocks)

    p = sub.add_parser(
        "serve",
        help="run a crash-tolerant verification daemon on a unix socket",
    )
    p.add_argument(
        "--socket", required=True, metavar="PATH", help="unix socket path"
    )
    p.add_argument(
        "--jobs",
        type=_at_least(1),
        default=2,
        metavar="N",
        help="worker processes, each holding a warm kernel (default 2)",
    )
    p.add_argument(
        "--queue-limit",
        type=_at_least(0),
        default=16,
        metavar="N",
        help="requests allowed to wait for a worker before the daemon "
        "sheds load with OVERLOADED / exit code 8 (default 16)",
    )
    p.add_argument(
        "--request-timeout",
        type=_at_least(0, float, exclusive=True),
        default=300.0,
        metavar="SECONDS",
        help="deadline for requests that carry no --deadline of their own",
    )
    p.add_argument(
        "--grace",
        type=_at_least(0, float, exclusive=True),
        default=2.0,
        metavar="SECONDS",
        help="slack past a request's deadline before its worker is "
        "presumed hung and SIGKILLed",
    )
    p.add_argument(
        "--max-attempts",
        type=_at_least(1),
        default=3,
        metavar="N",
        help="dispatch attempts per request across worker crashes",
    )
    p.add_argument(
        "--max-requests",
        type=_at_least(1),
        metavar="N",
        help="recycle a worker after serving this many requests",
    )
    p.add_argument("--inject", help=argparse.SUPPRESS)
    debug_flag(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "reproduce", help="run the paper-reproduction battery (E1–E10)"
    )
    p.add_argument("--quick", action="store_true", help="small bounds, seconds")
    budget_flags(p)
    debug_flag(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.report import render_report, run_experiments

    outcomes = run_experiments(quick=args.quick)
    print(render_report(outcomes, quick=args.quick))
    if any(o.partial for o in outcomes):
        return EXIT_BUDGET
    return 0 if all(o.ok for o in outcomes) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.report import render_partial

    parser = build_parser()
    args = parser.parse_args(argv)
    debug = getattr(args, "debug", False)
    budget = Budget.from_spec(vars(args))
    try:
        with activate(budget.start() if budget is not None else None):
            return args.func(args)
    except BudgetExceeded as exc:
        # Backstop for trips that escape a command's own partial-result
        # rendering (e.g. prove, simulate).
        if debug:
            raise
        print(render_partial(exc), file=sys.stderr)
        return EXIT_BUDGET
    except (ReproError, OSError) as exc:
        if debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
