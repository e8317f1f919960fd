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

``traces``/``check``/``stats`` run on the dependency-graph denotation
engine: ``--jobs N`` forks independent fixpoint components to worker
processes, each solving into a private arena whose results are spliced
back into the canonical store (sequential on hosts without ``fork``;
verdicts are byte-identical either way), and solved closures are
snapshotted under ``~/.cache/repro`` (override with ``--cache-dir``,
disable with ``--no-cache``) so repeated invocations on the same system
warm-start.
``--engine operational`` warm-starts too: the explorer persists its BFS
frontier per completed level (``frontier:{name}@level{k}`` slots in the
same snapshot file), so a second run resumes from the deepest sound
frontier instead of the initial state — ``repro stats`` reports the
reuse as ``frontier_reused``.
``check`` accepts ``--spec`` repeatedly: all assertions are checked
against one warm solved system, verdicts printed in order, and the exit
code is the first failing assertion's.  ``stats --explain-plan`` prints
the engine's SCC schedule and per-level delta/cache account.

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
``check``/``traces`` at it with ``--server PATH`` — verdict text and
exit codes are identical to a local run, just without the cold start.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.assertions.parser import parse_assertion
from repro.assertions.sequences import cancel_protocol
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
from repro.runtime.governor import Budget, Governor, activate
from repro.runtime import governor as _governor
from repro.values.domains import FiniteDomain
from repro.values.environment import Environment


def _parse_value(text: str):
    text = text.strip()
    if text.lstrip("-").isdigit():
        return int(text)
    return text


def environment_from_options(
    sets: Sequence[str], with_cancel: Optional[str] = None
) -> Environment:
    """The value environment for ``--set``/``--with-cancel`` bindings —
    shared with :mod:`repro.server.worker`, which replays a client's
    options server-side so both sides bind identically."""
    env = Environment()
    for binding in sets or []:
        name, sep, values = binding.partition("=")
        if not sep:
            raise ParseError(f"--set expects NAME=v1,v2,…  got {binding!r}")
        env = env.bind(
            name.strip(), FiniteDomain(_parse_value(v) for v in values.split(","))
        )
    if with_cancel:
        env = env.bind(with_cancel, cancel_protocol)
    return env


def _build_env(args: argparse.Namespace) -> Environment:
    return environment_from_options(args.set or [], args.with_cancel)


def _open_cache(args: argparse.Namespace, defs, config):
    """A snapshot cache for this (definitions, config, bindings) situation,
    or ``None`` when caching is off.

    Under a budget governor the cache runs in **checkpoint-only** mode:
    it serves and records nothing but ``fix:{name}@level{k}`` slots —
    the per-completed-depth closures of the governed deepening schedule.
    Each such slot is deterministic given the definitions and config
    (never depends on where a budget tripped), so a tripped run resumes
    from its own checkpoints on the next invocation while "how far did
    the budget reach" stays invocation-deterministic; the general slot
    vocabulary stays reserved for ungoverned runs.
    """
    if getattr(args, "no_cache", False):
        return None
    from repro.traces.snapshot import SnapshotCache, cache_key

    directory = (
        Path(args.cache_dir)
        if getattr(args, "cache_dir", None)
        else Path.home() / ".cache" / "repro"
    )
    extra = {
        "sets": sorted(args.set or []),
        "with_cancel": args.with_cancel,
    }
    return SnapshotCache(
        directory,
        cache_key(defs, config, extra),
        checkpoint_only=_governor.current() is not None,
    )


def _build_governor(args: argparse.Namespace) -> Optional[Governor]:
    """A governor for the budget flags, or ``None`` when none were given."""
    deadline = getattr(args, "deadline", None)
    max_nodes = getattr(args, "max_nodes", None)
    max_states = getattr(args, "max_states", None)
    if deadline is None and max_nodes is None and max_states is None:
        return None
    return Budget(
        deadline=deadline, max_nodes=max_nodes, max_states=max_states
    ).start()


def _load(args: argparse.Namespace):
    with open(args.file, "r", encoding="utf-8") as handle:
        source = handle.read()
    return parse_definitions(source)


def process_target(defs, name: Optional[str]) -> Name:
    """The ``--process`` target (default: the last equation, e.g. the
    network) — shared with :mod:`repro.server.worker` so an unknown name
    fails with the same error line locally and under ``serve``."""
    if name is None:
        name = list(defs)[-1].name
    if name not in defs:
        raise ParseError(
            f"no process named {name!r}; defined: {sorted(defs.names())}"
        )
    return Name(name)


def _print_traces(closure) -> None:
    for trace in closure:
        inner = ", ".join(repr(e) for e in trace)
        print(f"  ⟨{inner}⟩")


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


def _remote(args: argparse.Namespace, op: str) -> int:
    """Route a ``check``/``traces`` invocation to a ``repro serve``
    daemon.  The file is still parsed locally (syntax errors stay local
    and fast); the AST travels serialised, and the response carries the
    exact stdout/stderr a local run would have printed."""
    from repro.server.client import ServerClient

    defs = _load(args)
    deadline = getattr(args, "deadline", None)
    max_nodes = getattr(args, "max_nodes", None)
    max_states = getattr(args, "max_states", None)
    budget = None
    if deadline is not None or max_nodes is not None or max_states is not None:
        budget = Budget(
            deadline=deadline, max_nodes=max_nodes, max_states=max_states
        )
    kwargs = dict(
        process=args.process,
        depth=args.depth,
        sample=args.sample,
        sets=args.set or [],
        with_cancel=args.with_cancel,
        engine=args.engine,
        jobs=args.jobs,
        budget=budget,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    )
    with ServerClient(args.server) as client:
        if op == "check":
            response = client.check(defs, args.spec, **kwargs)
        else:
            response = client.traces(defs, **kwargs)
    return _emit(
        response.get("stdout") or "",
        response.get("stderr") or "",
        int(response.get("exit_code", 0)),
    )


def cmd_traces(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote(args, "traces")
    from repro.report import traces_outcome
    from repro.sat.checker import SatChecker
    from repro.semantics.config import SemanticsConfig

    defs = _load(args)
    env = _build_env(args)
    config = SemanticsConfig(depth=args.depth, sample=args.sample)
    cache = _open_cache(args, defs, config)
    checker = SatChecker(
        defs, env, config, engine=args.engine, jobs=args.jobs, cache=cache
    )
    result = checker.traces_partial(process_target(defs, args.process))
    if cache is not None:
        cache.save()
    return _emit(*traces_outcome(result, args.depth, args.engine))


def cmd_check(args: argparse.Namespace) -> int:
    if getattr(args, "server", None):
        return _remote(args, "check")
    from repro.report import check_outcome
    from repro.sat.checker import SatChecker
    from repro.semantics.config import SemanticsConfig

    defs = _load(args)
    env = _build_env(args)
    config = SemanticsConfig(depth=args.depth, sample=args.sample)
    cache = _open_cache(args, defs, config)
    checker = SatChecker(
        defs, env, config, engine=args.engine, jobs=args.jobs, cache=cache
    )
    target = process_target(defs, args.process)
    # A repeated --spec is a batch: every assertion runs against the
    # same warm solved system, and the rendering rules (newline-joined
    # non-empty outputs, first non-zero exit code, a budget trip ends
    # the batch) mirror repro.server.worker.run_query exactly so local
    # and remote invocations stay byte-identical.
    outcomes = []
    try:
        for spec in args.spec:
            try:
                result = checker.check(target, spec)
            except BudgetExceeded as exc:
                outcomes.append(check_outcome(target.name, spec, trip=exc))
                break
            outcomes.append(
                check_outcome(target.name, spec, result=result, depth=args.depth)
            )
    finally:
        if cache is not None:
            cache.save()
    stdout = "\n".join(out for out, _, _ in outcomes if out)
    stderr = "\n".join(err for _, err, _ in outcomes if err)
    code = next((c for _, _, c in outcomes if c), 0)
    return _emit(stdout, stderr, code)


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.report import render_partial
    from repro.sat.checker import SatChecker
    from repro.semantics.config import SemanticsConfig
    from repro.traces.stats import format_stats, reset_stats

    defs = _load(args)
    env = _build_env(args)
    reset_stats()
    config = SemanticsConfig(depth=args.depth, sample=args.sample)
    cache = _open_cache(args, defs, config)
    checker = SatChecker(
        defs, env, config, engine=args.engine, jobs=args.jobs, cache=cache
    )
    target = process_target(defs, args.process)
    code = 0
    try:
        if args.explain_plan:
            from repro.semantics.engine import DenotationEngine

            engine = DenotationEngine(
                defs, env, config, jobs=args.jobs, cache=cache
            )
            print(engine.explain())
        elif args.spec:
            result = checker.check(target, args.spec)
            verdict = "HOLDS" if result.holds else "VIOLATED"
            print(
                f"{verdict}: {target.name} sat {args.spec}  "
                f"({result.traces_checked} traces, depth ≤ {args.depth})"
            )
        else:
            closure = checker.traces_of(target)
            print(
                f"{target.name}: {len(closure)} traces in {closure.node_count()} "
                f"trie nodes (depth ≤ {args.depth}, engine {args.engine})"
            )
    except BudgetExceeded as exc:
        print(render_partial(exc), file=sys.stderr)
        code = EXIT_BUDGET
    finally:
        if cache is not None:
            cache.save()
    if cache is not None:
        # All branches report the cache account — the operational side's
        # frontier slots hit/miss through the same counters.
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
    env = _build_env(args)
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
    env = _build_env(args)
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
    from repro.report import render_partial

    defs = _load(args)
    env = _build_env(args)
    semantics = OperationalSemantics(defs, env, sample=args.sample)
    try:
        report = Explorer(semantics).deadlock_report(
            process_target(defs, args.process), args.depth
        )
    except BudgetExceeded as exc:
        checkpoint = exc.checkpoint
        payload = (
            checkpoint.payload
            if checkpoint is not None and isinstance(checkpoint.payload, dict)
            else {}
        )
        found = tuple(payload.get("deadlocks") or ())
        print(
            f"PARTIAL: search stopped early with {len(found)} deadlocking "
            f"trace(s) found so far:"
        )
        _print_traces(found)
        print(render_partial(exc), file=sys.stderr)
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
    _print_traces(report.deadlocks)
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
            type=float,
            metavar="SECONDS",
            help="wall-clock budget; exceeded → partial result, exit 4",
        )
        p.add_argument(
            "--max-nodes",
            type=int,
            metavar="N",
            help="budget of freshly interned trie nodes",
        )
        p.add_argument(
            "--max-states",
            type=int,
            metavar="N",
            help="budget of explored operational configurations",
        )

    def common(p: argparse.ArgumentParser, engine: bool = False) -> None:
        p.add_argument("file", help="definitions file in the paper's notation")
        p.add_argument("--process", help="process name (default: last equation)")
        p.add_argument("--depth", type=int, default=5, help="trace depth bound")
        p.add_argument("--sample", type=int, default=2, help="values per infinite set")
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
                "--jobs",
                type=int,
                default=1,
                metavar="N",
                help="forked worker processes for independent fixpoint "
                "components (sequential where fork is unavailable)",
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
        help="print the engine's SCC condensation, topological ranks, and "
        "per-level delta-skip / cache-hit account instead of denoting",
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
    p.add_argument("--steps", type=int, default=20)
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
        type=int,
        default=2,
        metavar="N",
        help="worker processes, each holding a warm kernel (default 2)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        metavar="N",
        help="requests allowed to wait for a worker before the daemon "
        "sheds load with OVERLOADED / exit code 8 (default 16)",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="deadline for requests that carry no --deadline of their own",
    )
    p.add_argument(
        "--grace",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="slack past a request's deadline before its worker is "
        "presumed hung and SIGKILLed",
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="dispatch attempts per request across worker crashes",
    )
    p.add_argument(
        "--max-requests",
        type=int,
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
    governor = _build_governor(args)
    try:
        with activate(governor):
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
