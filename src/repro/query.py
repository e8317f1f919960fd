"""The one query path: ``check``/``traces`` options in, a rendered verdict out.

``repro check|traces`` answer here, locally or — under ``--server`` — in
a ``repro serve`` worker, whose :func:`~repro.server.worker.run_query`
only checks the wire fields and keeps warm checkers.  ``repro stats``
builds its checker here too.  One copy of this code renders both sides,
so a served verdict is byte-identical to a local one.

*Options* are a mapping over the keyword fields of
:func:`repro.server.protocol.query` (``process``, ``depth``, ``sample``,
``sets``, ``with_cancel``, ``engine``, ``jobs``, ``cache_dir``,
``no_cache``): the CLI builds one from its flags, and a serve request
already is one.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.assertions.sequences import cancel_protocol
from repro.errors import BudgetExceeded, ParseError
from repro.process.ast import Name
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
    """The value environment for ``--set``/``--with-cancel`` bindings.

    A name bound twice is rejected: the snapshot cache key sorts the
    bindings, so which one won would otherwise depend on flag order."""
    env = Environment()
    for binding in sets or []:
        name, sep, values = binding.partition("=")
        if not sep:
            raise ParseError(f"--set expects NAME=v1,v2,…  got {binding!r}")
        if name.strip() in env:
            raise ParseError(f"--set binds {name.strip()!r} more than once")
        env = env.bind(
            name.strip(), FiniteDomain(_parse_value(v) for v in values.split(","))
        )
    if with_cancel:
        env = env.bind(with_cancel, cancel_protocol)
    return env


def process_target(defs, name: Optional[str]) -> Name:
    """The ``--process`` target (default: the last equation, e.g. the
    network)."""
    if name is None:
        name = list(defs)[-1].name
    if name not in defs:
        raise ParseError(
            f"no process named {name!r}; defined: {sorted(defs.names())}"
        )
    return Name(name)


def open_cache(defs, config, options: Mapping[str, Any], governed: bool):
    """A snapshot cache for this (definitions, config, bindings) situation,
    or ``None`` when caching is off.

    A governed query's cache is **checkpoint-only**: it serves and
    records nothing but ``fix:{name}@level{k}`` slots — the
    per-completed-depth closures of the governed deepening schedule.
    Each such slot is deterministic given the definitions and config
    (never depends on where a budget tripped), so a tripped run resumes
    from its own checkpoints on the next invocation while "how far did
    the budget reach" stays invocation-deterministic; the general slot
    vocabulary stays reserved for ungoverned runs.
    """
    if options.get("no_cache"):
        return None
    from repro.traces.snapshot import SnapshotCache, cache_key

    directory = (
        Path(options["cache_dir"])
        if options.get("cache_dir")
        else Path.home() / ".cache" / "repro"
    )
    extra = {
        "sets": sorted(options.get("sets") or []),
        "with_cancel": options.get("with_cancel"),
    }
    return SnapshotCache(
        directory, cache_key(defs, config, extra), checkpoint_only=governed
    )


def open_checker(defs, options: Mapping[str, Any], governed: bool):
    """The :class:`~repro.sat.checker.SatChecker` for one query; its
    cache, from :func:`open_cache`, is ``checker.cache``."""
    from repro.sat.checker import SatChecker
    from repro.semantics.config import SemanticsConfig

    config = SemanticsConfig(
        depth=int(options.get("depth", 5)), sample=int(options.get("sample", 2))
    )
    env = environment_from_options(
        options.get("sets") or [], options.get("with_cancel")
    )
    return SatChecker(
        defs,
        env,
        config,
        engine=options.get("engine", "denotational"),
        jobs=int(options.get("jobs") or 1),
        cache=open_cache(defs, config, options, governed),
    )


class Answer(NamedTuple):
    """A rendered query: what ``repro`` prints and exits with, the
    per-spec ``verdicts`` of a check batch, and the checkpoint slots a
    budget trip left to resume from."""

    stdout: str
    stderr: str
    exit_code: int
    verdicts: Tuple[dict, ...] = ()
    resume_slots: Tuple[str, ...] = ()


def answer(checker, op: str, target: Name, specs: Sequence[str] = ()) -> Answer:
    """Run a ``check`` batch or a ``traces`` listing on ``checker`` and
    render it.

    Every spec of a batch runs against the same checker, so the system
    is solved once and later specs pay only the sat walk.  Outputs are
    joined by newlines, the exit code is the first non-zero one, and a
    budget trip ends the batch (soundly partial)."""
    # Looked up per call: a traced replay wraps the report functions.
    from repro import report

    depth = checker.config.depth
    if op == "traces":
        partial = checker.traces_partial(target)
        return Answer(*report.traces_outcome(partial, depth, checker.engine))
    verdicts = []
    resume_slots: Tuple[str, ...] = ()
    for spec in specs:
        result = trip = None
        try:
            result = checker.check(target, spec)
        except BudgetExceeded as exc:
            trip = exc
        out, err, code = report.check_outcome(
            target.name, spec, result=result, trip=trip, depth=depth
        )
        verdicts.append(
            {"spec": spec, "exit_code": code, "stdout": out, "stderr": err}
        )
        if trip is not None:
            if trip.checkpoint is not None:
                resume_slots = trip.checkpoint.resume_slots()
            break
    return Answer(
        "\n".join(v["stdout"] for v in verdicts if v["stdout"]),
        "\n".join(v["stderr"] for v in verdicts if v["stderr"]),
        next((v["exit_code"] for v in verdicts if v["exit_code"]), 0),
        tuple(verdicts),
        resume_slots,
    )


def run(
    defs,
    op: str,
    specs: Sequence[str],
    options: Mapping[str, Any],
    governed: bool,
    checker_for: Callable[..., Any] = open_checker,
) -> Tuple[Answer, Any]:
    """Answer one query and save its cache; returns the answer and the
    cache.  ``checker_for(defs, options, governed)`` supplies the checker
    (the serve worker passes its warm pool).  A governed query runs in a
    fresh private arena, as a one-shot process does, so ``--max-nodes``
    counts the same fresh nodes wherever it runs."""
    from repro.traces.trie import private_state

    target = process_target(defs, options.get("process") or None)
    with private_state() if governed else nullcontext():
        checker = checker_for(defs, options, governed)
        try:
            return answer(checker, op, target, specs), checker.cache
        finally:
            if checker.cache is not None:
                checker.cache.save()
