"""The one query path: ``check``/``traces`` options in, a rendered verdict out.

``repro check|traces`` answer here, locally or — under ``--server`` — in
a ``repro serve`` worker, whose :func:`~repro.server.worker.run_query`
only checks the wire fields and keeps warm checkers.  ``repro stats``
builds its checker here too.  One copy of this code renders both sides,
so a served verdict is byte-identical to a local one.

*Options* are a mapping over the keyword fields of
:func:`repro.server.protocol.query` (``process``, ``depth``, ``sample``,
``sets``, ``with_cancel``, ``engine``, ``cache_dir``, ``no_cache``):
the CLI builds one from its flags, and a serve request already is one.
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.assertions.sequences import cancel_protocol
from repro.errors import BudgetExceeded, ParseError
from repro.process.ast import Name
from repro.runtime import governor as _governor
from repro.values.domains import FiniteDomain
from repro.values.environment import Environment


def _parse_value(text: str):
    """A ``--set`` value: an integer when it is ASCII ``-?[0-9]+``,
    otherwise a symbol (``ACK``, ``-``, ``--1``, ``²``)."""
    text = text.strip()
    if re.fullmatch(r"-?[0-9]+", text):
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


def open_cache(defs, config, options: Mapping[str, Any]):
    """A snapshot cache for this (definitions, config, bindings) situation,
    or ``None`` when caching is off.

    Governed or not, a query reads and writes the same
    ``traces:{engine}:{name}:d{depth}`` slots: a closure at a depth is
    a function of the definitions, config and bindings alone, so a run
    under a budget resumes from every depth an earlier run completed,
    and an unbudgeted run reads what a budgeted one finished.
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
    return SnapshotCache(directory, cache_key(defs, config, extra))


def open_checker(defs, options: Mapping[str, Any]):
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
        cache=open_cache(defs, config, options),
    )


class Answer(NamedTuple):
    """A rendered query: what ``repro`` prints and exits with, and the
    per-spec ``verdicts`` of a check batch."""

    stdout: str
    stderr: str
    exit_code: int
    verdicts: Tuple[dict, ...] = ()


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
            break
    return Answer(
        "\n".join(v["stdout"] for v in verdicts if v["stdout"]),
        "\n".join(v["stderr"] for v in verdicts if v["stderr"]),
        next((v["exit_code"] for v in verdicts if v["exit_code"]), 0),
        tuple(verdicts),
    )


def run(
    defs,
    op: str,
    specs: Sequence[str],
    options: Mapping[str, Any],
    checker_for: Callable[..., Any] = open_checker,
) -> Tuple[Answer, Any]:
    """Answer one query and save its cache; returns the answer and the
    cache.  ``checker_for(defs, options)`` supplies the checker (the
    serve worker passes its warm pool).  A query under the ambient
    governor runs in a fresh private arena, as a one-shot process does,
    so ``--max-nodes`` counts the same fresh nodes wherever it runs."""
    from repro.traces.trie import private_state

    target = process_target(defs, options.get("process") or None)
    governed = _governor.current() is not None
    with private_state() if governed else nullcontext():
        checker = checker_for(defs, options)
        try:
            return answer(checker, op, target, specs), checker.cache
        finally:
            if checker.cache is not None:
                checker.cache.save()
