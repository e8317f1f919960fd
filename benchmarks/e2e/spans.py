"""The traced run: per-layer self times from outside the program.

The replay sends the same seeded queries as the untraced run, but
in-process: ``repro.cli.main`` for cold-cli, ``repro.server.worker.
run_query`` (the serve worker's own query path) for the daemon
workloads.  While it runs, :func:`instrumented` wraps the public entry
of each layer in a span recorded by this module, so no code in ``src/``
changes.  Spans stay in memory and are written once at the end; each
records its name, start, end, parent span and query id, and a layer's
self time is its duration minus the time its child spans cover.

The replay rebuilds each workload's cache state from outside: the
worker's checker LRU is emptied and the set-up warm-up replayed
(deep-walk's per-situation checkers come back solved; explore's 14
round-robin situations miss the 8-entry LRU, so every query gets a
fresh checker), and cache-churn gets a fresh snapshot cache directory.
"""

from __future__ import annotations

import contextlib
import functools
import io
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import oracle
from benchmarks.e2e.drive import Session, child_env, warmup_queries
from benchmarks.e2e.workloads import Query, cli_argv

#: Layers in the order of a query's path.  ``cli`` and ``server.worker``
#: are the entry calls themselves; their self time is argument handling,
#: request decoding and response assembly.
LAYERS = (
    "cli",
    "server.protocol",
    "server.worker",
    "process.parse",
    "assertions.parse",
    "semantics.engine.plan",
    "semantics.engine.solve",
    "sat.supply",
    "sat.walk",
    "operational.explore",
    "traces.snapshot.load",
    "traces.snapshot.save",
    "traces.snapshot.export",
    "traces.snapshot.splice",
    "report.render",
)

#: The benchmark's own per-query root span; not a layer of the program.
QUERY = "query"


class Recorder:
    """Spans as ``[id, query, name, parent, start, end]`` rows, plus
    counters read at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.caches: List[Any] = []
        self.query: Optional[int] = None
        self._open: List[int] = []

    def enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, self.query, name, parent, time.perf_counter(), None])
        self._open.append(sid)
        return sid

    def leave(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for sid, _, name, _, start, end in self.spans:
            totals[name] += end - start - covered[sid]
        return totals

    def tree(self, origin: float) -> List[Dict[str, Any]]:
        return [
            {"id": sid, "query": query, "name": name, "parent": parent,
             "start": start - origin, "end": end - origin}
            for sid, query, name, parent, start, end in self.spans
        ]


def _span(rec: Recorder, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(sid)
        if after is not None:
            after(rec, args, result)
        return result

    return traced


def _count(name: str, read: Callable) -> Callable:
    def after(rec: Recorder, args: tuple, result: Any) -> None:
        rec.counts[name] += read(args, result)

    return after


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrap each layer's public call (and, where the caller holds its
    own reference, that reference) in a span for the duration."""
    import repro.cli as cli
    from repro import report
    from repro.operational.explorer import Explorer
    from repro.process import parser as process_parser
    from repro.sat import checker as sat
    from repro.semantics.engine import DenotationEngine
    from repro.server import protocol, worker
    from repro.traces import snapshot

    rendered = _count("report.stdout_bytes", lambda a, r: len(r[0].encode("utf-8")))
    states = _count("operational.states_touched", lambda a, r: a[0].states_touched)
    patches = [
        (cli, "main", "cli", None),
        (cli, "parse_definitions", "process.parse", None),
        (process_parser, "parse_definitions", "process.parse", None),
        (sat, "parse_assertion", "assertions.parse", None),
        (protocol, "query", "server.protocol", None),
        (worker, "run_query", "server.worker", None),
        # The public plan() is not on the query path; _plan is what
        # solving calls, once per engine.
        (DenotationEngine, "_plan", "semantics.engine.plan", None),
        (DenotationEngine, "bindings", "semantics.engine.solve",
         _count("semantics.engine.levels", lambda a, r: a[0].levels_computed())),
        (sat.SatChecker, "traces_of", "sat.supply", None),
        (sat.SatChecker, "check", "sat.walk",
         _count("sat.traces_checked", lambda a, r: r.traces_checked)),
        (Explorer, "visible_traces", "operational.explore", states),
        (Explorer, "deadlock_report", "operational.explore", states),
        (snapshot.SnapshotCache, "__init__", "traces.snapshot.load",
         lambda rec, a, r: rec.caches.append(a[0])),
        (snapshot.SnapshotCache, "save", "traces.snapshot.save", None),
        (snapshot, "export_segments", "traces.snapshot.export", None),
        (snapshot, "splice_segments", "traces.snapshot.splice", None),
        (report, "check_outcome", "report.render", rendered),
        (report, "traces_outcome", "report.render", rendered),
    ]
    originals = []
    try:
        for owner, attr, name, after in patches:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, _span(rec, name, original, after))
        yield rec
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# -- the in-process replay ---------------------------------------------------


def prepare(session: Session, count: int) -> None:
    """For daemon workloads, the state of a just-spawned serve worker
    after set-up: an empty checker LRU and arena, then the workload's
    warm-up queries.  For cold-cli, one untimed pass over the ``count``
    queries, so lazy imports and module-level caches are as warm for
    the untraced replay as for the traced one (a replayed one-shot
    query clears the arena itself)."""
    if not session.workload.jobs:
        for index in range(count):
            _answer(session, index, "")
        return
    from repro.server import worker
    from repro.traces.trie import clear_interner

    for table in (worker._CHECKERS, worker._WARM_ROOTS, worker._WARM_BLOBS):
        table.clear()
    clear_interner()
    for query in warmup_queries(session.workload.name, session.queries):
        worker.run_query(session.request(query, None))


def _answer(session: Session, index: int, tag: str) -> Tuple[Query, int, str]:
    """Answer the ``index``-th query in-process: its exit code and stdout."""
    query = session.queries[index % len(session.queries)]
    if session.workload.jobs == 0:
        import repro.cli as cli
        from repro.traces.trie import clear_interner

        clear_interner()  # a one-shot process starts with an empty arena
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cli_argv(query, str(session.inputs / query.target.file)))
        return query, code, out.getvalue()
    from repro.server import worker

    request = session.request(query, session.cache_dir(index, tag))
    request["id"] = f"{tag}{index}"
    response = worker.run_query(request)
    return query, int(response["exit_code"]), response.get("stdout") or ""


def replay(
    session: Session, count: int, tag: str, rec: Optional[Recorder] = None
) -> Tuple[float, List[float], List[str]]:
    """Replay the first ``count`` queries after :func:`prepare`; returns
    wall time, per-query latencies and reference mismatches."""
    latencies: List[float] = []
    errors: List[str] = []
    started = time.perf_counter()
    for index in range(count):
        begin = time.perf_counter()
        if rec is None:
            answer = _answer(session, index, tag)
        else:
            rec.query = index
            sid = rec.enter(QUERY)
            answer = _answer(session, index, tag)
            rec.leave(sid)
        latencies.append(time.perf_counter() - begin)
        error = oracle.mismatch(session.expected, *answer)
        if error is not None:
            errors.append(error)
    return time.perf_counter() - started, latencies, errors


# -- measurements outside the replay -----------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def startup(root: Path, reps: int) -> Dict[str, float]:
    """``python -c "import repro.cli"`` wall time (median of ``reps``)
    and numpy's cumulative share of it from ``-X importtime``."""
    env = child_env(root)
    walls = []
    for _ in range(reps):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=root, env=env,
                       check=True)
        walls.append(time.perf_counter() - begin)
    profile = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=root, env=env, check=True, capture_output=True, text=True,
    )
    numpy_us = 0
    for line in profile.stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(2) == "numpy":
            numpy_us = int(match.group(1))
    return {
        "startup.import_s": statistics.median(walls),
        "startup.numpy_import_s": numpy_us / 1e6,
    }


def server_probe(session: Session, pings: int = 20) -> Dict[str, float]:
    """Median ``ServerClient.ping`` round trip (0 without a daemon)."""
    if session.daemon is None:
        return {"server.ping_s": 0.0}
    walls = []
    for _ in range(pings):
        begin = time.perf_counter()
        session.daemon.client.ping()
        walls.append(time.perf_counter() - begin)
    return {"server.ping_s": statistics.median(walls)}


def server_counters(session: Session) -> Dict[str, int]:
    if session.daemon is None:
        return {"ships": 0, "shared_systems": 0, "retries": 0, "shed": 0}
    stats = session.daemon.client.stats()
    return {k: int(stats[k]) for k in ("ships", "shared_systems", "retries", "shed")}


def _kernel_counters() -> Dict[str, int]:
    from repro.traces.stats import KERNEL_STATS

    snap = KERNEL_STATS.snapshot()
    return {
        "hits": snap["interner"]["hits"],
        "misses": snap["interner"]["misses"],
        "delta_queries": snap["delta"]["queries"],
        "spliced_bytes": snap["spliced"]["bytes"],
    }


def traced_run(session: Session, seconds: float, import_reps: int):
    """Measure the per-layer metrics; returns ``(metrics, spans document,
    attempted, errors)``."""
    metrics: Dict[str, float] = startup(session.root, import_reps)
    metrics.update(server_probe(session))
    before = server_counters(session)
    outcomes = session.timed(seconds / 3)
    after = server_counters(session)
    for key in ("ships", "retries", "shed"):
        metrics[f"server.{key}"] = after[key] - before[key]
    metrics["server.shared_systems"] = after["shared_systems"]
    if session.daemon is not None:
        session.daemon.stop()
        session.daemon = None
    count = len(outcomes)
    errors = [o.error for o in outcomes if o.error]

    prepare(session, count)
    wall_b, latencies_b, errors_b = replay(session, count, "b")
    prepare(session, count)
    rec = Recorder()
    kernel_before = _kernel_counters()
    with instrumented(rec):
        origin = time.perf_counter()
        wall_c, _, errors_c = replay(session, count, "c", rec)
    kernel = {k: v - kernel_before[k] for k, v in _kernel_counters().items()}
    errors += errors_b + errors_c

    totals = rec.self_times()
    for layer in LAYERS:
        metrics[f"{layer}_s"] = totals.get(layer, 0.0) / count
    metrics["semantics.engine.levels"] = rec.counts["semantics.engine.levels"] / count
    metrics["sat.traces_checked"] = rec.counts["sat.traces_checked"] / count
    walk = totals.get("sat.walk", 0.0)
    metrics["sat.walk_traces_per_s"] = rec.counts["sat.traces_checked"] / walk if walk else 0.0
    metrics["operational.states_touched"] = rec.counts["operational.states_touched"] / count
    lookups = kernel["hits"] + kernel["misses"]
    metrics["traces.interner_misses"] = kernel["misses"] / count
    metrics["traces.interner_hit_rate"] = kernel["hits"] / lookups if lookups else 0.0
    metrics["traces.delta_queries"] = kernel["delta_queries"] / count
    metrics["traces.spliced_bytes"] = kernel["spliced_bytes"] / count
    hits = sum(c.hits for c in rec.caches)
    misses = sum(c.misses for c in rec.caches)
    metrics["traces.snapshot.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    files = {c.path for c in rec.caches if c.path.exists()}
    metrics["traces.snapshot.file_bytes"] = (
        sum(p.stat().st_size for p in files) / len(files) if files else 0.0
    )
    metrics["report.stdout_bytes"] = rec.counts["report.stdout_bytes"] / count
    metrics["server.overhead_s"] = statistics.median(
        a.latency - b for a, b in zip(outcomes, latencies_b)
    )
    metrics["trace.overhead_share"] = wall_c / wall_b - 1.0
    named = sum(totals.get(layer, 0.0) for layer in LAYERS)
    metrics["trace.coverage_share"] = named / wall_c

    document = {
        "workload": session.workload.name,
        "seed": session.seed,
        "queries": count,
        "wall_s": wall_c,
        "untraced_wall_s": wall_b,
        "layers": {
            name: {"self_s": total, "share": total / wall_c}
            for name, total in sorted(totals.items(), key=lambda kv: -kv[1])
        },
        "spans": rec.tree(origin),
    }
    return metrics, document, 3 * count, errors  # phase A plus two replays
