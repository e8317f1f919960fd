"""Observability counters for the trace-trie kernel.

Every hash-consed node construction and every per-operator memo table in
:mod:`repro.traces.trie` and :mod:`repro.traces.operations` reports into
the process-wide :class:`KernelStats` singleton.  The counters answer the
questions every later performance PR needs answered first:

* how large is the arena (distinct subtrees alive, flat segment bytes)?
* how often does hash-consing pay (packed-key interner hits vs. fresh
  nodes appended)?
* which operator memo tables are hot, and what are their hit rates?

``repro stats`` (the CLI subcommand) prints :func:`format_stats` after a
denotation or sat-check run; benchmarks snapshot/reset around timed
sections so numbers are attributable to one workload.
"""

from __future__ import annotations

from typing import Dict

#: The scalar counters :meth:`KernelStats.work` ships across a fork.
_WORK_COUNTERS = ("delta_queries", "delta_capped", "frontier_nodes")


class MemoStats:
    """Hit/miss counters for one operator's memo table."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


class KernelStats:
    """Process-wide kernel counters (one instance: :data:`KERNEL_STATS`)."""

    __slots__ = (
        "interner_hits",
        "interner_misses",
        "memos",
        "delta_queries",
        "delta_capped",
        "frontier_nodes",
        "spliced_ids",
        "spliced_bytes",
        "remap_entries",
    )

    def __init__(self) -> None:
        self.interner_hits = 0
        self.interner_misses = 0
        self.memos: Dict[str, MemoStats] = {}
        #: Delta-frontier walks performed (``delta_depth``/``delta_nodes``).
        self.delta_queries = 0
        #: Walks abandoned at :data:`repro.traces.trie.DELTA_WALK_CAP` —
        #: each one degraded a potential skip to a full re-denotation.
        self.delta_capped = 0
        #: Fresh subtrees enumerated across all frontier walks.
        self.frontier_nodes = 0
        #: Node ids admitted through :meth:`Arena.append_rows` — segments
        #: spliced wholesale from a snapshot, a worker process, or a
        #: shared solved-system payload (never row-by-row interning).
        self.spliced_ids = 0
        #: Raw segment bytes those splices appended (edge tables, spans,
        #: counts, heights) — the cross-process shared-memory traffic.
        self.spliced_bytes = 0
        #: Non-trivial id remappings performed by
        #: :func:`repro.traces.trie.reintern` — the total size of the
        #: foreign-id → canonical-id tables built when closures cross
        #: kernel states.
        self.remap_entries = 0

    # -- recording ---------------------------------------------------------

    def memo(self, operator: str) -> MemoStats:
        """The counters for ``operator``, created on first use."""
        try:
            return self.memos[operator]
        except KeyError:
            stats = self.memos[operator] = MemoStats()
            return stats

    # -- shipping work across a fork ----------------------------------------

    def work(self) -> Dict[str, object]:
        """The *work* counters a forked engine child ships to its parent:
        delta walks, capped walks, fresh frontier nodes, and per-operator
        memo hits/misses, as a JSON-shaped copy.  Gauges (nodes alive,
        arena bytes) and splice traffic are left out: the parent's own
        arena and splice account for those."""
        work: Dict[str, object] = {
            key: getattr(self, key) for key in _WORK_COUNTERS
        }
        work["memos"] = {
            name: [stats.hits, stats.misses]
            for name, stats in self.memos.items()
        }
        return work

    def work_since(self, before: Dict[str, object]) -> Dict[str, object]:
        """The work counted since ``before`` (an earlier :meth:`work`)."""
        now = self.work()
        delta: Dict[str, object] = {
            key: now[key] - before[key] for key in _WORK_COUNTERS
        }
        memos = {}
        for name, (hits, misses) in now["memos"].items():
            hits0, misses0 = before["memos"].get(name, (0, 0))
            if hits != hits0 or misses != misses0:
                memos[name] = [hits - hits0, misses - misses0]
        delta["memos"] = memos
        return delta

    def add_work(self, delta: Dict[str, object]) -> None:
        """Count a :meth:`work_since` delta shipped from a child."""
        for key in _WORK_COUNTERS:
            setattr(self, key, getattr(self, key) + int(delta.get(key, 0)))
        for name, (hits, misses) in delta.get("memos", {}).items():
            stats = self.memo(name)
            stats.hits += int(hits)
            stats.misses += int(misses)

    # -- reporting ---------------------------------------------------------

    def interner_size(self) -> int:
        """Distinct subtrees currently interned."""
        from repro.traces.trie import interner_size

        return interner_size()

    def arena_info(self) -> Dict[str, int]:
        """The current kernel state's arena account (see
        :func:`repro.traces.trie.arena_info`)."""
        from repro.traces.trie import arena_info

        return arena_info()

    def snapshot(self) -> Dict[str, object]:
        """All counters as a JSON-friendly dict."""
        lookups = self.interner_hits + self.interner_misses
        return {
            "interner": {
                "size": self.interner_size(),
                "hits": self.interner_hits,
                "misses": self.interner_misses,
                "hit_rate": round(self.interner_hits / lookups, 4) if lookups else 0.0,
            },
            "arena": dict(self.arena_info()),
            "memos": {
                name: stats.as_dict() for name, stats in sorted(self.memos.items())
            },
            "delta": {
                "queries": self.delta_queries,
                "capped": self.delta_capped,
                "frontier_nodes": self.frontier_nodes,
            },
            "spliced": {
                "ids": self.spliced_ids,
                "bytes": self.spliced_bytes,
                "remap_entries": self.remap_entries,
            },
        }

    def reset(self) -> None:
        """Zero every counter (the interner itself is cleared separately by
        :func:`repro.traces.trie.clear_interner`)."""
        self.interner_hits = 0
        self.interner_misses = 0
        self.memos.clear()
        self.delta_queries = 0
        self.delta_capped = 0
        self.frontier_nodes = 0
        self.spliced_ids = 0
        self.spliced_bytes = 0
        self.remap_entries = 0


#: The process-wide counter registry.
KERNEL_STATS = KernelStats()


def reset_stats() -> None:
    """Zero all kernel counters."""
    KERNEL_STATS.reset()


def snapshot() -> Dict[str, object]:
    """Current counters as a JSON-friendly dict."""
    return KERNEL_STATS.snapshot()


def format_stats() -> str:
    """Human-readable counter report (the body of ``repro stats``)."""
    snap = KERNEL_STATS.snapshot()
    interner = snap["interner"]
    arena = snap["arena"]
    lines = [
        "trace-trie kernel statistics",
        f"  interner: {interner['size']} nodes alive, "
        f"{interner['hits']} packed-key hits / {interner['misses']} misses "
        f"(hit rate {interner['hit_rate']:.1%})",
        f"  arena: {arena['nodes']} nodes, {arena['edges']} edges in "
        f"{arena['segment_bytes']} segment bytes; id tables: "
        f"{arena['events']} events, {arena['channels']} channels; "
        f"{arena['views']} views materialised",
    ]
    memos = snap["memos"]
    if memos:
        lines.append("  memo tables:")
        width = max(len(name) for name in memos)
        for name, stats in memos.items():
            lines.append(
                f"    {name:<{width}}  hits={stats['hits']:<8} "
                f"misses={stats['misses']:<8} hit rate {stats['hit_rate']:.1%}"
            )
    else:
        lines.append("  memo tables: (no operator calls recorded)")
    delta = snap["delta"]
    if delta["queries"]:
        lines.append(
            f"  delta frontiers: {delta['queries']} walks, "
            f"{delta['frontier_nodes']} fresh nodes enumerated, "
            f"{delta['capped']} capped"
        )
    spliced = snap["spliced"]
    if spliced["ids"] or spliced["remap_entries"]:
        lines.append(
            f"  spliced segments: {spliced['ids']} ids in "
            f"{spliced['bytes']} bytes appended via bulk splice, "
            f"{spliced['remap_entries']} remap-table entries"
        )
    return "\n".join(lines)
