"""Dependency-graph denotation engine — SCC-scheduled §3.3 fixpoints.

:class:`~repro.semantics.fixpoint.ApproximationChain` iterates the whole
definition list as one monolithic chain: every level re-denotes every
definition.  But the fixpoint the paper constructs is over a *system* of
equations whose coupling structure is a graph, and chaotic iteration
theory says any fair per-component schedule reaches the same least
fixpoint.  :class:`DenotationEngine` exploits that:

1. **Plan** — build the entry-level call graph (one unknown per plain
   definition, one per sampled array subscript;
   :func:`~repro.process.analysis.entry_dependencies`), condense it into
   SCCs, and order the SCCs topologically.
2. **Solve** — walk SCCs dependencies-first, rank by rank, one after
   another in the calling process.  A non-recursive SCC is a
   single definition with no self-reference: denote it *once* against
   its already-solved dependencies — no chain at all.  A recursive SCC
   runs a local chain from ⟦STOP⟧, but **delta-based**: level *i+1*
   re-denotes only members whose intra-SCC dependencies changed root at
   level *i* (an entry whose inputs are unchanged is already at its
   level-(i+1) value — denotation is a function of the bindings).
3. **Cache** — with a :class:`~repro.traces.snapshot.SnapshotCache`
   attached, solved roots are recorded per entry and whole SCCs whose
   members are all cached are skipped entirely on the next run.

The engine reproduces the monolithic chain *exactly* (same roots per
definition — the equivalence suite checks pointer identity), it just
refuses to pay for levels that cannot change anything.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.errors import BudgetExceeded, SemanticsError
from repro.process.analysis import (
    EntryKey,
    Scc,
    condense_entries,
    consult_depths,
    definition_entries,
    entry_dependencies,
    scc_ranks,
    uses_chan,
)
from repro.process.definitions import ArrayDef, DefinitionList
from repro.runtime import governor as _governor
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.traces import trie as _trie
from repro.traces.prefix_closure import STOP_CLOSURE, FiniteClosure
from repro.traces.snapshot import SnapshotCache, fix_slot
from repro.values.environment import Environment

#: Bound on per-SCC chain length — unreachable for guarded definitions at
#: finite depth (they stabilise within depth+1 levels), so hitting it
#: signals a configuration bug, mirroring ApproximationChain.
MAX_LEVELS = 1000


class _Poison:
    """Bound to definitions the plan says an SCC cannot reach.  Not a
    closure and not callable, so any consultation makes the Denoter fail
    loudly ("bound to a non-closure") instead of silently unfolding —
    a dependency-analysis bug must never be masked."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<unscheduled definition {self.name!r}>"


class LevelReport(NamedTuple):
    """One level of one SCC's local chain.

    ``skipped`` lists members skipped because *no* dependency changed;
    ``horizon`` lists members skipped by the sub-level delta analysis:
    dependencies did change, but only below the depth this member
    consults them at (:func:`~repro.process.analysis.consult_depths` vs.
    :func:`~repro.traces.trie.delta_depth`).
    """

    level: int
    redenoted: Tuple[str, ...]
    skipped: Tuple[str, ...]
    horizon: Tuple[str, ...] = ()


class SccReport(NamedTuple):
    """How one SCC was solved."""

    entries: Tuple[str, ...]
    rank: int
    recursive: bool
    cache_hit: bool
    levels: Tuple[LevelReport, ...]

    @property
    def redenoted(self) -> int:
        return sum(len(lv.redenoted) for lv in self.levels)

    @property
    def skipped(self) -> int:
        return sum(len(lv.skipped) + len(lv.horizon) for lv in self.levels)

    @property
    def horizon_skipped(self) -> int:
        return sum(len(lv.horizon) for lv in self.levels)


class DenotationEngine:
    """Solve a definition list's §3.3 fixpoint by dependency order.

    Drop-in source of the same results as
    :class:`~repro.semantics.fixpoint.ApproximationChain` —
    :meth:`fixpoint` / :meth:`closure_for` return closures whose roots
    are pointer-identical to the chain's — with SCC scheduling, delta
    iteration, and an optional persisted snapshot cache (``cache``).
    """

    def __init__(
        self,
        definitions: DefinitionList,
        env: Optional[Environment] = None,
        config: SemanticsConfig = DEFAULT_CONFIG,
        cache: Optional[SnapshotCache] = None,
    ) -> None:
        self.definitions = definitions
        self.env = env if env is not None else Environment()
        self.config = config
        self.cache = cache
        #: Internal solve depth — mirrors
        #: :class:`~repro.semantics.fixpoint.ApproximationChain`: ``chan``
        #: bodies consult bindings at ``hide_depth``, so chan-bearing
        #: definition lists are solved at ``hide_depth`` and truncated to
        #: ``config.depth`` at the export boundary (``fixpoint`` /
        #: ``closure_for`` / ``bindings``).
        self.solve_depth = config.depth
        if config.hide_depth > config.depth and any(
            uses_chan(d.body) for d in definitions
        ):
            self.solve_depth = config.hide_depth
        # Plan (built lazily by _plan).
        self._entries: Optional[List[EntryKey]] = None
        self._deps: Dict[EntryKey, Tuple[EntryKey, ...]] = {}
        self._sccs: List[Scc] = []
        self._ranks: List[int] = []
        self._sampled: Dict[str, Tuple[object, ...]] = {}
        # Solution state.
        self._resolved: Dict[EntryKey, FiniteClosure] = {}
        self._solved = False
        self.reports: List[SccReport] = []
        #: (entry, level) denotations actually performed — the unit the
        #: monolithic chain spends (levels × entries) of.
        self.redenoted_entries = 0
        #: (entry, level) denotations avoided because no intra-SCC
        #: dependency changed root at the previous level, or (sub-level
        #: deltas) changed only below the member's consult depth.
        self.delta_skipped = 0
        #: The sub-level portion of ``delta_skipped``: members whose
        #: dependencies *did* change, but only at depths the member never
        #: consults (delta frontier beyond the consult horizon).
        self.frontier_skipped = 0
        #: entries restored from the snapshot cache without denoting.
        self.cache_hits = 0
        #: per-definition consult-depth maps (built with the plan).
        self._consult: Dict[str, Dict[str, int]] = {}

    # -- planning ----------------------------------------------------------

    def _plan(self) -> None:
        if self._entries is not None:
            return
        sample = self.config.sample
        self._entries = definition_entries(self.definitions, self.env, sample)
        self._deps = entry_dependencies(self.definitions, self.env, sample)
        self._sccs = condense_entries(self._deps)
        self._ranks = scc_ranks(self._sccs, self._deps)
        for definition in self.definitions:
            if isinstance(definition, ArrayDef):
                self._sampled[definition.name] = tuple(
                    definition.domain.evaluate(self.env).sample(sample)
                )
        for definition in self.definitions:
            self._consult[definition.name] = consult_depths(
                definition.body, self.solve_depth, self.config.hide_depth
            )

    def plan(self) -> List[Tuple[int, Scc]]:
        """The (rank, SCC) schedule, dependencies-first."""
        self._plan()
        return list(zip(self._ranks, self._sccs))

    # -- solving -----------------------------------------------------------

    def run(self) -> None:
        """Solve every SCC (idempotent)."""
        if self._solved:
            return
        self._plan()
        assert self._entries is not None
        groups: Dict[int, List[int]] = {}
        for i, rank in enumerate(self._ranks):
            groups.setdefault(rank, []).append(i)
        try:
            for rank in sorted(groups):
                self._run_rank(rank, groups[rank])
        except BudgetExceeded as exc:
            raise exc.with_checkpoint(
                _governor.trip_checkpoint(exc, "engine", *self._progress())
            ) from None
        if self.cache is not None:
            for entry, closure in self._resolved.items():
                self.cache.put(_slot(entry), closure.root)
        self._solved = True

    def _run_rank(self, rank: int, indices: List[int]) -> None:
        governor = _governor.current()
        if governor is not None:
            governor.check_deadline()
        pending = [i for i in indices if not self._from_cache(self._sccs[i], rank)]
        for i in pending:
            self._merge(*self._solve_scc(self._sccs[i], rank))
        if governor is not None:
            governor.record_progress("engine", *self._progress())

    def _from_cache(self, scc: Scc, rank: int) -> bool:
        """Restore a whole SCC from the snapshot, if every member is there."""
        if self.cache is None:
            return False
        roots = {}
        for entry in scc.entries:
            node = self.cache.get(_slot(entry))
            if node is None:
                return False
            roots[entry] = node
        for entry, node in roots.items():
            self._resolved[entry] = FiniteClosure.from_node(node)
        self.cache_hits += len(roots)
        self.reports.append(
            SccReport(
                entries=tuple(e.pretty() for e in scc.entries),
                rank=rank,
                recursive=scc.recursive,
                cache_hit=True,
                levels=(),
            )
        )
        return True

    def _merge(
        self, solution: Dict[EntryKey, FiniteClosure], report: SccReport
    ) -> None:
        self._resolved.update(solution)
        self.reports.append(report)
        self.redenoted_entries += report.redenoted
        self.delta_skipped += report.skipped
        self.frontier_skipped += report.horizon_skipped

    def _solve_scc(
        self, scc: Scc, rank: int
    ) -> Tuple[Dict[EntryKey, FiniteClosure], SccReport]:
        if not scc.recursive:
            entry = scc.entries[0]
            denoter = self._denoter({})
            closure = self._denote_entry(denoter, entry)
            report = SccReport(
                entries=(entry.pretty(),),
                rank=rank,
                recursive=False,
                cache_hit=False,
                levels=(LevelReport(1, (entry.pretty(),), ()),),
            )
            return {entry: closure}, report
        return self._solve_recursive(scc, rank)

    def _solve_recursive(
        self, scc: Scc, rank: int
    ) -> Tuple[Dict[EntryKey, FiniteClosure], SccReport]:
        """Delta-based local chain: start every member at ⟦STOP⟧, then
        re-denote per level only members with a changed intra-SCC input.

        Soundness of the skip: denotation at fixed depth is a pure
        function of the bindings it consults, and a member's bindings
        are its dependencies' closures.  If none of them changed root
        between levels *i−1* and *i*, its level-(i+1) value equals its
        level-(i) value — the re-denotation is skipped because its
        result is already known, not because it is assumed.  Level 1
        always denotes every member (everything changed at the bottom),
        so errors a denotation would raise are never masked.

        The **sub-level horizon skip** sharpens this: a member whose
        dependencies did change is still skipped when every change lies
        strictly *below* the depth the member consults that dependency
        at.  Consultations read ``truncate(binding, d)`` with ``d`` at
        most :func:`~repro.process.analysis.consult_depths`, so if
        :func:`~repro.traces.trie.delta_depth` of the dependency's last
        step exceeds that bound, every truncation the denotation would
        read is pointer-identical (hash-consing) and the result is
        already in hand.  A capped delta walk reports depth 0 — never
        above the horizon — so oversized frontiers fall back to full
        re-denotation.
        """
        members = set(scc.entries)
        local_deps: Dict[EntryKey, Tuple[EntryKey, ...]] = {
            e: tuple(d for d in self._deps.get(e, ()) if d in members)
            for e in scc.entries
        }
        local: Dict[EntryKey, FiniteClosure] = {
            e: STOP_CLOSURE for e in scc.entries
        }
        previous: Dict[EntryKey, FiniteClosure] = dict(local)
        changed: Set[EntryKey] = set(scc.entries)
        levels: List[LevelReport] = []
        governor = _governor.current()
        with _governor.recursion_guard("fixpoint"):
            for level in range(1, MAX_LEVELS + 1):
                if governor is not None:
                    governor.check_deadline()
                denoter = self._denoter(local)
                nxt: Dict[EntryKey, FiniteClosure] = {}
                now_changed: Set[EntryKey] = set()
                redenoted: List[str] = []
                skipped: List[str] = []
                horizon: List[str] = []
                for entry in scc.entries:
                    if level > 1:
                        deps_changed = [
                            d for d in local_deps[entry] if d in changed
                        ]
                        if not deps_changed:
                            nxt[entry] = local[entry]
                            skipped.append(entry.pretty())
                            continue
                        if self._beyond_horizon(
                            entry, deps_changed, previous, local
                        ):
                            nxt[entry] = local[entry]
                            horizon.append(entry.pretty())
                            continue
                    closure = self._denote_entry(denoter, entry)
                    nxt[entry] = closure
                    redenoted.append(entry.pretty())
                    if closure.root is not local[entry].root:
                        now_changed.add(entry)
                levels.append(
                    LevelReport(
                        level, tuple(redenoted), tuple(skipped), tuple(horizon)
                    )
                )
                if not now_changed:
                    report = SccReport(
                        entries=tuple(e.pretty() for e in scc.entries),
                        rank=rank,
                        recursive=True,
                        cache_hit=False,
                        levels=tuple(levels),
                    )
                    return nxt, report
                previous = local
                local = nxt
                changed = now_changed
        raise SemanticsError(
            f"approximation chain did not stabilise in {MAX_LEVELS} steps"
        )

    def _beyond_horizon(
        self,
        entry: EntryKey,
        deps_changed: List[EntryKey],
        previous: Dict[EntryKey, FiniteClosure],
        local: Dict[EntryKey, FiniteClosure],
    ) -> bool:
        """True when every changed dependency grew strictly below the
        depth ``entry`` consults it at, so re-denoting ``entry`` would
        reproduce its current value exactly."""
        consult = self._consult.get(entry.name, {})
        for dep in deps_changed:
            limit = consult.get(dep.name)
            if limit is None:
                # The body never consults this name directly (the edge is
                # conservative); stay conservative and re-denote.
                return False
            dd = _trie.delta_depth(previous[dep].root, local[dep].root)
            if dd is None:
                continue  # no growth at all
            if dd <= limit:
                return False
        return True

    # -- denotation helpers ------------------------------------------------

    def _denoter(self, local: Dict[EntryKey, FiniteClosure]) -> Denoter:
        return Denoter(
            self.definitions,
            self.env,
            self.config,
            process_bindings=self._bindings(local),
        )

    def _denote_entry(self, denoter: Denoter, entry: EntryKey) -> FiniteClosure:
        definition = self.definitions.lookup(entry.name)
        if isinstance(definition, ArrayDef):
            body_env = self.env.bind(definition.parameter, entry.subscript)
            return denoter._denote(definition.body, body_env, self.solve_depth)
        return denoter._denote(definition.body, self.env, self.solve_depth)

    def _bindings(
        self,
        local: Dict[EntryKey, FiniteClosure],
        fallback: bool = False,
        resolved: Optional[Dict[EntryKey, FiniteClosure]] = None,
    ) -> Dict[str, object]:
        """Process bindings for one denotation pass: solved entries, the
        current SCC's local level, and loud poisons for everything the
        plan says is unreachable from here.

        ``resolved`` overrides ``self._resolved`` as the solved-entry
        source — :meth:`bindings` passes the solved closures truncated
        to ``config.depth`` when ``chan`` forced a deeper solve.

        With ``fallback=True`` (served bindings for a
        :class:`~repro.sat.checker.SatChecker`, never during solving) an
        out-of-sample array subscript returns ``None`` instead of
        raising, telling the Denoter to unfold that reference on demand.
        """
        available: Dict[EntryKey, FiniteClosure] = dict(
            self._resolved if resolved is None else resolved
        )
        available.update(local)
        bindings: Dict[str, object] = {}
        for definition in self.definitions:
            name = definition.name
            if isinstance(definition, ArrayDef):
                table = {
                    entry.subscript: closure
                    for entry, closure in available.items()
                    if entry.name == name
                }
                bindings[name] = self._array_lookup(name, table, fallback)
            else:
                entry = EntryKey(name)
                if entry in available:
                    bindings[name] = available[entry]
                else:
                    bindings[name] = _Poison(name)
        return bindings

    def _array_lookup(
        self, name: str, table: Dict[object, FiniteClosure], fallback: bool = False
    ):
        sampled = self._sampled.get(name, ())

        def lookup(v):
            try:
                return table[v]
            except KeyError:
                if v in sampled:
                    # In-sample but not yet solved: the dependency walk
                    # failed to record this edge — a scheduling bug, not
                    # a user error.
                    raise SemanticsError(
                        f"array {name!r} subscript {v!r} consulted before "
                        f"its SCC was scheduled — dependency analysis bug"
                    ) from None
                if fallback:
                    # Out-of-sample: let the Denoter unfold on demand.
                    return None
                raise SemanticsError(
                    f"array {name!r} approximated only for subscripts "
                    f"{sorted(map(repr, sampled))}; {v!r} requested — "
                    f"raise config.sample"
                ) from None

        return lookup

    # -- budget cooperation ------------------------------------------------

    def _progress(self) -> Tuple[int, int]:
        """Sound progress: SCCs solved so far, and their traces."""
        return (
            len(self.reports),
            sum(len(c) for c in self._resolved.values()),
        )

    # -- results -----------------------------------------------------------

    def _export_closure(self, closure: FiniteClosure) -> FiniteClosure:
        """Truncate an internally solved closure to ``config.depth`` (a
        no-op unless ``chan`` forced a deeper solve)."""
        if self.solve_depth == self.config.depth:
            return closure
        return closure.truncate(self.config.depth)

    def fixpoint(self) -> Dict[str, object]:
        """The solved system, shaped exactly like
        :meth:`ApproximationChain.fixpoint`: closures for plain names,
        subscript→closure tables for arrays."""
        self.run()
        result: Dict[str, object] = {}
        for definition in self.definitions:
            if isinstance(definition, ArrayDef):
                result[definition.name] = {
                    v: self._export_closure(
                        self._resolved[EntryKey(definition.name, v)]
                    )
                    for v in self._sampled[definition.name]
                }
            else:
                result[definition.name] = self._export_closure(
                    self._resolved[EntryKey(definition.name)]
                )
        return result

    def closure_for(self, name: str, subscript: object = None) -> FiniteClosure:
        """The fixpoint denotation of ``p`` or ``q[subscript]`` (same
        error behaviour as the chain)."""
        self.run()
        definition = self.definitions.lookup(name)
        if isinstance(definition, ArrayDef):
            entry = EntryKey(name, subscript)
            if entry not in self._resolved:
                raise SemanticsError(
                    f"array {name!r} has no sampled subscript {subscript!r}"
                )
            return self._export_closure(self._resolved[entry])
        if subscript is not None:
            raise SemanticsError(f"{name!r} is not a process array")
        return self._export_closure(self._resolved[EntryKey(name)])

    def bindings(self, fallback: bool = False) -> Dict[str, object]:
        """The solved system as Denoter ``process_bindings`` (plain names
        → closures, arrays → sampled-subscript lookups).  With
        ``fallback=True``, out-of-sample array subscripts resolve to
        ``None`` so the Denoter unfolds them on demand instead of
        erroring — the per-subscript eligibility mode of the checker."""
        self.run()
        if self.solve_depth == self.config.depth:
            return self._bindings({}, fallback=fallback)
        resolved = {
            entry: self._export_closure(closure)
            for entry, closure in self._resolved.items()
        }
        return self._bindings({}, fallback=fallback, resolved=resolved)

    def levels_computed(self) -> int:
        """Longest local chain among recursive SCCs (+1 for the bottom) —
        comparable to :meth:`ApproximationChain.levels_computed`."""
        self.run()
        deepest = max(
            (len(r.levels) for r in self.reports if r.recursive and not r.cache_hit),
            default=0,
        )
        return deepest + 1

    # -- introspection -----------------------------------------------------

    def explain(self) -> str:
        """Human-readable solve plan and per-level delta/cache account —
        the payload of ``repro stats --explain-plan``.  The kernel's
        delta-frontier and arena counters are not repeated here:
        ``repro stats`` prints them after the plan, in
        :func:`~repro.traces.stats.format_stats`."""
        self.run()
        assert self._entries is not None
        lines = [
            f"engine plan: {len(self._entries)} entries, "
            f"{len(self._sccs)} SCCs, "
            f"{(max(self._ranks) + 1) if self._ranks else 0} ranks",
        ]
        for report in sorted(self.reports, key=lambda r: r.rank):
            label = " ".join(report.entries)
            kind = "recursive" if report.recursive else "direct"
            if report.cache_hit:
                lines.append(
                    f"  rank {report.rank} · {{{label}}} ({kind}): cache hit"
                )
                continue
            lines.append(
                f"  rank {report.rank} · {{{label}}} ({kind}): "
                f"{len(report.levels)} level(s), "
                f"{report.redenoted} denoted, {report.skipped} delta-skipped"
                + (
                    f" ({report.horizon_skipped} beyond the consult horizon)"
                    if report.horizon_skipped
                    else ""
                )
            )
            for lv in report.levels:
                if not lv.skipped and not lv.horizon:
                    continue
                detail = (
                    f"      level {lv.level}: denoted "
                    f"{', '.join(lv.redenoted) if lv.redenoted else '—'}; "
                    f"skipped {', '.join(lv.skipped) if lv.skipped else '—'}"
                )
                if lv.horizon:
                    detail += f"; horizon-skipped {', '.join(lv.horizon)}"
                lines.append(detail)
        total = self.redenoted_entries + self.delta_skipped + self.cache_hits
        lines.append(
            f"  totals: {self.redenoted_entries} definition-levels denoted, "
            f"{self.delta_skipped} delta-skipped (of which "
            f"{self.frontier_skipped} sub-level/horizon), {self.cache_hits} "
            f"cache hits ({total} accounted)"
        )
        return "\n".join(lines)


def _slot(entry: EntryKey) -> str:
    # Slot vocabulary lives with the cache (`traces/snapshot.py`).
    return fix_slot(entry.pretty())
