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
2. **Solve** — walk SCCs dependencies-first.  A non-recursive SCC is a
   single definition with no self-reference: denote it *once* against
   its already-solved dependencies — no chain at all.  A recursive SCC
   runs a local chain from ⟦STOP⟧, but **delta-based**: level *i+1*
   re-denotes only members whose intra-SCC dependencies changed root at
   level *i* (an entry whose inputs are unchanged is already at its
   level-(i+1) value — denotation is a function of the bindings).
3. **Parallelise** — SCCs of equal topological rank share no dependency
   path, so with ``jobs > 1`` they are forked to worker *processes*
   that escape the GIL: each child solves into a private arena
   (:func:`~repro.traces.trie.private_state`), ships its roots back
   over a pipe as flat format-2 segments
   (:func:`~repro.traces.snapshot.export_segments`), and the parent
   splices them into the canonical arena in plan order
   (:func:`~repro.traces.snapshot.splice_segments`), charging each unit's
   reported node delta to the ambient governor *before* the splice so
   budget trips stay sound.  Interning is idempotent on structural
   keys, so the final roots are pointer-identical to a sequential run.
   Forked children inherit the environment (host functions included)
   and the governor's clock by copy, so deadlines and limits trip at
   the same global thresholds; a child's :class:`~repro.errors.ReproError`
   is rebuilt in the parent as the same class, and a child that dies
   without a payload degrades to solving its units in-process.  Hosts
   without ``os.fork`` solve sequentially.
4. **Cache** — with a :class:`~repro.traces.snapshot.SnapshotCache`
   attached, solved roots are recorded per entry and whole SCCs whose
   members are all cached are skipped entirely on the next run.

The engine reproduces the monolithic chain *exactly* (same roots per
definition — the equivalence suite checks pointer identity), it just
refuses to pay for levels that cannot change anything.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro import errors as _errors
from repro.errors import BudgetExceeded, ReproError, SemanticsError
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
from repro.runtime.governor import Checkpoint
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.traces import stats as _stats
from repro.traces import trie as _trie
from repro.runtime.faults import FaultInjected
from repro.traces.prefix_closure import STOP_CLOSURE, FiniteClosure
from repro.traces.snapshot import (
    SnapshotCache,
    SnapshotError,
    export_segments,
    fix_slot,
    splice_segments,
)
from repro.traces.trie import private_state, reintern
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
    iteration, optional forked worker processes (``jobs``), and an
    optional persisted snapshot cache (``cache``).
    """

    def __init__(
        self,
        definitions: DefinitionList,
        env: Optional[Environment] = None,
        config: SemanticsConfig = DEFAULT_CONFIG,
        jobs: int = 1,
        cache: Optional[SnapshotCache] = None,
    ) -> None:
        self.definitions = definitions
        self.env = env if env is not None else Environment()
        self.config = config
        self.jobs = max(1, int(jobs))
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
        pending: List[int] = []
        for i in indices:
            cached = self._from_cache(self._sccs[i], rank)
            if not cached:
                pending.append(i)
        if self.jobs > 1 and len(pending) > 1 and hasattr(os, "fork"):
            self._solve_processes(rank, pending)
        else:
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

    def _solve_processes(self, rank: int, indices: List[int]) -> None:
        """Solve independent same-rank SCCs in forked worker processes.

        Each child solves a stride of the rank's pending SCCs into a
        private kernel state and writes one JSON payload — per-unit flat
        segment roots (:func:`~repro.traces.snapshot.export_segments`),
        a report, governor deltas, and kernel work counters — to its
        pipe, then exits.  The parent closes each write end immediately
        after forking (so no later child holds an earlier pipe open past
        its writer's death), reads every payload to EOF, and splices
        units back **in plan order**: each unit's node delta is charged
        to the ambient governor *before* its segments are decoded, so a
        budget trip admits none of that unit, and the canonical interner
        sees the same insertion sequence regardless of child timing —
        final roots are pointer-identical to a sequential run.

        A child that reports an error stops the merge: the parent
        re-raises the plan-order-first failure rebuilt as the child's
        class (budget trips arrive with their checkpoint and mark the
        parent governor exhausted).  A child that dies without a parseable payload —
        crash, ``os._exit`` mid-write, injected fault in the write path
        — is not fatal: its units are re-solved in-process at their
        plan-order slots, sound because nothing from the torn payload
        was admitted (PR 2 abort safety).
        """
        jobs = min(self.jobs, len(indices))
        parts = [indices[k::jobs] for k in range(jobs)]
        children: List[Tuple[int, int, List[int]]] = []
        read_fds: List[int] = []
        for part in parts:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    for fd in read_fds:
                        os.close(fd)
                    self._child_run(part, rank, w)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            read_fds.append(r)
            children.append((pid, r, part))
        payloads: List[Tuple[List[int], Optional[dict]]] = []
        for pid, r, part in children:
            chunks: List[bytes] = []
            try:
                while True:
                    chunk = os.read(r, 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
            finally:
                os.close(r)
            os.waitpid(pid, 0)
            payload: Optional[dict] = None
            if chunks:
                try:
                    decoded = json.loads(b"".join(chunks))
                    if isinstance(decoded, dict) and "units" in decoded:
                        payload = decoded
                except ValueError:
                    payload = None
            payloads.append((part, payload))

        units: Dict[int, dict] = {}
        errors: List[dict] = []
        for part, payload in payloads:
            if payload is None:
                continue  # dead child: its indices re-solve in-process
            for unit in payload["units"]:
                units[int(unit["index"])] = unit
            error = payload.get("error")
            if error is not None:
                errors.append(error)
        if errors:
            first = min(errors, key=lambda e: int(e.get("index", 0)))
            exc = _error_from_wire(first)
            if isinstance(exc, BudgetExceeded):
                governor = _governor.current()
                if governor is not None:
                    governor.exhausted = True
            raise exc

        governor = _governor.current()
        for index in indices:
            unit = units.get(index)
            if unit is not None:
                if governor is not None:
                    nodes = int(unit.get("nodes", 0))
                    if nodes:
                        governor.note_nodes(nodes)
                    states = int(unit.get("states", 0))
                    if states:
                        governor.states_touched += states - 1
                        governor.note_state()
                try:
                    decoded = splice_segments(unit["roots"])
                except SnapshotError:
                    unit = None  # torn segments: re-solve in-process
            if unit is None:
                self._merge(*self._solve_scc(self._sccs[index], rank))
                continue
            _stats.KERNEL_STATS.add_work(unit.get("work", {}))
            by_pretty = {e.pretty(): e for e in self._sccs[index].entries}
            solution = {
                by_pretty[slot]: FiniteClosure.from_node(node)
                for slot, node in decoded.items()
            }
            self._merge(solution, _report_from_wire(unit["report"]))

    def _child_run(self, indices: List[int], rank: int, fd: int) -> None:
        """Worker-process body: solve ``indices`` in order, write one
        JSON payload to ``fd``, close it.  Runs in the forked child only
        (a method so tests can monkeypatch it to simulate crashes).

        The dependency carry-in (re-interning ``self._resolved`` into
        the child's private arena) runs with the governor suspended —
        that work was already charged when the parent solved it; only
        each unit's own solve delta is reported, which is what keeps
        parent-side accounting exact with respect to a sequential run.
        The same goes for the unit's ``KERNEL_STATS`` work (delta walks,
        memo traffic; :meth:`~repro.traces.stats.KernelStats.work`),
        which the parent adds to its own counters at splice.
        The inherited governor still trips at the correct *global*
        thresholds: fork copies its accumulated counters and its clock.
        """
        governor = _governor.current()
        units: List[dict] = []
        error: Optional[dict] = None
        for index in indices:
            try:
                with private_state():
                    with _governor.suspended():
                        resolved = {
                            entry: FiniteClosure.from_node(reintern(closure.root))
                            for entry, closure in self._resolved.items()
                        }
                    nodes0 = governor.nodes_interned if governor is not None else 0
                    states0 = governor.states_touched if governor is not None else 0
                    work0 = _stats.KERNEL_STATS.work()
                    solution, report = self._solve_scc(
                        self._sccs[index], rank, resolved
                    )
                    work = _stats.KERNEL_STATS.work_since(work0)
                    units.append(
                        {
                            "index": index,
                            "roots": export_segments(
                                {
                                    entry.pretty(): closure.root
                                    for entry, closure in solution.items()
                                }
                            ),
                            "report": _report_wire(report),
                            "work": work,
                            "nodes": (
                                governor.nodes_interned - nodes0
                                if governor is not None
                                else 0
                            ),
                            "states": (
                                governor.states_touched - states0
                                if governor is not None
                                else 0
                            ),
                        }
                    )
            except Exception as exc:
                error = _error_wire(exc, index)
                break
        payload: Dict[str, object] = {"ok": error is None, "units": units}
        if error is not None:
            payload["error"] = error
        blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        view = memoryview(blob)
        while view:
            written = os.write(fd, view)
            view = view[written:]
        os.close(fd)

    def _merge(
        self, solution: Dict[EntryKey, FiniteClosure], report: SccReport
    ) -> None:
        self._resolved.update(solution)
        self.reports.append(report)
        self.redenoted_entries += report.redenoted
        self.delta_skipped += report.skipped
        self.frontier_skipped += report.horizon_skipped

    def _solve_scc(
        self,
        scc: Scc,
        rank: int,
        resolved: Optional[Dict[EntryKey, FiniteClosure]] = None,
    ) -> Tuple[Dict[EntryKey, FiniteClosure], SccReport]:
        if not scc.recursive:
            entry = scc.entries[0]
            denoter = self._denoter({}, resolved)
            closure = self._denote_entry(denoter, entry)
            report = SccReport(
                entries=(entry.pretty(),),
                rank=rank,
                recursive=False,
                cache_hit=False,
                levels=(LevelReport(1, (entry.pretty(),), ()),),
            )
            return {entry: closure}, report
        return self._solve_recursive(scc, rank, resolved)

    def _solve_recursive(
        self,
        scc: Scc,
        rank: int,
        resolved: Optional[Dict[EntryKey, FiniteClosure]] = None,
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
                denoter = self._denoter(local, resolved)
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

    def _denoter(
        self,
        local: Dict[EntryKey, FiniteClosure],
        resolved: Optional[Dict[EntryKey, FiniteClosure]] = None,
    ) -> Denoter:
        return Denoter(
            self.definitions,
            self.env,
            self.config,
            process_bindings=self._bindings(local, resolved=resolved),
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
        source — forked children pass their privately re-interned
        copies, since ambient arena node ids must not cross into a
        child's private kernel state.

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
        the payload of ``repro stats --explain-plan``."""
        self.run()
        assert self._entries is not None
        lines = [
            f"engine plan: {len(self._entries)} entries, "
            f"{len(self._sccs)} SCCs, "
            f"{(max(self._ranks) + 1) if self._ranks else 0} ranks, "
            f"jobs={self.jobs}",
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
        delta = _stats.KERNEL_STATS
        lines.append(
            f"  delta frontiers: {delta.delta_queries} walks, "
            f"{delta.frontier_nodes} fresh nodes, {delta.delta_capped} capped"
        )
        arena = _trie.arena_info()
        lines.append(
            f"  arena: {arena['nodes']} nodes, {arena['edges']} edges, "
            f"{arena['segment_bytes']} segment bytes, "
            f"{arena['events']} events / {arena['channels']} channels "
            f"interned, {arena['views']} views materialised"
        )
        return "\n".join(lines)


def _slot(entry: EntryKey) -> str:
    # Slot vocabulary lives with the cache (`traces/snapshot.py`).
    return fix_slot(entry.pretty())


# -- process-dispatch wire helpers ------------------------------------------
#
# The child payload is JSON: segment roots travel as format-2 base64
# fields (already JSON-shaped), reports and errors as small structured
# dicts.  Errors are rebuilt *by class name* so the parent raises the
# same exception class the child did — a budget trip arrives with its
# checkpoint, an injected fault stays a FaultInjected (never swallowed
# into the ReproError hierarchy), any other :mod:`repro.errors` class
# comes back with its message and scalar attributes, and anything else
# degrades to a ReproError carrying the child's message.


def _report_wire(report: SccReport) -> dict:
    return {
        "entries": list(report.entries),
        "rank": report.rank,
        "recursive": report.recursive,
        "levels": [
            [lv.level, list(lv.redenoted), list(lv.skipped), list(lv.horizon)]
            for lv in report.levels
        ],
    }


def _report_from_wire(wire: dict) -> SccReport:
    return SccReport(
        entries=tuple(wire["entries"]),
        rank=int(wire["rank"]),
        recursive=bool(wire["recursive"]),
        cache_hit=False,
        levels=tuple(
            LevelReport(int(level), tuple(redo), tuple(skip), tuple(horizon))
            for level, redo, skip, horizon in wire["levels"]
        ),
    )


def _checkpoint_wire(checkpoint: Optional[Checkpoint]) -> Optional[dict]:
    if checkpoint is None:
        return None
    return {
        "phase": checkpoint.phase,
        "completed_depth": checkpoint.completed_depth,
        "traces_verified": checkpoint.traces_verified,
        "states_explored": checkpoint.states_explored,
        "nodes_interned": checkpoint.nodes_interned,
        "elapsed": checkpoint.elapsed,
    }


def _checkpoint_from_wire(wire: Optional[dict]) -> Optional[Checkpoint]:
    if not isinstance(wire, dict):
        return None
    return Checkpoint(
        phase=str(wire.get("phase", "")),
        completed_depth=wire.get("completed_depth"),
        traces_verified=int(wire.get("traces_verified", 0)),
        states_explored=int(wire.get("states_explored", 0)),
        nodes_interned=int(wire.get("nodes_interned", 0)),
        elapsed=float(wire.get("elapsed", 0.0)),
    )


def _error_wire(exc: BaseException, index: int) -> dict:
    wire: Dict[str, object] = {
        "kind": type(exc).__name__,
        "message": str(exc),
        "index": index,
    }
    if isinstance(exc, BudgetExceeded):
        wire["resource"] = exc.resource
        wire["limit"] = exc.limit if isinstance(exc.limit, (int, str)) else str(exc.limit)
        wire["checkpoint"] = _checkpoint_wire(exc.checkpoint)
    elif isinstance(exc, FaultInjected):
        wire["site"] = exc.site
        wire["visit"] = exc.visit
    else:
        wire["attrs"] = {
            key: value
            for key, value in vars(exc).items()
            if isinstance(value, (str, int, float, bool, type(None)))
        }
    return wire


def _error_from_wire(wire: dict) -> BaseException:
    kind = str(wire.get("kind"))
    message = str(wire.get("message", "worker process failed"))
    if kind == "BudgetExceeded":
        return BudgetExceeded(
            str(wire.get("resource", "budget")),
            wire.get("limit"),
            _checkpoint_from_wire(wire.get("checkpoint")),
        )
    if kind == "FaultInjected":
        return FaultInjected(str(wire.get("site", "?")), int(wire.get("visit", 0)))
    cls = getattr(_errors, kind, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        return ReproError(message)
    # Constructors differ per class (UnboundVariableError formats its
    # own message, ParseError wants a position), so rebuild without
    # calling __init__: same class, same message, same scalar fields.
    exc = cls.__new__(cls)
    exc.args = (message,)
    exc.__dict__.update(wire.get("attrs") or {})
    return exc

