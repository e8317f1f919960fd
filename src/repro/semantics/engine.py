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
   runs its own §3.3 chain from ⟦STOP⟧, plainly: each level re-denotes
   every member against the previous level, until no member's root
   changes.

The engine reproduces the monolithic chain *exactly* (same roots per
definition — the equivalence suite checks pointer identity).  It saves
by scheduling alone: each SCC iterates only as many levels as its own
members need.  It skips no member within a level: the delta walks such
a skip needs cost more than the denotations it spares (EXPERIMENTS.md,
"Why the engine's skips went"), so only the chain, the test oracle,
keeps its delta and horizon skips.

No query builds an engine (queries unfold through their checker's
:class:`~repro.semantics.denotation.Denoter`; EXPERIMENTS.md, "Why the
checker stopped using the engine"): it serves ``stats --explain-plan``,
:func:`~repro.semantics.fixpoint.fixpoint_denotation` and E7.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import BudgetExceeded, SemanticsError
from repro.process.analysis import (
    EntryKey,
    Scc,
    condense_entries,
    definition_entries,
    entry_dependencies,
    scc_ranks,
    uses_chan,
)
from repro.process.definitions import ArrayDef, DefinitionList
from repro.runtime import governor as _governor
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.traces.prefix_closure import STOP_CLOSURE, FiniteClosure
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


class SccReport(NamedTuple):
    """How one SCC was solved: its members, its rank, and the number of
    levels its local chain ran (1 for a non-recursive SCC)."""

    entries: Tuple[str, ...]
    rank: int
    recursive: bool
    levels: int

    @property
    def redenoted(self) -> int:
        """Definition-levels denoted: every member at every level."""
        return self.levels * len(self.entries)


class DenotationEngine:
    """Solve a definition list's §3.3 fixpoint by dependency order.

    Drop-in source of the same results as
    :class:`~repro.semantics.fixpoint.ApproximationChain` —
    :meth:`fixpoint` / :meth:`closure_for` return closures whose roots
    are pointer-identical to the chain's — with SCC scheduling.
    """

    def __init__(
        self,
        definitions: DefinitionList,
        env: Optional[Environment] = None,
        config: SemanticsConfig = DEFAULT_CONFIG,
    ) -> None:
        self.definitions = definitions
        self.env = env if env is not None else Environment()
        self.config = config
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
        #: (entry, level) denotations performed — the unit the
        #: monolithic chain spends (levels × entries) of.
        self.redenoted_entries = 0

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
        governor = _governor.current()
        try:
            for rank in sorted(groups):
                if governor is not None:
                    governor.check_deadline()
                for i in groups[rank]:
                    self._solve_scc(self._sccs[i], rank)
                if governor is not None:
                    governor.record_progress("engine", *self._progress())
        except BudgetExceeded as exc:
            raise exc.with_checkpoint(
                _governor.trip_checkpoint(exc, "engine", *self._progress())
            ) from None
        self._solved = True

    def _solve_scc(self, scc: Scc, rank: int) -> None:
        """Solve one SCC against its already-solved dependencies and
        record the solution.  A non-recursive SCC (one definition that
        does not consult itself) is denoted once; a recursive one runs
        its local §3.3 chain (:meth:`_local_chain`)."""
        if scc.recursive:
            levels, solution = self._local_chain(scc.entries)
        else:
            denoter = self._denoter({})
            levels = 1
            solution = {e: self._denote_entry(denoter, e) for e in scc.entries}
        self._resolved.update(solution)
        report = SccReport(
            entries=tuple(e.pretty() for e in scc.entries),
            rank=rank,
            recursive=scc.recursive,
            levels=levels,
        )
        self.reports.append(report)
        self.redenoted_entries += report.redenoted

    def _local_chain(
        self, members: Tuple[EntryKey, ...]
    ) -> Tuple[int, Dict[EntryKey, FiniteClosure]]:
        """The §3.3 chain of one recursive SCC, iterated plainly: every
        member starts at ⟦STOP⟧, and each level re-denotes every member
        against the previous level's closures until no member's root
        changes.  Returns the number of levels run and the stable level.
        """
        local: Dict[EntryKey, FiniteClosure] = {e: STOP_CLOSURE for e in members}
        governor = _governor.current()
        with _governor.recursion_guard("fixpoint"):
            for level in range(1, MAX_LEVELS + 1):
                if governor is not None:
                    governor.check_deadline()
                denoter = self._denoter(local)
                nxt = {e: self._denote_entry(denoter, e) for e in members}
                if all(nxt[e].root is local[e].root for e in members):
                    return level, nxt
                local = nxt
        raise SemanticsError(
            f"approximation chain did not stabilise in {MAX_LEVELS} steps"
        )

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

    def _bindings(self, local: Dict[EntryKey, FiniteClosure]) -> Dict[str, object]:
        """Process bindings for one denotation pass: solved entries, the
        current SCC's local level (which overrides them), and loud
        poisons for everything the plan says is unreachable from here.
        """
        available: Dict[EntryKey, FiniteClosure] = dict(self._resolved)
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
                bindings[name] = self._array_lookup(name, table)
            else:
                entry = EntryKey(name)
                if entry in available:
                    bindings[name] = available[entry]
                else:
                    bindings[name] = _Poison(name)
        return bindings

    def _array_lookup(self, name: str, table: Dict[object, FiniteClosure]):
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

    def bindings(self) -> Dict[str, object]:
        """The solved system as Denoter ``process_bindings`` (plain names
        → closures, arrays → sampled-subscript lookups that refuse an
        out-of-sample subscript, as the chain does)."""
        self.run()
        return self._bindings(
            {entry: self._export_closure(c) for entry, c in self._resolved.items()}
        )

    def levels_computed(self) -> int:
        """Longest local chain among recursive SCCs (+1 for the bottom) —
        comparable to :meth:`ApproximationChain.levels_computed`."""
        self.run()
        deepest = max(
            (r.levels for r in self.reports if r.recursive), default=0
        )
        return deepest + 1

    # -- introspection -----------------------------------------------------

    def explain(self) -> str:
        """Human-readable solve plan with each SCC's level count — the
        payload of ``repro stats --explain-plan``.  The kernel's
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
            lines.append(
                f"  rank {report.rank} · {{{label}}} ({kind}): "
                f"{report.levels} level(s), {report.redenoted} denoted"
            )
        lines.append(
            f"  totals: {self.redenoted_entries} definition-levels denoted"
        )
        return "\n".join(lines)
