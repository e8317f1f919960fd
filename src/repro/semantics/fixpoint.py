"""The §3.3 fixed-point construction, made explicit.

For a definition list ``p ≜ P, q[x:M] ≜ Q, ...`` the paper defines::

    a₀      = ⟦STOP⟧                      (arrays: λv:M. ⟦STOP⟧)
    aᵢ₊₁    = ρ[aᵢ/p]⟦P⟧                  (arrays: λv:M. ρ[aᵢ/q][v/x]⟦Q⟧)
    ⟦p⟧     = ∪ᵢ aᵢ

:class:`ApproximationChain` computes the chain at a fixed trace depth.
Because bounded closures are finite and the chain is monotone
(``aᵢ ⊆ aᵢ₊₁`` — all operators are monotone), it stabilises; for guarded
definitions it does so within ``depth + 1`` steps, since approximation
``aᵢ`` already contains every trace of length < i (each unfolding is
forced through at least one communication prefix).

The chain is the reproduction target of experiment E7 and doubles as an
independent check of :class:`~repro.semantics.denotation.Denoter`'s
unfold-on-demand strategy: both must agree at every depth.

With the hash-consed trie kernel, each approximation level is a set of
interned trie roots, so stabilisation is detected by **root identity**
(``aᵢ₊₁.root is aᵢ.root`` per definition) — a handful of pointer
comparisons instead of a trace-set comparison — and
:meth:`ApproximationChain.level_deltas` reports how many traces and
distinct nodes each level added, the paper's ``aᵢ ⊆ aᵢ₊₁`` made
quantitative.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import BudgetExceeded, SemanticsError
from repro.process.analysis import (
    EntryKey,
    consult_depths,
    entry_dependencies,
    uses_chan,
)
from repro.process.definitions import ArrayDef, DefinitionList
from repro.runtime import faults as _faults
from repro.runtime import governor as _governor
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.traces.prefix_closure import STOP_CLOSURE, FiniteClosure
from repro.values.environment import Environment

#: One approximation level: per process name, a closure; per array name, a
#: mapping from (sampled) subscript values to closures.
Approximation = Dict[str, object]


class LevelDelta(NamedTuple):
    """Growth report for one approximation level aᵢ."""

    level: int
    traces: int  #: total traces across all definitions at this level
    nodes: int  #: total distinct trie nodes across all definitions
    new_traces: int  #: traces added relative to a_{i-1} (0 at the bottom)

    def __str__(self) -> str:
        return (
            f"a{self.level}: {self.traces} traces in {self.nodes} nodes "
            f"(+{self.new_traces})"
        )


def _level_closures(level: Approximation) -> Iterator[FiniteClosure]:
    for value in level.values():
        if isinstance(value, dict):
            yield from value.values()
        else:
            yield value  # type: ignore[misc]


def _entry_closure(
    level: Approximation, entry: EntryKey
) -> Optional[FiniteClosure]:
    """The closure one entry holds at one level (None if absent)."""
    value = level.get(entry.name)
    if isinstance(value, dict):
        return value.get(entry.subscript)
    if entry.subscript is not None:
        return None
    return value  # type: ignore[return-value]


def _levels_identical(before: Approximation, after: Approximation) -> bool:
    """aᵢ₊₁ = aᵢ by root identity — hash-consing makes semantic equality
    of closures coincide with pointer equality of their trie roots."""
    for before_closure, after_closure in zip(
        _level_closures(before), _level_closures(after)
    ):
        if before_closure.root is not after_closure.root:
            return False
    return True


class ApproximationChain:
    """Iterates the §3.3 approximation chain for a definition list.

    Array domains are sampled with ``config.sample`` subscript values (the
    paper's λv:M over an abstract set M); a reference to a subscript
    outside the sample raises, which keeps the approximation honest rather
    than silently empty.
    """

    def __init__(
        self,
        definitions: DefinitionList,
        env: Optional[Environment] = None,
        config: SemanticsConfig = DEFAULT_CONFIG,
        kernel: str = "trie",
    ) -> None:
        self.definitions = definitions
        self.env = env if env is not None else Environment()
        self.config = config
        self.kernel = kernel
        #: Internal iteration depth.  ``chan`` bodies are explored at
        #: ``hide_depth`` before hiding, so any binding consulted inside
        #: one must carry traces up to that depth; a chain iterated only
        #: at ``config.depth`` under-approximates those consultations
        #: (visible depth-``d`` traces can require hidden chatter deeper
        #: than ``d`` in a referenced component).  Iterating at
        #: ``hide_depth`` and truncating the exported fixpoint restores
        #: agreement with unfold-on-demand: truncation commutes with the
        #: solve.  Recursion through ``chan`` terminates by the level
        #: bound here, and by re-entry in the Denoter.
        self.solve_depth = config.depth
        if config.hide_depth > config.depth and any(
            uses_chan(d.body) for d in definitions
        ):
            self.solve_depth = config.hide_depth
        self._levels = [self._bottom()]
        #: Entries whose root changed at the latest computed level; None
        #: means unknown (fresh chain) and forces a full level.
        self._changed_last: Optional[set] = None
        self._entry_deps: Optional[Dict[EntryKey, Tuple[EntryKey, ...]]] = None
        self._consult: Optional[Dict[str, Dict[str, int]]] = None
        #: (entry, level) denotations performed vs. skipped because no
        #: dependency's root changed at the previous level.
        self.redenoted_entries = 0
        self.delta_skipped = 0
        #: The sub-level portion of ``delta_skipped``: entries whose
        #: dependencies changed only below their consult horizon.
        self.frontier_skipped = 0

    # -- chain construction ------------------------------------------------

    def _bottom(self) -> Approximation:
        """a₀: every name denotes ⟦STOP⟧."""
        bottom: Approximation = {}
        for definition in self.definitions:
            if isinstance(definition, ArrayDef):
                values = self._array_values(definition)
                bottom[definition.name] = {v: STOP_CLOSURE for v in values}
            else:
                bottom[definition.name] = STOP_CLOSURE
        return bottom

    def _array_values(self, definition: ArrayDef) -> Tuple[object, ...]:
        domain = definition.domain.evaluate(self.env)
        return domain.sample(self.config.sample)

    def _bindings_from(self, level: Approximation) -> Dict[str, object]:
        """Wrap one approximation level as Denoter process bindings."""
        bindings: Dict[str, object] = {}
        for name, value in level.items():
            if isinstance(value, dict):
                table = value

                def lookup(v, table=table, name=name):
                    try:
                        return table[v]
                    except KeyError:
                        raise SemanticsError(
                            f"array {name!r} approximated only for subscripts "
                            f"{sorted(map(repr, table))}; {v!r} requested — "
                            f"raise config.sample"
                        ) from None

                bindings[name] = lookup
            else:
                bindings[name] = value
        return bindings

    def step(self) -> Approximation:
        """Compute and record a_{i+1} from the latest level.

        **Delta-based**: an entry — a plain definition or one sampled
        array subscript — is re-denoted only when some dependency's root
        changed at the previous level; otherwise its previous closure is
        carried forward unchanged (denotation is a pure function of the
        bindings it consults, so an entry with unchanged inputs has an
        unchanged output).  Tracking is per-(name, value): an array
        subscript whose closure stabilised early stops costing anything,
        even while sibling subscripts keep growing.  The first computed
        level always denotes everything, so errors are never masked.

        Cooperates with the ambient governor: the wall-clock deadline is
        force-checked at every level boundary, and a budget trip anywhere
        inside the level's denotations is re-raised with a checkpoint
        naming the chain's deepest *completed* level — a sound partial
        result (every aᵢ under-approximates the fixpoint).
        """
        _faults.maybe_fail("fixpoint.step")
        governor = _governor.current()
        progress = self._progress()
        if governor is not None:
            governor.check_deadline()
            governor.record_progress("fixpoint", *progress)
        previous = self._levels[-1]
        denoter = Denoter(
            self.definitions,
            self.env,
            self.config,
            process_bindings=self._bindings_from(previous),
            kernel=self.kernel,
        )
        if self._entry_deps is None:
            self._entry_deps = entry_dependencies(
                self.definitions, self.env, self.config.sample
            )
        if self._consult is None:
            self._consult = {
                d.name: consult_depths(
                    d.body, self.solve_depth, self.config.hide_depth
                )
                for d in self.definitions
            }
        changed = self._changed_last
        # The level the changed entries changed *from* — needed to measure
        # how deep their growth reaches (sub-level horizon skip).  When
        # ``changed`` is known, at least two levels exist.
        before = self._levels[-2] if len(self._levels) >= 2 else None
        now_changed: set = set()

        def resolve(entry: EntryKey, prev_closure, denote):
            if changed is not None:
                deps_changed = [
                    d for d in self._entry_deps.get(entry, ()) if d in changed
                ]
                if not deps_changed:
                    self.delta_skipped += 1
                    return prev_closure
                if before is not None and self._beyond_horizon(
                    entry, deps_changed, before, previous
                ):
                    self.delta_skipped += 1
                    self.frontier_skipped += 1
                    return prev_closure
            closure = denote()
            self.redenoted_entries += 1
            if closure.root is not prev_closure.root:
                now_changed.add(entry)
            return closure

        try:
            with _governor.recursion_guard("fixpoint"):
                nxt: Approximation = {}
                for definition in self.definitions:
                    if isinstance(definition, ArrayDef):
                        table = {}
                        prev_table = previous[definition.name]
                        for value in self._array_values(definition):
                            body_env = self.env.bind(definition.parameter, value)
                            table[value] = resolve(
                                EntryKey(definition.name, value),
                                prev_table[value],
                                lambda env=body_env: denoter._denote(
                                    definition.body, env, self.solve_depth
                                ),
                            )
                        nxt[definition.name] = table
                    else:
                        nxt[definition.name] = resolve(
                            EntryKey(definition.name),
                            previous[definition.name],
                            lambda: denoter._denote(
                                definition.body, self.env, self.solve_depth
                            ),
                        )
        except BudgetExceeded as exc:
            raise exc.with_checkpoint(
                _governor.trip_checkpoint(exc, "fixpoint", *progress)
            ) from None
        self._levels.append(nxt)
        self._changed_last = now_changed
        if governor is not None:
            governor.record_progress("fixpoint", *self._progress())
        return nxt

    def _beyond_horizon(
        self,
        entry: EntryKey,
        deps_changed: List[EntryKey],
        before: Approximation,
        previous: Approximation,
    ) -> bool:
        """Sub-level (horizon) skip test: every changed dependency must
        have grown strictly below the depth ``entry`` consults it at, so
        the re-denotation would read only pointer-identical truncations.
        Only the chain skips this way; the engine re-denotes every
        member of a recursive SCC at every level."""
        from repro.traces.trie import delta_depth

        assert self._consult is not None
        consult = self._consult.get(entry.name, {})
        for dep in deps_changed:
            limit = consult.get(dep.name)
            if limit is None:
                return False
            old = _entry_closure(before, dep)
            new = _entry_closure(previous, dep)
            if old is None or new is None:
                return False
            dd = delta_depth(old.root, new.root)
            if dd is None:
                continue
            if dd <= limit:
                return False
        return True

    def _progress(self) -> Tuple[int, int]:
        """The chain's sound progress: a_{0..k} completed, and the traces
        of a_k."""
        return (
            len(self._levels) - 1,
            sum(len(c) for c in _level_closures(self._levels[-1])),
        )

    def level(self, i: int) -> Approximation:
        """aᵢ, computing further levels on demand."""
        while len(self._levels) <= i:
            self.step()
        return self._levels[i]

    def run_until_stable(self, max_steps: int = 1000) -> int:
        """Iterate until aᵢ₊₁ = aᵢ; returns the number of steps taken.

        Raises :class:`SemanticsError` if the chain fails to stabilise
        within ``max_steps`` (impossible for guarded definitions at finite
        depth, so hitting it signals a configuration bug).
        """
        for step_count in range(max_steps):
            before = self._levels[-1]
            after = self.step()
            if _levels_identical(before, after):
                return step_count + 1
        raise SemanticsError(
            f"approximation chain did not stabilise in {max_steps} steps"
        )

    # -- results -----------------------------------------------------------

    def fixpoint(self) -> Approximation:
        """∪ᵢ aᵢ at the configured depth (= the stable level, by
        monotonicity, truncated from the internal solve depth when
        ``chan`` forced a deeper iteration)."""
        self.run_until_stable()
        return self._export(self._levels[-1])

    def _export(self, level: Approximation) -> Approximation:
        """Truncate a (possibly deep-solved) level to ``config.depth``."""
        if self.solve_depth == self.config.depth:
            return level
        from repro.semantics.denotation import KERNELS

        ops = KERNELS[self.kernel]
        exported: Approximation = {}
        for name, value in level.items():
            if isinstance(value, dict):
                exported[name] = {
                    v: ops.truncate(c, self.config.depth)
                    for v, c in value.items()
                }
            else:
                exported[name] = ops.truncate(value, self.config.depth)
        return exported

    def closure_for(self, name: str, subscript: object = None) -> FiniteClosure:
        """The fixpoint denotation of ``p`` or ``q[subscript]``."""
        fixed = self.fixpoint()
        entry = fixed[name]
        if isinstance(entry, dict):
            if subscript not in entry:
                raise SemanticsError(
                    f"array {name!r} has no sampled subscript {subscript!r}"
                )
            return entry[subscript]
        if subscript is not None:
            raise SemanticsError(f"{name!r} is not a process array")
        return entry  # type: ignore[return-value]

    def levels_computed(self) -> int:
        return len(self._levels)

    def level_deltas(self) -> List[LevelDelta]:
        """Per-level growth of the computed chain: total traces, distinct
        trie nodes, and traces added over the previous level — the §3.3
        monotone chain made quantitative (and the progress report of the
        E7 benchmark)."""
        deltas: List[LevelDelta] = []
        previous_traces = 0
        for i, level in enumerate(self._levels):
            closures = list(_level_closures(level))
            traces = sum(len(c) for c in closures)
            nodes = sum(c.node_count() for c in closures)
            deltas.append(
                LevelDelta(i, traces, nodes, traces - previous_traces if i else 0)
            )
            previous_traces = traces
        return deltas

    def is_monotone(self) -> bool:
        """Check aᵢ ⊆ aᵢ₊₁ across all computed levels (a model property the
        soundness experiments re-verify)."""
        for earlier, later in zip(self._levels, self._levels[1:]):
            for name, value in earlier.items():
                other = later[name]
                if isinstance(value, dict):
                    if any(not value[v].issubset(other[v]) for v in value):
                        return False
                elif not value.issubset(other):
                    return False
        return True


def fixpoint_denotation(
    definitions: DefinitionList,
    name: str,
    subscript: object = None,
    env: Optional[Environment] = None,
    config: SemanticsConfig = DEFAULT_CONFIG,
) -> FiniteClosure:
    """Denote ``name`` (or ``name[subscript]``) by the §3.3 fixpoint.

    Routed through the dependency-graph
    :class:`~repro.semantics.engine.DenotationEngine`, which reproduces
    this module's monolithic chain exactly (pointer-identical roots —
    the equivalence suite checks it) while running each SCC's chain
    only as long as that SCC needs.
    """
    from repro.semantics.engine import DenotationEngine

    engine = DenotationEngine(definitions, env, config)
    return engine.closure_for(name, subscript)
