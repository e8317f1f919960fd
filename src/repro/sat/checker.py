"""The bounded ``sat`` checker.

Implements the §3.3 definition directly::

    ρ⟦P sat R⟧  =  ∀s. s ∈ ρ⟦P⟧ ⇒ (ρ + ch(s))⟦R⟧

quantifying over the bounded trace set.  Free variables shared between
``P`` and ``R`` must hold for *all* values (§2: "P sat R must be true for
all values it can take"); :meth:`SatChecker.check_forall` quantifies a
variable over a sampled domain for that purpose.

The quantification walks the closure's trace **trie** breadth-first,
threading the channel history incrementally down each edge — the §3.3
update ``ch(c.m⌢s) = ch(s)[(m⌢ch(s)(c))/c]`` (E10) read left-to-right —
so the history of a shared prefix is built once, not recomputed from the
root for every extending trace.  ``trie_walk=False`` restores the flat
per-trace loop (kept as a cross-check and benchmark baseline); both modes
visit traces in the same shortest-first order and therefore report the
same counterexample.

An evaluation error while judging ``R`` on a trace (e.g. an unguarded
out-of-range index) counts as a violation and is reported on the
counterexample — an assertion that cannot be evaluated on a reachable
history is not invariantly true.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.assertions.ast import Formula
from repro.assertions.eval import DEFAULT_EVAL_CONFIG, EvalConfig, evaluate_formula
from repro.assertions.parser import parse_assertion
from repro.errors import BudgetExceeded, EvaluationError
from repro.process.analysis import channel_names, uses_chan
from repro.process.ast import Name, Process
from repro.process.definitions import DefinitionList, NO_DEFINITIONS
from repro.runtime import governor as _governor
from repro.runtime.governor import Checkpoint, Governor
from repro.sat.counterexample import Counterexample
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.traces.events import Trace
from repro.traces.histories import ChannelHistory, ch
from repro.errors import SemanticsError
from repro.traces.prefix_closure import FiniteClosure
from repro.traces.snapshot import SnapshotCache, checkpoint_slot, forall_slot
from repro.traces.stats import KERNEL_STATS
from repro.traces.trie import delta_depth
from repro.values.domains import Domain
from repro.values.environment import Environment


class SatResult(NamedTuple):
    """Outcome of a bounded ``sat`` check.

    ``complete`` is False only for partial results assembled after a
    budget trip; ``verified_depth`` is the deepest trace length the check
    actually covered (``None`` under the ungoverned single-pass path,
    where it is always the configured depth).
    """

    holds: bool
    counterexample: Optional[Counterexample]
    traces_checked: int
    complete: bool = True
    verified_depth: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


class PartialTraces(NamedTuple):
    """A trace set together with how far it was soundly computed."""

    closure: Optional[FiniteClosure]  #: None when not even depth 0 finished
    verified_depth: Optional[int]
    complete: bool


#: Marks a definition list whose fixpoint the engine could not solve —
#: the checker then stays on pure unfold-on-demand denotation.
_INELIGIBLE = object()


class SatChecker:
    """Checks ``P sat R`` over bounded trace sets.

    ``engine`` selects where traces come from: ``"denotational"`` (the
    default, :class:`~repro.semantics.denotation.Denoter`) or
    ``"operational"`` (the state-space explorer — preferable for networks
    whose synchronised values are computed, like the multiplier).

    ``jobs``/``cache`` feed the dependency-graph
    :class:`~repro.semantics.engine.DenotationEngine` behind the
    denotational supply: named targets reachable only through chan-free,
    array-free definitions are denoted against the engine's solved
    fixpoint bindings (pointer-identical to unfold-on-demand for such
    targets), and a :class:`~repro.traces.snapshot.SnapshotCache` makes
    repeated invocations on the same system warm-start.
    """

    def __init__(
        self,
        definitions: DefinitionList = NO_DEFINITIONS,
        env: Optional[Environment] = None,
        config: SemanticsConfig = DEFAULT_CONFIG,
        eval_config: EvalConfig = DEFAULT_EVAL_CONFIG,
        engine: str = "denotational",
        trie_walk: bool = True,
        jobs: int = 1,
        cache: Optional[SnapshotCache] = None,
    ) -> None:
        if engine not in ("denotational", "operational"):
            raise ValueError(f"unknown engine {engine!r}")
        self.definitions = definitions
        self.env = env if env is not None else Environment()
        self.config = config
        self.eval_config = eval_config
        self.engine = engine
        self.trie_walk = trie_walk
        self.jobs = jobs
        self.cache = cache
        #: solve_depth → engine bindings (or _INELIGIBLE when solving the
        #: system failed and the checker fell back to pure unfolding).
        self._engine_supply: Dict[int, object] = {}
        #: checkpoint slots written this run (surfaced in budget
        #: checkpoints so a resumed invocation knows what it can reuse).
        self._checkpoint_slots: List[str] = []
        #: lazily-built operational supply (one explorer per checker: the
        #: τ-closure memo holds only completed closures, so sharing it
        #: across depths and instances is sound) and its per-target
        #: frontier stores.
        self._operational: Optional[object] = None
        self._frontier_stores: Dict[str, object] = {}

    # -- trace supply ------------------------------------------------------

    def traces_of(
        self, process: Process, depth: Optional[int] = None
    ) -> FiniteClosure:
        """The bounded trace set of ``process`` under the chosen engine
        (``depth`` overrides the configured bound, e.g. for deepening)."""
        if depth is None:
            depth = self.config.depth
        if self.engine == "operational":
            # The operational side caches through *frontier* slots (the
            # explorer's own warm-restart vocabulary), not whole-closure
            # node slots: a warm run must still enter the explorer so a
            # deeper request extends the persisted frontier instead of
            # missing a depth-keyed slot and re-exploring from scratch.
            return self._operational_traces(process, depth)
        slot = None
        if self.cache is not None and isinstance(process, Name):
            if getattr(self.cache, "checkpoint_only", False):
                # Governed run: per-depth checkpoint slots keyed by the
                # deepening schedule.  The closure at each completed depth
                # is deterministic given the definitions and config —
                # independent of the budget that interrupted the run — so
                # serving it preserves invocation-determinism while
                # letting a tripped run resume past its last checkpoint.
                slot = checkpoint_slot(f"{self.engine}:{process.name}", depth)
            else:
                slot = f"traces:{self.engine}:{process.name}:d{depth}"
            node = self.cache.get(slot)
            if node is not None:
                return FiniteClosure.from_node(node)
        closure = self._compute_traces(process, depth)
        if slot is not None:
            self.cache.put(slot, closure.root)
            if getattr(self.cache, "checkpoint_only", False):
                self._checkpoint_slots.append(slot)
        return closure

    def _compute_traces(self, process: Process, depth: int) -> FiniteClosure:
        if self.engine == "denotational":
            bindings = self._fixpoint_bindings(process, depth)
            if bindings is not None:
                return Denoter(
                    self.definitions,
                    self.env,
                    self.config,
                    process_bindings=bindings,
                ).denote(process, depth)
            return Denoter(self.definitions, self.env, self.config).denote(
                process, depth
            )
        return self._operational_traces(process, depth)

    def _operational_traces(self, process: Process, depth: int) -> FiniteClosure:
        """Explorer-backed trace supply with persisted-frontier warm
        restarts for named targets (anonymous terms — e.g. ``q[i]``
        instances — explore without a store; their universal check
        persists per-instance ``forall:`` slots instead)."""
        from repro.operational.explorer import Explorer, FrontierStore
        from repro.operational.step import OperationalSemantics

        if self._operational is None:
            semantics = OperationalSemantics(
                self.definitions, self.env, sample=self.config.sample
            )
            self._operational = Explorer(semantics)
        explorer: Explorer = self._operational  # type: ignore[assignment]
        store = None
        if self.cache is not None and isinstance(process, Name):
            store = self._frontier_stores.get(process.name)
            if store is None:
                store = FrontierStore(self.cache, f"{self.engine}:{process.name}")
                self._frontier_stores[process.name] = store
        closure = explorer.visible_traces(process, depth, store=store)
        if store is not None:
            for slot in store.written:
                if slot not in self._checkpoint_slots:
                    self._checkpoint_slots.append(slot)
        return closure

    def _fixpoint_bindings(self, process: Process, depth: int) -> Optional[dict]:
        """Engine-solved bindings, when substituting them for
        unfold-on-demand is exact for ``process``.

        Eligibility:

        * no ambient governor — governed runs deepen iteratively for
          sound partial results, and solving the whole fixpoint up
          front would spend the budget before the first partial
          verdict;
        * ``depth ≤ solve_depth`` — bindings solved at ``solve_depth``
          are truncated down, exact because bounded denotation at depth
          *d* is the depth-*d* truncation of any deeper one (for
          chan-bearing definitions this holds only up to ``hide_depth``,
          where the ``chan`` rule's inner depth saturates — see below);
        * for targets reaching a ``chan``, the system is solved at
          ``solve_depth = max(config.depth, hide_depth)`` so bindings
          capture the saturated hide-depth values, and the request depth
          must not exceed ``hide_depth`` (with the default
          ``hide_depth = 2·depth + 2`` it never does);
        * process arrays are served per sampled subscript with
          ``fallback=True``: an out-of-sample subscript resolves to
          ``None`` and the Denoter unfolds it on demand, so sampled
          fixpoint tables and full-domain unfolding blend exactly;
        * if *solving* the system itself fails (e.g. a definition body
          consults an out-of-sample subscript during the fixpoint), the
          system is marked ineligible and the checker falls back to
          pure unfold-on-demand.
        """
        if _governor.current() is not None:
            return None
        if len(self.definitions) == 0:
            return None
        solve_depth = self.config.depth
        if uses_chan(process, self.definitions):
            if self.config.depth > self.config.hide_depth:
                return None
            solve_depth = max(self.config.depth, self.config.hide_depth)
        if depth > solve_depth:
            return None
        if solve_depth not in self._engine_supply:
            from repro.semantics.engine import DenotationEngine

            if solve_depth == self.config.depth:
                solve_config = self.config
                cache = self.cache
            else:
                solve_config = SemanticsConfig(
                    depth=solve_depth,
                    sample=self.config.sample,
                    hide_depth=self.config.hide_depth,
                )
                # Engine cache slots are named per entry, not per depth;
                # a snapshot keyed by the request config must not hold
                # hide-depth roots.
                cache = None
            engine = DenotationEngine(
                self.definitions, self.env, solve_config, jobs=self.jobs, cache=cache
            )
            try:
                self._engine_supply[solve_depth] = engine.bindings(fallback=True)
            except SemanticsError:
                self._engine_supply[solve_depth] = _INELIGIBLE
        supply = self._engine_supply[solve_depth]
        if supply is _INELIGIBLE:
            return None
        return supply  # type: ignore[return-value]

    def traces_partial(self, process: Process) -> PartialTraces:
        """The trace set under the ambient budget: deepen from 0 to the
        configured depth and keep the last closure that *finished*.

        Bounded closures are monotone in depth, so the kept closure is a
        sound under-approximation — every trace in it is a real trace.
        Returns ``complete=False`` (instead of raising) when the budget
        stops the deepening early.
        """
        governor = _governor.current()
        if governor is None:
            return PartialTraces(self.traces_of(process), self.config.depth, True)
        closure: Optional[FiniteClosure] = None
        verified: Optional[int] = None
        for depth in range(self.config.depth + 1):
            try:
                governor.check_deadline()
                candidate = self.traces_of(process, depth)
            except BudgetExceeded:
                return PartialTraces(closure, verified, False)
            if closure is not None and delta_depth(closure.root, candidate.root) is None:
                # The closure did not grow from depth-1 to depth: trace
                # sets are prefix-closed, so no longer trace can exist
                # either — this *is* the full answer at any depth.
                return PartialTraces(candidate, self.config.depth, True)
            closure = candidate
            verified = depth
            governor.record_progress(
                phase="traces", completed_depth=depth,
                traces_verified=len(candidate),
            )
        return PartialTraces(closure, verified, True)

    # -- checking -----------------------------------------------------------

    def check(
        self,
        process: Process,
        assertion: Union[Formula, str],
        bindings: Optional[Mapping[str, Any]] = None,
    ) -> SatResult:
        """Check ``process sat assertion``; extra variable ``bindings``
        extend the environment (e.g. a specific ``x`` for ``q[x]``).

        Under an ambient governor the check runs by iterative deepening so
        a budget trip can still report "verified to depth k": the raised
        :class:`~repro.errors.BudgetExceeded` carries a checkpoint whose
        ``completed_depth`` is the deepest depth at which *every* trace
        satisfied the assertion.
        """
        formula = self._coerce(assertion, process)
        env = self.env.bind_all(dict(bindings or {}))
        governor = _governor.current()
        if governor is not None:
            return self._check_governed(process, formula, env, bindings, governor)
        closure = self.traces_of(process)
        if self.trie_walk:
            return self._check_trie(closure, formula, env, bindings)
        return self._check_flat(closure, formula, env, bindings)

    def _check_governed(
        self,
        process: Process,
        formula: Formula,
        env: Environment,
        bindings: Optional[Mapping[str, Any]],
        governor: Governor,
    ) -> SatResult:
        """Iterative deepening: check at depth 0, 1, …, configured depth.

        Each completed depth is a sound partial verdict (§3.3: the bounded
        closure at depth d contains exactly the traces of length ≤ d of
        the full denotation).  A counterexample found at any depth is a
        real trace of the process, so refutations are always *complete*
        results no matter how early the budget would have tripped.

        Two trie-delta skips keep the deepening incremental: a depth
        whose closure is pointer-identical to the previous one
        (``delta_depth is None``) ends the schedule — prefix-closed trace
        sets that stop growing have saturated — and each walk passes the
        previous verified closure as a *baseline* so subtrees
        pointer-unchanged since the last depth are counted, not
        re-evaluated.  Both preserve the verdict bytes of the unskipped
        schedule (counts include skipped subtrees; a refutation re-walks
        without the baseline for the canonical counterexample).
        """
        verified: Optional[int] = None
        traces_done = 0
        previous: Optional[FiniteClosure] = None
        try:
            for depth in range(self.config.depth + 1):
                governor.check_deadline()
                closure = self.traces_of(process, depth)
                if previous is not None and delta_depth(
                    previous.root, closure.root
                ) is None:
                    # Saturated below the configured depth: every deeper
                    # closure is this one, and its traces are already
                    # verified — the check holds to the full depth.
                    verified = self.config.depth
                    governor.record_progress(
                        phase="sat",
                        completed_depth=verified,
                        traces_verified=traces_done,
                    )
                    break
                if self.trie_walk:
                    result = self._check_trie(
                        closure, formula, env, bindings, baseline=previous
                    )
                    if not result.holds and previous is not None:
                        # Canonical counterexample: the baseline walk
                        # found *a* violation in the fresh region; the
                        # reported one must be the full walk's first.
                        result = self._check_trie(closure, formula, env, bindings)
                else:
                    result = self._check_flat(closure, formula, env, bindings)
                previous = closure
                if not result.holds:
                    return SatResult(
                        False,
                        result.counterexample,
                        result.traces_checked,
                        complete=True,
                        verified_depth=depth,
                    )
                verified = depth
                traces_done = result.traces_checked
                governor.record_progress(
                    phase="sat",
                    completed_depth=depth,
                    traces_verified=traces_done,
                )
        except BudgetExceeded as exc:
            inner = exc.checkpoint
            raise exc.with_checkpoint(
                Checkpoint(
                    phase="sat",
                    completed_depth=verified,
                    traces_verified=traces_done,
                    states_explored=inner.states_explored if inner is not None else 0,
                    nodes_interned=inner.nodes_interned if inner is not None else 0,
                    elapsed=inner.elapsed if inner is not None else governor.elapsed(),
                    payload={
                        "verified_depth": verified,
                        "resume_slots": tuple(self._checkpoint_slots),
                    },
                )
            ) from None
        return SatResult(
            True, None, traces_done, complete=True, verified_depth=verified
        )

    def _check_trie(
        self,
        closure: FiniteClosure,
        formula: Formula,
        env: Environment,
        bindings: Optional[Mapping[str, Any]],
        baseline: Optional[FiniteClosure] = None,
    ) -> SatResult:
        """Breadth-first trie walk with the channel history threaded down
        each edge — one :meth:`ChannelHistory.with_appended` per *node*
        instead of one full ``ch(s)`` pass per trace.

        ``baseline`` is a closure over the *same* formula/environment
        whose every trace is already verified (the previous depth of a
        deepening schedule).  Subtrees pointer-identical to the
        baseline's — same canonical arena view down a shared event path —
        are skipped wholesale; their trace count still feeds
        ``traces_checked``, so a HOLDS result reports exactly the full
        walk's number.  On a violation the caller re-walks without the
        baseline (skip order differs, and the counterexample must be the
        canonical breadth-first one).
        """
        root = closure.root
        base_root = baseline.root if baseline is not None else None
        if base_root is root:
            return SatResult(True, None, root.count)
        queue: Deque[Tuple[Trace, Any, Any, ChannelHistory]] = deque(
            [((), root, base_root, ChannelHistory())]
        )
        checked = 0
        while queue:
            trace, node, base, history = queue.popleft()
            _governor.tick()
            checked += 1
            try:
                ok = evaluate_formula(formula, env, history, self.eval_config)
            except EvaluationError as exc:
                return SatResult(
                    False,
                    Counterexample(trace, formula, bindings, error=str(exc)),
                    checked,
                )
            if not ok:
                return SatResult(
                    False, Counterexample(trace, formula, bindings), checked
                )
            base_children = dict(base.items) if base is not None else None
            for event, child in node.items:
                base_child = (
                    base_children.get(event) if base_children is not None else None
                )
                if base_child is child:
                    # Pointer-unchanged since the verified baseline:
                    # every trace below holds already.  Count, don't walk.
                    checked += child.count
                    continue
                queue.append(
                    (
                        trace + (event,),
                        child,
                        base_child,
                        history.with_appended(event.channel, event.message),
                    )
                )
        return SatResult(True, None, checked)

    def _check_flat(
        self,
        closure: FiniteClosure,
        formula: Formula,
        env: Environment,
        bindings: Optional[Mapping[str, Any]],
    ) -> SatResult:
        """The reference per-trace loop: recompute ``ch(s)`` from scratch
        for every trace (kept as the cross-check baseline)."""
        checked = 0
        for trace in closure:
            checked += 1
            try:
                ok = evaluate_formula(formula, env, ch(trace), self.eval_config)
            except EvaluationError as exc:
                return SatResult(
                    False,
                    Counterexample(trace, formula, bindings, error=str(exc)),
                    checked,
                )
            if not ok:
                return SatResult(
                    False, Counterexample(trace, formula, bindings), checked
                )
        return SatResult(True, None, checked)

    def check_forall(
        self,
        variable: str,
        domain: Domain,
        process_for: "ProcessFactory",
        assertion: Union[Formula, str],
        sample: Optional[int] = None,
        name: Optional[str] = None,
    ) -> SatResult:
        """Check ``∀v ∈ M. P(v) sat R`` over a sampled domain.

        ``process_for(value)`` builds the process instance (e.g.
        ``q[value]``); the variable is also bound in the assertion's
        environment, so ``R`` may mention it.

        With a ``name`` and a snapshot cache, every instance verified *at
        the configured depth* writes a ``forall:{name}@instance{i}``
        checkpoint slot; a later invocation (after a budget trip, say)
        skips those instances wholesale, keeping the final verdict bytes
        identical to an uninterrupted run.  Slots are written only for
        instances completed at full depth — deterministic given the
        cache key, never a function of where a budget tripped — and
        violations are never recorded (a refutation is re-derived so its
        counterexample is always fresh).
        """
        limit = sample if sample is not None else self.config.sample
        formula_template = assertion
        total = 0
        cache = self.cache if name is not None else None
        for index, value in enumerate(domain.enumerate(limit)):
            slot = None
            if cache is not None:
                slot = forall_slot(f"{self.engine}:{name}:{variable}", index)
                stored = cache.get_blob(slot)
                if stored is not None:
                    counted = self._stored_forall_instance(stored)
                    if counted is None:
                        # Structurally a blob, semantically garbage:
                        # quarantine the file and verify this run cold.
                        cache.reject()
                    else:
                        total += counted
                        KERNEL_STATS.forall_resumed += 1
                        if slot not in self._checkpoint_slots:
                            self._checkpoint_slots.append(slot)
                        continue
            process = process_for(value)
            formula = self._coerce(formula_template, process)
            result = self.check(process, formula, bindings={variable: value})
            total += result.traces_checked
            if not result.holds:
                return SatResult(False, result.counterexample, total)
            if slot is not None and (
                result.verified_depth is None
                or result.verified_depth >= self.config.depth
            ):
                cache.put_blob(
                    slot,
                    {
                        "holds": True,
                        "traces_checked": result.traces_checked,
                        "verified_depth": self.config.depth,
                    },
                )
                if slot not in self._checkpoint_slots:
                    self._checkpoint_slots.append(slot)
        return SatResult(True, None, total)

    @staticmethod
    def _stored_forall_instance(blob: dict) -> Optional[int]:
        """The ``traces_checked`` of a recorded verified instance, or
        ``None`` when the blob's content is not credible."""
        count = blob.get("traces_checked")
        if (
            blob.get("holds") is True
            and isinstance(count, int)
            and not isinstance(count, bool)
            and count >= 0
            and isinstance(blob.get("verified_depth"), int)
        ):
            return count
        return None

    def _coerce(self, assertion: Union[Formula, str], process: Process) -> Formula:
        if isinstance(assertion, Formula):
            return assertion
        channels = channel_names(process, self.definitions)
        return parse_assertion(assertion, channels)


ProcessFactory = Any  # Callable[[value], Process]


def check_sat(
    process: Process,
    assertion: Union[Formula, str],
    definitions: DefinitionList = NO_DEFINITIONS,
    env: Optional[Environment] = None,
    config: SemanticsConfig = DEFAULT_CONFIG,
    engine: str = "denotational",
    bindings: Optional[Mapping[str, Any]] = None,
) -> SatResult:
    """One-shot convenience wrapper: check ``process sat assertion``.

    >>> from repro.process import parse_definitions, Name
    >>> defs = parse_definitions("copier = input?x:NAT -> wire!x -> copier")
    >>> bool(check_sat(Name("copier"), "wire <= input", defs))
    True
    """
    checker = SatChecker(definitions, env, config, engine=engine)
    return checker.check(process, assertion, bindings)
