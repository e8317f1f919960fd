"""The bounded ``sat`` checker.

Implements the §3.3 definition directly::

    ρ⟦P sat R⟧  =  ∀s. s ∈ ρ⟦P⟧ ⇒ (ρ + ch(s))⟦R⟧

quantifying over the bounded trace set.  Free variables shared between
``P`` and ``R`` must hold for *all* values (§2: "P sat R must be true for
all values it can take"); :meth:`SatChecker.check_forall` quantifies a
variable over a sampled domain for that purpose.

The quantification walks the closure's hash-consed trace **trie**
breadth-first, threading the channel history incrementally down each
edge — the §3.3 update ``ch(c.m⌢s) = ch(s)[(m⌢ch(s)(c))/c]`` (E10) read
left-to-right — and judges ``R`` once per distinct pair (trie node,
``ch(s)``) rather than once per trace: two traces reaching the same
node with the same history have the same continuations and the same
histories along them, so ``R`` agrees on every extension of both.
One walk asks for the histories of a small, fixed set of channels, so
it threads ``ch(s)`` as a plain tuple of message sequences, one per
channel *slot* (slots are numbered per check), and judges each pair
through ``R`` compiled once per closure it walks to read that tuple by
slot (:func:`~repro.assertions.eval.compile_formula`).  ``trie_walk=False``
restores the flat per-trace loop, which judges through the interpreter
:func:`~repro.assertions.eval.evaluate_formula` over
:class:`~repro.traces.histories.ChannelHistory` (kept as the oracle);
both modes report the same verdict, count and counterexample.

An evaluation error while judging ``R`` on a trace (e.g. an unguarded
out-of-range index) counts as a violation and is reported on the
counterexample — an assertion that cannot be evaluated on a reachable
history is not invariantly true.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Deque, Dict, Iterator, List, Mapping, NamedTuple, Optional, Set,
    Tuple, Union,
)

from repro.assertions.ast import Formula
from repro.assertions.eval import (
    DEFAULT_EVAL_CONFIG,
    Compiled,
    EvalConfig,
    SlotHistory,
    compile_formula,
    evaluate_formula,
)
from repro.assertions.parser import parse_assertion
from repro.errors import BudgetExceeded, EvaluationError
from repro.process.analysis import channel_names
from repro.process.ast import Name, Process
from repro.process.definitions import DefinitionList, NO_DEFINITIONS
from repro.runtime import governor as _governor
from repro.runtime.governor import Governor
from repro.sat.counterexample import Counterexample
from repro.semantics.config import DEFAULT_CONFIG, SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.traces.events import Channel, Trace
from repro.traces.histories import ch
from repro.traces.prefix_closure import FiniteClosure
from repro.traces.snapshot import SnapshotCache
from repro.traces.trie import ClosureNode
from repro.values.domains import Domain
from repro.values.environment import Environment


class SatResult(NamedTuple):
    """Outcome of a bounded ``sat`` check.

    ``verified_depth`` is the depth of the closure a
    :meth:`SatChecker.check` verdict covers: the configured depth for a
    HOLDS, the depth whose walk met the counterexample for a VIOLATED.
    """

    holds: bool
    counterexample: Optional[Counterexample]
    traces_checked: int
    verified_depth: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


class PartialTraces(NamedTuple):
    """A trace set together with how far it was soundly computed."""

    closure: Optional[FiniteClosure]  #: None when not even depth 0 finished
    verified_depth: Optional[int]
    complete: bool


class SatChecker:
    """Checks ``P sat R`` over bounded trace sets.

    ``engine`` selects where traces come from: ``"denotational"`` (the
    default, :class:`~repro.semantics.denotation.Denoter`) or
    ``"operational"`` (the state-space explorer — preferable for networks
    whose synchronised values are computed, like the multiplier).

    Each checker builds one supply lazily and keeps it for every query
    and depth, governed or not: a :class:`~repro.semantics.denotation.Denoter`,
    whose memoised unfolding is the §3.3 least fixpoint, or an
    :class:`~repro.operational.explorer.Explorer`.  ``cache``, a
    :class:`~repro.traces.snapshot.SnapshotCache`, keeps each named
    target's closure, whichever engine computed it (:meth:`traces_of`),
    so a repeated invocation on the same system answers without solving.
    """

    def __init__(
        self,
        definitions: DefinitionList = NO_DEFINITIONS,
        env: Optional[Environment] = None,
        config: SemanticsConfig = DEFAULT_CONFIG,
        eval_config: EvalConfig = DEFAULT_EVAL_CONFIG,
        engine: str = "denotational",
        trie_walk: bool = True,
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
        self.cache = cache
        #: cache slots this checker wrote, over every query it answered;
        #: a governed trip reports them as resume slots.
        self._written: List[str] = []
        #: lazily-built supplies, one per checker: the Denoter's memo and
        #: the explorer's τ-closure memo hold only completed results, so
        #: sharing them across depths and queries is sound.
        self._denoter: Optional[Denoter] = None
        self._operational: Optional[Any] = None

    # -- trace supply ------------------------------------------------------

    def traces_of(
        self, process: Process, depth: Optional[int] = None
    ) -> FiniteClosure:
        """The bounded trace set of ``process`` under the chosen engine
        (``depth`` overrides the configured bound, e.g. for deepening).

        With a cache, a named target's closure is cached under
        ``traces:{engine}:{name}:d{depth}``, whichever engine computes it
        and whatever budget the run has: the §3 bounded trace set at a
        depth is a function of the definitions and the depth alone."""
        if depth is None:
            depth = self.config.depth
        slot = None
        if self.cache is not None and isinstance(process, Name):
            slot = f"traces:{self.engine}:{process.name}:d{depth}"
            node = self.cache.get(slot)
            if node is not None:
                return FiniteClosure.from_node(node)
        closure = self._compute_traces(process, depth)
        if slot is not None:
            self.cache.put(slot, closure.root)
            self._written.append(slot)
        return closure

    def _compute_traces(self, process: Process, depth: int) -> FiniteClosure:
        if self.engine == "denotational":
            if self._denoter is None:
                self._denoter = Denoter(self.definitions, self.env, self.config)
            return self._denoter.denote(process, depth)
        if self._operational is None:
            from repro.operational.explorer import Explorer
            from repro.operational.step import OperationalSemantics

            self._operational = Explorer(
                OperationalSemantics(
                    self.definitions, self.env, sample=self.config.sample
                )
            )
        return self._operational.visible_traces(process, depth)

    def _schedule(
        self, process: Process, governor: Optional[Governor]
    ) -> Iterator[Tuple[int, FiniteClosure]]:
        """The depths a run judges, as ``(depth, closure)`` pairs.

        Without a governor: the configured depth alone.  Under one: depth
        0, 1, … up to the configured depth, the deadline checked before
        each closure is built, so a trip still leaves the deepest depth
        that finished (§3.3: the bounded closure at depth d holds exactly
        the traces of length ≤ d of the full denotation).

        The governed schedule stops at the first closure whose root is
        the previous one's: a prefix-closed trace set that did not grow
        from depth−1 to depth holds no longer trace either, so it is the
        answer at every depth.  A loop over the schedule that ends
        without a trip has therefore covered the configured depth.
        """
        if governor is None:
            yield self.config.depth, self.traces_of(process)
            return
        previous: Optional[FiniteClosure] = None
        for depth in range(self.config.depth + 1):
            governor.check_deadline()
            closure = self.traces_of(process, depth)
            if previous is not None and closure.root is previous.root:
                return
            yield depth, closure
            previous = closure

    def traces_partial(self, process: Process) -> PartialTraces:
        """The trace set under the ambient budget: the last closure of
        :meth:`_schedule` that *finished*.

        Bounded closures are monotone in depth, so the kept closure is a
        sound under-approximation — every trace in it is a real trace.
        Under a governor, returns ``complete=False`` (instead of raising)
        when the budget stops the deepening early; ungoverned, a trip in
        the supply propagates.
        """
        governor = _governor.current()
        closure: Optional[FiniteClosure] = None
        verified: Optional[int] = None
        try:
            for verified, closure in self._schedule(process, governor):
                if governor is not None:
                    governor.record_progress(
                        phase="traces", completed_depth=verified,
                        traces_verified=len(closure),
                    )
        except BudgetExceeded:
            if governor is None:
                raise
            return PartialTraces(closure, verified, False)
        return PartialTraces(closure, self.config.depth, True)

    # -- checking -----------------------------------------------------------

    def check(
        self,
        process: Process,
        assertion: Union[Formula, str],
        bindings: Optional[Mapping[str, Any]] = None,
    ) -> SatResult:
        """Check ``process sat assertion``; extra variable ``bindings``
        extend the environment (e.g. a specific ``x`` for ``q[x]``).

        Judges every closure of :meth:`_schedule`.  Under an ambient
        governor that is iterative deepening, so a budget trip can still
        report "verified to depth k": the raised
        :class:`~repro.errors.BudgetExceeded` carries a checkpoint whose
        ``completed_depth`` is the deepest depth at which *every* trace
        satisfied the assertion, and whose resume slots are the cache
        slots this checker wrote.  A counterexample found at any depth
        is a real trace of the process, so a refutation is complete
        however early the budget would have tripped.  Each depth is
        walked afresh; the quotiented walk costs one visit per pair, so
        the schedule stays within a small factor of its last walk.
        Ungoverned, a trip in the trace supply (say, the explorer's
        state cap) completes no depth of the check.
        """
        formula = self._coerce(assertion, process)
        env = self.env.bind_all(dict(bindings or {}))
        walk = self._check_trie if self.trie_walk else self._check_flat
        governor = _governor.current()
        verified: Optional[int] = None
        traces_done = 0
        try:
            for depth, closure in self._schedule(process, governor):
                result = walk(closure, formula, env, bindings)
                if not result.holds:
                    return result._replace(verified_depth=depth)
                verified, traces_done = depth, result.traces_checked
                if governor is not None:
                    governor.record_progress(
                        phase="sat", completed_depth=verified,
                        traces_verified=traces_done,
                    )
        except BudgetExceeded as exc:
            raise exc.with_checkpoint(
                _governor.trip_checkpoint(
                    exc, "sat", verified, traces_done,
                    resume_slots=(
                        tuple(self._written) if governor is not None else ()
                    ),
                )
            ) from None
        # The schedule ran out without a trip: the check holds to the
        # configured depth, saturated or not.
        verified = self.config.depth
        if governor is not None:
            governor.record_progress(
                phase="sat", completed_depth=verified,
                traces_verified=traces_done,
            )
        return SatResult(True, None, traces_done, verified_depth=verified)

    def _check_trie(
        self,
        closure: FiniteClosure,
        formula: Formula,
        env: Environment,
        bindings: Optional[Mapping[str, Any]],
    ) -> SatResult:
        """The quotiented walk decides the verdict.  A refutation met after
        a pair was skipped is walked again canonically, so its
        ``traces_checked`` is the flat loop's (the number of traces
        judged up to and including the first violation); a walk that
        skipped nothing already was the canonical one.

        Both walks judge through ``formula`` compiled once, here, and
        share one map of channel slots: compiling gives each closed
        channel reference of ``R`` a slot, and a walk gives each edge's
        channel one when it first meets it.  Every walk starts from
        ``((),) * len(slots)`` as compiling left it."""
        slots: Dict[Channel, int] = {}
        judge = compile_formula(formula, slots, self.eval_config)
        start = ((),) * len(slots)
        root = closure.root
        result, skipped = self._walk_trie(
            root, formula, judge, slots, start, env, bindings, quotient=True
        )
        if not result.holds and skipped:
            result, _ = self._walk_trie(
                root, formula, judge, slots, start, env, bindings,
                quotient=False,
            )
        return result

    def _walk_trie(
        self,
        root: ClosureNode,
        formula: Formula,
        judge: Compiled,
        slots: Dict[Channel, int],
        start: SlotHistory,
        env: Environment,
        bindings: Optional[Mapping[str, Any]],
        quotient: bool,
    ) -> Tuple[SatResult, bool]:
        """Breadth-first trie walk with ``ch(s)`` threaded down each edge
        as a tuple of message sequences, one per channel slot — one tuple
        splice per visited edge instead of one full ``ch(s)`` pass per
        trace — judging each visited pair through ``judge``, ``formula``
        compiled.  Returns the result and whether any pair was skipped.

        A node's edges are read once per walk, as ``(event, slot,
        message, child)``; the first read of an edge on a channel without
        a slot gives it the next one.  Appending to a slot past the end
        of a history pads it with ⟨⟩, so a history is as long as the
        larger of ``len(start)`` and 1 + its highest non-empty slot, and
        two traces with equal ``ch(s)`` have equal tuples.

        With ``quotient``, each pair (trie node, ``ch(s)``) is judged
        once: a child whose pair an earlier trace already reached is
        counted (``child.count`` traces), not walked.  Node and history
        fix every continuation and its history, so the skipped traces
        agree on ``R`` with ones already walked, and a HOLDS result
        reports ``root.count`` like the flat loop.

        Two same-length paths that first diverge on one channel differ in
        that channel's history forever, so pairs can coincide only below
        a node whose edges lie on two or more channels.  The seen-set is
        consulted only there: a sequential trie walks without hashing a
        single history.
        """
        queue: Deque[Tuple[Trace, ClosureNode, SlotHistory, bool]] = deque(
            [((), root, start, False)]
        )
        seen: Set[Tuple[ClosureNode, SlotHistory]] = set()
        edges: Dict[ClosureNode, Tuple[Tuple[Any, ...], bool]] = {}
        checked = 0
        skipped = False
        while queue:
            trace, node, history, merging = queue.popleft()
            _governor.tick()
            checked += 1
            try:
                ok = judge(env, history)
            except EvaluationError as exc:
                return SatResult(
                    False,
                    Counterexample(trace, formula, bindings, error=str(exc)),
                    checked,
                ), skipped
            if not ok:
                return SatResult(
                    False, Counterexample(trace, formula, bindings), checked
                ), skipped
            read = edges.get(node)
            if read is None:
                moves = tuple(
                    (event, slots.setdefault(event.channel, len(slots)),
                     event.message, child)
                    for event, child in node.items
                )
                read = edges[node] = (
                    moves, len({move[1] for move in moves}) > 1
                )
            moves, interleaves = read
            if quotient and not merging:
                merging = interleaves
            length = len(history)
            for event, slot, message, child in moves:
                if slot < length:
                    child_history = (
                        history[:slot]
                        + (history[slot] + (message,),)
                        + history[slot + 1:]
                    )
                else:
                    child_history = (
                        history + ((),) * (slot - length) + ((message,),)
                    )
                if merging:
                    # Add and compare sizes: one history hash per pair.
                    size = len(seen)
                    seen.add((child, child_history))
                    if len(seen) == size:
                        checked += child.count
                        skipped = True
                        continue
                queue.append((trace + (event,), child, child_history, merging))
        return SatResult(True, None, checked), skipped

    def _check_flat(
        self,
        closure: FiniteClosure,
        formula: Formula,
        env: Environment,
        bindings: Optional[Mapping[str, Any]],
    ) -> SatResult:
        """The reference per-trace loop: recompute ``ch(s)`` from scratch
        for every trace (kept as the oracle the quotiented walk is held to)."""
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
    ) -> SatResult:
        """Check ``∀v ∈ M. P(v) sat R`` over a sampled domain.

        ``process_for(value)`` builds the process instance (e.g.
        ``q[value]``); the variable is also bound in the assertion's
        environment, so ``R`` may mention it.
        """
        limit = sample if sample is not None else self.config.sample
        total = 0
        for value in domain.enumerate(limit):
            process = process_for(value)
            formula = self._coerce(assertion, process)
            result = self.check(process, formula, bindings={variable: value})
            total += result.traces_checked
            if not result.holds:
                return SatResult(False, result.counterexample, total)
        return SatResult(True, None, total)

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
