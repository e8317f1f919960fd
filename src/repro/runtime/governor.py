"""Resource-governed execution: budgets, deadlines, and checkpoints.

The paper's checkers are sound only on the bounded approximations that
can actually be computed (§3's chain ``a₀ ⊆ a₁ ⊆ …``).  This module
makes the bound a first-class, *enforced* object rather than an implicit
property of whatever finishes before the operator crashes:

* a :class:`Budget` declares limits — wall-clock deadline, interned-node
  budget, explored-state budget;
* a :class:`Governor` enforces one budget over one computation, fed by
  cheap cooperative hooks threaded through the trie interner
  (:func:`note_node`), the operational explorer (:func:`note_state`), and
  every operator/denoter recursion (:func:`tick`);
* when a limit trips, the governor raises
  :class:`~repro.errors.BudgetExceeded` carrying a :class:`Checkpoint` —
  the deepest *completed* depth, the traces verified to it and the live
  counters — so ``P sat R`` degrades to "verified to depth k, no
  counterexample" instead of dying;
* the layer that catches a trip knows best what it had completed, so it
  re-raises the trip with a checkpoint built by :func:`trip_checkpoint`
  from its own depth and trace count.

The governor is installed ambiently with :func:`activate` (a context
manager) so the hash-consed interner, which is process-global, can report
without every caller threading a parameter through.  With no governor
active every hook is a single ``is None`` check — the ungoverned fast
path stays fast.

Exception safety is the design invariant that makes a trip *sound*: memo
tables and the interner only ever store **completed** results, so a
computation aborted at any trigger point leaves them consistent and a
re-run computes exactly what an undisturbed run would have — the
property :mod:`repro.runtime.faults` exists to prove.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.errors import BudgetExceeded

#: Wall-clock reads are comparatively expensive; the governor checks the
#: deadline only every this-many cooperative events.
DEADLINE_STRIDE = 256


class Checkpoint:
    """What a governed computation had soundly completed when it stopped.

    ``completed_depth`` is the deepest *fully finished* level — an
    approximation level of the §3.3 chain, a BFS level of the explorer,
    or a verified trace depth of the sat checker — ``None`` when not even
    level 0 finished.  ``resume_slots`` names the snapshot-cache slots a
    governed check completed and persisted: what a re-invocation with
    the same cache directory warm-starts from.
    """

    __slots__ = (
        "phase",
        "completed_depth",
        "traces_verified",
        "states_explored",
        "nodes_interned",
        "elapsed",
        "resume_slots",
    )

    def __init__(
        self,
        phase: str = "",
        completed_depth: Optional[int] = None,
        traces_verified: int = 0,
        states_explored: int = 0,
        nodes_interned: int = 0,
        elapsed: float = 0.0,
        resume_slots: Tuple[str, ...] = (),
    ) -> None:
        self.phase = phase
        self.completed_depth = completed_depth
        self.traces_verified = traces_verified
        self.states_explored = states_explored
        self.nodes_interned = nodes_interned
        self.elapsed = elapsed
        self.resume_slots = resume_slots

    def describe(self) -> str:
        """One human line: what was verified before the budget ran out."""
        parts = []
        if self.completed_depth is not None:
            parts.append(f"verified to depth {self.completed_depth}")
        else:
            parts.append("no depth completed")
        if self.traces_verified:
            parts.append(f"{self.traces_verified} traces checked")
        if self.states_explored:
            parts.append(f"{self.states_explored} states explored")
        if self.nodes_interned:
            parts.append(f"{self.nodes_interned} nodes interned")
        parts.append(f"{self.elapsed:.2f}s elapsed")
        if self.resume_slots:
            parts.append(f"{len(self.resume_slots)} resume slot(s) persisted")
        prefix = f"{self.phase}: " if self.phase else ""
        return prefix + ", ".join(parts)

    def __repr__(self) -> str:
        return f"Checkpoint({self.describe()})"


class Budget:
    """Immutable resource limits; ``None`` means unlimited.

    ``deadline`` is wall-clock seconds from :meth:`start`; ``max_nodes``
    bounds *newly interned* trie nodes (the kernel's real storage cost);
    ``max_states`` bounds configurations touched by the operational
    explorer across the governed computation.
    """

    __slots__ = ("deadline", "max_nodes", "max_states")

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_nodes: Optional[int] = None,
        max_states: Optional[int] = None,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        if max_nodes is not None and max_nodes < 0:
            raise ValueError("max_nodes must be non-negative")
        if max_states is not None and max_states < 0:
            raise ValueError("max_states must be non-negative")
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.max_states = max_states

    @property
    def unlimited(self) -> bool:
        return (
            self.deadline is None
            and self.max_nodes is None
            and self.max_states is None
        )

    def as_spec(self) -> Dict[str, object]:
        """A JSON-compatible description, for the serve wire protocol."""
        return {
            "deadline": self.deadline,
            "max_nodes": self.max_nodes,
            "max_states": self.max_states,
        }

    @classmethod
    def from_spec(cls, spec: Optional[Dict[str, Any]]) -> Optional["Budget"]:
        """Rebuild a budget from :meth:`as_spec` output (``None``/empty →
        no budget).  Raises :class:`ValueError` on negative limits, like
        the constructor — a request must not smuggle in a bad budget."""
        if not spec:
            return None
        deadline = spec.get("deadline")
        max_nodes = spec.get("max_nodes")
        max_states = spec.get("max_states")
        if deadline is None and max_nodes is None and max_states is None:
            return None
        return cls(
            deadline=None if deadline is None else float(deadline),
            max_nodes=None if max_nodes is None else int(max_nodes),
            max_states=None if max_states is None else int(max_states),
        )

    def start(self) -> "Governor":
        """A fresh governor enforcing this budget, clock started now."""
        return Governor(self)

    def __repr__(self) -> str:
        return (
            f"Budget(deadline={self.deadline}, max_nodes={self.max_nodes}, "
            f"max_states={self.max_states})"
        )


class Governor:
    """Enforces one :class:`Budget` over one computation.

    Counters accumulate across the whole governed region (several
    denotations, a fixpoint chain, an exploration, a sat walk); subsystems
    call :meth:`record_progress` as they complete sound units of work so
    that the checkpoint attached to a trip reflects the *latest completed*
    state, not the interrupted one.
    """

    __slots__ = (
        "budget",
        "started",
        "nodes_interned",
        "states_touched",
        "ticks",
        "exhausted",
        "_phase",
        "_completed_depth",
        "_traces_verified",
    )

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.started = time.monotonic()
        self.nodes_interned = 0
        self.states_touched = 0
        self.ticks = 0
        self.exhausted = False
        self._phase = ""
        self._completed_depth: Optional[int] = None
        self._traces_verified = 0

    # -- cooperative hooks --------------------------------------------------

    def note_node(self) -> None:
        """One freshly interned trie node (called on interner misses)."""
        self.nodes_interned += 1
        limit = self.budget.max_nodes
        if limit is not None and self.nodes_interned > limit:
            self.trip("interned-node", limit)
        self._stride_deadline()

    def note_state(self) -> None:
        """One configuration touched by the operational explorer."""
        self.states_touched += 1
        limit = self.budget.max_states
        if limit is not None and self.states_touched > limit:
            self.trip("explored-state", limit)
        self._stride_deadline()

    def tick(self) -> None:
        """One unit of cooperative work (operator recursion, trie walk)."""
        self._stride_deadline()

    def _stride_deadline(self) -> None:
        self.ticks += 1
        if self.ticks % DEADLINE_STRIDE == 0:
            self.check_deadline()

    def check_deadline(self) -> None:
        """Trip immediately if the wall-clock deadline has passed."""
        deadline = self.budget.deadline
        if deadline is not None and self.elapsed() > deadline:
            self.trip("wall-clock", f"{deadline}s")

    # -- state --------------------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def expired(self) -> bool:
        """Non-raising deadline probe (the battery uses it to skip work)."""
        deadline = self.budget.deadline
        return self.exhausted or (
            deadline is not None and self.elapsed() > deadline
        )

    def record_progress(
        self,
        phase: Optional[str] = None,
        completed_depth: Optional[int] = None,
        traces_verified: Optional[int] = None,
    ) -> None:
        """Note a *completed* sound unit of work; a later trip's checkpoint
        reports the most recent record unless a layer restamps it."""
        if phase is not None:
            self._phase = phase
        if completed_depth is not None:
            self._completed_depth = completed_depth
        if traces_verified is not None:
            self._traces_verified = traces_verified

    def checkpoint(self, **overrides: Any) -> Checkpoint:
        """The current sound-progress snapshot (recorded progress plus live
        counters), with optional field overrides."""
        fields: Dict[str, Any] = {
            "phase": self._phase,
            "completed_depth": self._completed_depth,
            "traces_verified": self._traces_verified,
            "states_explored": self.states_touched,
            "nodes_interned": self.nodes_interned,
            "elapsed": self.elapsed(),
        }
        fields.update(overrides)
        return Checkpoint(**fields)

    def trip(self, resource: str, limit: object) -> None:
        """Stop now: raise :class:`BudgetExceeded` with the checkpoint."""
        self.exhausted = True
        raise BudgetExceeded(resource, limit, self.checkpoint())

    def summary(self) -> str:
        """Human-readable counter block (appended to ``repro stats``)."""
        budget = self.budget
        limits = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("deadline", f"{budget.deadline}s" if budget.deadline is not None else None),
                ("max-nodes", budget.max_nodes),
                ("max-states", budget.max_states),
            )
            if value is not None
        )
        lines = [
            "resource governor",
            f"  budget: {limits or 'unlimited'}",
            f"  spent: {self.elapsed():.3f}s, {self.nodes_interned} nodes "
            f"interned, {self.states_touched} states touched, "
            f"{self.ticks} cooperative checks",
        ]
        if self.exhausted:
            lines.append("  status: EXHAUSTED (partial results only)")
        return "\n".join(lines)


def trip_checkpoint(
    exc: BudgetExceeded,
    phase: str,
    completed_depth: Optional[int],
    traces_verified: int,
    states_explored: Optional[int] = None,
    resume_slots: Tuple[str, ...] = (),
) -> Checkpoint:
    """The checkpoint a layer restamps a caught trip with: its own phase,
    completed depth and traces verified, and the live counters (states,
    nodes, elapsed) of the checkpoint that tripped.

    ``states_explored`` overrides the tripped count (the explorer reports
    its per-call states).  The tripped checkpoint is ``None`` only for
    the explorer's own ``max_states`` cap, which the explorer restamps
    before any outer layer sees it.
    """
    inner = exc.checkpoint
    if states_explored is None:
        states_explored = inner.states_explored if inner is not None else 0
    return Checkpoint(
        phase=phase,
        completed_depth=completed_depth,
        traces_verified=traces_verified,
        states_explored=states_explored,
        nodes_interned=inner.nodes_interned if inner is not None else 0,
        elapsed=inner.elapsed if inner is not None else 0.0,
        resume_slots=resume_slots,
    )


# ---------------------------------------------------------------------------
# ambient governor
# ---------------------------------------------------------------------------

# A plain module global, read by the hot-path hooks below.
_ACTIVE: Optional[Governor] = None


def current() -> Optional[Governor]:
    """The ambient governor, or ``None`` when execution is ungoverned."""
    return _ACTIVE


@contextmanager
def activate(governor: Optional[Governor]) -> Iterator[Optional[Governor]]:
    """Install ``governor`` as the ambient governor for the ``with`` body.

    ``activate(None)`` is a no-op, so call sites can thread an optional
    governor without branching.  Nesting replaces the outer governor for
    the inner region and restores it afterwards.  The installed
    governor is process-global: every thread sees it.
    """
    global _ACTIVE
    if governor is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = governor
    try:
        yield governor
    finally:
        _ACTIVE = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Run the body with no ambient governor, restoring it afterwards.

    Cache *persistence* must never spend the budget of the computation
    it is saving: a governed run that already tripped still writes the
    slots of the depths it completed, and merging another process's
    slots into the file re-interns nodes that must not trip the
    (already spent) budget.
    Like :func:`activate`, the change is process-global.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = previous


def note_node() -> None:
    """Hot-path hook for the trie interner (no-op when ungoverned)."""
    g = _ACTIVE
    if g is not None:
        g.note_node()


def note_state() -> None:
    """Hot-path hook for the operational explorer."""
    g = _ACTIVE
    if g is not None:
        g.note_state()


def tick() -> None:
    """Hot-path hook for operator/denoter recursions and trie walks."""
    g = _ACTIVE
    if g is not None:
        g.tick()


@contextmanager
def recursion_guard(phase: str) -> Iterator[None]:
    """Convert an escaped :class:`RecursionError` into a structured
    :class:`BudgetExceeded` at a *non-recursive* entry point.

    The interpreter's recursion limit is treated as one more resource
    budget: deep tries and deep process terms stop with "recursion depth
    budget of N exceeded" plus the governor's checkpoint instead of an
    unbounded traceback.  By the time the except clause runs the stack has
    unwound to the entry frame, so building the replacement is safe.
    """
    try:
        yield
    except RecursionError:
        limit = sys.getrecursionlimit()
        g = _ACTIVE
        checkpoint = g.checkpoint(phase=phase) if g is not None else Checkpoint(phase=phase)
        raise BudgetExceeded("recursion-depth", limit, checkpoint) from None
