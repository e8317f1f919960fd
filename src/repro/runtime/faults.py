"""Deterministic fault injection for exception-safety testing.

The governor (:mod:`repro.runtime.governor`) may abort a computation at
any cooperative trigger point.  That is only *sound* if an abort can
never corrupt the shared mutable state — the hash-consed interner and the
operator memo tables — i.e. if re-running the aborted call from scratch
still computes exactly what the flat-set oracle
(:mod:`repro.traces._reference`) says it should.

This module makes aborts reproducible on demand: named **trigger sites**
are compiled into the kernel's miss paths (the same places the governor
hooks), and a :class:`FaultPlan` deterministically raises
:class:`FaultInjected` at the Nth visit of a chosen site.  The hypothesis
suite in ``tests/runtime/test_faults.py`` then proves the invariant: for
*any* site and *any* trigger count, inject → abort → clean re-run equals
the oracle.

With no plan installed each site is a single ``is None`` check, so the
instrumentation costs nothing in production.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Every trigger site compiled into the library, for documentation and
#: for tests that want to quantify over all of them.
SITES = (
    "trie.intern",
    "trie.truncate",
    "op.hide",
    "op.pad",
    "op.parallel",
    "denote.unfold",
    "explorer.step",
    "fixpoint.step",
    # serving layer (PR 7): the supervisor's dispatch path, the worker's
    # request loop (converted to a hard ``os._exit`` so it simulates a
    # SIGKILL-grade crash, not an exception), and the snapshot cache's
    # atomic-write path (abort between temp-file write and rename).
    "serve.dispatch",
    "serve.worker_exit",
    "snapshot.write",
)


class FaultInjected(Exception):
    """A deliberately injected failure.

    Not a :class:`~repro.errors.ReproError` on purpose: the harness
    simulates *crashes*, and library code catching its own error hierarchy
    must never swallow one.
    """

    def __init__(self, site: str, visit: int) -> None:
        super().__init__(f"injected fault at {site!r} (visit {visit})")
        self.site = site
        self.visit = visit


class FaultPlan:
    """Fire :class:`FaultInjected` at the ``after``-th visit of ``site``.

    ``site=None`` matches every site (the trigger counts total visits);
    ``after=None`` never fires — observation mode, used to discover how
    many trigger points a workload passes so tests can sample a valid
    trigger index.  ``counts`` records per-site visit totals either way.
    """

    __slots__ = ("site", "after", "counts", "total", "fired")

    def __init__(self, site: Optional[str] = None, after: Optional[int] = 1) -> None:
        if after is not None and after < 1:
            raise ValueError("after must be >= 1 (or None for observation)")
        self.site = site
        self.after = after
        self.counts: Dict[str, int] = {}
        self.total = 0
        self.fired = False

    def visit(self, site: str) -> None:
        self.total += 1
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if self.after is None or self.fired:
            return
        matched = self.total if self.site is None else count
        if (self.site is None or site == self.site) and matched >= self.after:
            self.fired = True
            raise FaultInjected(site, matched)


def parse_plan(spec: str) -> FaultPlan:
    """Build a plan from a ``site:after`` spec string (``after`` defaults
    to 1) — the form ``repro serve --inject`` and the chaos harness use
    to arm a fault in a freshly spawned process."""
    site, _, after = spec.partition(":")
    site = site.strip()
    if site not in SITES:
        raise ValueError(f"unknown fault site {site!r}; known: {', '.join(SITES)}")
    return FaultPlan(site=site, after=int(after) if after.strip() else 1)


_PLAN: Optional[FaultPlan] = None


def maybe_fail(site: str) -> None:
    """Trigger-site hook; a no-op unless a plan is installed."""
    plan = _PLAN
    if plan is not None:
        plan.visit(site)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the ``with`` body (plans do not nest)."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


@contextmanager
def observe() -> Iterator[FaultPlan]:
    """Count trigger-site visits without ever firing."""
    with inject(FaultPlan(after=None)) as plan:
        yield plan
