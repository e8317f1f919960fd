"""Benchmark the payoff of cached operational closures: a warm
``--engine operational`` query vs a cold breadth-first search.

A cold ``--engine operational`` run pays the full BFS — every τ-closure,
every visible step — on every invocation.  A warm run opens the snapshot
file and serves the ``traces:operational:{name}:d{depth}`` closure slot,
the same slot family the denotational engine caches under, without
building an explorer.  This module records both sides and their ratio
to ``BENCH_explorer.json``; ``bench_guard.py`` re-measures the ratio
and fails CI if the warm path stops beating the cold path by the
acceptance factor.

Run as::

    PYTHONPATH=src python -m benchmarks.bench_explorer
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from repro.operational.explorer import Explorer
from repro.operational.step import OperationalSemantics
from repro.process.ast import Name
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.systems import copier, philosophers, protocol
from repro.traces.snapshot import SnapshotCache, cache_key

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_explorer.json"

#: (case name, system module, process, depth, sample) — state spaces big
#: enough for the cold side to time reliably, small enough for CI.
EXPLORER_CASES = (
    ("explore philosophers.table depth=5 sample=3", philosophers, "table", 5, 3),
    ("explore protocol.protocol depth=6 sample=2", protocol, "protocol", 6, 2),
    ("explore copier.network depth=7 sample=2", copier, "network", 7, 2),
)

COLD_RUNS = 3
WARM_RUNS = 5


def _cold_explore(system, proc: str, depth: int, sample: int):
    """One cold exploration on a fresh explorer (fresh τ-closure memo —
    the honest cold cost)."""
    semantics = OperationalSemantics(
        system.definitions(), system.environment(), sample=sample
    )
    explorer = Explorer(semantics)
    closure = explorer.visible_traces(Name(proc), depth)
    return closure, explorer.states_touched


def _explorer_case(name: str, system, proc: str, depth: int, sample: int) -> dict:
    defs, env = system.definitions(), system.environment()
    config = SemanticsConfig(depth=depth, sample=sample)

    cold_s = float("inf")
    for _ in range(COLD_RUNS):
        start = time.perf_counter()
        cold_closure, cold_states = _cold_explore(system, proc, depth, sample)
        cold_s = min(cold_s, time.perf_counter() - start)

    def checker(directory: str) -> SatChecker:
        cache = SnapshotCache(Path(directory), cache_key(defs, config))
        return SatChecker(defs, env, config, engine="operational", cache=cache)

    with tempfile.TemporaryDirectory(prefix="repro-bench-explorer-") as tmp:
        seed = checker(tmp)
        seed.traces_of(Name(proc))
        seed.cache.save()

        warm = []
        for _ in range(WARM_RUNS):
            # Timed: opening (reading and decoding) the snapshot file and
            # serving the closure slot — the whole warm re-run.
            start = time.perf_counter()
            warm_checker = checker(tmp)
            closure = warm_checker.traces_of(Name(proc))
            warm.append(time.perf_counter() - start)
            if closure != cold_closure:
                raise SystemExit(f"warm closure diverged on {name!r}")
            explorer = warm_checker._operational
            warm_states = explorer.states_touched if explorer is not None else 0
    warm_s = sorted(warm)[len(warm) // 2]  # median: damps GC spikes
    return {
        "case": name,
        "traces": len(cold_closure),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 5),
        "speedup": round(cold_s / warm_s, 1) if warm_s else float("inf"),
        "cold_states_touched": cold_states,
        "warm_states_touched": warm_states,
        "cold_runs": COLD_RUNS,
        "warm_runs": WARM_RUNS,
    }


def generate() -> dict:
    cases = []
    for name, system, proc, depth, sample in EXPLORER_CASES:
        case = _explorer_case(name, system, proc, depth, sample)
        print(
            f"{case['case']:<44} cold {case['cold_s']*1000:8.1f} ms "
            f"({case['cold_states_touched']} states)   "
            f"warm {case['warm_s']*1000:7.2f} ms "
            f"({case['warm_states_touched']} states)   ×{case['speedup']}"
        )
        cases.append(case)
    return {
        "description": (
            "warm operational query served from the cached "
            "traces:operational:{name}:d{depth} closure slot (snapshot "
            "file opened and decoded inside the timed region) vs cold "
            "breadth-first exploration (pointer-identical closures)"
        ),
        "python": sys.version.split()[0],
        "explorer_cases": cases,
    }


def main() -> None:
    report = generate()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
