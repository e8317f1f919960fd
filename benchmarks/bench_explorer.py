"""Benchmark the operational explorer and the cached closures that spare it.

Two kinds of case are recorded to ``BENCH_explorer.json``:

* ``explorer_cases`` — a cold ``--engine operational`` exploration
  against a warm run, which opens the snapshot file and serves the
  ``traces:operational:{name}:d{depth}`` closure slot (the slot family
  the denotational engine caches under) without building an explorer.
  The warm closure must be pointer-identical to the cold one and the
  warm run must touch no state.
* ``layer_cases`` — single explorer layers, best of 5, in loops of
  ``bench_kernel``'s fixed pure-Python calibration loop timed in the
  same process: cold explorations (fresh explorer, fresh arena), the
  deadlock searches of cold-cli's two ``deadlocks`` queries, and one
  warm slot reload.  ``bench_guard.py`` holds each under an absolute
  ceiling.

Run as::

    PYTHONPATH=src python -m benchmarks.bench_explorer
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.bench_kernel import _layer_case
from repro.operational.explorer import Explorer
from repro.operational.step import OperationalSemantics
from repro.process.ast import Name
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.systems import buffer, copier, philosophers, protocol
from repro.traces.snapshot import SnapshotCache, cache_key
from repro.traces.trie import private_state

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


def _semantics(system, sample: int, *args) -> OperationalSemantics:
    return OperationalSemantics(
        system.definitions(*args), system.environment(), sample=sample
    )


def _cold_explore(system, proc: str, depth: int, sample: int):
    """One cold exploration on a fresh explorer (fresh τ-closure memo —
    the honest cold cost)."""
    explorer = Explorer(_semantics(system, sample))
    closure = explorer.visible_traces(Name(proc), depth)
    return closure, explorer.states_touched


def _checker(system, depth: int, sample: int, directory: str) -> SatChecker:
    defs = system.definitions()
    config = SemanticsConfig(depth=depth, sample=sample)
    cache = SnapshotCache(Path(directory), cache_key(defs, config))
    return SatChecker(
        defs, system.environment(), config, engine="operational", cache=cache
    )


def _seed_slot(system, proc: str, depth: int, sample: int, directory: str) -> None:
    """Explore once and persist the closure slot a warm run reloads."""
    seed = _checker(system, depth, sample, directory)
    seed.traces_of(Name(proc))
    seed.cache.save()


def _warm_reload(system, proc: str, depth: int, sample: int, directory: str):
    """Open the snapshot file and serve the closure slot — the whole warm
    re-run; returns the closure and the states its explorer touched."""
    checker = _checker(system, depth, sample, directory)
    closure = checker.traces_of(Name(proc))
    explorer = checker._operational
    return closure, explorer.states_touched if explorer is not None else 0


def _explorer_case(name: str, system, proc: str, depth: int, sample: int) -> dict:
    cold_s = float("inf")
    for _ in range(COLD_RUNS):
        start = time.perf_counter()
        cold_closure, cold_states = _cold_explore(system, proc, depth, sample)
        cold_s = min(cold_s, time.perf_counter() - start)

    with tempfile.TemporaryDirectory(prefix="repro-bench-explorer-") as tmp:
        _seed_slot(system, proc, depth, sample, tmp)
        warm = []
        for _ in range(WARM_RUNS):
            start = time.perf_counter()
            closure, warm_states = _warm_reload(system, proc, depth, sample, tmp)
            warm.append(time.perf_counter() - start)
            if closure != cold_closure:
                raise SystemExit(f"warm closure diverged on {name!r}")
    warm_s = sorted(warm)[len(warm) // 2]  # median: damps GC spikes
    return {
        "case": name,
        "traces": len(cold_closure),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 5),
        "cold_states_touched": cold_states,
        "warm_states_touched": warm_states,
        "cold_runs": COLD_RUNS,
        "warm_runs": WARM_RUNS,
    }


# -- single layers in calibration loops (bench_guard's ceilings) --------------


def _cold_layer(semantics: OperationalSemantics, query: str, proc: str, depth: int):
    """``Explorer.<query>`` on a fresh explorer and a fresh arena, as a
    one-shot ``repro`` run has them."""

    def run() -> None:
        with private_state():
            getattr(Explorer(semantics), query)(Name(proc), depth)

    return run


def _warm_layer_case(name: str, system, proc: str, depth: int, sample: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-explorer-") as tmp:
        _seed_slot(system, proc, depth, sample, tmp)
        _, states = _warm_reload(system, proc, depth, sample, tmp)
        if states:
            raise SystemExit(f"warm reload touched {states} states on {name!r}")
        return _layer_case(
            name, lambda: _warm_reload(system, proc, depth, sample, tmp)
        )


#: case name → a function that measures it (``_layer_case`` record)
LAYER_CASES = {
    "cold explore copier.network depth=9": lambda name: _layer_case(
        name, _cold_layer(_semantics(copier, 2), "visible_traces", "network", 9)
    ),
    "cold explore philosophers(4).table depth=6": lambda name: _layer_case(
        name, _cold_layer(_semantics(philosophers, 4, 4), "visible_traces", "table", 6)
    ),
    "deadlocks philosophers(3).table depth=5": lambda name: _layer_case(
        name, _cold_layer(_semantics(philosophers, 3, 3), "deadlock_report", "table", 5)
    ),
    "deadlocks buffer(3).buffer depth=4": lambda name: _layer_case(
        name, _cold_layer(_semantics(buffer, 3, 3), "deadlock_report", "buffer", 4)
    ),
    "warm reload philosophers.table depth=5": lambda name: _warm_layer_case(
        name, philosophers, "table", 5, 3
    ),
}


def generate() -> dict:
    cases = []
    for name, system, proc, depth, sample in EXPLORER_CASES:
        case = _explorer_case(name, system, proc, depth, sample)
        print(
            f"{case['case']:<44} cold {case['cold_s']*1000:8.1f} ms "
            f"({case['cold_states_touched']} states)   "
            f"warm {case['warm_s']*1000:7.2f} ms "
            f"({case['warm_states_touched']} states)"
        )
        cases.append(case)
    layer_cases = [measure(name) for name, measure in LAYER_CASES.items()]
    return {
        "description": (
            "explorer_cases: warm operational query served from the cached "
            "traces:operational:{name}:d{depth} closure slot (snapshot "
            "file opened and decoded inside the timed region) vs cold "
            "breadth-first exploration (pointer-identical closures). "
            "layer_cases: cold explorations and deadlock searches (fresh "
            "explorer, fresh arena) and a warm slot reload, best of 5, in "
            "loops of a fixed 200000-iteration pure-Python calibration "
            "loop timed in the same process."
        ),
        "python": sys.version.split()[0],
        "explorer_cases": cases,
        "layer_cases": layer_cases,
    }


def main() -> None:
    report = generate()
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
