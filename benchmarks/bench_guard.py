"""Regression guard for the kernel's and engine's recorded wins.

Re-measures the denotation cases from ``BENCH_kernel.json`` whose
recorded baseline is slow enough to time reliably (≥ 40 ms) and fails
if the measured trie-vs-reference *speedup ratio* falls below
``TOLERANCE`` of the recorded one.  Comparing ratios rather than raw
wall-clock makes the guard robust to machine speed: both kernels run on
the same box, so a uniformly slower host cancels out.

Also re-measures the arena kernel's absolute floors — node-build
throughput (≥ ``MIN_ARENA_IDS_PER_S``) and flat snapshot round-trip
throughput (≥ ``MIN_SNAPSHOT_NODES_PER_S``) — and
re-derives ``BENCH_engine.json``'s definition-level accounting —
which is *deterministic*, so it must match the recording exactly and the
multiplier reduction must stay ≥ ``MIN_ENGINE_REDUCTION`` — and
re-times the warm-cache case against ``MIN_WARM_SPEEDUP``.  Finally it
re-measures ``BENCH_serve.json``'s warm-daemon-vs-cold-CLI cases and
fails if the daemon's warm path stops beating a cold invocation by
``MIN_SERVE_SPEEDUP`` or its median warm query exceeds
``MAX_SERVE_WARM_S``.

Run in CI (or by hand) as::

    PYTHONPATH=src python -m benchmarks.bench_guard
"""

from __future__ import annotations

import json
import re

from benchmarks.bench_kernel import (
    ENGINE_RESULT_PATH,
    RESULT_PATH,
    _denote,
    _engine_cache_case,
    _engine_levels_case,
    _node_build_case,
    _snapshot_case,
    _time,
)
from repro.systems import copier, multiplier, protocol

#: Measured speedup must stay above this fraction of the recorded one.
TOLERANCE = 0.75

#: Recorded ratios saturate here before the tolerance is applied: the
#: trie side of a denote case is a few milliseconds, so ratios beyond
#: ~50× swing 2× run-to-run on a loaded host.  The guard exists to
#: catch the kernel collapsing towards the baseline, not to reproduce
#: an outlier ratio exactly.
RATIO_CAP = 50.0

#: The engine must re-denote at least this factor fewer definition-levels
#: than the naive monolithic chain on the multiplier (the acceptance bar).
MIN_ENGINE_REDUCTION = 2.0

#: Reduction floor for systems the engine could not previously solve at
#: all (philosophers — array-indexed; eligible since sub-level deltas).
MIN_INELIGIBLE_REDUCTION = 1.5

#: Depth at which the reduction bar applies (shallower runs amortise the
#: non-recursive savings over fewer levels).
ENGINE_GUARD_DEPTH = 5

#: Systems whose recursive entries must keep skipping re-denotations via
#: the delta analysis (level-skips or sub-level horizon skips) at
#: ``ENGINE_GUARD_DEPTH`` and beyond.  A drop to zero means the frontier
#: tracking silently degraded to the naive schedule.
DELTA_GUARD_SYSTEMS = ("multiplier", "protocol")

#: Warm snapshot restarts must beat a cold solve by at least this factor.
#: (Recorded speedups are ~50×; the floor is deliberately loose because
#: the warm run is sub-millisecond and timing-noisy.)
MIN_WARM_SPEEDUP = 3.0

#: Absolute node-construction floor — deliberately loose (measured rates
#: are ~15× this) so the guard survives slow CI hosts, while still
#: catching a collapse of the arena intern fast path.
MIN_ARENA_IDS_PER_S = 20_000

#: Absolute snapshot round-trip floor (encode + JSON + cold decode, in
#: solved nodes per second) — loose in the same way: measured rates are
#: well over 10× this on every recorded case, so only a collapse of the
#: flat codec or its bulk splice trips it.
MIN_SNAPSHOT_NODES_PER_S = 40_000

#: Warm-daemon queries must beat cold CLI invocations by at least this
#: factor (the PR's acceptance bar is ≥5×; recorded ratios are >100×,
#: but the warm side is ~1 ms and the cold side is startup-dominated,
#: so the floor stays at the acceptance bar rather than a recording
#: fraction).
MIN_SERVE_SPEEDUP = 5.0

#: Absolute ceiling on the warm side of those cases: the median warm
#: query through a one-worker daemon, in seconds.  The ratio mostly
#: credits the daemon with the cold side's interpreter start and
#: imports; the ceiling holds the warm path itself.  Eight bench_serve
#: and bench_guard runs on a 2-vCPU host measured warm medians of
#: 1.9–5.1 ms, so 25 ms leaves CI hosts ~5× headroom while still
#: catching a warm path that re-solves, re-parses or re-imports per
#: query (a cold run is 120–300 ms).
MAX_SERVE_WARM_S = 0.025

#: Warm operational queries (served from cached ``traces:operational:``
#: closure slots) must beat a cold breadth-first exploration by at least
#: this factor.  The floor is loose because the warm side is under a
#: millisecond of snapshot decode and timing-noisy on loaded hosts.
MIN_EXPLORER_WARM_SPEEDUP = 3.0

#: Forked workers (``jobs=2``) must beat a sequential solve (``jobs=1``)
#: by at least this factor on the largest recorded twin-machine case:
#: two same-rank heavyweight SCCs, each solved in its own child and
#: spliced back.  Only the largest case is enforced — the smaller one is
#: too fast for the fork/splice overhead to amortise reliably on a loaded
#: host — and only with two or more CPUs.  Idle 2-vCPU runs measure
#: ×1.64–1.79; the floor leaves room for noise, but a guard run beside
#: another CPU-bound job (measured ×1.01) will trip it.
MIN_PROCESS_SPEEDUP = 1.2

#: Recorded baselines below this are too fast to re-time stably.
MIN_BASELINE_S = 0.04

#: Cap re-measurement cost: the depth-7/8 baselines take seconds each.
MAX_DEPTH = 6

SYSTEMS = {"copier": (copier, "network"), "protocol": (protocol, "protocol")}

_CASE = re.compile(r"denote (\w+)\.(\w+) depth=(\d+)")


def guarded_cases(report: dict):
    for case in report["cases"]:
        match = _CASE.fullmatch(case["case"])
        if not match:
            continue
        system, _proc, depth = match.group(1), match.group(2), int(match.group(3))
        if case["baseline_s"] >= MIN_BASELINE_S and depth <= MAX_DEPTH:
            yield case, SYSTEMS[system], depth


def measure(system, proc: str, depth: int) -> float:
    # best-of-5 (vs the recording's best-of-3): the trie side is a few
    # milliseconds, so extra reps cheaply damp the measured-side noise
    baseline_s = _time(lambda: _denote(system, proc, depth, "reference"))
    trie_s = _time(lambda: _denote(system, proc, depth, "trie"), repeat=5)
    return baseline_s / trie_s if trie_s else float("inf")


_NODE_BUILD = re.compile(r"node build protocol depth=(\d+)")
_SNAPSHOT = re.compile(r"snapshot round-trip ([\w+]+) depth=(\d+)")
ALL_SYSTEMS = {"copier": copier, "protocol": protocol, "multiplier": multiplier}


def check_arena(report: dict) -> list:
    """Re-measure the node-build and snapshot cases and hold them to the
    arena's absolute throughput floors."""
    failures = []
    for case in report["node_build_cases"]:
        match = _NODE_BUILD.fullmatch(case["case"])
        if not match:
            continue
        measured = _node_build_case(int(match.group(1)))["arena_ids_per_s"]
        ok = measured >= MIN_ARENA_IDS_PER_S
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded {case['arena_ids_per_s']} ids/s, measured {measured} "
            f"(floor {MIN_ARENA_IDS_PER_S})"
        )
        if not ok:
            failures.append(case["case"])
    for case in report["snapshot_cases"]:
        match = _SNAPSHOT.fullmatch(case["case"])
        if not match:
            continue
        systems = tuple(ALL_SYSTEMS[n] for n in match.group(1).split("+"))
        measured = _snapshot_case(systems, int(match.group(2)))["nodes_per_s"]
        ok = measured >= MIN_SNAPSHOT_NODES_PER_S
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded {case['nodes_per_s']} nodes/s, measured {measured} "
            f"(floor {MIN_SNAPSHOT_NODES_PER_S})"
        )
        if not ok:
            failures.append(case["case"])
    return failures


def check_engine(report: dict) -> list:
    """Deterministic definition-level accounting + warm-cache timing."""
    failures = []
    _LEVELS = re.compile(r"definition-levels (\w+) depth=(\d+)")
    from repro.systems import philosophers

    systems = {
        "multiplier": multiplier,
        "protocol": protocol,
        "philosophers": philosophers,
    }
    for case in report["definition_level_cases"]:
        match = _LEVELS.fullmatch(case["case"])
        if not match:
            continue
        system, depth = systems[match.group(1)], int(match.group(2))
        measured = _engine_levels_case(system, depth)
        exact = measured["engine_levels"] == case["engine_levels"] and (
            measured["naive_chain_levels"] == case["naive_chain_levels"]
        )
        bar_applies = (
            match.group(1) == "multiplier" and depth >= ENGINE_GUARD_DEPTH
        )
        above_bar = (
            measured["reduction"] >= MIN_ENGINE_REDUCTION
            if bar_applies
            else True
        )
        if match.group(1) == "philosophers" and depth >= ENGINE_GUARD_DEPTH:
            above_bar = above_bar and (
                measured["reduction"] >= MIN_INELIGIBLE_REDUCTION
            )
        deltas_alive = True
        if (
            match.group(1) in DELTA_GUARD_SYSTEMS
            and depth >= ENGINE_GUARD_DEPTH
        ):
            deltas_alive = measured["engine_delta_skipped"] > 0
        ok = exact and above_bar and deltas_alive
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded ×{case['reduction']:<6} measured ×{measured['reduction']}"
            + (f" (floor ×{MIN_ENGINE_REDUCTION})" if bar_applies else "")
            + ("" if deltas_alive else " (delta skips dropped to 0)")
        )
        if not ok:
            failures.append(case["case"])
    for case in report["cache_cases"]:
        match = re.fullmatch(r"warm-cache multiplier depth=(\d+)", case["case"])
        if not match:
            continue
        measured = _engine_cache_case(int(match.group(1)))
        ok = measured["speedup"] >= MIN_WARM_SPEEDUP
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded ×{case['speedup']:<6} measured ×{measured['speedup']} "
            f"(floor ×{MIN_WARM_SPEEDUP})"
        )
        if not ok:
            failures.append(case["case"])
    failures += check_process_jobs(report)
    return failures


def check_process_jobs(report: dict) -> list:
    """Re-measure the twin-machine fork-vs-sequential cases; the largest
    (last) one must keep ``jobs=2`` ≥ ``MIN_PROCESS_SPEEDUP`` ahead of
    ``jobs=1``."""
    import os

    from benchmarks.bench_kernel import PROCESS_JOBS_CASES, _process_jobs_case

    failures = []
    cases = report.get("process_jobs_cases", [])
    if not hasattr(os, "fork"):
        print("skip process-jobs cases (no os.fork)")
        return failures
    if (os.cpu_count() or 1) < 2:
        print("skip process-jobs cases (fewer than 2 CPUs)")
        return failures
    for i, recorded in enumerate(cases):
        p, depth, sample = PROCESS_JOBS_CASES[i]
        measured = _process_jobs_case(p, depth, sample)
        floor = MIN_PROCESS_SPEEDUP if i == len(cases) - 1 else 0.0
        ok = measured["speedup"] >= floor
        print(
            f"{'ok' if ok else 'FAIL':<4} {recorded['case']:<42} "
            f"recorded ×{recorded['speedup']:<6} "
            f"measured ×{measured['speedup']}"
            + (f" (floor ×{floor})" if floor else "")
        )
        if not ok:
            failures.append(recorded["case"])
    return failures


def check_serve() -> list:
    """Re-measure the warm-daemon-vs-cold-CLI cases recorded in
    ``BENCH_serve.json`` and hold them to the serve acceptance bar and
    the absolute warm-query ceiling."""
    from benchmarks.bench_serve import RESULT_PATH as SERVE_RESULT_PATH
    from benchmarks.bench_serve import CASES, _serve_case

    failures = []
    report = json.loads(SERVE_RESULT_PATH.read_text())
    recorded = {case["case"]: case for case in report["cases"]}
    for name, filename, args in CASES:
        measured = _serve_case(name, filename, args)
        ok = (
            measured["speedup"] >= MIN_SERVE_SPEEDUP
            and measured["warm_s"] <= MAX_SERVE_WARM_S
        )
        print(
            f"{'ok' if ok else 'FAIL':<4} {name:<42} "
            f"recorded ×{recorded[name]['speedup']:<6} "
            f"measured ×{measured['speedup']} (floor ×{MIN_SERVE_SPEEDUP}), "
            f"warm {measured['warm_s'] * 1000:.2f} ms "
            f"(ceiling {MAX_SERVE_WARM_S * 1000:.0f} ms)"
        )
        if not ok:
            failures.append(name)
    return failures


def check_explorer() -> list:
    """Re-measure the warm-vs-cold exploration cases recorded in
    ``BENCH_explorer.json`` and hold them to the acceptance bar: a warm
    query is a cache hit that touches no state.  The warm closure must
    also stay pointer-identical to the cold one (``_explorer_case``
    raises on divergence)."""
    from benchmarks.bench_explorer import (
        EXPLORER_CASES,
        RESULT_PATH as EXPLORER_RESULT_PATH,
        _explorer_case,
    )

    failures = []
    report = json.loads(EXPLORER_RESULT_PATH.read_text())
    recorded = {case["case"]: case for case in report["explorer_cases"]}
    for name, system, proc, depth, sample in EXPLORER_CASES:
        measured = _explorer_case(name, system, proc, depth, sample)
        ok = (
            measured["speedup"] >= MIN_EXPLORER_WARM_SPEEDUP
            and measured["warm_states_touched"] == 0
        )
        print(
            f"{'ok' if ok else 'FAIL':<4} {name:<42} "
            f"recorded ×{recorded[name]['speedup']:<6} "
            f"measured ×{measured['speedup']} "
            f"(floor ×{MIN_EXPLORER_WARM_SPEEDUP}; "
            f"{measured['warm_states_touched']} warm states touched)"
        )
        if not ok:
            failures.append(name)
    return failures


def main() -> None:
    report = json.loads(RESULT_PATH.read_text())
    failures = []
    for case, (system, proc), depth in guarded_cases(report):
        recorded = case["speedup"]
        floor = TOLERANCE * min(recorded, RATIO_CAP)
        measured = measure(system, proc, depth)
        ok = measured >= floor
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded ×{recorded:<8} measured ×{measured:.2f} "
            f"(floor ×{floor:.2f})"
        )
        if not ok:
            failures.append(case["case"])
    failures += check_arena(report)
    failures += check_engine(json.loads(ENGINE_RESULT_PATH.read_text()))
    failures += check_serve()
    failures += check_explorer()
    if failures:
        raise SystemExit(
            f"recorded performance regressed on: {', '.join(failures)}"
        )
    print(
        "kernel speedups within tolerance of BENCH_kernel.json; engine "
        "accounting matches BENCH_engine.json; serve warm path beats "
        "cold by the BENCH_serve.json acceptance factor under its "
        "absolute ceiling; warm operational queries beat cold "
        "exploration by the BENCH_explorer.json acceptance factor"
    )


if __name__ == "__main__":
    main()
