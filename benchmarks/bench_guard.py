"""Regression guard for the kernel's and engine's recorded wins.

Re-measures the denotation cases from ``BENCH_kernel.json`` whose
recorded baseline is slow enough to time reliably (≥ 40 ms), and its
``sat multiplier`` cases (the quotiented walk against the flat
per-trace loop), and fails if the measured trie-vs-reference *speedup
ratio* falls below ``TOLERANCE`` of the recorded one.  Comparing
ratios rather than raw wall-clock makes the guard robust to machine
speed: both kernels run on the same box, so a uniformly slower host
cancels out.

Also holds ``BENCH_kernel.json``'s layer cases — the protocol depth-14
sat walk — under absolute ``LAYER_CEILINGS``, in units of a pure-Python
calibration loop timed in the same process, and re-measures the arena
kernel's absolute floors — node-build throughput
(≥ ``MIN_ARENA_IDS_PER_S``) and flat snapshot round-trip throughput
(≥ ``MIN_SNAPSHOT_NODES_PER_S``) — and
re-derives ``BENCH_engine.json``'s definition-level accounting (it is
*deterministic*, so it must match the recording exactly, and the
multiplier reduction must stay ≥ ``MIN_ENGINE_REDUCTION``), re-times
the warm-cache case against ``MIN_WARM_SPEEDUP`` and holds the cold
engine solves under ``ENGINE_LAYER_CEILINGS``.  Finally it
re-measures ``BENCH_serve.json``'s warm-daemon-vs-cold-CLI cases and
fails if the daemon's warm path stops beating a cold invocation by
``MIN_SERVE_SPEEDUP`` or its median warm query exceeds
``MAX_SERVE_WARM_S``, and holds ``BENCH_explorer.json``'s layer cases
under ``EXPLORER_LAYER_CEILINGS`` (warm operational queries must still
touch no state).

Run in CI (or by hand) as::

    PYTHONPATH=src python -m benchmarks.bench_guard
"""

from __future__ import annotations

import json
import re
from functools import partial

from benchmarks.bench_kernel import (
    ENGINE_LAYER_CASES,
    ENGINE_RESULT_PATH,
    RESULT_PATH,
    _denote,
    _engine_cache_case,
    _engine_levels_case,
    _node_build_case,
    _sat_multiplier,
    _snapshot_case,
    _time,
    walk_layer_case,
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

#: Depth at which the reduction bar applies (shallower runs amortise the
#: non-recursive savings over fewer levels).
ENGINE_GUARD_DEPTH = 5

#: Warm snapshot restarts must beat a cold solve by at least this factor.
#: (Recorded speedups are ~20–50×; the floor is deliberately loose
#: because the warm run is about a millisecond and timing-noisy.)
MIN_WARM_SPEEDUP = 3.0

#: Absolute ceilings on ``BENCH_engine.json``'s layer cases, cold engine
#: solves on a fresh arena, in calibration loops (as ``LAYER_CEILINGS``),
#: at about 3× the highest value of five runs on a 2-vCPU host.  The
#: plain per-SCC chain measured protocol at 1.34–1.85 loops and 3-seat
#: philosophers at 0.48–0.60 (with the skips: 2.12–2.59 and 0.45–0.50).
#: They replace a floor on the philosophers' definition-level reduction,
#: which counted denotations the engine's skips spared; the engine no
#: longer skips, and a count says nothing of the time a solve takes.
ENGINE_LAYER_CEILINGS = {
    "cold engine solve protocol depth=14": 5.5,
    "cold engine solve philosophers(3) depth=6": 1.8,
}

#: Absolute node-construction floor — deliberately loose (measured rates
#: are ~15× this) so the guard survives slow CI hosts, while still
#: catching a collapse of the arena intern fast path.
MIN_ARENA_IDS_PER_S = 20_000

#: Absolute snapshot round-trip floor (encode + JSON + cold decode, in
#: solved nodes per second) — loose in the same way: measured rates are
#: well over 10× this on every recorded case, so only a collapse of the
#: flat codec or its row-by-row re-interning trips it.
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

#: Absolute ceilings on ``BENCH_explorer.json``'s layer cases, in
#: calibration loops (as ``LAYER_CEILINGS``), at about 3× the highest
#: value of five runs on a 2-vCPU host.  Stepping each component once
#: per call (the transition memo) and reading unsorted moves measured
#: 4-seat philosophers at 1.14–1.46 loops and the deadlock searches at
#: 0.34–0.46 and 0.37–0.44, where re-deriving and sorting every
#: configuration's steps measured 2.2–2.8, 0.59–0.83 and 0.6–0.84;
#: copier read 0.045–0.063 and the warm reload 0.07–0.13.  Walking
#: trace by trace measured 5.3, 16.5, 2.6 and 8.6 on the four cold
#: cases.  No ratio of warm to cold is held: with cold explorations of
#: a millisecond or so, ``explorer_cases`` records ×1.1–5.3, which says
#: nothing stable.
EXPLORER_LAYER_CEILINGS = {
    "cold explore copier.network depth=9": 0.25,
    "cold explore philosophers(4).table depth=6": 4.4,
    "deadlocks philosophers(3).table depth=5": 1.4,
    "deadlocks buffer(3).buffer depth=4": 1.4,
    "warm reload philosophers.table depth=5": 0.45,
}

#: Absolute ceilings on single layers, in calibration loops (best-of-5
#: wall clock of the layer over that of ``bench_kernel``'s fixed
#: 200 000-iteration pure-Python loop, timed just before it).  Set at
#: about 3× the highest value measured: threading ``ch(s)`` as a tuple
#: over channel slots, the quotiented walk read 0.17–0.29 loops in ten
#: runs on a 2-vCPU host, where ``Channel``-keyed history maps read
#: 0.48–0.57 in five runs in turn with them and walking trace by trace
#: took 27–31.  The guard catches a return to path walking, not drift.
LAYER_CEILINGS = {
    "sat walk protocol depth=14 output <= input": (walk_layer_case, 0.85),
}

#: Recorded baselines below this are too fast to re-time stably.
MIN_BASELINE_S = 0.04

#: Cap re-measurement cost: the depth-7/8 baselines take seconds each.
MAX_DEPTH = 6

SYSTEMS = {"copier": (copier, "network"), "protocol": (protocol, "protocol")}

_CASE = re.compile(r"denote (\w+)\.(\w+) depth=(\d+)")
_SAT_CASE = re.compile(r"sat multiplier scalar-product depth=(\d+)")


def _sat_side(depth: int, kernel: str):
    return _sat_multiplier(depth, trie_walk=kernel == "trie")


def guarded_cases(report: dict):
    """The recorded ratio cases to re-measure, each with ``run(kernel)``,
    which runs its ``"reference"`` or its ``"trie"`` side."""
    for case in report["cases"]:
        match = _CASE.fullmatch(case["case"])
        if match:
            (system, proc), depth = SYSTEMS[match.group(1)], int(match.group(3))
            if case["baseline_s"] >= MIN_BASELINE_S and depth <= MAX_DEPTH:
                yield case, partial(_denote, system, proc, depth)
            continue
        match = _SAT_CASE.fullmatch(case["case"])
        if match:
            yield case, partial(_sat_side, int(match.group(1)))


def measure(run) -> float:
    # best-of-5 a side (vs the recording's best-of-3), the sides taking
    # turns rep by rep: a shared host slows down in phases of a second or
    # so, and one that covered a whole side's reps moved the ratio by
    # more than the tolerance.  Taking turns exposes both to it.
    baseline_s = trie_s = float("inf")
    for _ in range(5):
        baseline_s = min(baseline_s, _time(lambda: run("reference"), repeat=1))
        trie_s = min(trie_s, _time(lambda: run("trie"), repeat=1))
    return baseline_s / trie_s if trie_s else float("inf")


_NODE_BUILD = re.compile(r"node build protocol depth=(\d+)")
_SNAPSHOT = re.compile(r"snapshot round-trip ([\w+]+) depth=(\d+)")
ALL_SYSTEMS = {"copier": copier, "protocol": protocol, "multiplier": multiplier}


def check_layers(recorded: list, ceilings: dict) -> list:
    """Re-measure the recorded layer cases and hold each under its
    ceiling; ``ceilings`` maps a case name to (measure, ceiling)."""
    failures = []
    for case in recorded:
        measure_case, ceiling = ceilings[case["case"]]
        measured = measure_case()["loops"]
        ok = measured <= ceiling
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded {case['loops']} loops, measured {measured} "
            f"(ceiling {ceiling})"
        )
        if not ok:
            failures.append(case["case"])
    return failures


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
    """Deterministic definition-level accounting, warm-cache timing and
    the cold-solve layer ceilings."""
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
        ok = exact and above_bar
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded ×{case['reduction']:<6} measured ×{measured['reduction']}"
            + (f" (floor ×{MIN_ENGINE_REDUCTION})" if bar_applies else "")
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
    ceilings = {
        name: (partial(ENGINE_LAYER_CASES[name], name), ceiling)
        for name, ceiling in ENGINE_LAYER_CEILINGS.items()
    }
    return failures + check_layers(report["layer_cases"], ceilings)


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
    """Re-measure ``BENCH_explorer.json``: a warm query is a cache hit
    that touches no state and serves a closure pointer-identical to the
    cold one (``_explorer_case`` raises on divergence), and each layer
    case stays under its absolute ceiling."""
    from benchmarks.bench_explorer import (
        EXPLORER_CASES,
        LAYER_CASES,
        RESULT_PATH as EXPLORER_RESULT_PATH,
        _explorer_case,
    )

    failures = []
    report = json.loads(EXPLORER_RESULT_PATH.read_text())
    for name, system, proc, depth, sample in EXPLORER_CASES:
        measured = _explorer_case(name, system, proc, depth, sample)
        ok = measured["warm_states_touched"] == 0
        print(
            f"{'ok' if ok else 'FAIL':<4} {name:<42} "
            f"{measured['warm_states_touched']} warm states touched"
        )
        if not ok:
            failures.append(name)
    ceilings = {
        name: (partial(LAYER_CASES[name], name), ceiling)
        for name, ceiling in EXPLORER_LAYER_CEILINGS.items()
    }
    return failures + check_layers(report["layer_cases"], ceilings)


def main() -> None:
    report = json.loads(RESULT_PATH.read_text())
    failures = []
    for case, run in guarded_cases(report):
        recorded = case["speedup"]
        floor = TOLERANCE * min(recorded, RATIO_CAP)
        measured = measure(run)
        ok = measured >= floor
        print(
            f"{'ok' if ok else 'FAIL':<4} {case['case']:<42} "
            f"recorded ×{recorded:<8} measured ×{measured:.2f} "
            f"(floor ×{floor:.2f})"
        )
        if not ok:
            failures.append(case["case"])
    failures += check_layers(report["layer_cases"], LAYER_CEILINGS)
    failures += check_arena(report)
    failures += check_engine(json.loads(ENGINE_RESULT_PATH.read_text()))
    failures += check_serve()
    failures += check_explorer()
    if failures:
        raise SystemExit(
            f"recorded performance regressed on: {', '.join(failures)}"
        )
    print(
        "kernel speedups within tolerance of BENCH_kernel.json and its "
        "layers under their ceilings; engine "
        "accounting matches BENCH_engine.json; serve warm path beats "
        "cold by the BENCH_serve.json acceptance factor under its "
        "absolute ceiling; explorer layers under their "
        "BENCH_explorer.json ceilings"
    )


if __name__ == "__main__":
    main()
