"""Kernel microbenchmarks: hash-consed trie vs. flat-set reference.

Times each §3.1 operator (`union`, `parallel`, `hide`), full denotation,
and sat checking at depths 4–8 on the paper's three workhorse systems
(copier, protocol, multiplier), in both kernels:

* **trie** — the hash-consed :mod:`repro.traces.operations` with
  per-operator memo tables and the trie-walking sat checker;
* **baseline** — the flat-set :mod:`repro.traces._reference` operators
  and the per-trace ``ch(s)`` sat loop, the representation the seed
  shipped with.

Run as pytest (timed via pytest-benchmark, with agreement asserted), or
run this file as a script to regenerate ``BENCH_kernel.json``::

    PYTHONPATH=src python benchmarks/bench_kernel.py

The JSON records per-case wall-clock for both kernels and the speedup;
EXPERIMENTS.md cites it.  Its ``layer_cases`` time single layers (the
warm sat walk) in units of a fixed pure-Python calibration loop, which
``bench_guard.py`` holds under absolute ceilings.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.process.ast import Name
from repro.sat.checker import SatChecker
from repro.semantics.config import SemanticsConfig
from repro.semantics.denotation import Denoter
from repro.systems import copier, multiplier, philosophers, protocol
from repro.traces import _reference as ref_ops
from repro.traces import operations as trie_ops
from repro.traces.stats import reset_stats, snapshot
from repro.traces.trie import clear_interner

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
ENGINE_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _denote(system, name: str, depth: int, kernel: str):
    cfg = SemanticsConfig(depth=depth, sample=2)
    denoter = Denoter(
        system.definitions(), system.environment(), cfg, kernel=kernel
    )
    return denoter.denote(Name(name))


def _sat_multiplier(depth: int, trie_walk: bool):
    """The multiplier's §2 scalar-product check (operational engine, as the
    system module prescribes); ``trie_walk`` selects incremental channel
    histories vs. the per-trace ``ch(s)`` baseline."""
    checker = SatChecker(
        multiplier.definitions(),
        multiplier.environment(),
        SemanticsConfig(depth=depth, sample=2),
        engine="operational",
        trie_walk=trie_walk,
    )
    return checker.check(Name("multiplier"), multiplier.specification())


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (timed, with agreement asserted)
# ---------------------------------------------------------------------------


class TestOperatorBenchmarks:
    @pytest.fixture(autouse=True)
    def _fresh_kernel(self):
        clear_interner()
        reset_stats()
        yield

    @pytest.mark.parametrize("depth", [4, 6])
    def test_union_trie_vs_reference(self, benchmark, depth):
        p = _denote(copier, "network", depth, "trie")
        q = _denote(protocol, "protocol", depth, "trie")
        got = benchmark(lambda: trie_ops.union(p, q))
        assert got == ref_ops.union(p, q)

    @pytest.mark.parametrize("depth", [4, 6])
    def test_hide_trie_vs_reference(self, benchmark, depth):
        from repro.traces.events import channel

        p = _denote(copier, "network", depth, "trie")
        got = benchmark(lambda: trie_ops.hide(p, [channel("wire")]))
        assert got == ref_ops.hide(p, [channel("wire")])

    @pytest.mark.parametrize("depth", [4, 6])
    def test_parallel_trie_vs_reference(self, benchmark, depth):
        defs = copier.definitions()
        cfg = SemanticsConfig(depth=depth, sample=2)
        denoter = Denoter(defs, copier.environment(), cfg)
        left = denoter.denote_name("copier")
        right = denoter.denote_name("recopier")
        from repro.traces.events import channel

        x = [channel("input"), channel("wire")]
        y = [channel("wire"), channel("output")]
        got = benchmark(lambda: trie_ops.parallel(left, x, right, y, depth=depth))
        assert got == ref_ops.parallel(left, x, right, y, depth=depth)

    @pytest.mark.parametrize("depth", [4, 6])
    def test_denote_protocol(self, benchmark, depth):
        got = benchmark(lambda: _denote(protocol, "protocol", depth, "trie"))
        assert got == _denote(protocol, "protocol", depth, "reference")

    @pytest.mark.parametrize("depth", [4, 5])
    def test_sat_multiplier(self, benchmark, depth):
        got = benchmark(lambda: _sat_multiplier(depth, trie_walk=True))
        want = _sat_multiplier(depth, trie_walk=False)
        assert got.holds == want.holds
        assert got.traces_checked == want.traces_checked


# ---------------------------------------------------------------------------
# Standalone baseline-vs-trie comparison (regenerates BENCH_kernel.json)
# ---------------------------------------------------------------------------


def _time(fn, repeat: int = 3) -> float:
    """Best-of-N wall clock; each call starts from a cold kernel so memo
    warm-up is *included* (that is the honest comparison)."""
    best = float("inf")
    for _ in range(repeat):
        clear_interner()
        reset_stats()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _case(name: str, baseline_fn, trie_fn, check_equal: bool = True) -> dict:
    baseline_result = trie_result = None

    def run_baseline():
        nonlocal baseline_result
        baseline_result = baseline_fn()

    def run_trie():
        nonlocal trie_result
        trie_result = trie_fn()

    baseline_s = _time(run_baseline)
    trie_s = _time(run_trie)
    if check_equal:
        # The timed runs call clear_interner(), so closures from different
        # runs live in different interner generations — pointer equality
        # does not apply across them.  Compare flat trace sets instead.
        want = getattr(baseline_result, "traces", baseline_result)
        got = getattr(trie_result, "traces", trie_result)
        if want != got:
            raise AssertionError(f"{name}: kernels disagree")
    case = {
        "case": name,
        "baseline_s": round(baseline_s, 6),
        "trie_s": round(trie_s, 6),
        "speedup": round(baseline_s / trie_s, 2) if trie_s else float("inf"),
    }
    print(
        f"{name:<42} baseline {baseline_s * 1000:9.2f} ms   "
        f"trie {trie_s * 1000:9.2f} ms   ×{case['speedup']}"
    )
    return case


def _op_case(name: str, setup, baseline_fn, trie_fn) -> dict:
    """Time one operator on freshly-denoted operands.  Arena ids are
    state-local, so each cold-kernel rep re-denotes the operands
    (untimed) before timing the operator itself — operator memo warm-up
    is still included, as in :func:`_case`."""

    def timed(fn):
        best, result = float("inf"), None
        for _ in range(3):
            clear_interner()
            reset_stats()
            args = setup()
            start = time.perf_counter()
            out = fn(*args)
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best, result = elapsed, out
        return best, result

    baseline_s, baseline_result = timed(baseline_fn)
    trie_s, trie_result = timed(trie_fn)
    want = getattr(baseline_result, "traces", baseline_result)
    got = getattr(trie_result, "traces", trie_result)
    if want != got:
        raise AssertionError(f"{name}: kernels disagree")
    case = {
        "case": name,
        "baseline_s": round(baseline_s, 6),
        "trie_s": round(trie_s, 6),
        "speedup": round(baseline_s / trie_s, 2) if trie_s else float("inf"),
    }
    print(
        f"{name:<42} baseline {baseline_s * 1000:9.2f} ms   "
        f"trie {trie_s * 1000:9.2f} ms   ×{case['speedup']}"
    )
    return case


def generate(depths=(4, 5, 6, 7, 8)) -> dict:
    cases = []

    for depth in depths:
        for system, proc in (
            (copier, "network"),
            (protocol, "protocol"),
        ):
            label = f"denote {system.__name__.split('.')[-1]}.{proc} depth={depth}"
            cases.append(
                _case(
                    label,
                    lambda s=system, p=proc, d=depth: _denote(s, p, d, "reference"),
                    lambda s=system, p=proc, d=depth: _denote(s, p, d, "trie"),
                )
            )

    for depth in (4, 5):
        cases.append(
            _case(
                f"sat multiplier scalar-product depth={depth}",
                lambda d=depth: _sat_multiplier(d, trie_walk=False).traces_checked,
                lambda d=depth: _sat_multiplier(d, trie_walk=True).traces_checked,
            )
        )

    from repro.traces.events import channel

    for depth in (6, 8):

        def denote_pq(d=depth):
            return (
                _denote(copier, "network", d, "trie"),
                _denote(protocol, "protocol", d, "trie"),
            )

        cases.append(
            _op_case(
                f"union copier∪protocol depth={depth}",
                denote_pq,
                lambda p, q: ref_ops.union(p, q),
                lambda p, q: trie_ops.union(p, q),
            )
        )
        cases.append(
            _op_case(
                f"hide network\\wire depth={depth}",
                denote_pq,
                lambda p, q: ref_ops.hide(p, [channel("wire")]),
                lambda p, q: trie_ops.hide(p, [channel("wire")]),
            )
        )

    layer_cases = [walk_layer_case()]
    node_build_cases = [_node_build_case(d) for d in (6, 8)]
    snapshot_cases = [
        _snapshot_case((protocol,), 8),
        _snapshot_case((copier, protocol, multiplier), 13),
    ]

    clear_interner()
    reset_stats()
    _denote(protocol, "protocol", 6, "trie")
    kernel_stats = snapshot()

    report = {
        "description": (
            "Arena trace-trie kernel vs. flat-set reference "
            "(seed representation); best-of-3 cold-kernel wall clock. "
            "layer_cases time one layer (the warm sat walk), best of 5, "
            "in loops of a fixed 200000-iteration pure-Python "
            "calibration loop timed in the same process. "
            "node_build_cases grow one long-lived struct-of-arrays arena "
            "(absolute throughput in interned ids/sec, tracemalloc peak "
            "bytes over the retained population, process peak RSS); "
            "snapshot_cases round-trip solved systems through the flat "
            "format-2 packed-segment codec (absolute wall clock and "
            "nodes/sec)."
        ),
        "cases": cases,
        "layer_cases": layer_cases,
        "node_build_cases": node_build_cases,
        "snapshot_cases": snapshot_cases,
        "kernel_stats_after_protocol_depth6": kernel_stats,
        "max_speedup": max(c["speedup"] for c in cases),
        "min_arena_ids_per_s": min(c["arena_ids_per_s"] for c in node_build_cases),
        "min_snapshot_nodes_per_s": min(c["nodes_per_s"] for c in snapshot_cases),
    }
    return report


# ---------------------------------------------------------------------------
# Single layers in calibration units (bench_guard's absolute ceilings)
# ---------------------------------------------------------------------------

#: Iterations of the fixed pure-Python loop that layer wall clocks are
#: expressed in.  The loop is timed in the same process as the layer, so
#: a slow or loaded host scales both sides of the ratio.
CALIBRATION_ITERATIONS = 200_000


def _calibration_s(repeat: int = 5) -> float:
    """Best-of-``repeat`` wall clock of the calibration loop."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i % 7
        best = min(best, time.perf_counter() - start)
    return best


class _SolvedSupply(SatChecker):
    """A checker whose trace supply is one solved closure: timing
    ``check`` with a parsed formula times the sat walk alone."""

    def __init__(self, closure, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._closure = closure

    def traces_of(self, process, depth=None):
        return self._closure


def _layer_case(name: str, fn, repeat: int = 5) -> dict:
    """Best-of-``repeat`` wall clock of ``fn`` over that of the
    calibration loop, timed just before it."""
    calibration_s = _calibration_s()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    case = {
        "case": name,
        "seconds": round(best, 6),
        "calibration_s": round(calibration_s, 6),
        "loops": round(best / calibration_s, 3),
    }
    print(
        f"{name:<42} {best * 1000:9.2f} ms   calibration "
        f"{calibration_s * 1000:7.2f} ms   {case['loops']} loops"
    )
    return case


def walk_layer_case(depth: int = 14) -> dict:
    """The warm sat walk of ``protocol sat output <= input`` (43 689
    traces at depth 14): supply solved, formula parsed, walk timed."""
    from repro.assertions.parser import parse_assertion

    closure = SatChecker(
        protocol.definitions(),
        protocol.environment(),
        SemanticsConfig(depth=depth, sample=2),
    ).traces_of(Name("protocol"))
    checker = _SolvedSupply(
        closure, protocol.definitions(), protocol.environment()
    )
    formula = parse_assertion("output <= input", protocol.CHANNELS)
    target = Name("protocol")
    result = checker.check(target, formula)
    if not result.holds or result.traces_checked != len(closure):
        raise AssertionError(f"walk: unexpected verdict {result}")
    return _layer_case(
        f"sat walk protocol depth={depth} output <= input",
        lambda: checker.check(target, formula),
    )


# ---------------------------------------------------------------------------
# Arena kernel: node-build throughput, peak memory, snapshot round-trips
# ---------------------------------------------------------------------------


def _solve_roots(systems, depth: int, sample: int) -> dict:
    """Denote every definition of every system into the current kernel
    state, returning the ``fix:<name>`` → root mapping a snapshot cache
    would persist.  Definitions that need instantiation (parameterised
    entries) are skipped."""
    roots = {}
    for system in systems:
        cfg = SemanticsConfig(depth=depth, sample=sample)
        denoter = Denoter(
            system.definitions(), system.environment(), cfg, kernel="trie"
        )
        for defn in system.definitions():
            name = getattr(defn.name, "value", None) or str(defn.name)
            try:
                roots[f"fix:{name}"] = denoter.denote(Name(name)).root
            except Exception:
                continue
    return roots


def _roots_spec(roots: dict):
    """A solved root set as a kernel-neutral structural spec: a
    post-order node list of ``(event index, child position)`` edge lists
    plus the event table, replayed by the node-build case so it times
    interning, not semantics."""
    events = []
    event_index = {}
    spec = []
    index = {}
    for root in roots.values():
        arena = root.arena
        stack = [(root.id, False)]
        while stack:
            nid, expanded = stack.pop()
            if nid in index:
                continue
            start = arena.edge_start[nid]
            end = start + arena.edge_len[nid]
            if expanded:
                edges = []
                for k in range(start, end):
                    eid = arena.edge_events[k]
                    fidx = event_index.get(eid)
                    if fidx is None:
                        fidx = event_index[eid] = len(events)
                        events.append(arena.events[eid])
                    edges.append((fidx, index[arena.edge_children[k]]))
                index[nid] = len(spec)
                spec.append(edges)
                continue
            stack.append((nid, True))
            for k in range(start, end):
                child = arena.edge_children[k]
                if child not in index:
                    stack.append((child, False))
    return spec, events


def _renamed_events(events, tag: int):
    """The event table with every channel renamed onto a per-replay
    namespace, so each replay builds *fresh* nodes (all interner misses)
    in a shared store — the workload a long-running session presents."""
    from repro.traces.events import Channel, Event

    return [
        Event(Channel(f"{e.channel.name}~{tag}", e.channel.index), e.message)
        for e in events
    ]


def _build_arena(spec, events, arena):
    ids = []
    intern = arena.intern
    eids = [arena.intern_event(e) for e in events]
    for edges in spec:
        pairs = sorted((eids[e], ids[c]) for e, c in edges)
        flat = []
        for eid, cid in pairs:
            flat.append(eid)
            flat.append(cid)
        ids.append(intern(flat))
    return ids


def _node_build_case(depth: int = 6) -> dict:
    """Node-construction throughput (interned ids per second) and peak
    memory of the arena kernel.

    The population replays the solved protocol system's structure many
    times into ONE store, each replay on a renamed event alphabet so
    every intern is a miss — growth of a single long-lived kernel, not
    repeated cold starts.  Peak memory is tracemalloc over building and
    *retaining* the full population."""
    import resource
    import tracemalloc

    from repro.traces.trie import Arena

    clear_interner()
    reset_stats()
    spec, events = _roots_spec(_solve_roots((protocol,), depth, sample=3))
    n = len(spec)
    reps = max(2, 40_000 // max(n, 1))
    event_sets = [_renamed_events(events, tag) for tag in range(reps)]

    def arena_population():
        arena = Arena()
        for evs in event_sets:
            _build_arena(spec, evs, arena)
        return arena

    def timed(population) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            population()
            best = min(best, time.perf_counter() - start)
        return best

    arena_s = timed(arena_population)

    def peak(population) -> int:
        tracemalloc.start()
        retained = population()
        _, high = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del retained
        return high

    arena_peak = peak(arena_population)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    built = n * reps
    case = {
        "case": f"node build protocol depth={depth}",
        "distinct_nodes": n,
        "replays": reps,
        "population": built,
        "arena_s": round(arena_s, 6),
        "arena_ids_per_s": round(built / arena_s) if arena_s else float("inf"),
        "arena_peak_bytes": arena_peak,
        "peak_rss_kb": rss_kb,
    }
    print(
        f"{case['case']:<42} arena {case['arena_ids_per_s']:>9} ids/s   "
        f"peak {arena_peak} B (rss {rss_kb} kB)"
    )
    return case


def _snapshot_case(systems, depth: int, sample: int = 3) -> dict:
    """Snapshot round-trip (encode → json.dumps → json.loads → cold
    decode) of a solved system set through the format-2 packed-segment
    codec, whose decoder re-interns row by row: best-of-3 ``flat_s`` and
    the ``nodes_per_s`` it implies.

    Each rep re-denotes from a cold kernel first (untimed), so encode
    sees unmaterialised views — the state a real ``save()`` runs in."""
    from repro.traces.snapshot import decode_roots, encode_roots
    from repro.traces.trie import arena_info, private_state

    names = [s.__name__.split(".")[-1] for s in systems]
    flat_s = float("inf")
    for _ in range(3):
        clear_interner()
        reset_stats()
        roots = _solve_roots(systems, depth, sample)
        info = arena_info()
        start = time.perf_counter()
        blob = json.dumps(encode_roots(roots))
        with private_state():
            decode_roots(json.loads(blob))
        flat_s = min(flat_s, time.perf_counter() - start)
    case = {
        "case": f"snapshot round-trip {'+'.join(names)} depth={depth}",
        "systems": names,
        "nodes": info["nodes"],
        "edges": info["edges"],
        "roots": len(roots),
        "flat_s": round(flat_s, 6),
        "nodes_per_s": round(info["nodes"] / flat_s) if flat_s else float("inf"),
    }
    print(
        f"{case['case']:<42} flat {flat_s * 1000:8.2f} ms   "
        f"{case['nodes_per_s']:>9} nodes/s"
    )
    return case


# ---------------------------------------------------------------------------
# Dependency-graph engine vs. monolithic chain (regenerates BENCH_engine.json)
# ---------------------------------------------------------------------------


def _engine_levels_case(system, depth: int, sample: int = 3) -> dict:
    """Definition-level accounting: the (entry, level) denotations each
    scheduler performs to reach the same fixpoint.  Deterministic — no
    timing noise — so the recorded ratios are exact."""
    from repro.semantics.engine import DenotationEngine
    from repro.semantics.fixpoint import ApproximationChain

    cfg = SemanticsConfig(depth=depth, sample=sample)
    defs, env = system.definitions(), system.environment()
    chain = ApproximationChain(defs, env, cfg)
    chain.run_until_stable()
    # the monolithic schedule before the per-entry delta fix: every level
    # re-denotes every entry
    naive = chain.redenoted_entries + chain.delta_skipped
    engine = DenotationEngine(defs, env, cfg)
    engine.run()
    label = system.__name__.split(".")[-1]
    case = {
        "case": f"definition-levels {label} depth={depth}",
        "naive_chain_levels": naive,
        "delta_chain_levels": chain.redenoted_entries,
        "engine_levels": engine.redenoted_entries,
        "reduction": round(naive / engine.redenoted_entries, 2)
        if engine.redenoted_entries
        else float("inf"),
    }
    print(
        f"{case['case']:<42} naive {naive:4d}   delta-chain "
        f"{chain.redenoted_entries:4d}   engine {engine.redenoted_entries:4d}"
        f"   ×{case['reduction']}"
    )
    return case


def _engine_cache_case(depth: int) -> dict:
    """Cold solve vs. warm snapshot load of the multiplier at ``depth``.

    Each run starts from a private (empty) interner.  The cold run
    solves through :meth:`SatChecker.traces_of` (the checker's memoised
    ``Denoter``) and saves the checker's ``traces:`` slot; a warm run
    opens the snapshot (the decode) and asks ``traces_of`` again, which
    the slot answers.  The warm advantage is what the snapshot buys:
    decoding and re-interning instead of solving."""
    import tempfile

    from repro.traces.snapshot import SnapshotCache, cache_key
    from repro.traces.trie import private_state

    cfg = SemanticsConfig(depth=depth, sample=3)
    defs, env = multiplier.definitions(), multiplier.environment()
    target = Name("multiplier")

    def run(directory) -> float:
        with private_state():
            start = time.perf_counter()
            cache = SnapshotCache(directory, cache_key(defs, cfg))
            SatChecker(defs, env, cfg, cache=cache).traces_of(target)
            elapsed = time.perf_counter() - start
            cache.save()
        return elapsed

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as directory:
        directory = Path(directory)
        cold_s = run(directory)  # writes the snapshot
        warm_s = min(run(directory) for _ in range(3))
    case = {
        "case": f"warm-cache multiplier depth={depth}",
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
    }
    print(
        f"{case['case']:<42} cold {cold_s * 1000:9.2f} ms   "
        f"warm {warm_s * 1000:9.2f} ms   ×{case['speedup']}"
    )
    return case


def _cold_engine_solve(system, args: tuple, depth: int, sample: int):
    """A full engine solve on a fresh arena, as a one-shot ``repro`` run
    has it."""
    from repro.semantics.engine import DenotationEngine
    from repro.traces.trie import private_state

    cfg = SemanticsConfig(depth=depth, sample=sample)
    defs, env = system.definitions(*args), system.environment()

    def run() -> None:
        with private_state():
            DenotationEngine(defs, env, cfg).run()

    return run


#: case name → a function that measures it (``_layer_case`` record)
ENGINE_LAYER_CASES = {
    "cold engine solve protocol depth=14": lambda name: _layer_case(
        name, _cold_engine_solve(protocol, (), 14, 2)
    ),
    "cold engine solve philosophers(3) depth=6": lambda name: _layer_case(
        name, _cold_engine_solve(philosophers, (3,), 6, 3)
    ),
}


def generate_engine(depths=(4, 5, 6)) -> dict:
    # philosophers: an array-indexed system (at sample 3 the whole
    # domain is covered).
    level_cases = [
        _engine_levels_case(system, depth)
        for depth in depths
        for system in (multiplier, protocol, philosophers)
    ]
    cache_cases = [_engine_cache_case(depth) for depth in (6, 7)]
    layer_cases = [measure(name) for name, measure in ENGINE_LAYER_CASES.items()]
    return {
        "description": (
            "Dependency-graph denotation engine vs. monolithic "
            "approximation chain: (entry, level) denotations performed "
            "(deterministic); cold solve through SatChecker.traces_of (the "
            "checker's Denoter) vs. warm snapshot load (wall clock); "
            "layer_cases: cold engine "
            "solves on a fresh arena, best of 5, in loops of a fixed "
            "200000-iteration pure-Python calibration loop timed in the "
            "same process"
        ),
        "definition_level_cases": level_cases,
        "cache_cases": cache_cases,
        "layer_cases": layer_cases,
        "max_level_reduction": max(c["reduction"] for c in level_cases),
        "max_cache_speedup": max(c["speedup"] for c in cache_cases),
    }


def main() -> None:
    report = generate()
    RESULT_PATH.write_text(json.dumps(report, indent=2))
    print(f"\nwrote {RESULT_PATH}")
    print(f"max speedup ×{report['max_speedup']}")
    engine_report = generate_engine()
    ENGINE_RESULT_PATH.write_text(json.dumps(engine_report, indent=2))
    print(f"\nwrote {ENGINE_RESULT_PATH}")
    print(
        f"max definition-level reduction ×{engine_report['max_level_reduction']}"
        f", max warm-cache speedup ×{engine_report['max_cache_speedup']}"
    )


if __name__ == "__main__":
    main()
