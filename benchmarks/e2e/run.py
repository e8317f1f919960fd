"""End-to-end verdict benchmark: the time users wait for ``P sat R``.

One workload, as BENCHMARK.json's command runs it::

    python3 benchmarks/e2e/run.py --workload deep-walk --seed 0 --seconds 20 --trace 0

prints each metric with its unit and sample count, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` gives the
per-layer metrics of a separate traced replay (``--spans PATH`` also
writes its span tree).  Without ``--workload`` every workload runs, each
in its own process (``python -m benchmarks.e2e`` does the same).
``--repeat N`` runs each workload N times with seeds S..S+N-1 and
prints every metric's median and interquartile spread against its bound.
``--regen-expected`` rebuilds ``expected.json`` from the reference
paths.  The exit code is 0 only when every verdict matched.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"

#: ``--quick``: the sizes of the smoke test.
QUICK_SECONDS = 2.0

#: Set-ups per untraced run (the median is ``setup_s``) and
#: ``import repro.cli`` repetitions per traced run.
SETUP_REPS, QUICK_SETUP_REPS = 5, 1
IMPORT_REPS, QUICK_IMPORT_REPS = 10, 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of a traced in-process replay")
    parser.add_argument("--spans", metavar="PATH", help="with --trace 1, write the span tree here")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="N runs per workload; print medians and spreads")
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rebuild expected.json from the reference paths")
    return parser


def _ready() -> bool:
    """Make the package and the benchmark importable; False when the
    checkout has no program to measure."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "examples" / "csp").is_dir():
        return False
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


#: The timed phase is cut into this many consecutive batches of queries;
#: ``throughput_qps`` is the median batch rate, so a few seconds of a
#: slowed-down machine move it no more than they move the median latency.
BATCHES = 10


def _throughput(outcomes) -> float:
    """Median over consecutive query batches of answers matched per
    second of wall time."""
    batches = min(BATCHES, len(outcomes))
    rates = []
    for i in range(batches):
        lo, hi = i * len(outcomes) // batches, (i + 1) * len(outcomes) // batches
        began = outcomes[lo - 1].end if lo else 0.0
        good = sum(1 for o in outcomes[lo:hi] if o.error is None)
        rates.append(good / (outcomes[hi - 1].end - began))
    return statistics.median(rates)


def _print_metrics(title: str, rows: List[dict], metrics: Dict[str, float],
                   counts: Dict[str, int]) -> None:
    print(title)
    for row in rows:
        name = row["name"]
        print(f"  {name:<30} {metrics[name]:>14.6g} {row['unit']:<9} n={counts.get(name, 1)}")


def _single(args: argparse.Namespace, seconds: float, bench: dict) -> int:
    from benchmarks.e2e import drive, oracle, spans

    setup_reps = QUICK_SETUP_REPS if args.quick else SETUP_REPS
    # A terminated run still stops its daemon (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    drive.precompile(ROOT)
    session = drive.Session(ROOT, args.workload, args.seed, oracle.load())
    counts: Dict[str, int] = {}
    try:
        if args.trace:
            session.setup()
            metrics, document, attempted, errors = spans.traced_run(
                session, seconds, QUICK_IMPORT_REPS if args.quick else IMPORT_REPS
            )
            counts = {name: document["queries"] for name in metrics}
            if args.spans:
                Path(args.spans).write_text(json.dumps(document), encoding="utf-8")
        else:
            setups = [session.setup() for _ in range(setup_reps)]
            outcomes = session.timed(seconds)
            latencies = [o.latency for o in outcomes]
            errors = [o.error for o in outcomes if o.error]
            attempted = len(outcomes)
            metrics = {
                "setup_s": statistics.median(setups),
                "latency_p50_s": statistics.median(latencies),
                "latency_p90_s": (
                    statistics.quantiles(latencies, n=10)[8]
                    if len(latencies) > 1 else latencies[0]
                ),
                "throughput_qps": _throughput(outcomes),
                "peak_rss_mb": session.peak_rss_mb(),
            }
            counts = {"setup_s": setup_reps, "latency_p50_s": attempted,
                      "latency_p90_s": attempted, "throughput_qps": attempted}
    finally:
        session.close()
    rows = bench["per_layer" if args.trace else "end_to_end"]
    _print_metrics(
        f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'untraced'}): "
        f"{attempted} answers, {len(errors)} failed "
        f"(failed_share {len(errors) / attempted:.4g})",
        rows, metrics, counts,
    )
    for error in errors[:10]:
        print(f"  FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {r["name"]: {"value": metrics[r["name"]], "unit": r["unit"]} for r in rows},
    }))
    return 1 if errors else 0


def _child(args: argparse.Namespace, workload: str, seed: int, seconds: float,
           spans: Optional[str] = None) -> Optional[dict]:
    """Run one workload in its own process; its result, or None."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if spans:
        command += ["--spans", spans]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="", flush=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def _suite(args: argparse.Namespace, names: List[str], seconds: float) -> int:
    from benchmarks.e2e import drive

    results: Dict[str, Optional[dict]] = {}
    documents = {}
    (ROOT / drive.RUN_ROOT).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / drive.RUN_ROOT) as scratch:
        for name in names:
            path = os.path.join(scratch, f"{name}.json") if args.spans else None
            results[name] = _child(args, name, args.seed, seconds, path)
            if path and os.path.exists(path):
                documents[name] = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        (ROOT / drive.RUN_ROOT).rmdir()
    except OSError:
        pass  # another run's directory is still there
    if args.spans:
        Path(args.spans).write_text(json.dumps(documents), encoding="utf-8")
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def _repeat(args: argparse.Namespace, names: List[str], seconds: float, bench: dict) -> int:
    rows = bench["per_layer" if args.trace else "end_to_end"]
    ok = True
    summary = {}
    for name in names:
        runs = [_child(args, name, args.seed + i, seconds) for i in range(args.repeat)]
        ok = ok and all(r is not None and r["correct"] for r in runs)
        runs = [r for r in runs if r is not None]
        print(f"{name}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        summary[name] = {}
        for row in rows:
            values = [r["metrics"][row["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = row.get("bound")
            flag = "  SPREAD OVER BOUND" if bound is not None and spread > bound else ""
            print(f"  {row['name']:<30} median {median:>12.6g} {row['unit']:<9} "
                  f"IQR [{q1:.6g}, {q3:.6g}] spread {spread:.3%}"
                  + (f" bound {bound:.0%}" if bound is not None else "") + flag)
            summary[name][row["name"]] = {"median": median, "q1": q1, "q3": q3, "values": values}
    print(json.dumps({"correct": ok, "repeat": summary}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not _ready():
        print(f"error: {ROOT} holds no src/repro and examples/csp to benchmark", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.regen_expected:
        from benchmarks.e2e import oracle

        oracle.write(oracle.regenerate(ROOT / "examples" / "csp"))
        print(f"wrote {oracle.EXPECTED_PATH}")
        return 0
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(bench["run_seconds"])
    if args.repeat:
        names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
        return _repeat(args, names, seconds, bench)
    if args.workload:
        return _single(args, seconds, bench)
    return _suite(args, [w["name"] for w in bench["workloads"]], seconds)


if __name__ == "__main__":
    sys.exit(main())
