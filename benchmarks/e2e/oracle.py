"""Reference verdicts for every query in the catalogue.

``expected.json`` maps each :meth:`Query.key` to the exit code, the
first stdout line (verdict and trace count) and a SHA-256 digest of the
whole stdout, so a daemon or CLI answer is compared byte for byte with
the local ``check_outcome``/``traces_outcome`` rendering of the same
query.  :func:`regenerate` builds the file only through the reference
paths: the §3.3 :class:`~repro.semantics.fixpoint.ApproximationChain`
for trace sets and ``SatChecker(trie_walk=False)``'s flat per-trace loop
for verdicts.  It never runs the denotation engine, the trie walk, the
explorer or the daemon, which are what the benchmark measures.

Operational queries are judged against the denotational chain: the
paper's two semantics agree on every catalogued system, and a verdict
that depends on the engine is itself a failure.  ``repro deadlocks``
prints how many explorer states it touched; that figure is work, not
verdict, and :func:`normalise` drops it before comparing.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, Optional

from benchmarks.e2e.workloads import SYSTEMS, WORKLOADS, Query, catalogue, sources

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_STATES_TOUCHED = re.compile(r" \(\d+ states touched\)")


def normalise(stdout: str) -> str:
    """The comparable part of a query's stdout."""
    return _STATES_TOUCHED.sub("", stdout.rstrip("\n"))


def entry(exit_code: int, stdout: str) -> Dict[str, object]:
    text = normalise(stdout)
    return {
        "exit": exit_code,
        "first": text.split("\n", 1)[0],
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def load(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, object]]:
    return json.loads(path.read_text(encoding="utf-8"))


def mismatch(
    expected: Dict[str, Dict[str, object]],
    query: Query,
    exit_code: int,
    stdout: str,
) -> Optional[str]:
    """Why an answer is wrong, or ``None`` when it matches the reference."""
    want = expected.get(query.key())
    if want is None:
        return f"no reference verdict for {query.key()}"
    got = entry(exit_code, stdout)
    if got == want:
        return None
    if (got["exit"], got["first"]) == (want["exit"], want["first"]):
        return f"{query.key()}: stdout after the first line differs from the reference"
    return f"{query.key()}: got {got['exit']} {got['first']!r}, want {want['exit']} {want['first']!r}"


def regenerate(examples: Path) -> Dict[str, Dict[str, object]]:
    """Reference verdicts for the union of every workload's catalogue."""
    from repro.cli import environment_from_options
    from repro.process.ast import Name
    from repro.process.parser import parse_definitions
    from repro.report import check_outcome, format_traces, traces_outcome
    from repro.sat.checker import PartialTraces, SatChecker
    from repro.semantics.config import SemanticsConfig
    from repro.semantics.fixpoint import ApproximationChain

    texts = sources(examples)
    chains: Dict[tuple, object] = {}

    def closure(system_name: str, depth: int):
        key = (system_name, depth)
        if key not in chains:
            system = SYSTEMS[system_name]
            chain = ApproximationChain(
                parse_definitions(texts[system.file]),
                environment_from_options(system.sets, system.with_cancel),
                SemanticsConfig(depth=depth, sample=system.sample),
            )
            chains[key] = chain.closure_for(system.process)
        return chains[key]

    class ReferenceChecker(SatChecker):
        """The flat per-trace loop over a chain-supplied trace set."""

        def __init__(self, query: Query):
            system = query.target
            super().__init__(
                parse_definitions(texts[system.file]),
                environment_from_options(system.sets, system.with_cancel),
                SemanticsConfig(depth=query.depth, sample=system.sample),
                trie_walk=False,
            )
            self._closure = closure(query.system, query.depth)

        def traces_of(self, process, depth=None):
            return self._closure

    expected: Dict[str, Dict[str, object]] = {}
    queries = sorted({q for name in WORKLOADS for q in catalogue(name)})
    for query in queries:
        process = query.target.process
        if query.op == "check":
            result = ReferenceChecker(query).check(Name(process), query.spec)
            stdout, _, code = check_outcome(
                process, query.spec, result=result, depth=query.depth
            )
        elif query.op == "traces":
            stdout, _, code = traces_outcome(
                PartialTraces(closure(query.system, query.depth), query.depth, True),
                query.depth,
                query.engine,
            )
        else:
            # A deadlock is a trace of length <= depth that no trace one
            # event longer extends (every catalogued system is
            # deterministic, so a stuck trace is a stuck state).
            deeper = closure(query.system, query.depth + 1)
            extended = {trace[:-1] for trace in deeper if trace}
            stuck = sorted(
                (t for t in deeper if len(t) <= query.depth and t not in extended),
                key=lambda t: (len(t), t),
            )
            if stuck:
                stdout = f"{len(stuck)} deadlocking trace(s):\n{format_traces(stuck)}"
                code = 1
            else:
                stdout = f"no deadlock reachable within {query.depth} visible events"
                code = 0
        expected[query.key()] = entry(code, stdout)
    return expected


def write(expected: Dict[str, Dict[str, object]], path: Path = EXPECTED_PATH) -> None:
    path.write_text(
        json.dumps(expected, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
