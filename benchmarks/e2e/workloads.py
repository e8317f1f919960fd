"""Seeded query streams for the end-to-end verdict benchmark.

Every query the benchmark can send is drawn from a finite catalogue
(:func:`catalogue`), so ``expected.json`` can hold a reference verdict
for each one.  ``--seed`` decides the order of a stream and its
cost-neutral parameters: the protocol's message alphabet and which of
two equivalent assertions a query checks.
The amount of work per stream stays the same from seed to seed, so two
seeds measure the same thing in a different order.  Seed 0 is the
recorded seed and seed 1 the held-out one.

The program under test receives only the ``.csp`` files written by
:func:`write_inputs` and the options of each query.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

class System(NamedTuple):
    """One input file and the options every query on it carries."""

    file: str
    process: str
    sample: int
    sets: Tuple[str, ...] = ()
    with_cancel: Optional[str] = None


#: Array-bearing systems sample every subscript (``sample`` = array
#: size) so the reference approximation chain can solve them.
SYSTEMS: Dict[str, System] = {
    "copier": System("copier.csp", "network", 2),
    "protocol-a": System("protocol.csp", "protocol", 2, ("M=0,1",), "f"),
    "protocol-b": System("protocol.csp", "protocol", 2, ("M=2,3",), "f"),
    "protocol-c": System("protocol.csp", "protocol", 2, ("M=5,8",), "f"),
    "protocol-d": System("protocol.csp", "protocol", 2, ("M=1,4",), "f"),
    "protocol-e": System("protocol.csp", "protocol", 2, ("M=6,9",), "f"),
    "buf2": System("buf2.csp", "buffer", 2),
    "buf3": System("buf3.csp", "buffer", 3),
    "buf4": System("buf4.csp", "buffer", 4),
    "phil3": System("phil3.csp", "table", 3),
    "phil4": System("phil4.csp", "table", 4),
}

PROTOCOLS = tuple(name for name in SYSTEMS if name.startswith("protocol"))


def _family(system: str) -> str:
    if system.startswith("protocol"):
        return "protocol"
    if system.startswith("phil"):
        return "phil"
    return system


#: Two assertions per system that hold at every depth, and two that a
#: short trace violates.  The two of a pair cost about the same to check.
HOLDS: Dict[str, Tuple[str, str]] = {
    "copier": ("output <= input", "#output <= #input"),
    "protocol": ("output <= input", "#output <= #input"),
    "buf2": ("link[2] <= link[0]", "#link[0] <= #link[2] + 2"),
    "buf3": ("link[3] <= link[0]", "#link[0] <= #link[3] + 3"),
    "buf4": ("link[4] <= link[0]", "#link[0] <= #link[4] + 4"),
    "phil": ("#drop[0] <= #grab[0]", "#eat[1] <= #grab[1]"),
}
VIOLATED: Dict[str, Tuple[str, str]] = {
    "copier": ("input <= output", "#input <= #output"),
    "protocol": ("input <= output", "#input <= #output"),
    "buf2": ("link[0] <= link[2]", "#link[0] <= #link[2]"),
    "buf3": ("link[0] <= link[3]", "#link[0] <= #link[3]"),
    "buf4": ("link[0] <= link[4]", "#link[0] <= #link[4]"),
    "phil": ("#eat[0] <= 0", "#grab[1] <= #drop[1]"),
}


class Query(NamedTuple):
    """One invocation: ``repro <op> <file> --depth … [--spec …]``."""

    op: str  #: "check", "traces" or "deadlocks"
    system: str
    depth: int
    spec: Optional[str] = None
    engine: str = "denotational"

    def key(self) -> str:
        """The query's identity in ``expected.json``."""
        return json.dumps(list(self), separators=(",", ":"))

    @property
    def target(self) -> System:
        return SYSTEMS[self.system]


class Workload(NamedTuple):
    """How a workload reaches the program (why it exists: BENCHMARK.json)."""

    name: str
    #: Size of the ``repro serve`` pool; 0 = one ``python -m repro``
    #: process per query.
    jobs: int
    #: Queries run against a fresh snapshot cache directory.
    cached: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold-cli", 0, False),
        Workload("deep-walk", 1, False),
        Workload("explore", 1, False),
        Workload("cache-churn", 2, True),
    )
}


# -- the catalogue ----------------------------------------------------------
#
# The tables below fix what each workload may ask.  A workload's
# catalogue is every query its table allows; a seed draws from it.

#: cold-cli: one block of ten slots (op, systems, depth, spec kind),
#: repeated; the order inside a block is shuffled, so every block holds
#: the same mix of operations.
_COLD_BLOCK: Tuple[Tuple[str, Tuple[str, ...], int, str], ...] = (
    ("check", ("copier",), 7, "holds"),
    ("check", PROTOCOLS, 6, "holds"),
    ("check", ("phil3",), 6, "holds"),
    ("check", ("buf3",), 5, "holds"),
    ("check", PROTOCOLS, 7, "violated"),
    ("check", ("buf4",), 5, "violated"),
    ("traces", ("copier",), 5, ""),
    ("traces", ("phil3",), 5, ""),
    ("deadlocks", ("phil3",), 5, ""),
    ("deadlocks", ("buf3",), 4, ""),
)

#: deep-walk: eight solved situations (system, depth) — within the
#: serve worker's 8-entry checker LRU.  "protocol" stands for the
#: alphabet the seed picks.
_DEEP_SITUATIONS = (
    ("protocol", 12), ("protocol", 13), ("protocol", 14),
    ("copier", 12), ("copier", 13), ("copier", 14),
    ("buf2", 13), ("buf2", 14),
)

#: explore: twelve situations cycled round-robin (more than the 8-entry
#: LRU holds, and cheap enough for 100+ queries in a 20 s run).
_EXPLORE_SITUATIONS = (
    ("phil3", 6), ("phil3", 7), ("phil3", 8), ("phil3", 9),
    ("phil4", 5), ("phil4", 6),
    ("copier", 7), ("copier", 8), ("copier", 9),
    ("buf2", 7), ("buf2", 8), ("buf2", 9),
)

#: cache-churn: forty-eight situations, each touched for the first time
#: once per pass of the stream.
_CHURN_SITUATIONS = tuple(
    [("copier", d) for d in range(9, 14)]
    + [("buf2", d) for d in range(9, 14)]
    + [(p, d) for p in PROTOCOLS for d in range(9, 14)]
    + [("buf3", d) for d in range(6, 9)]
    + [("buf4", d) for d in range(5, 8)]
    + [("phil3", d) for d in range(7, 11)]
    + [("phil4", d) for d in range(6, 9)]
)

#: cache-churn's three query slots per step of the stream: (op, spec
#: kind, lag).  Step j first-touches situation j (a solve and a snapshot
#: save), lists the traces of situation j-2 and re-checks situation
#: j-11.  The pool alternates strictly between its two workers, so the
#: listing lands on the worker that did not solve the situation (a
#: shipped frame) and the re-check on a situation both LRUs have evicted
#: (a disk read).  Checks are violated ones, so a short walk leaves the
#: solve, snapshot and render work in view.  An odd slot count keeps the
#: median latency inside one slot's cluster, not on a cluster boundary.
_CHURN_SLOTS = (
    ("check", "violated", 0),
    ("traces", None, 2),
    ("check", "violated", 11),
)

DEEP_WALK_LENGTH = 200
EXPLORE_LENGTH = 12 * len(_EXPLORE_SITUATIONS)  # whole cycles
COLD_CLI_LENGTH = 100


def specs(system: str, kind: str) -> Tuple[str, ...]:
    table = HOLDS if kind == "holds" else VIOLATED
    return table[_family(system)]


def catalogue(workload: str) -> List[Query]:
    """Every query any seed can draw for ``workload`` (sorted, unique)."""
    queries = set()
    if workload == "cold-cli":
        for op, systems, depth, kind in _COLD_BLOCK:
            for system in systems:
                for spec in specs(system, kind) if op == "check" else (None,):
                    queries.add(Query(op, system, depth, spec))
    elif workload == "deep-walk":
        for system, depth in _DEEP_SITUATIONS:
            for name in PROTOCOLS if system == "protocol" else (system,):
                for kind in ("holds", "violated"):
                    for spec in specs(name, kind):
                        queries.add(Query("check", name, depth, spec))
    elif workload == "explore":
        for system, depth in _EXPLORE_SITUATIONS:
            for kind in ("holds", "violated"):
                for spec in specs(system, kind):
                    queries.add(
                        Query("check", system, depth, spec, "operational")
                    )
    elif workload == "cache-churn":
        for system, depth in _CHURN_SITUATIONS:
            for op, kind, _ in _CHURN_SLOTS:
                for spec in specs(system, kind) if kind else (None,):
                    queries.add(Query(op, system, depth, spec))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return sorted(queries)


def stream(workload: str, seed: int) -> List[Query]:
    """The seeded query stream of one pass of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cold-cli":
        return _cold_cli(rng)
    if workload == "deep-walk":
        return _deep_walk(rng)
    if workload == "explore":
        return _explore(rng)
    if workload == "cache-churn":
        return _cache_churn(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _cold_cli(rng: random.Random) -> List[Query]:
    queries: List[Query] = []
    while len(queries) < COLD_CLI_LENGTH:
        block = []
        for op, systems, depth, kind in _COLD_BLOCK:
            system = rng.choice(systems)
            spec = rng.choice(specs(system, kind)) if op == "check" else None
            block.append(Query(op, system, depth, spec))
        rng.shuffle(block)
        queries.extend(block)
    return queries[:COLD_CLI_LENGTH]


def _balanced(rng: random.Random, items: Tuple[str, ...], count: int) -> List[str]:
    """``count`` picks from ``items`` in equal shares, in seeded order."""
    picks = [items[i % len(items)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def _deep_walk(rng: random.Random) -> List[Query]:
    protocol = rng.choice(PROTOCOLS)
    per_situation = DEEP_WALK_LENGTH // len(_DEEP_SITUATIONS)
    violated = per_situation // 5  # ~20% violated, ~80% holding
    queries: List[Query] = []
    for system, depth in _DEEP_SITUATIONS:
        name = protocol if system == "protocol" else system
        picks = _balanced(rng, specs(name, "holds"), per_situation - violated)
        picks += _balanced(rng, specs(name, "violated"), violated)
        queries.extend(Query("check", name, depth, spec) for spec in picks)
    rng.shuffle(queries)
    return queries


def _explore(rng: random.Random) -> List[Query]:
    order = list(_EXPLORE_SITUATIONS)
    rng.shuffle(order)
    queries: List[Query] = []
    for i in range(EXPLORE_LENGTH):
        system, depth = order[i % len(order)]
        kind = "violated" if rng.random() < 0.2 else "holds"
        spec = rng.choice(specs(system, kind))
        queries.append(Query("check", system, depth, spec, "operational"))
    return queries


def _cache_churn(rng: random.Random) -> List[Query]:
    order = list(_CHURN_SITUATIONS)
    rng.shuffle(order)
    offset = rng.randrange(2)
    queries: List[Query] = []
    for step in range(len(order)):
        variant = (step + offset) % 2
        for op, kind, lag in _CHURN_SLOTS:
            system, depth = order[step - lag] if step >= lag else order[step]
            spec = specs(system, kind)[variant] if kind else None
            queries.append(Query(op, system, depth, spec))
    return queries


# -- inputs -------------------------------------------------------------------


def sources(examples: Path) -> Dict[str, str]:
    """Every input file's text by file name: copier and protocol from
    ``examples/csp``, buffers and philosophers from the generators in
    :mod:`repro.systems`."""
    from repro.systems import buffer, philosophers

    return {
        "copier.csp": (examples / "copier.csp").read_text(encoding="utf-8"),
        "protocol.csp": (examples / "protocol.csp").read_text(encoding="utf-8"),
        "buf2.csp": buffer.source(2),
        "buf3.csp": buffer.source(3),
        "buf4.csp": buffer.source(4),
        "phil3.csp": philosophers.source(3),
        "phil4.csp": philosophers.source(4),
    }


def write_inputs(directory: Path, examples: Path) -> None:
    """Write every system's ``.csp`` file into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in sources(examples).items():
        (directory / name).write_text(text, encoding="utf-8")


def cli_argv(query: Query, path: str) -> List[str]:
    """``repro`` arguments for ``query`` on the input file at ``path``."""
    system = query.target
    argv = [query.op, path, "--process", system.process, "--depth", str(query.depth)]
    argv += ["--sample", str(system.sample)]
    for binding in system.sets:
        argv += ["--set", binding]
    if system.with_cancel:
        argv += ["--with-cancel", system.with_cancel]
    if query.op == "deadlocks":
        return argv  # the explorer never touches the snapshot cache
    if query.engine != "denotational":
        argv += ["--engine", query.engine]
    if query.spec is not None:
        argv += ["--spec", query.spec]
    return argv + ["--no-cache"]
