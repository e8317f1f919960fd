"""Stress harness: the CLI under hostile budgets must degrade gracefully.

Every combination of example system × subcommand × tight budget must
exit with a *taxonomy* code (0 success, 1 property-failed, 4 budget
exhausted) and never dump a raw traceback to stderr — even on the
infinite-state counter, where only the budget terminates the run.

A budget trip that claims "verified to depth k" is held to an
unbudgeted rerun at ``--depth k``: a ``check`` must hold there, a
``traces`` listing must be the rerun's line for line, and a
``deadlocks`` list must contain every deadlock the rerun lists.

Run as pytest, or as a script for a quick manual sweep::

    PYTHONPATH=src python -m benchmarks.stress_budget
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import pytest

REPO = Path(__file__).resolve().parent.parent
CSP_DIR = REPO / "examples" / "csp"

#: Exit codes a budget-stressed run may legitimately produce.
GRACEFUL = {0, 1, 4}

BUDGETS = [
    ["--deadline", "0.05"],
    ["--max-nodes", "25"],
    ["--max-states", "10"],
    ["--deadline", "0.05", "--max-nodes", "25", "--max-states", "10"],
    # philosophers deadlock at depth 3: this trips after they are found
    ["--max-states", "20"],
]

COMMANDS = [
    ["check", str(CSP_DIR / "copier.csp"), "--process", "copier",
     "--spec", "wire <= input", "--depth", "8"],
    ["check", str(CSP_DIR / "protocol.csp"), "--process", "protocol",
     "--spec", "output <= input", "--set", "M=0,1", "--with-cancel", "f",
     "--depth", "6"],
    ["traces", str(CSP_DIR / "copier.csp"), "--process", "network",
     "--depth", "8"],
    ["traces", str(CSP_DIR / "counter.csp"), "--process", "counter",
     "--depth", "50", "--engine", "operational"],
    ["deadlocks", str(CSP_DIR / "copier.csp"), "--process", "network",
     "--depth", "6"],
    ["deadlocks", str(CSP_DIR / "counter.csp"), "--process", "counter",
     "--depth", "30"],
    ["deadlocks", str(CSP_DIR / "philosophers.csp"), "--process", "table",
     "--sample", "3", "--depth", "8"],
]

CLAIM = re.compile(r"verified to depth (\d+)")


def run_cli(argv):
    """Run ``repro`` on ``argv``.  A ``check`` or ``traces`` run that names
    no cache gets a fresh ``--cache-dir`` of its own, so a governed run
    never resumes from what another run (or the user) left behind and no
    run writes the user's ``~/.cache/repro``."""
    with tempfile.TemporaryDirectory(prefix="repro-stress-") as cache_dir:
        if argv[0] in ("check", "traces") and "--no-cache" not in argv:
            argv = [*argv, "--cache-dir", cache_dir]
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )


def _listed(stdout: str):
    return [line for line in stdout.splitlines() if line.startswith("  ⟨")]


def broken_claim(command, proc) -> Optional[str]:
    """Why a tripped run's "verified to depth k" is false, judged by an
    unbudgeted rerun at ``--depth k``; ``None`` when it holds or the run
    claims no depth."""
    match = CLAIM.search(proc.stdout + proc.stderr) if proc.returncode == 4 else None
    if match is None:
        return None
    depth = match.group(1)
    argv = list(command)
    argv[argv.index("--depth") + 1] = depth
    if argv[0] != "deadlocks":
        argv.append("--no-cache")
    rerun = run_cli(argv)
    op = argv[0]
    if op == "check":
        ok = rerun.returncode == 0 and rerun.stdout.startswith("HOLDS")
    elif op == "traces":
        ok = rerun.returncode == 0 and _listed(rerun.stdout) == _listed(proc.stdout)
    else:
        ok = set(_listed(rerun.stdout)) <= set(_listed(proc.stdout))
    if ok:
        return None
    return (
        f"claimed verified to depth {depth}, but the unbudgeted rerun "
        f"(exit {rerun.returncode}) printed:\n{rerun.stdout}"
        f"\nagainst the partial run's:\n{proc.stdout}"
    )


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: " ".join(b))
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: f"{c[0]}:{Path(c[1]).stem}")
def test_budgeted_run_degrades_gracefully(command, budget):
    proc = run_cli(command + budget)
    assert proc.returncode in GRACEFUL, (
        f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode == 4:
        assert "budget exhausted" in proc.stderr
    broken = broken_claim(command, proc)
    assert broken is None, broken


def test_counter_without_budget_flag_is_bounded_by_depth():
    # sanity: the harness itself must not rely on budgets for termination
    # at shallow depth
    proc = run_cli(
        ["traces", str(CSP_DIR / "counter.csp"), "--process", "counter",
         "--depth", "3", "--engine", "operational"]
    )
    assert proc.returncode == 0, proc.stderr
    assert "c.0" in proc.stdout


def main() -> None:
    failures = 0
    for command in COMMANDS:
        for budget in BUDGETS:
            proc = run_cli(command + budget)
            ok = proc.returncode in GRACEFUL and "Traceback" not in proc.stderr
            ok = ok and broken_claim(command, proc) is None
            status = "ok" if ok else "FAIL"
            failures += not ok
            print(
                f"{status:<4} exit={proc.returncode} "
                f"{command[0]}:{Path(command[1]).stem} {' '.join(budget)}"
            )
    if failures:
        raise SystemExit(f"{failures} stressed runs misbehaved")
    print("all stressed runs degraded gracefully")


if __name__ == "__main__":
    main()
