"""Chaos smoke for ``repro serve`` — run in CI, runnable by hand.

The scenario the daemon exists to survive, end to end over the real
CLI entry points:

1. record reference verdicts with fresh single-shot ``repro check``
   runs (one fast query, one multi-second query);
2. start ``repro serve --jobs 2`` and push a batch of queries through
   the client — every verdict must be byte-identical to the reference;
3. while a slow query is in flight, ``kill -9`` every worker; the
   supervisor must respawn and re-dispatch, the client must see the
   right verdict with no visible hiccup;
4. restart the daemon with ``--inject serve.worker_exit:1`` so each
   first-generation worker self-destructs mid-request, and check a
   query heals the same way.

Run as::

    PYTHONPATH=src python -m benchmarks.chaos_smoke
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "csp"

#: (source, ``repro check`` arguments) of the fast and the slow query.
FAST = (
    EXAMPLES / "protocol.csp",
    ["--set", "M=0,1", "--spec", "output <= input", "--depth", "6"],
)
#: Slow enough (~seconds) that a mid-request SIGKILL reliably lands
#: while the worker is deep in the sat walk.  Sequential ``copier`` at
#: depth 32 has 262 141 traces and no two same-length ones share a
#: (trie node, ``ch(s)``) pair, so the quotiented walk visits them all
#: (2.4–2.9 s single-shot on a 2-vCPU host).  Protocol at depth 17 walks
#: in O(pairs), 0.2–0.3 s, and would answer before the kill.
SLOW = (
    EXAMPLES / "copier.csp",
    ["--process", "copier", "--spec", "wire <= input", "--depth", "32"],
)

BATCH = 6


def _env() -> dict:
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    return env


def _single_shot(query) -> "tuple[str, str, int]":
    source, args = query
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", str(source), "--no-cache",
         *args],
        env=_env(),
        capture_output=True,
        text=True,
    )
    return proc.stdout, proc.stderr, proc.returncode


def _start_daemon(socket_path: str, extra: list) -> subprocess.Popen:
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         "--jobs", "2", *extra],
        env=_env(),
    )
    for _ in range(200):
        if os.path.exists(socket_path):
            return daemon
        if daemon.poll() is not None:
            raise SystemExit("daemon died during startup")
        time.sleep(0.05)
    raise SystemExit("daemon never bound its socket")


def _stop_daemon(daemon: subprocess.Popen) -> None:
    daemon.terminate()
    try:
        daemon.wait(timeout=15)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()


def _check(client, query):
    from repro.process.parser import parse_definitions

    source, args = query

    def flag(name):
        return args[args.index(name) + 1] if name in args else None

    return client.check(
        parse_definitions(source.read_text(encoding="utf-8")),
        flag("--spec"),
        process=flag("--process"),
        sets=[flag("--set")] if "--set" in args else [],
        depth=int(flag("--depth")),
        no_cache=True,
    )


def _assert_matches(response: dict, reference, label: str) -> None:
    stdout, stderr, code = reference
    got = (response["stdout"] + "\n", response["stderr"], response["exit_code"])
    # single-shot stderr, when present, also ends with print's newline
    want = (stdout, stderr[:-1] if stderr.endswith("\n") else stderr, code)
    if got != want:
        raise SystemExit(f"{label}: daemon verdict diverged:\n{got}\n{want}")


def main() -> None:
    from repro.server.client import ServerClient

    ref_fast = _single_shot(FAST)
    ref_slow = _single_shot(SLOW)
    if ref_fast[2] != 0 or ref_slow[2] != 0:
        raise SystemExit("reference single-shot runs must hold")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        socket_path = os.path.join(tmp, "chaos.sock")

        daemon = _start_daemon(socket_path, [])
        try:
            with ServerClient(socket_path) as client:
                for i in range(BATCH):
                    _assert_matches(
                        _check(client, FAST), ref_fast, f"batch[{i}]"
                    )
                print(f"batch of {BATCH} warm queries: verdicts identical")

                victims = [
                    w["pid"] for w in client.stats()["workers"] if w["alive"]
                ]
                result = {}

                def ask():
                    with ServerClient(socket_path) as own:
                        result["response"] = _check(own, SLOW)

                thread = threading.Thread(target=ask, daemon=True)
                thread.start()
                while client.stats()["idle"] > 1:  # slow query in flight?
                    time.sleep(0.02)
                time.sleep(0.4)  # …and deep inside the solve
                for pid in victims:
                    os.kill(pid, signal.SIGKILL)
                print(f"killed workers {victims} mid-request")
                thread.join(timeout=300)
                if thread.is_alive():
                    raise SystemExit("client never got an answer")
                _assert_matches(result["response"], ref_slow, "post-kill")
                stats = client.stats()
                if stats["crashes"] < 1:
                    raise SystemExit("supervisor recorded no crash")
                print(
                    f"healed: crashes={stats['crashes']} "
                    f"respawns={stats['respawns']} retries={stats['retries']}"
                )
        finally:
            _stop_daemon(daemon)

        daemon = _start_daemon(
            socket_path, ["--inject", "serve.worker_exit:1"]
        )
        try:
            with ServerClient(socket_path) as client:
                response = _check(client, FAST)
                _assert_matches(response, ref_fast, "injected-crash")
                if response.get("attempts", 1) < 2:
                    raise SystemExit("injected crash never fired")
            print("injected worker_exit healed transparently")
        finally:
            _stop_daemon(daemon)

    print("chaos smoke ok: daemon survives kill -9 with identical verdicts")


if __name__ == "__main__":
    main()
