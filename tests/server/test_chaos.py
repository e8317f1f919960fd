"""Chaos tests: workers crash (injected fault, real ``kill -9``) and the
daemon must heal — respawn, re-dispatch, and answer byte-identically to
an undisturbed run."""

import os
import signal
import threading
import time

import pytest

from repro.process.parser import parse_definitions
from repro.runtime import faults as _faults
from repro.server.client import ServerClient
from repro.server.supervisor import Supervisor

COPIER = """
copier = input?x:NAT -> wire!x -> copier;
recopier = wire?y:NAT -> output!y -> recopier;
network = chan wire; (copier || recopier)
"""

#: The kill-mid-request query: sequential ``copier`` at depth 32
#: (262 141 traces).  Two same-length traces of a sequential trie never
#: share a (node, ``ch(s)``) pair, so the quotiented sat walk visits every
#: trace and the query stays multi-second (2.4–2.9 s single-shot on a
#: 2-vCPU host).  An interleaving network such as protocol at depth 17
#: walks in O(pairs) — 0.2–0.3 s — and answers before the kill lands.
SLOW_QUERY = dict(process="copier", depth=32, no_cache=True)


@pytest.fixture
def copier_defs():
    return parse_definitions(COPIER)


def _reference(defs, spec, process, **kwargs):
    """The undisturbed verdict, computed in-process the same way a
    worker computes it (shared renderers), as (stdout, stderr, code)."""
    from repro.server import worker
    from repro.server.protocol import query

    request = query("check", defs, process=process, spec=spec, **kwargs)
    request["id"] = "reference"
    response = worker.run_query(request)
    return response["stdout"], response["stderr"], response["exit_code"]


class TestInjectedCrash:
    def test_worker_exit_mid_request_heals(self, tmp_path, copier_defs):
        # Every first-generation worker is armed to die (os._exit, no
        # response, no cleanup) on its first request; respawned workers
        # are clean.  The client must still get the right verdict.
        supervisor = Supervisor(
            str(tmp_path / "c.sock"), jobs=1, inject="serve.worker_exit:1"
        )
        supervisor.start()
        try:
            with ServerClient(supervisor.socket_path) as client:
                response = client.check(
                    copier_defs, "wire <= input", process="copier",
                    no_cache=True,
                )
            expected = _reference(
                copier_defs, "wire <= input", "copier", no_cache=True
            )
            assert response["status"] == "OK"
            assert (
                response["stdout"],
                response["stderr"],
                response["exit_code"],
            ) == expected
            assert response["attempts"] == 2  # crash, respawn, retry
            assert supervisor.crashes == 1
            assert supervisor.respawns == 1
        finally:
            supervisor.stop()

    def test_bad_inject_spec_fails_at_startup(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fault site"):
            Supervisor(str(tmp_path / "x.sock"), inject="no.such.site")

    def test_crashes_beyond_max_attempts_surface(self, tmp_path, copier_defs):
        # dispatch fault fires on every attempt: after max_attempts the
        # client gets a structured server error, not a hang.
        supervisor = Supervisor(
            str(tmp_path / "m.sock"), jobs=1, max_attempts=2
        )
        supervisor.start()
        try:
            with _faults.inject(
                _AlwaysPlan("serve.dispatch")
            ), ServerClient(supervisor.socket_path) as client:
                response = client.check(
                    copier_defs, "wire <= input", process="copier",
                    no_cache=True,
                )
            assert response["status"] == "ERROR"
            assert response["exit_code"] == 9
            assert "2 dispatch attempt" in response["stderr"]
        finally:
            supervisor.stop()


class _AlwaysPlan(_faults.FaultPlan):
    """A plan that fires on *every* visit of its site (the stock plan
    fires once) — models a fault that does not go away with retries."""

    def visit(self, site: str) -> None:
        self.total += 1
        self.counts[site] = self.counts.get(site, 0) + 1
        if site == self.site:
            raise _faults.FaultInjected(site, self.counts[site])


class TestDispatchFaults:
    @pytest.mark.parametrize("after", [1, 2])
    def test_nth_dispatch_fault_is_transparent(
        self, tmp_path, copier_defs, after
    ):
        # The dispatch fault fires once, on the Nth dispatch attempt
        # overall; whichever request it lands on is transparently
        # retried on a fresh worker and the client never notices.
        supervisor = Supervisor(str(tmp_path / "d.sock"), jobs=1)
        supervisor.start()
        expected = _reference(
            copier_defs, "wire <= input", "copier", no_cache=True
        )
        try:
            with _faults.inject(
                _faults.FaultPlan(site="serve.dispatch", after=after)
            ), ServerClient(supervisor.socket_path) as client:
                for _ in range(3):
                    response = client.check(
                        copier_defs, "wire <= input", process="copier",
                        no_cache=True,
                    )
                    assert response["status"] == "OK"
                    assert (
                        response["stdout"],
                        response["stderr"],
                        response["exit_code"],
                    ) == expected
            assert supervisor.retries == 1
        finally:
            supervisor.stop()


class TestRealKill:
    @pytest.mark.slow
    def test_sigkill_mid_request_heals(self, tmp_path):
        # The genuine article: SIGKILL the only worker while it is deep
        # in a multi-second query.  The supervisor must notice the dead
        # connection, respawn, re-dispatch, and the answer must equal
        # the undisturbed run's.
        defs = parse_definitions(COPIER)
        supervisor = Supervisor(str(tmp_path / "k.sock"), jobs=1)
        supervisor.start()
        result = {}

        def ask():
            with ServerClient(
                supervisor.socket_path, timeout=120.0
            ) as client:
                result["response"] = client.check(
                    defs, "wire <= input", **SLOW_QUERY
                )

        thread = threading.Thread(target=ask, daemon=True)
        try:
            with ServerClient(supervisor.socket_path) as control:
                victim = control.stats()["workers"][0]["pid"]
                thread.start()
                # wait until the query is actually in flight
                for _ in range(200):
                    if supervisor._idle.qsize() == 0:
                        break
                    time.sleep(0.01)
                time.sleep(0.3)  # let it get deep into the computation
                os.kill(victim, signal.SIGKILL)
                thread.join(timeout=120)
                assert not thread.is_alive()
                response = result["response"]
                stats = control.stats()
            expected = _reference(defs, "wire <= input", **SLOW_QUERY)
            assert response["status"] == "OK"
            assert (
                response["stdout"],
                response["stderr"],
                response["exit_code"],
            ) == expected
            assert response["pid"] != victim  # answered by the respawn
            assert stats["crashes"] >= 1
        finally:
            supervisor.stop()

    def test_worker_killed_while_idle_is_replaced_on_demand(
        self, tmp_path, copier_defs
    ):
        supervisor = Supervisor(str(tmp_path / "i.sock"), jobs=1)
        supervisor.start()
        try:
            with ServerClient(supervisor.socket_path) as client:
                victim = client.stats()["workers"][0]["pid"]
                os.kill(victim, signal.SIGKILL)
                # no health-sweep wait needed: _acquire notices the
                # corpse and respawns before dispatching
                response = client.check(
                    copier_defs, "wire <= input", process="copier",
                    no_cache=True,
                )
            assert response["status"] == "OK"
            assert response["exit_code"] == 0
            assert response["pid"] != victim
        finally:
            supervisor.stop()
