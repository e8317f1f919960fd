"""End-to-end tests of the serve daemon: an in-process supervisor with
real worker subprocesses, driven through the real client."""

import os
import threading
import time

import pytest

from repro.cli import main
from repro.errors import Overloaded
from repro.process.parser import parse_definitions
from repro.runtime.governor import Budget
from repro.server.client import ServerClient
from repro.server.supervisor import Supervisor

COPIER = """
copier = input?x:NAT -> wire!x -> copier;
recopier = wire?y:NAT -> output!y -> recopier;
network = chan wire; (copier || recopier)
"""

PROTOCOL = """
sender = input?y:M -> q[y];
q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x]);
receiver = wire?z:M -> (wire!ACK -> output!z -> receiver | wire!NACK -> receiver);
protocol = chan wire; (sender || receiver)
"""


@pytest.fixture
def copier_defs():
    return parse_definitions(COPIER)


@pytest.fixture
def daemon(tmp_path):
    """One supervisor on a tmp socket; stopped (and its workers reaped)
    even when the test body fails."""
    supervisor = Supervisor(str(tmp_path / "repro.sock"), jobs=1)
    supervisor.start()
    yield supervisor
    supervisor.stop()


def _client(supervisor, **kwargs):
    return ServerClient(supervisor.socket_path, **kwargs)


class TestBasics:
    def test_ping(self, daemon):
        with _client(daemon) as client:
            response = client.ping()
        assert response["status"] == "OK"
        assert response["pid"] == os.getpid()  # supervisor answers pings

    def test_stats_reports_pool(self, daemon):
        with _client(daemon) as client:
            stats = client.stats()
        assert len(stats["workers"]) == 1
        assert stats["workers"][0]["alive"]
        assert stats["queue_limit"] == 16

    def test_unknown_op_is_server_error(self, daemon):
        with _client(daemon) as client:
            response = client.call({"op": "frobnicate"})
        assert response["status"] == "ERROR"
        assert response["exit_code"] == 9

    def test_stale_socket_is_replaced(self, tmp_path):
        path = tmp_path / "stale.sock"
        path.write_text("")  # a dead daemon's leftover
        supervisor = Supervisor(str(path), jobs=1)
        try:
            supervisor.start()
            with ServerClient(str(path)) as client:
                assert client.ping()["status"] == "OK"
        finally:
            supervisor.stop()


class TestVerdictParity:
    """The byte-identity contract: a remote query prints exactly what
    the local CLI would have."""

    def _local(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    def test_check_holds(self, daemon, copier_defs, tmp_path, capsys):
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        out, err, code = self._local(
            capsys,
            ["check", str(path), "--process", "copier",
             "--spec", "wire <= input", "--no-cache"],
        )
        with _client(daemon) as client:
            response = client.check(
                copier_defs, "wire <= input", process="copier", no_cache=True
            )
        assert response["status"] == "OK"
        assert response["exit_code"] == code == 0
        assert response["stdout"] + "\n" == out
        assert response["stderr"] == err == ""

    def test_check_violated(self, daemon, copier_defs, tmp_path, capsys):
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        out, err, code = self._local(
            capsys,
            ["check", str(path), "--process", "copier",
             "--spec", "input <= wire", "--no-cache"],
        )
        with _client(daemon) as client:
            response = client.check(
                copier_defs, "input <= wire", process="copier", no_cache=True
            )
        assert response["exit_code"] == code == 1
        assert response["stdout"] + "\n" == out

    def test_traces_listing(self, daemon, copier_defs, tmp_path, capsys):
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        out, err, code = self._local(
            capsys,
            ["traces", str(path), "--process", "copier", "--depth", "3",
             "--no-cache"],
        )
        with _client(daemon) as client:
            response = client.traces(
                copier_defs, process="copier", depth=3, no_cache=True
            )
        assert response["exit_code"] == code == 0
        assert response["stdout"] + "\n" == out

    def test_cli_server_flag_routes(self, daemon, tmp_path, capsys):
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        local_out, _, _ = self._local(
            capsys,
            ["check", str(path), "--process", "copier",
             "--spec", "wire <= input", "--no-cache"],
        )
        code = main(
            ["check", str(path), "--process", "copier",
             "--spec", "wire <= input", "--no-cache",
             "--server", daemon.socket_path]
        )
        assert code == 0
        assert capsys.readouterr().out == local_out

    def test_semantic_error_maps_like_local(self, daemon, tmp_path, capsys):
        # protocol without --set M=… fails in the semantics layer: the
        # daemon must return the same exit code and error line, and the
        # worker must survive to serve the next query.
        defs = parse_definitions(PROTOCOL)
        path = tmp_path / "protocol.csp"
        path.write_text(PROTOCOL)
        _, err, code = self._local(
            capsys,
            ["check", str(path), "--process", "protocol",
             "--spec", "output <= input", "--no-cache"],
        )
        with _client(daemon) as client:
            response = client.check(
                defs, "output <= input", process="protocol", no_cache=True
            )
            assert response["status"] == "ERROR"
            assert response["exit_code"] == code == 3
            assert response["stderr"] + "\n" == err
            # the bad query did not poison the worker
            good = client.check(
                defs, "output <= input", process="protocol",
                sets=["M=0,1"], no_cache=True,
            )
        assert good["exit_code"] == 0
        assert good["stdout"].startswith("HOLDS")

    def test_unknown_process_is_parse_exit(self, daemon, copier_defs):
        with _client(daemon) as client:
            response = client.check(
                copier_defs, "wire <= input", process="ghost", no_cache=True
            )
        assert response["exit_code"] == 2
        assert "no process named 'ghost'" in response["stderr"]

    def test_unknown_process_matches_local(
        self, daemon, copier_defs, tmp_path, capsys
    ):
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        out, err, code = self._local(
            capsys,
            ["check", str(path), "--process", "ghost",
             "--spec", "wire <= input", "--no-cache"],
        )
        with _client(daemon) as client:
            response = client.check(
                copier_defs, "wire <= input", process="ghost", no_cache=True
            )
        assert response["exit_code"] == code == 2
        assert response["stderr"] + "\n" == err
        assert response["stdout"] == out == ""

    def test_bad_set_is_parse_exit_and_worker_survives(
        self, daemon, copier_defs
    ):
        # A malformed --set used to raise SystemExit inside the worker,
        # which escaped the request handler and killed the worker.
        with _client(daemon) as client:
            response = client.check(
                copier_defs, "wire <= input", process="copier",
                sets=["bad"], no_cache=True,
            )
            stats = client.stats()
        assert response["status"] == "ERROR"
        assert response["exit_code"] == 2
        assert response["stderr"].startswith("error: --set expects")
        assert stats["respawns"] == 0

    def test_budget_trip_is_partial(self, daemon, copier_defs):
        with _client(daemon) as client:
            response = client.check(
                copier_defs,
                "wire <= input",
                process="copier",
                depth=8,
                budget=Budget(deadline=0.0),
                no_cache=True,
            )
        assert response["status"] == "OK"
        assert response["exit_code"] == 4
        assert response["stdout"].startswith("PARTIAL")
        assert "budget exhausted" in response["stderr"]


class TestWarmth:
    def test_repeated_queries_reuse_worker(self, daemon, copier_defs):
        with _client(daemon) as client:
            first = client.check(
                copier_defs, "wire <= input", process="copier", no_cache=True
            )
            second = client.check(
                copier_defs, "wire <= input", process="copier", no_cache=True
            )
            stats = client.stats()
        assert first["stdout"] == second["stdout"]
        assert first["pid"] == second["pid"]  # same warm worker
        assert stats["respawns"] == 0

    def test_max_requests_recycles_worker(self, tmp_path, copier_defs):
        supervisor = Supervisor(
            str(tmp_path / "r.sock"), jobs=1, max_requests=1
        )
        supervisor.start()
        try:
            with _client(supervisor) as client:
                first = client.check(
                    copier_defs, "wire <= input", process="copier",
                    no_cache=True,
                )
                second = client.check(
                    copier_defs, "wire <= input", process="copier",
                    no_cache=True,
                )
        finally:
            supervisor.stop()
        assert first["stdout"] == second["stdout"]
        assert first["pid"] != second["pid"]  # retired after one request


class TestIdempotency:
    def test_duplicate_id_replays_cached_response(self, daemon, copier_defs):
        from repro.server import protocol as proto

        request = proto.query(
            "check", copier_defs, process="copier", spec="wire <= input",
            no_cache=True,
        )
        request["id"] = "fixed-request-id"
        with _client(daemon) as client:
            first = client.call(dict(request))
            second = client.call(dict(request))
            stats = client.stats()
        assert first == second  # replayed verbatim, not recomputed
        assert stats["deduped"] == 1
        # only one query actually reached a worker
        assert sum(w["served"] for w in stats["workers"]) == 1

    def test_distinct_ids_recompute(self, daemon, copier_defs):
        with _client(daemon) as client:
            client.check(
                copier_defs, "wire <= input", process="copier", no_cache=True
            )
            client.check(
                copier_defs, "wire <= input", process="copier", no_cache=True
            )
            stats = client.stats()
        assert stats["deduped"] == 0
        assert sum(w["served"] for w in stats["workers"]) == 2


class TestLoadShedding:
    @pytest.mark.slow
    def test_overloaded_when_queue_full(self, tmp_path, copier_defs):
        # One worker, zero queue slots: while the worker chews on a
        # governed slow query, the next request must be shed explicitly.
        supervisor = Supervisor(str(tmp_path / "o.sock"), jobs=1, queue_limit=0)
        supervisor.start()
        slow_done = threading.Event()

        def slow():
            try:
                with _client(supervisor) as client:
                    # deadline-governed: occupies the worker ~1.5 s, then
                    # returns a sound PARTIAL (so the test stays green).
                    client.check(
                        copier_defs, "wire <= input", process="copier",
                        depth=40, budget=Budget(deadline=1.5), no_cache=True,
                    )
            finally:
                slow_done.set()

        thread = threading.Thread(target=slow, daemon=True)
        try:
            thread.start()
            # wait until the slow query actually occupies the worker
            with _client(supervisor) as client:
                for _ in range(100):
                    if supervisor._idle.qsize() == 0:
                        break
                    time.sleep(0.02)
                with pytest.raises(Overloaded, match="overloaded"):
                    client.check(
                        copier_defs, "wire <= input", process="copier",
                        no_cache=True,
                    )
            slow_done.wait(timeout=30)
            assert supervisor.shed >= 1
        finally:
            thread.join(timeout=30)
            supervisor.stop()

    @pytest.mark.slow
    def test_overloaded_maps_to_exit_8_via_cli(self, tmp_path, copier_defs, capsys):
        supervisor = Supervisor(str(tmp_path / "o.sock"), jobs=1, queue_limit=0)
        supervisor.start()
        path = tmp_path / "copier.csp"
        path.write_text(COPIER)
        slow_done = threading.Event()

        def slow():
            try:
                with _client(supervisor) as client:
                    client.check(
                        copier_defs, "wire <= input", process="copier",
                        depth=40, budget=Budget(deadline=1.5), no_cache=True,
                    )
            finally:
                slow_done.set()

        thread = threading.Thread(target=slow, daemon=True)
        try:
            thread.start()
            for _ in range(100):
                if supervisor._idle.qsize() == 0:
                    break
                time.sleep(0.02)
            code = main(
                ["check", str(path), "--process", "copier",
                 "--spec", "wire <= input", "--no-cache",
                 "--server", supervisor.socket_path]
            )
            assert code == 8
            assert "overloaded" in capsys.readouterr().err
            slow_done.wait(timeout=30)
        finally:
            thread.join(timeout=30)
            supervisor.stop()
