"""Argv-level parity: ``repro … --server SOCKET`` prints exactly what
``repro …`` prints.

Both sides answer through :mod:`repro.query`.  Each case runs the real
``main`` locally and then through one daemon whose worker has already
served ungoverned copier queries at depth 8, so its arena is warm when
the governed cases arrive.  Every case is ``--no-cache``: with a shared
cache directory the second side would resume from the first side's
checkpoints, which is designed behaviour, not a parity break.
"""

import re

import pytest

from repro.cli import main
from repro.process.parser import parse_definitions
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

#: case → (argv with ``{copier}``/``{protocol}`` file slots, exit code)
CASES = {
    "check-holds": (
        ["check", "{copier}", "--process", "copier",
         "--spec", "wire <= input", "--depth", "8"], 0),
    "check-violated": (
        ["check", "{copier}", "--process", "copier",
         "--spec", "input <= wire"], 1),
    "check-batch": (
        ["check", "{copier}", "--process", "network",
         "--spec", "output <= input", "--spec", "input <= output"], 1),
    "traces": (
        ["traces", "{copier}", "--process", "copier", "--depth", "3"], 0),
    "check-max-nodes": (
        ["check", "{copier}", "--process", "copier",
         "--spec", "wire <= input", "--depth", "8", "--max-nodes", "12"], 4),
    "traces-max-nodes": (
        ["traces", "{copier}", "--process", "copier", "--depth", "8",
         "--max-nodes", "12"], 4),
    "operational": (
        ["check", "{copier}", "--process", "network",
         "--spec", "output <= input", "--engine", "operational"], 0),
    "unknown-process": (
        ["check", "{copier}", "--process", "ghost",
         "--spec", "wire <= input"], 2),
    "bad-set": (
        ["check", "{copier}", "--process", "copier",
         "--spec", "wire <= input", "--set", "bad"], 2),
    # one name bound twice: the wire sorts --set bindings, the flags do not
    "duplicate-set": (
        ["check", "{protocol}", "--process", "protocol",
         "--spec", "output <= input", "--set", "M=1", "--set", "M=0"], 2),
    "unbound-set": (
        ["check", "{protocol}", "--process", "protocol",
         "--spec", "output <= input"], 3),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("systems")
    paths = {}
    for name, source in (("copier", COPIER), ("protocol", PROTOCOL)):
        path = root / f"{name}.csp"
        path.write_text(source)
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def warm_daemon(tmp_path_factory):
    """A one-worker daemon that has answered ungoverned copier queries at
    depth 8: its arena already holds every node the governed cases
    would intern."""
    root = tmp_path_factory.mktemp("daemon")
    supervisor = Supervisor(str(root / "repro.sock"), jobs=1)
    supervisor.start()
    try:
        defs = parse_definitions(COPIER)
        with ServerClient(supervisor.socket_path) as client:
            for response in (
                client.check(defs, "wire <= input", process="copier",
                             depth=8, no_cache=True),
                client.traces(defs, process="copier", depth=8, no_cache=True),
            ):
                assert response["exit_code"] == 0
        yield supervisor
    finally:
        supervisor.stop()


#: A budget trip's stderr ends in its wall time; only that figure may differ.
ELAPSED = re.compile(r"\d+\.\d\ds elapsed")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return captured.out, ELAPSED.sub("…s elapsed", captured.err), code


@pytest.mark.parametrize("case", list(CASES))
def test_server_prints_what_local_prints(case, files, warm_daemon, capsys):
    template, expected_code = CASES[case]
    argv = [arg.format(**files) for arg in template] + ["--no-cache"]
    local = _run(capsys, argv)
    remote = _run(capsys, argv + ["--server", warm_daemon.socket_path])
    assert remote == local
    assert local[2] == expected_code
