"""A serve worker ignores a request's ``jobs`` field.

Older clients sent ``"jobs": N`` with every ``check``/``traces``
request.  The worker answers such a request exactly as it answers one
without the field, and never forks to do so: these tests call
:func:`repro.server.worker.handle` in-process (no daemon) with ``fork``
in the ``os`` module made to raise.
"""

import os
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.process.parser import parse_definitions
from repro.server import protocol, worker

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "csp"


@pytest.fixture
def cold_worker(monkeypatch):
    """A worker with no warm checkers, whose process cannot fork."""

    def no_fork():
        raise AssertionError("a serve worker forked to answer a query")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(worker, "_CHECKERS", OrderedDict())
    monkeypatch.setattr(worker, "_WARM_ROOTS", OrderedDict())


def _answer(request, jobs):
    request = {key: value for key, value in request.items() if key != "jobs"}
    if jobs is not None:
        request["jobs"] = jobs
    response = worker.handle(request)
    return {
        key: response.get(key)
        for key in ("status", "exit_code", "stdout", "stderr")
    }


@pytest.mark.parametrize("op", ["check", "traces"])
def test_jobs_field_changes_nothing(cold_worker, op):
    source = (EXAMPLES / "philosophers.csp").read_text(encoding="utf-8")
    request = protocol.query(
        op,
        parse_definitions(source),
        process="table",
        spec="eat <= grab" if op == "check" else None,
        depth=5,
        sample=3,
        no_cache=True,
    )
    request["id"] = "jobs-" + op
    plain = _answer(request, None)
    assert plain["status"] == "OK" and plain["exit_code"] == 0
    assert plain["stdout"]
    assert _answer(request, 8) == plain
    assert _answer(request, "x") == plain
