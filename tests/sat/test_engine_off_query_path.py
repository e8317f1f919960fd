"""No query builds a :class:`~repro.semantics.engine.DenotationEngine`.

``check`` and ``traces`` unfold through their checker's one Denoter,
governed or not, locally and in a serve worker.  With the engine's
constructor made to raise, every shipped system still answers, and the
governed and served answers are the local one.
"""

from collections import OrderedDict
from pathlib import Path

import pytest

from repro.cli import main
from repro.process.parser import parse_definitions
from repro.semantics import engine as engine_module
from repro.server import protocol, worker

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "csp"

SYSTEMS = [
    pytest.param("copier.csp", "network", [], 2, "output <= input", id="copier"),
    pytest.param(
        "protocol.csp", "protocol", ["M=0,1"], 2, "output <= input", id="protocol"
    ),
    pytest.param(
        "philosophers.csp", "table", [], 2, "eat <= grab", id="philosophers2"
    ),
    pytest.param(
        "philosophers.csp", "table", [], 3, "eat <= grab", id="philosophers3"
    ),
    pytest.param("counter.csp", "counter", [], 2, "#c <= 9", id="counter"),
]


@pytest.fixture
def no_engine(monkeypatch):
    """An engine that cannot be built, and a worker with no warm state."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a query built a DenotationEngine")

    monkeypatch.setattr(engine_module.DenotationEngine, "__init__", refuse)
    monkeypatch.setattr(worker, "_CHECKERS", OrderedDict())
    monkeypatch.setattr(worker, "_WARM_ROOTS", OrderedDict())


@pytest.mark.parametrize("op", ["check", "traces"])
@pytest.mark.parametrize("filename, process, sets, sample, spec", SYSTEMS)
def test_queries_answer_without_the_engine(
    no_engine, capsys, op, filename, process, sets, sample, spec
):
    path = EXAMPLES / filename
    argv = [
        op, str(path), "--process", process, "--depth", "4",
        "--sample", str(sample), "--no-cache",
    ]
    for binding in sets:
        argv += ["--set", binding]
    if op == "check":
        argv += ["--spec", spec]
    assert main(argv) == 0
    local = capsys.readouterr()
    assert local.out and not local.err

    assert main(argv + ["--deadline", "60"]) == 0
    assert capsys.readouterr() == local

    request = protocol.query(
        op,
        parse_definitions(path.read_text(encoding="utf-8")),
        process=process,
        spec=spec if op == "check" else None,
        depth=4,
        sample=sample,
        sets=sets,
        no_cache=True,
    )
    request["id"] = f"{op}-{filename}-{sample}"
    response = worker.handle(request)
    assert response["status"] == "OK", response
    assert (response["exit_code"], response["stdout"]) == (0, local.out.rstrip("\n"))
