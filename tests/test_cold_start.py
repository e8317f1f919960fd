"""Cold start: numpy loads only where the bulk snapshot codec runs.

numpy costs more to import than the rest of ``repro`` together, and
only :mod:`repro.traces.snapshot`'s bulk codec uses it.  These tests
run in a fresh interpreter each (the test process itself has long
since loaded numpy) and pin down where it loads:

* never for a one-shot ``check --no-cache``, ``traces --no-cache`` or
  ``deadlocks``, which encode and decode no snapshot;
* on the first snapshot save of a cached ``check``;
* before the engine forks ``--jobs`` children, so they inherit it.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro

HAS_NUMPY = importlib.util.find_spec("numpy") is not None


def _fresh_interpreter(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


ONE_SHOT = """
import contextlib, io, json, sys
from repro.cli import main

source, cache_dir = sys.argv[1], sys.argv[2]
spec = ["--process", "network", "--depth", "5"]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["check", source, *spec, "--spec", "output <= input",
                       "--no-cache"]))
    codes.append(main(["traces", source, *spec, "--no-cache"]))
    codes.append(main(["deadlocks", source, *spec]))
    uncached = "numpy" in sys.modules
    codes.append(main(["check", source, *spec, "--spec", "output <= input",
                       "--cache-dir", cache_dir]))
print(json.dumps({"codes": codes, "uncached": uncached,
                  "cached": "numpy" in sys.modules}))
"""

FORKED = """
import json, os, sys
from repro.semantics.config import SemanticsConfig
from repro.semantics.engine import DenotationEngine
from repro.systems import philosophers

at_fork = []
real_fork = os.fork


def fork():
    at_fork.append("numpy" in sys.modules)
    return real_fork()


def roots(fixpoint):
    flat = {}
    for name, value in fixpoint.items():
        for sub, closure in (value.items() if isinstance(value, dict)
                             else [(None, value)]):
            flat[(name, sub)] = closure.root
    return flat


os.fork = fork
defs, env = philosophers.definitions(), philosophers.environment()
config = SemanticsConfig(depth=5, sample=3)
before = "numpy" in sys.modules
forked = roots(DenotationEngine(defs, env, config, jobs=2).fixpoint())
sequential = roots(DenotationEngine(defs, env, config).fixpoint())
identical = forked.keys() == sequential.keys() and all(
    forked[key] is root for key, root in sequential.items()
)
print(json.dumps({"before": before, "at_fork": at_fork,
                  "identical": identical}))
"""


def test_one_shot_queries_never_import_numpy(tmp_path):
    from repro.systems import copier

    source = tmp_path / "copier.csp"
    source.write_text(copier.SOURCE)
    result = _fresh_interpreter(ONE_SHOT, str(source), str(tmp_path / "cache"))
    assert result["codes"] == [0, 0, 0, 0]
    assert result["uncached"] is False
    # A snapshot save still takes the bulk codec wherever numpy exists.
    assert result["cached"] is HAS_NUMPY


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.skipif(not HAS_NUMPY, reason="the bulk codec needs numpy")
def test_engine_loads_the_bulk_codec_before_forking():
    result = _fresh_interpreter(FORKED)
    assert result["before"] is False
    assert result["at_fork"]  # philosophers fans rank 0 out to children
    assert all(result["at_fork"])
    assert result["identical"] is True
