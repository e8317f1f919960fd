"""Cold start: no ``repro`` code path imports numpy.

numpy is not a dependency of ``repro``, and importing it costs more
than the rest of the package together, in time and in memory.  The
snapshot codec is pure Python.  These tests run in a fresh interpreter
each (the test process may have loaded numpy for other reasons) and
check that numpy stays out of:

* a one-shot ``check --no-cache``, ``traces --no-cache`` or
  ``deadlocks``, and a cached ``check`` that writes and reads a
  snapshot;
* a ``--jobs 2`` solve, in the parent and in every forked child, whose
  roots are still pointer-identical to a sequential solve.
"""

import json
import os
import subprocess
import sys

import pytest

import repro


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
    for _ in ("cold", "warm"):
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

log = sys.argv[1]


class NumpyTripwire:
    # Inherited by forked children: any process that looks numpy up
    # leaves its pid in the log.
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\\n")
        return None


sys.meta_path.insert(0, NumpyTripwire())
forks = []
real_fork = os.fork


def fork():
    forks.append("numpy" in sys.modules)
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
forked = roots(DenotationEngine(defs, env, config, jobs=2).fixpoint())
sequential = roots(DenotationEngine(defs, env, config).fixpoint())
identical = forked.keys() == sequential.keys() and all(
    forked[key] is root for key, root in sequential.items()
)
print(json.dumps({"forks": forks, "loaded": "numpy" in sys.modules,
                  "identical": identical}))
"""


def test_one_shot_queries_never_import_numpy(tmp_path):
    from repro.systems import copier

    source = tmp_path / "copier.csp"
    source.write_text(copier.SOURCE)
    cache_dir = tmp_path / "cache"
    result = _fresh_interpreter(ONE_SHOT, str(source), str(cache_dir))
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert list(cache_dir.glob("snapshot-*.json"))  # the codec ran
    assert result["uncached"] is False
    assert result["cached"] is False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_solve_never_imports_numpy(tmp_path):
    log = tmp_path / "numpy-lookups"
    result = _fresh_interpreter(FORKED, str(log))
    assert result["forks"]  # philosophers fans rank 0 out to children
    assert not any(result["forks"])
    assert result["loaded"] is False
    assert not log.exists(), log.read_text()
    assert result["identical"] is True
