"""Cold start: no ``repro`` code path imports numpy.

numpy is not a dependency of ``repro``, and importing it costs more
than the rest of the package together, in time and in memory.  The
snapshot codec is pure Python.  The test runs in a fresh interpreter
(the test process may have loaded numpy for other reasons) and checks
that numpy stays out of a one-shot ``check --no-cache``, ``traces
--no-cache`` or ``deadlocks``, and out of a cached ``check`` that writes
and reads a snapshot.
"""

import json
import os
import subprocess
import sys

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

