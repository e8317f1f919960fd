"""Operational snapshot files do not depend on the interpreter's hash seed.

The explorer interns its closure level by level in the order its walk
discovered the state sets, each node's events in sort-key order, so the
arena rows a ``--engine operational`` check persists are the same in
every process.  Each run below is a fresh interpreter under its own
``PYTHONHASHSEED``, writing into its own cache directory; the files
must be byte-identical.
"""

import os
import subprocess
import sys

import repro
from repro.systems import copier, philosophers

RUN = """
import contextlib, io, sys
from repro.cli import main

phil, copy, cache_dir = sys.argv[1:]
common = ["--engine", "operational", "--cache-dir", cache_dir]
with contextlib.redirect_stdout(io.StringIO()):
    main(["check", phil, "--process", "table", "--depth", "6", "--sample", "3",
          "--spec", "eat <= grab", *common])
    main(["check", copy, "--process", "network", "--depth", "8",
          "--spec", "output <= input", *common])
"""


def test_operational_snapshot_files_are_identical_across_hash_seeds(tmp_path):
    phil = tmp_path / "philosophers.csp"
    phil.write_text(philosophers.source(3))
    copy = tmp_path / "copier.csp"
    copy.write_text(copier.SOURCE)
    files = {}
    for seed in ("0", "1", "2"):
        cache_dir = tmp_path / f"cache-{seed}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", RUN, str(phil), str(copy), str(cache_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        files[seed] = {
            path.name: path.read_bytes()
            for path in sorted(cache_dir.glob("snapshot-*.json"))
        }
    assert len(files["0"]) == 2
    assert files["1"] == files["0"]
    assert files["2"] == files["0"]
