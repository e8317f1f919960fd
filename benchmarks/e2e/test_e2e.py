"""Smoke test of the end-to-end benchmark at ``--quick`` sizes.

    pytest benchmarks/e2e -q

Runs every workload once untraced and once traced (about 40 s), then
checks the printed metrics, the verdicts, the seeded generator, the
oracle's coverage and the span tree.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import oracle, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = Path(__file__).with_name("run.py")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def _suite(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def untraced() -> subprocess.CompletedProcess:
    return _suite("--trace", "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("spans") / "spans.json"
    done = _suite("--trace", "1", "--spans", str(path))
    return done, json.loads(path.read_text(encoding="utf-8"))


def _results(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])["workloads"]


@pytest.mark.parametrize("section,fixture", [("end_to_end", "untraced"), ("per_layer", "traced")])
def test_every_metric_is_printed_with_its_unit(section, fixture, request):
    done = request.getfixturevalue(fixture)
    done = done[0] if isinstance(done, tuple) else done
    results = _results(done)
    assert sorted(results) == sorted(NAMES)
    for row in BENCH[section]:
        line = re.compile(
            rf"^\s+{re.escape(row['name'])}\s+\S+\s+{re.escape(row['unit'])}\s+n=\d+$",
            re.MULTILINE,
        )
        assert len(line.findall(done.stdout)) == len(NAMES), row["name"]
        for result in results.values():
            assert result["metrics"][row["name"]]["unit"] == row["unit"]


def test_no_answer_failed(untraced):
    for name, result in _results(untraced).items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_the_same_seed_gives_the_same_queries(name):
    for seed in range(5):
        assert workloads.stream(name, seed) == workloads.stream(name, seed)
    assert workloads.stream(name, 0) != workloads.stream(name, 1)


@pytest.mark.parametrize("name", NAMES)
def test_expected_covers_every_query_any_seed_can_draw(name):
    drawable = set(workloads.catalogue(name))
    for seed in range(20):
        assert set(workloads.stream(name, seed)) <= drawable
    assert {q.key() for q in drawable} <= set(oracle.load())


def test_span_tree(traced):
    done, documents = traced
    _results(done)
    assert sorted(documents) == sorted(NAMES)
    for name, document in documents.items():
        spans = document["spans"]
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert sorted(s["query"] for s in roots) == list(range(document["queries"])), name
        covered = {s["id"]: 0.0 for s in spans}
        for span in spans:
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                assert span["query"] == parent["query"]
                covered[parent["id"]] += span["end"] - span["start"]
        for span in spans:
            assert span["end"] - span["start"] - covered[span["id"]] >= -1e-9
        named = sum(v["self_s"] for k, v in document["layers"].items() if k != "query")
        assert named / document["wall_s"] >= 0.9, name
