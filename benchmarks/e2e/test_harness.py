"""Self-test of the end-to-end benchmark at smoke size.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``. Every run goes
through a child process, as the benchmark's own runs do, so the span
wrappers of a traced run never leak into this process.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e.hostspeed import Probe, scale
from benchmarks.e2e.inputs import ROOT, entry_dir, prepare
from benchmarks.e2e.measure import END_TO_END, PER_LAYER
from benchmarks.e2e.spans import EXPECTED_SPANS, SPANS
from benchmarks.e2e.suite import DEFAULT_SECONDS, WORKLOAD_NAMES

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _measure(workload: str, cache, trace: int, record=None):
    argv = [sys.executable, *DECLARED["command"][1:], "--workload", workload,
            "--size", "smoke", "--seconds", "1", "--trace", str(trace),
            "--cache", str(cache)]
    if record is not None:
        argv += ["--record", str(record)]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return result.returncode, json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    prepare(2023, "smoke", root)
    return root


def test_declaration_matches_the_harness():
    assert DECLARED["command"][:3] == ["python3", "-m", "benchmarks.e2e"]
    assert DECLARED["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOAD_NAMES)
    assert DECLARED["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [w["name"] for w in DECLARED["workloads"]] + [
        m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    covered = {span for spans in EXPECTED_SPANS.values() for span in spans}
    assert covered == {span.name for span in SPANS}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_every_metric_and_span(workload, cache, tmp_path):
    code, result = _measure(workload, cache, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]

    record = tmp_path / "record.json"
    code, result = _measure(workload, cache, trace=1, record=record)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in DECLARED["per_layer"]]
    spans = json.loads(record.read_text())["spans"]["spans"]
    assert [name for name in EXPECTED_SPANS[workload] if spans[name]["calls"] < 1] == []


def test_host_probe_answers_and_ends():
    probe = Probe()
    try:
        seconds = [probe(), probe()]
    finally:
        probe.close()
    assert all(0 < s < 10 for s in seconds)
    assert probe._child.returncode == 0
    assert 0 < scale(seconds) < 1e3


def test_tampered_reference_alarm_fails(cache, tmp_path):
    original = entry_dir(cache, 2023, "smoke")
    tampered = tmp_path / original.name
    shutil.copytree(original, tampered)
    reference = json.loads((tampered / "reference.json").read_text())
    reference["alarms"][0][1] += 1  # move one expected alarm by a day
    (tampered / "reference.json").write_text(json.dumps(reference))

    code, result = _measure("monitor", tmp_path, trace=0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
