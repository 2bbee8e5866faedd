"""Tests of the benchmark itself, not of protostream.

    python3 -m pytest perfbench

Workloads run at a tiny length here, so their outputs may fail the checks
that need a long run (a stable model size, verify's tolerances); these
tests look at what is printed and counted, not at that verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {
    "run_trace": {**run.WORKLOADS["run_trace"], "steps": 2000},
    "big_model": {**run.WORKLOADS["big_model"], "steps": 3000, "tail_window": 1000},
    "churn": {**run.WORKLOADS["churn"], "steps": 3000, "tail_window": 1000},
    "verify_suite": {**run.WORKLOADS["verify_suite"],
                     "params": {"branch_trials": 2000, "miss_trials": 200,
                                "growth_steps": 2000, "theorem_steps": 3000,
                                "tail_window": 1000}},
}


def test_tiny_specs_cover_every_workload():
    assert set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    table = run.load_metric_table()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(table)
    for metric, unit in table.items():
        assert result["metrics"][metric]["unit"] == unit
        assert isinstance(result["metrics"][metric]["value"], (int, float))
        pattern = re.compile(rf"^{name} {re.escape(metric)} = \S+ {re.escape(unit)}( |$)")
        assert any(pattern.match(line) for line in lines[:-1]), metric


def _run_child(spec: dict, seed: int, tmp_path: Path) -> bytes:
    product = tmp_path / "product"
    subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), "--spec", json.dumps(spec),
         "--seed", str(seed), "--result", str(tmp_path / "result.json"),
         "--product", str(product)],
        env=dict(os.environ, PYTHONPATH=str(run.ROOT / "src")),
        check=True, capture_output=True, timeout=120)
    return product.read_bytes()


def _flip_digit(data: bytes, offset: int) -> bytes:
    assert data[offset:offset + 1].isdigit()
    flipped = b"1" if data[offset:offset + 1] != b"1" else b"2"
    return data[:offset] + flipped + data[offset + 1:]


def test_reference_trace_matches_and_one_flipped_byte_fails(tmp_path):
    spec = run.WORKLOADS["run_trace"]
    reference = run.load_reference()
    data = _run_child(spec, 0, tmp_path)
    assert hashlib.sha256(data).hexdigest() == reference["run_trace"]["sha256"]["0"]
    assert run.check_product("run_trace", spec, 0, b"", data, reference) == []

    # A digit of the last row's output_distance: only the digest sees it.
    last_row = data.rindex(b"\n", 0, len(data) - 1) + 1
    fields = data[last_row:].split(b",")
    offset = last_row + sum(len(f) + 1 for f in fields[:3]) + 2
    errors = run.check_product("run_trace", spec, 0, b"", _flip_digit(data, offset), reference)
    assert len(errors) == 1 and "SHA-256" in errors[0]

    # A model_size digit: the running-sum invariant sees it, digest or not.
    row = data.index(b"\n1000,") + 1
    offset = row + data[row:].index(b",", len(b"1000,")) + 1
    errors = run.check_product("run_trace", spec, 0, b"", _flip_digit(data, offset), {})
    assert len(errors) == 1 and "running sum" in errors[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, _ = run.measure(name, 5, 0, True, tmp_path, spec=TINY[name])
    second, _ = run.measure(name, 5, 0, True, tmp_path, spec=TINY[name])
    for key in ("index.dist_evals_per_query", "learner.insert_frac",
                "learner.remove_frac", "learner.keep_frac"):
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_peak_rss_is_the_childs_own(tmp_path):
    # This process's high-water mark now exceeds 200 MB; a child spawned
    # directly from it would report at least that much.
    ballast = b"\x01" * (200 * 2**20)
    child = run.run_child("run_trace", TINY["run_trace"], 0, tmp_path, "rss", {})
    assert len(ballast) and child.errors == []
    assert 10 < child.rss_mb < 100


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "run_trace",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
