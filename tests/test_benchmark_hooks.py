"""The benchmark tracer's patch points still reach a traced ``run`` and ``verify``.

``perfbench/tracer.py`` replaces package functions by name.  If one of those
names moves, a traced benchmark run fails or silently counts nothing; these
tests run small traced commands in a fresh interpreter and check that every
step, stream point and draw went through the patched functions.  Every
workload also runs here for seed 0, so a change to its output bytes fails
the tests and not only a benchmark run.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from protostream.cli import read_trace

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    perfbench, out = sys.argv[1:]
    sys.path.insert(0, perfbench)
    import tracer
    t = tracer.Tracer()
    t.install("euclidean", "sine_1d")
    from protostream import cli
    code = cli.main(["run", "--steps", "200", "--target", "sine_1d",
                     "--metric", "euclidean", "--output", out])
    layers = t.summary()
    assert code == 0, code
    assert layers["learner.steps"][0] == 200, layers["learner.steps"]
    assert layers["streams.points"][0] == 200, layers["streams.points"]
""")


def _run_traced(script: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120)


def test_traced_run_counts_every_step_and_point(tmp_path):
    proc = _run_traced(SCRIPT, tmp_path / "t.csv")
    assert proc.returncode == 0, proc.stderr


# The same traced run, which then prints how many draws the tracer saw.
DRAWS_SCRIPT = SCRIPT + 'print(layers["rng.draws"][0])\n'

SIZE_DELTA = {"Insert": 1, "Remove": -1, "Keep": 0}


def test_traced_run_counts_every_draw(tmp_path):
    # next_unit, next_below and sample_uniform all draw through next_u64,
    # the one method the tracer wraps, so it sees every draw.
    out = tmp_path / "t.csv"
    proc = _run_traced(DRAWS_SCRIPT, out)
    assert proc.returncode == 0, proc.stderr
    rows = read_trace(str(out))
    # One draw per 1-D input point, one tie-break sample per step that finds
    # a nonempty model, one removal coin per hit (a rejected sample, odds
    # ~2**-60 per step at these sizes, would add one more).
    points = len(rows)
    samples = sum(row.model_size - SIZE_DELTA[row.action] > 0 for row in rows)
    coins = sum(row.hit for row in rows)
    assert (points, samples, coins) == (200, 199, 142)
    assert int(proc.stdout.split()[-1]) == points + samples + coins == 541


# A traced verify in this process (--jobs 1: a pool worker's spans are never
# collected).  The counts are too small for its tolerances, so only the
# step count is checked, not the verdict.
VERIFY_SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    import tracer
    t = tracer.Tracer()
    t.install("euclidean", "sine_1d")
    from protostream import cli
    cli.main(["verify", "--jobs", "1", "--branch-trials", "300", "--miss-trials", "200",
              "--growth-steps", "1000", "--theorem-steps", "2000"])
    print(t.summary()["learner.steps"][0])
""")


def test_traced_verify_counts_every_step():
    # Four branch runs and the miss run step the fixed model once per
    # trial, three theorem runs once per step; growth runs never step.
    proc = _run_traced(VERIFY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) == 4 * 300 + 200 + 3 * 2000 == 7400


def _load_script(name: str, monkeypatch):
    # A perfbench script, imported by path: perfbench is not a package.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # Each workload's configuration, parsed by perfbench/child.py's own
    # prepare: a key the benchmark passes cannot be renamed or dropped
    # without failing here.  Nothing runs.
    run = _load_script("run", monkeypatch)
    child = _load_script("child", monkeypatch)
    kinds = set()
    for name, workload in run.WORKLOADS.items():
        assert callable(child.prepare(workload, 0, str(tmp_path / "product"))), name
        kinds.add(workload["kind"])
    assert kinds == {"run", "verify", "theorem"}


@pytest.mark.parametrize("name", ["run_trace", "big_model", "churn", "verify_suite"])
def test_theorem_workload_bytes_match_the_reference(name, monkeypatch, tmp_path, capsys):
    # Seed 0 of every workload must give the bytes recorded in reference.json:
    # the trace CSV, the RunReport JSON or verify's stdout.
    run = _load_script("run", monkeypatch)
    spec = run.WORKLOADS[name]
    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[name]
    if reference["spec"] != spec:
        pytest.skip(f"{name} changed since its reference was recorded")
    # Run in this process by perfbench/child.py itself, so the test checks
    # what the benchmark runs.
    child = _load_script("child", monkeypatch)
    product = tmp_path / "product"
    capsys.readouterr()
    assert child.main(["--spec", json.dumps(spec), "--seed", "0", "--product", str(product),
                       "--result", str(tmp_path / "result.json")]) == 0
    stdout = capsys.readouterr().out.encode()
    product_bytes = product.read_bytes() if product.exists() else b""
    data = run.checked_output(spec, stdout, product_bytes)
    assert hashlib.sha256(data).hexdigest() == reference["sha256"]["0"]
