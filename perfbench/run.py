"""protostream benchmark: end-to-end metrics per workload, per-layer on request.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload in turn, tracing off

Each workload run happens in its own child process (``child.py``) with
``src`` on its path, one child at a time.  With ``--trace 0`` the runner
alternates speed probes and whole runs of the workload for about
``--seconds`` seconds, and reports the median of each end-to-end metric.
Timings are normalised by the probes (see ``REF_NOMINAL_S``); the raw
figures are printed beside them.
With ``--trace 1`` it runs the workload once untraced and once traced
(same seed) and reports the traced child's per-layer metrics and the
ratio of the two wall times.  Every run's output is checked; a check that
fails counts toward ``failed``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_BASE = ROOT / ".perfbench_work"

# Every workload learns sine_1d under the euclidean input metric.
_SINE = {"target": "sine_1d", "metric": "euclidean"}

# Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "run_trace": {**_SINE, "kind": "run", "steps": 200_000,
                  "argv": ["run", "--target", "sine_1d", "--epsilon", "0.05",
                           "--q", "0.9", "--stream", "iid", "--index", "vptree"]},
    "big_model": {**_SINE, "kind": "theorem", "epsilon": 0.002, "q": 0.9,
                  "index": "vptree", "steps": 100_000, "tail_window": 50_000},
    "churn": {**_SINE, "kind": "theorem", "epsilon": 0.001, "q": 0.5,
              "index": "vptree", "steps": 100_000, "tail_window": 50_000},
    # The verify defaults, pinned so the workload stays put if they change.
    "verify_suite": {**_SINE, "kind": "verify",
                     "params": {"branch_trials": 100_000, "miss_trials": 10_000,
                                "growth_steps": 100_000, "theorem_steps": 200_000,
                                "tail_window": 50_000}},
}

# Two probes run before the first workload run and two after each one.  A
# run's speed reference is the mean reference-loop time of the probes on
# either side of it; normalised figures are what the run would measure on a
# machine where that loop takes REF_NOMINAL_S, about its median on the
# 2-core machine of the first BENCH record (README.md).
PROBES_PER_GAP = 2
REF_NOMINAL_S = 0.14
CHILD_TIMEOUT_S = 150.0
HIT_RATE_TOL = 0.03
# The documented trace schema; the runner itself never imports protostream.
TRACE_HEADER = "n,action,model_size,output_distance,hit,window_hit_rate,window_mean_delta"
ACTION_DELTA = {"Insert": 1, "Remove": -1, "Keep": 0}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Child:
    """What one child process did and how its output checked out."""

    wall_s: float
    setup_s: float | None = None
    rss_mb: float = 0.0
    ref_s: float | None = None
    driver_s: float | None = None
    steps: int | None = None
    layers: dict = field(default_factory=dict)
    product_bytes: int = 0
    digest: str = ""
    errors: list = field(default_factory=list)


def load_reference() -> dict:
    """Reference SHA-256 per workload and seed; see make_reference.py."""
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_metric_table() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


# -- output checks ----------------------------------------------------------


def check_trace(data: bytes, steps: int) -> list[str]:
    """Trace CSV: header, one row per step, size = running sum of deltas."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return ["trace is not UTF-8"]
    if lines[0] != TRACE_HEADER:
        return [f"unexpected trace header {lines[0][:80]!r}"]
    if lines[-1] != "":
        return ["trace does not end with a newline"]
    rows = lines[1:-1]
    if len(rows) != steps:
        return [f"trace has {len(rows)} rows, expected {steps}"]
    size = 0
    for k, row in enumerate(rows, 1):
        fields = row.split(",")
        try:
            if len(fields) != 7 or int(fields[0]) != k:
                return [f"trace row {k} malformed: {row[:80]!r}"]
            size += ACTION_DELTA[fields[1]]
            if int(fields[2]) != size:
                return [f"trace row {k}: model_size {fields[2]} != running sum {size}"]
        except (KeyError, ValueError):
            return [f"trace row {k} malformed: {row[:80]!r}"]
    return []


def check_report(data: bytes, spec: dict) -> list[str]:
    """RunReport of a theorem run: stabilized, tail hit rate pinned to q."""
    try:
        report = json.loads(data)
    except ValueError:
        return ["report is not JSON"]
    errors = []
    if report.get("final_step") != spec["steps"]:
        errors.append(f"report covers {report.get('final_step')} steps, expected {spec['steps']}")
    if report.get("stabilized") is not True:
        errors.append("model size did not stabilize")
    hit_rate = report.get("tail_hit_rate")
    if not isinstance(hit_rate, float) or abs(hit_rate - spec["q"]) > HIT_RATE_TOL:
        errors.append(f"tail hit rate {hit_rate} not within {HIT_RATE_TOL} of q={spec['q']}")
    return errors


def check_verify(data: bytes) -> list[str]:
    """verify stdout: only [PASS] lines, then the all-passed verdict."""
    lines = data.decode("utf-8", errors="replace").splitlines()
    if not lines or lines[-1] != "verify: all checks passed":
        return ["verify did not report all checks passed"]
    bad = [line for line in lines[:-1] if not line.startswith("[PASS] ")]
    return [f"verify line is not a pass: {line[:80]!r}" for line in bad]


def verify_steps(spec: dict, data: bytes) -> int:
    """Learner steps one verify run made: branch, miss and theorem runs.

    The growth-identity runs use a hit coin instead of the learner step,
    so they are not counted.
    """
    text = data.decode("utf-8", errors="replace")
    params = spec["params"]
    branch_runs = text.count(" remove_frequency:")
    theorem_runs = text.count(" tail_mean_delta:")
    return (params["branch_trials"] * branch_runs + params["miss_trials"]
            + params["theorem_steps"] * theorem_runs)


def checked_output(spec: dict, stdout: bytes, product: bytes) -> bytes:
    """The bytes a run's reference digest covers."""
    return stdout if spec["kind"] == "verify" else product


def check_product(name: str, spec: dict, seed: int, stdout: bytes,
                  product: bytes, reference: dict) -> list[str]:
    """All checks of one finished run, the reference digest included."""
    kind = spec["kind"]
    if kind == "run":
        errors = check_trace(product, spec["steps"])
    elif kind == "theorem":
        errors = check_report(product, spec)
    else:
        errors = check_verify(stdout)
    ref = reference.get(name)
    if ref is not None and ref["spec"] == spec:
        expected = ref["sha256"].get(str(seed))
        digest = hashlib.sha256(checked_output(spec, stdout, product)).hexdigest()
        if expected is not None and digest != expected:
            errors.append(f"SHA-256 {digest[:16]}... differs from reference {expected[:16]}...")
    return errors


# -- child processes -----------------------------------------------------------


def run_child(name: str, spec: dict, seed: int, workdir: Path, tag: str,
              reference: dict, trace: bool = False, probe: bool = False) -> Child:
    """Spawn one child through ``launch.py``, then check its output."""
    result = workdir / f"{tag}.result.json"
    product = workdir / f"{tag}.product"
    stdout_path = workdir / f"{tag}.stdout"
    stderr_path = workdir / f"{tag}.stderr"
    argv = [sys.executable, str(HERE / "launch.py"), str(CHILD_TIMEOUT_S),
            str(stdout_path), str(stderr_path), "--",
            sys.executable, str(HERE / "child.py"), "--spec", json.dumps(spec),
            "--seed", str(seed), "--result", str(result), "--product", str(product)]
    if trace:
        argv.append("--trace")
    if probe:
        argv.append("--probe")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        launched = subprocess.run(argv, capture_output=True, cwd=workdir, env=env,
                                  timeout=CHILD_TIMEOUT_S + 30)
        launch = json.loads(launched.stdout.decode().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        raise HarnessError(f"launcher failed: {exc}") from None
    child = Child(wall_s=launch["wall_s"], rss_mb=launch["maxrss_kb"] / 1024.0)
    try:
        stdout = stdout_path.read_bytes()
        if launch["exit"] != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
            child.errors.append(f"exit code {launch['exit']}: {' | '.join(tail)}")
        if result.is_file():
            info = json.loads(result.read_text())
            child.setup_s = info["ready"] - launch["spawn"]
            child.driver_s = info.get("driver_s")
            child.ref_s = info.get("ref_s")
            child.layers = info.get("layers", {})
        elif not child.errors:
            child.errors.append("child wrote no result")
        if probe or child.driver_s is None:
            return child
        data = product.read_bytes() if product.is_file() else b""
        child.product_bytes = len(data)
        child.digest = hashlib.sha256(checked_output(spec, stdout, data)).hexdigest()
        if spec["kind"] == "verify":
            child.steps = verify_steps(spec, stdout)
        else:
            child.steps = spec["steps"]
        child.errors += check_product(name, spec, seed, stdout, data, reference)
        return child
    finally:
        for path in (result, product, stdout_path, stderr_path):
            path.unlink(missing_ok=True)


def _probe(name: str, spec: dict, seed: int, workdir: Path, reference: dict) -> Child:
    child = run_child(name, spec, seed, workdir, "probe", reference, probe=True)
    if child.errors or child.ref_s is None:
        raise HarnessError(f"speed probe failed: {'; '.join(child.errors)}")
    return child


# -- one workload run -------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            spec: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run of one workload: (result object, report lines)."""
    spec = WORKLOADS[name] if spec is None else spec
    reference = load_reference()
    table = load_metric_table()

    # Unmeasured warm-up: fills the bytecode and file caches.
    _probe(name, spec, seed, workdir, reference)
    if trace:
        children = [run_child(name, spec, seed, workdir, "base", reference),
                    run_child(name, spec, seed, workdir, "traced", reference, trace=True)]
    else:
        start = time.monotonic()
        probes = [_probe(name, spec, seed, workdir, reference) for _ in range(PROBES_PER_GAP)]
        children = []
        while True:
            child = run_child(name, spec, seed, workdir, "run", reference)
            before = probes[-PROBES_PER_GAP:]
            probes += [_probe(name, spec, seed, workdir, reference)
                       for _ in range(PROBES_PER_GAP)]
            child.ref_s = statistics.fmean(p.ref_s for p in before + probes[-PROBES_PER_GAP:])
            children.append(child)
            # Start another run only if it is expected to end in time.
            mean_wall = statistics.fmean(c.wall_s for c in children)
            if time.monotonic() - start + mean_wall > seconds:
                break
    timed = [c for c in children if c.driver_s is not None]
    if not timed or (trace and len(timed) < 2):
        raise HarnessError(f"{name}: no run ended with a result: "
                           f"{'; '.join(children[-1].errors)}")
    if trace and children[0].digest != children[1].digest:
        children[1].errors.append("traced output differs from the untraced output")
    failed = sum(1 for c in children if c.errors)
    lines = [f"{name} seed={seed}: run {k} FAILED: {err}"
             for k, c in enumerate(children) for err in c.errors]

    if trace:
        base, traced = children
        layers = dict(traced.layers)
        layers["trace.overhead_ratio"] = (traced.wall_s / base.wall_s, "ratio")
        if spec["kind"] == "run":
            layers["cli.trace_bytes"] = (traced.product_bytes, "bytes")
        for key, (value, unit) in sorted(layers.items()):
            lines.append(f"{name} {key} = {value:.6g} {unit}")
        values = {key: layers[key][0] for key in table["per_layer"]}
        units = table["per_layer"]
    else:
        values = {
            "steps_per_s_norm": statistics.median(
                c.steps / c.driver_s * c.ref_s / REF_NOMINAL_S for c in timed),
            "wall_s_norm": statistics.median(
                c.wall_s * REF_NOMINAL_S / c.ref_s for c in timed),
            "setup_s": statistics.median(
                p.setup_s * REF_NOMINAL_S / p.ref_s for p in probes),
            "peak_rss_mb": statistics.median(c.rss_mb for c in timed),
        }
        units = table["end_to_end"]
        for key in units:
            lines.append(f"{name} {key} = {values[key]:.6g} {units[key]} "
                         f"(median of {len(probes) if key == 'setup_s' else len(timed)})")
        # The same figures before normalisation, and the reference itself.
        raw = {"steps_per_s_raw": (statistics.median(c.steps / c.driver_s for c in timed), "1/s"),
               "wall_s_raw": (statistics.median(c.wall_s for c in timed), "s"),
               "setup_s_raw": (statistics.median(p.setup_s for p in probes), "s"),
               "ref_s": (statistics.median(p.ref_s for p in probes), "s")}
        for key, (value, unit) in raw.items():
            lines.append(f"{name} {key} = {value:.6g} {unit}")
        lines.append(f"{name} error_rate = {failed / len(children):.6g} "
                     f"({failed} of {len(children)} runs failed)")
    result = {
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="protostream benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "protostream" / "__init__.py").is_file():
        print(f"error: no protostream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    WORK_BASE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_BASE))
    all_correct = True
    try:
        for name in names:
            result, lines = measure(name, args.seed, args.seconds, bool(args.trace), workdir)
            for line in lines:
                print(line)
            print(json.dumps(result), flush=True)
            all_correct &= result["correct"]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
