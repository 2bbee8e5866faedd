"""One benchmark child: set up one workload, run it once, write what it saw.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; never imported by it.  The
workload comes as a JSON spec (see ``run.WORKLOADS``)::

    python3 perfbench/child.py --spec JSON --seed N --result R.json \
        --product PATH [--trace | --probe]

Set-up ends once the package is imported and the run's configuration is
parsed; no stream point exists yet.  The child then writes ``R.json`` with
its monotonic ready time (the parent's spawn time is on the same clock), the
wall time of the driver call and, when traced, the per-layer aggregates.
The run's product goes to ``PATH``: the trace CSV for ``run``, the
``RunReport`` as JSON for ``theorem``; ``verify`` prints to stdout.

A ``--probe`` child stops after set-up and times ``reference_loop`` instead
of running the workload, which gauges how fast the machine runs just then.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time


def reference_loop(n: int = 400_000) -> float:
    """Fixed pure-Python work in the learner's style: floats, tuples, lists.

    Its duration tracks the machine's speed of the moment, which on shared
    cores drifts by tens of percent within minutes.
    """
    kept = []
    total = 0.0
    for i in range(n):
        x = (i * 0.6180339887498949) % 1.0
        point = (x, 1.0 - x)
        d = math.dist(point, (0.5, 0.5))
        if d < 0.25:
            kept.append(point)
        total += d
    return total


def prepare(spec: dict, seed: int, product: str):
    """Parse the workload's configuration; return the driver call.

    The driver call returns ``(exit_code, report)``; ``report`` is the
    ``RunReport`` of a ``theorem`` run and None otherwise.
    """
    from protostream import cli, experiments
    from protostream.learner import LearnerConfig
    from protostream.metrics import METRICS, TARGETS
    from protostream.rng import points_stream_index
    from protostream.streams import IidUniform

    kind = spec["kind"]
    if kind == "run":
        cfg = cli.parse_config(spec["argv"] + ["--steps", str(spec["steps"]),
                                               "--seed", str(seed), "--output", product])
        return lambda: (cli.cmd_run(cfg), None)
    if kind == "verify":
        argv = ["verify", "--seed", str(seed)]
        for key, value in spec["params"].items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        cfg = cli.parse_config(argv)
        return lambda: (cli.cmd_verify(cfg), None)
    if kind == "theorem":
        target = TARGETS[spec["target"]]
        input_metric = METRICS[spec["metric"]]
        config = LearnerConfig(epsilon=spec["epsilon"], q=spec["q"], seed=seed)
        generator = IidUniform(target.domain, seed, points_stream_index(0))
        return lambda: (0, experiments.theorem_experiment(
            target, input_metric, config, generator, spec["steps"],
            tail_window=spec["tail_window"], index_kind=spec["index"]))
    raise ValueError(f"unknown workload kind {kind!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--product", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)

    import protostream  # noqa: F401  (import time is part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(spec["metric"], spec["target"])
    drive = prepare(spec, args.seed, args.product)
    result = {"ready": time.monotonic()}
    code = 0
    if args.probe:
        t0 = time.perf_counter()
        reference_loop()
        result["ref_s"] = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        code, report = drive()
        result["driver_s"] = time.perf_counter() - t0
        if report is not None:
            with open(args.product, "w", encoding="utf-8") as fh:
                json.dump(dataclasses.asdict(report), fh, sort_keys=True)
        if tracer is not None:
            result["layers"] = tracer.summary()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
