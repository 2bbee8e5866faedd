"""Command-line front end: run traces, parameter sweeps, verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration or input
error, 3 output I/O error.

Every run goes through ``experiments.theorem_experiment``, which also
writes the trace CSV; the trace format (``TRACE_HEADER``, the writer and
``read_trace``) lives in ``experiments`` and is re-exported here.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError, ProtostreamError
from .experiments import (  # noqa: F401  (the trace format names are re-exported)
    TRACE_HEADER,
    TraceRow,
    conditional_branch_experiment,
    forced_miss_experiment,
    format_float,
    growth_identity_experiment,
    read_trace,
    theorem_experiment,
)
from .index import INDEX_KINDS
from .learner import LearnerConfig
from .metrics import METRICS, TARGETS
from .rng import points_stream_index
from .streams import STREAM_KINDS, GridSweep, IidUniform, RandomWalk
from .streams import generate_stream  # noqa: F401  (unused here; the benchmark tracer patches it)

SUMMARY_HEADER = "q,epsilon,seed,final_size,tail_hit_rate,tail_mean_delta,stabilized"

INPUT_METRICS = ("euclidean", "chebyshev", "hamming", "discrete")


def _parse_list(raw: str, convert) -> list:
    items = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated list of at least one value, got {raw!r}")
    return [convert(tok) for tok in items]


def _float_list(raw: str) -> list[float]:
    return _parse_list(raw, float)


def _int_list(raw: str) -> list[int]:
    return _parse_list(raw, int)


class _Key(NamedTuple):
    """One configuration key: its flag is ``--`` plus the key with dashes."""

    convert: Callable[[str], object]
    default: object
    commands: tuple[str, ...]
    choices: Optional[tuple] = None
    help: Optional[str] = None
    count: bool = False  # a count of steps, trials or workers: at least 1


_ALL = ("run", "sweep", "verify")
_RUNS = ("run", "sweep")

# Every configuration key, declared once.  Flags, config-file parsing and
# defaults all come from this table, in this order.
KEYS = {
    "seed": _Key(int, 0, _ALL),
    "index": _Key(str, "vptree", _ALL, INDEX_KINDS),
    "window": _Key(int, 1000, _ALL, help="sliding-window size for trace stats", count=True),
    "delta": _Key(float, 0.01, _ALL, help="stabilization threshold on |mean size delta|"),
    "target": _Key(str, "sine_1d", _RUNS, tuple(sorted(TARGETS))),
    "metric": _Key(str, "euclidean", _RUNS, INPUT_METRICS),
    "epsilon": _Key(float, 0.05, _RUNS),
    "q": _Key(float, 0.9, _RUNS),
    "tie_tolerance": _Key(float, 0.0, _RUNS),
    "steps": _Key(int, 10_000, _RUNS, count=True),
    "stream": _Key(str, "iid", _RUNS, STREAM_KINDS),
    "stream_lo": _Key(float, None, _RUNS),
    "stream_hi": _Key(float, None, _RUNS),
    "grid_resolution": _Key(int, 256, _RUNS),
    "walk_scale": _Key(float, 0.1, _RUNS),
    "output": _Key(str, None, _RUNS, help="trace CSV path (run) or output directory (sweep)"),
    "q_list": _Key(_float_list, None, ("sweep",)),
    "epsilon_list": _Key(_float_list, None, ("sweep",)),
    "seed_list": _Key(_int_list, None, ("sweep",)),
    "jobs": _Key(int, None, ("sweep",), count=True),
    "branch_trials": _Key(int, 100_000, ("verify",), count=True),
    "miss_trials": _Key(int, 10_000, ("verify",), count=True),
    "growth_steps": _Key(int, 100_000, ("verify",), count=True),
    "theorem_steps": _Key(int, 200_000, ("verify",), count=True),
    "tail_window": _Key(int, 50_000, ("verify",), count=True),
    # Fault injection to test verify itself: a hidden flag with no config-file key.
    "inject_removal_probability": _Key(float, None, ("verify",), help=argparse.SUPPRESS),
}

KNOWN_KEYS = {cmd: {k for k, key in KEYS.items()
                    if cmd in key.commands and key.help != argparse.SUPPRESS}
              for cmd in _ALL}


def read_config_file(path: str, subcommand: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment; unknown keys reject."""
    known = KNOWN_KEYS[subcommand]
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}' for {subcommand}")
        try:
            values[key] = KEYS[key].convert(raw)
        except (ValueError, ConfigError):
            raise ConfigError(f"malformed value for key '{key}': {raw!r}") from None
    return values


@dataclass
class CliConfig:
    """Merged key values; ``runs`` holds each run's (LearnerConfig, generator)."""

    subcommand: str
    values: dict
    runs: list = field(default_factory=list)

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protostream",
        description="Online exemplar learner over metric spaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {"run": "single run, writes a trace CSV",
             "sweep": "grid of runs over q/epsilon/seed lists",
             "verify": "run the quantitative acceptance checks"}
    for cmd, text in helps.items():
        p = sub.add_parser(cmd, help=text)
        p.add_argument("--config", help="flat key = value config file")
        for name, key in KEYS.items():
            if cmd in key.commands:
                p.add_argument("--" + name.replace("_", "-"), dest=name,
                               type=key.convert, choices=key.choices, help=key.help)
    return parser


def parse_config(argv) -> CliConfig:
    """Merge defaults, optional config file, and flags (flags win).

    Every learner configuration and stream generator a run or sweep will
    use is built here, so each of their errors comes out before any output.
    """
    args = _build_parser().parse_args(argv)
    subcommand = args.subcommand
    values = {k: key.default for k, key in KEYS.items() if subcommand in key.commands}
    if args.config:
        values.update(read_config_file(args.config, subcommand))
    for key in values:
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = flag_value
    _validate(values)
    cfg = CliConfig(subcommand, values)
    if subcommand in _RUNS:
        cfg.runs = _plan_runs(values)
    return cfg


def _validate(v: dict) -> None:
    """The checks no dataclass makes: names from config files, counts, delta."""
    for name, value in v.items():
        key = KEYS[name]
        if key.choices and value not in key.choices:
            raise ConfigError(f"unknown {name} '{value}'; expected one of {', '.join(key.choices)}")
        if key.count and value is not None and value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    if not 0.0 <= v["delta"] < math.inf:
        raise ConfigError(f"delta must be finite and nonnegative, got {v['delta']}")


# -- run machinery -------------------------------------------------------


def _plan_runs(v: dict) -> list:
    """(LearnerConfig, generator) of every run, in run-index order."""
    domain = TARGETS[v["target"]].domain
    lo, hi = v["stream_lo"], v["stream_hi"]
    if lo is None and hi is None:
        bounds = domain
    else:
        bounds = ((domain[0][0] if lo is None else lo, domain[0][1] if hi is None else hi),)
    combos = product(v.get("q_list") or [v["q"]],
                     v.get("epsilon_list") or [v["epsilon"]],
                     v.get("seed_list") or [v["seed"]])
    runs = []
    for run_index, (q, epsilon, seed) in enumerate(combos):
        config = LearnerConfig(epsilon=epsilon, q=q, seed=seed,
                               tie_tolerance=v["tie_tolerance"])
        stream_index = points_stream_index(run_index)
        if v["stream"] == "iid":
            generator = IidUniform(bounds, seed, stream_index)
        elif v["stream"] == "grid":
            generator = GridSweep(v["grid_resolution"], bounds, seed, stream_index)
        else:
            generator = RandomWalk(v["walk_scale"], bounds, seed, stream_index)
        runs.append((config, generator))
    return runs


def _drive(v: dict, config: LearnerConfig, generator, run_index: int,
           trace_path: str):
    target = TARGETS[v["target"]]
    return theorem_experiment(
        target, METRICS[v["metric"]], config, generator, v["steps"],
        tail_window=v["window"], series_window=v["window"],
        stabilization_delta=v["delta"], index_kind=v["index"],
        run_index=run_index, trace_path=trace_path)


def cmd_run(cfg: CliConfig) -> int:
    v = cfg.values
    trace_path = v["output"] or "trace.csv"
    [(config, generator)] = cfg.runs
    try:
        report = _drive(v, config, generator, 0, trace_path)
    except OSError as exc:
        print(f"error: cannot write trace: {exc}", file=sys.stderr)
        return 3
    print(f"trace written to {trace_path}")
    for line in report.summary_lines():
        print(line)
    return 0


# -- sweep ----------------------------------------------------------------


def _sweep_worker(payload: tuple) -> dict:
    v, config, generator, run_index, trace_path = payload
    report = _drive(v, config, generator, run_index, trace_path)
    return {
        "q": config.q, "epsilon": config.epsilon, "seed": config.seed,
        "final_size": report.final_size,
        "tail_hit_rate": report.tail_hit_rate,
        "tail_mean_delta": report.tail_mean_delta,
        "stabilized": int(report.stabilized),
    }


def cmd_sweep(cfg: CliConfig) -> int:
    v = cfg.values
    out_dir = v["output"] or "sweep_out"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 3

    payloads = []
    for run_index, (config, generator) in enumerate(cfg.runs):
        name = f"trace_q{config.q:g}_eps{config.epsilon:g}_seed{config.seed}.csv"
        payloads.append((v, config, generator, run_index, os.path.join(out_dir, name)))

    # Never more workers than runs: under fork every worker starts at once.
    jobs = min(v["jobs"] or os.cpu_count() or 1, len(payloads))
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_worker, payloads))
        else:
            rows = [_sweep_worker(p) for p in payloads]
    except OSError as exc:
        print(f"error: cannot write trace: {exc}", file=sys.stderr)
        return 3

    summary_path = os.path.join(out_dir, "summary.csv")
    fmt = format_float
    try:
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for row in rows:
                fh.write(f"{fmt(row['q'])},{fmt(row['epsilon'])},{row['seed']},"
                         f"{row['final_size']},{fmt(row['tail_hit_rate'])},"
                         f"{fmt(row['tail_mean_delta'])},{row['stabilized']}\n")
    except OSError as exc:
        print(f"error: cannot write summary: {exc}", file=sys.stderr)
        return 3
    print(f"{len(rows)} runs written under {out_dir}")
    return 0


# -- verify ----------------------------------------------------------------


BRANCH_QS = (0.5, 0.6, 0.75, 0.9)
GROWTH_PS = (0.0, 0.25, 0.5, 0.75, 1.0)
GROWTH_QS = (0.5, 0.75, 0.9)
THEOREM_QS = (0.5, 0.75, 0.9)

BRANCH_TOL = 0.01
HIT_DELTA_TOL = 0.015
GROWTH_TOL = 0.01
STABILIZATION_TOL = 0.01
THEOREM_HIT_TOL = 0.03


def _check(lines: list, name: str, measured: float, expected: float,
           tol: Optional[float]) -> bool:
    if tol is None:
        ok = measured == expected
        tol_text = "exact"
    else:
        ok = abs(measured - expected) <= tol
        tol_text = f"tol {tol:g}"
    lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: measured={measured:.6g} "
                 f"expected={expected:.6g} ({tol_text})")
    return ok


def cmd_verify(cfg: CliConfig) -> int:
    v = cfg.values
    base_seed = v["seed"]
    lines: list[str] = []
    ok = True

    for i, q in enumerate(BRANCH_QS):
        remove_freq, _keep_freq = conditional_branch_experiment(
            q, v["branch_trials"], base_seed + i)
        expected = 1.0 / q - 1.0
        tol = None if q == 0.5 else BRANCH_TOL
        ok &= _check(lines, f"conditional-branch q={q:g} remove_frequency",
                     remove_freq, expected, tol)
        ok &= _check(lines, f"conditional-branch q={q:g} hit_mean_delta",
                     -remove_freq, 1.0 - 1.0 / q,
                     None if q == 0.5 else HIT_DELTA_TOL)

    insert_fraction = forced_miss_experiment(v["miss_trials"], base_seed + 17)
    ok &= _check(lines, "miss-branch insert_fraction", insert_fraction, 1.0, None)

    # --inject-removal-probability replaces the removal coin of these runs
    # only: they are the checks a wrong coin must fail.
    for i, (p, q) in enumerate(product(GROWTH_PS, GROWTH_QS)):
        measured = growth_identity_experiment(p, q, v["growth_steps"],
                                              base_seed + 100 + i,
                                              v["inject_removal_probability"])
        expected = 1.0 - p / q
        exact = p == 0.0 or (p == 1.0 and q == 0.5)
        ok &= _check(lines, f"growth-identity p={p:g} q={q:g} mean_delta",
                     measured, expected, None if exact else GROWTH_TOL)

    target = TARGETS["sine_1d"]
    input_metric = METRICS["euclidean"]
    for i, q in enumerate(THEOREM_QS):
        config = LearnerConfig(epsilon=0.05, q=q, seed=base_seed + 200 + i)
        generator = IidUniform(target.domain, config.seed,
                               points_stream_index(0))
        report = theorem_experiment(
            target, input_metric, config, generator, v["theorem_steps"],
            tail_window=v["tail_window"], series_window=v["window"],
            stabilization_delta=v["delta"], index_kind=v["index"])
        ok &= _check(lines, f"theorem q={q:g} tail_mean_delta",
                     report.tail_mean_delta, 0.0, STABILIZATION_TOL)
        if report.stabilized:
            ok &= _check(lines, f"theorem q={q:g} tail_hit_rate",
                         report.tail_hit_rate, q, THEOREM_HIT_TOL)
        else:
            lines.append(f"[FAIL] theorem q={q:g} tail_hit_rate: "
                         f"not evaluated, size did not stabilize")
            ok = False

    for line in lines:
        print(line)
    print("verify:", "all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    # Any package error, at parse or at run time, is a configuration or
    # input error (exit 2); exit 1 stays reserved for failed checks.
    try:
        cfg = parse_config(argv)
        if cfg.subcommand == "run":
            return cmd_run(cfg)
        if cfg.subcommand == "sweep":
            return cmd_sweep(cfg)
        return cmd_verify(cfg)
    except ProtostreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
