"""Command-line front end: run traces, parameter sweeps, verification suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 output I/O error.

Trace CSV schema (one row per step, floats at 17 significant digits,
infinity as the literal ``inf``)::

    n,action,model_size,output_distance,hit,window_hit_rate,window_mean_delta

The window columns reflect the sliding window after the row's step.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import ConfigError, ProtostreamError
from .experiments import (
    conditional_branch_experiment,
    forced_miss_experiment,
    growth_identity_experiment,
    theorem_experiment,
)
from .index import INDEX_KINDS, LinearScanIndex, VpTreeIndex
from .learner import LearnerConfig, iter_steps, set_removal_probability_override
from .metrics import METRICS, TARGETS
from .rng import RandomStream, learner_stream_index, points_stream_index
from .stats import RunReport, SeriesPoint, WindowStats
from .streams import STREAM_KINDS, GridSweep, IidUniform, RandomWalk, generate_stream

TRACE_HEADER = "n,action,model_size,output_distance,hit,window_hit_rate,window_mean_delta"
SUMMARY_HEADER = "q,epsilon,seed,final_size,tail_hit_rate,tail_mean_delta,stabilized"

INPUT_METRICS = ("euclidean", "chebyshev", "hamming", "discrete")

_FLOAT_KEYS = {"epsilon", "q", "tie_tolerance", "stream_lo", "stream_hi",
               "walk_scale", "delta", "inject_removal_probability"}
_INT_KEYS = {"seed", "steps", "grid_resolution", "window", "jobs",
             "branch_trials", "miss_trials", "growth_steps", "theorem_steps",
             "tail_window"}
_STR_KEYS = {"target", "metric", "index", "stream", "output"}
_FLOAT_LIST_KEYS = {"q_list", "epsilon_list"}
_INT_LIST_KEYS = {"seed_list"}

_RUN_KEYS = {"target", "metric", "index", "epsilon", "q", "tie_tolerance",
             "seed", "steps", "stream", "stream_lo", "stream_hi",
             "grid_resolution", "walk_scale", "window", "delta", "output"}
_SWEEP_KEYS = _RUN_KEYS | {"q_list", "epsilon_list", "seed_list", "jobs"}
_VERIFY_KEYS = {"seed", "index", "window", "delta", "branch_trials",
                "miss_trials", "growth_steps", "theorem_steps", "tail_window"}

KNOWN_KEYS = {"run": _RUN_KEYS, "sweep": _SWEEP_KEYS, "verify": _VERIFY_KEYS}

_DEFAULTS = {
    "target": "sine_1d",
    "metric": "euclidean",
    "index": "vptree",
    "epsilon": 0.05,
    "q": 0.9,
    "tie_tolerance": 0.0,
    "seed": 0,
    "steps": 10_000,
    "stream": "iid",
    "stream_lo": None,
    "stream_hi": None,
    "grid_resolution": 256,
    "walk_scale": 0.1,
    "window": 1000,
    "delta": 0.01,
    "output": None,
    "q_list": None,
    "epsilon_list": None,
    "seed_list": None,
    "jobs": None,
    "branch_trials": 100_000,
    "miss_trials": 10_000,
    "growth_steps": 100_000,
    "theorem_steps": 200_000,
    "tail_window": 50_000,
    "inject_removal_probability": None,
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_LIST_KEYS:
            return _parse_list(key, raw, float)
        if key in _INT_LIST_KEYS:
            return _parse_list(key, raw, int)
    except ValueError:
        raise ConfigError(f"malformed value for key '{key}': {raw!r}") from None
    return raw


def _parse_list(key: str, raw: str, convert):
    items = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not items:
        raise ConfigError(f"key '{key}' must list at least one value")
    return [convert(tok) for tok in items]


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
        values[key] = _parse_scalar(key, raw)
    return values


@dataclass
class CliConfig:
    subcommand: str
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None


def _float_list(raw: str) -> list[float]:
    return _parse_list("list", raw, float)


def _int_list(raw: str) -> list[int]:
    return _parse_list("list", raw, int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protostream",
        description="Online exemplar learner over metric spaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--index", choices=INDEX_KINDS)
        p.add_argument("--window", type=int, help="sliding-window size for trace stats")
        p.add_argument("--delta", type=float, help="stabilization threshold on |mean size delta|")

    def add_run_keys(p):
        p.add_argument("--target", help=f"one of {', '.join(sorted(TARGETS))}")
        p.add_argument("--metric", choices=INPUT_METRICS)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--tie-tolerance", dest="tie_tolerance", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--stream", choices=STREAM_KINDS)
        p.add_argument("--stream-lo", dest="stream_lo", type=float)
        p.add_argument("--stream-hi", dest="stream_hi", type=float)
        p.add_argument("--grid-resolution", dest="grid_resolution", type=int)
        p.add_argument("--walk-scale", dest="walk_scale", type=float)
        p.add_argument("--output", help="trace CSV path (run) or output directory (sweep)")

    run_p = sub.add_parser("run", help="single run, writes a trace CSV")
    add_common(run_p)
    add_run_keys(run_p)

    sweep_p = sub.add_parser("sweep", help="grid of runs over q/epsilon/seed lists")
    add_common(sweep_p)
    add_run_keys(sweep_p)
    sweep_p.add_argument("--q-list", dest="q_list", type=_float_list)
    sweep_p.add_argument("--epsilon-list", dest="epsilon_list", type=_float_list)
    sweep_p.add_argument("--seed-list", dest="seed_list", type=_int_list)
    sweep_p.add_argument("--jobs", type=int)

    verify_p = sub.add_parser("verify", help="run the quantitative acceptance checks")
    add_common(verify_p)
    verify_p.add_argument("--branch-trials", dest="branch_trials", type=int)
    verify_p.add_argument("--miss-trials", dest="miss_trials", type=int)
    verify_p.add_argument("--growth-steps", dest="growth_steps", type=int)
    verify_p.add_argument("--theorem-steps", dest="theorem_steps", type=int)
    verify_p.add_argument("--tail-window", dest="tail_window", type=int)
    verify_p.add_argument("--inject-removal-probability",
                          dest="inject_removal_probability", type=float,
                          help=argparse.SUPPRESS)
    return parser


def parse_config(argv) -> CliConfig:
    """Merge defaults, optional config file, and flags (flags win)."""
    args = _build_parser().parse_args(argv)
    subcommand = args.subcommand
    values = {k: _DEFAULTS[k] for k in KNOWN_KEYS[subcommand]}
    values["inject_removal_probability"] = None
    if args.config:
        values.update(read_config_file(args.config, subcommand))
    for key in KNOWN_KEYS[subcommand] | {"inject_removal_probability"}:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    cfg = CliConfig(subcommand, values)
    _validate(cfg)
    return cfg


def _validate(cfg: CliConfig) -> None:
    v = cfg.values
    if "target" in v and v["target"] not in TARGETS:
        raise ConfigError(f"unknown target '{v['target']}'; expected one of "
                          f"{', '.join(sorted(TARGETS))}")
    if "metric" in v and v["metric"] not in INPUT_METRICS:
        raise ConfigError(f"unknown metric '{v['metric']}'; expected one of "
                          f"{', '.join(INPUT_METRICS)}")
    if v.get("index") not in INDEX_KINDS:
        raise ConfigError(f"unknown index '{v.get('index')}'; expected linear or vptree")
    if "stream" in v and v["stream"] not in STREAM_KINDS:
        raise ConfigError(f"unknown stream '{v['stream']}'; expected one of "
                          f"{', '.join(STREAM_KINDS)}")
    if "epsilon" in v and not v["epsilon"] > 0.0:
        raise ConfigError(f"epsilon must be positive, got {v['epsilon']}")
    for key in ("q",):
        if key in v and not (0.5 <= v[key] < 1.0):
            raise ConfigError(f"q must satisfy 0.5 <= q < 1, got {v[key]}")
    for key in ("q_list",):
        if v.get(key):
            for q in v[key]:
                if not (0.5 <= q < 1.0):
                    raise ConfigError(f"q_list entries must satisfy 0.5 <= q < 1, got {q}")
    if v.get("epsilon_list"):
        for eps in v["epsilon_list"]:
            if not eps > 0.0:
                raise ConfigError(f"epsilon_list entries must be positive, got {eps}")
    if v.get("seed_list"):
        for seed in v["seed_list"]:
            if seed < 0:
                raise ConfigError(f"seed_list entries must be nonnegative, got {seed}")
    if "tie_tolerance" in v and not 0.0 <= v["tie_tolerance"] < math.inf:
        raise ConfigError(f"tie_tolerance must be finite and nonnegative, got {v['tie_tolerance']}")
    if v.get("seed") is not None and v["seed"] < 0:
        raise ConfigError(f"seed must be nonnegative, got {v['seed']}")
    for key in ("steps", "window", "grid_resolution", "branch_trials",
                "miss_trials", "growth_steps", "theorem_steps", "tail_window"):
        if v.get(key) is not None and key in v and v[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {v[key]}")
    if v.get("jobs") is not None and v["jobs"] < 1:
        raise ConfigError(f"jobs must be at least 1, got {v['jobs']}")
    if "delta" in v and v["delta"] < 0.0:
        raise ConfigError(f"delta must be nonnegative, got {v['delta']}")
    if "walk_scale" in v and not v["walk_scale"] > 0.0:
        raise ConfigError(f"walk_scale must be positive, got {v['walk_scale']}")
    lo, hi = v.get("stream_lo"), v.get("stream_hi")
    if lo is not None and hi is not None and not lo < hi:
        raise ConfigError(f"stream bounds need stream_lo < stream_hi, got ({lo}, {hi})")


# -- run machinery -------------------------------------------------------


def _make_generator(kind: str, bounds, seed: int, stream_index: int, v: dict):
    if kind == "iid":
        return IidUniform(bounds, seed, stream_index)
    if kind == "grid":
        return GridSweep(v["grid_resolution"], bounds, seed, stream_index)
    return RandomWalk(v["walk_scale"], bounds, seed, stream_index)


def _resolve_bounds(v: dict):
    target = TARGETS[v["target"]]
    lo = v.get("stream_lo")
    hi = v.get("stream_hi")
    if lo is None and hi is None:
        return target.domain
    dlo, dhi = target.domain[0]
    return ((lo if lo is not None else dlo, hi if hi is not None else dhi),)


def _execute_run(v: dict, q: float, epsilon: float, seed: int, run_index: int,
                 trace_path: Optional[str]) -> RunReport:
    """One learner run; optionally writes its trace CSV as it goes."""
    target = TARGETS[v["target"]]
    input_metric = METRICS[v["metric"]]
    output_metric = METRICS[target.output_metric]
    config = LearnerConfig(epsilon=epsilon, q=q, seed=seed,
                           tie_tolerance=v["tie_tolerance"])
    bounds = _resolve_bounds(v)
    generator = _make_generator(v["stream"], bounds, seed,
                                points_stream_index(run_index), v)
    points = generate_stream(generator, v["steps"])
    pairs = [(x, target.evaluate(x)) for x in points]
    rng = RandomStream(seed, learner_stream_index(run_index))
    index = LinearScanIndex(input_metric) if v["index"] == "linear" \
        else VpTreeIndex(input_metric)

    window = v["window"]
    stats = WindowStats(window)
    series: list[SeriesPoint] = []
    out = open(trace_path, "w", encoding="utf-8", newline="") if trace_path else None
    try:
        if out:
            out.write(TRACE_HEADER + "\n")
        final = None
        for outcome in iter_steps(pairs, config, input_metric, output_metric,
                                  rng=rng, index=index):
            stats.update(outcome)
            if out:
                out.write(f"{outcome.step_index},{outcome.action.value},"
                          f"{outcome.model_size_after},{_fmt(outcome.output_distance)},"
                          f"{int(outcome.hit)},{_fmt(stats.hit_rate)},"
                          f"{_fmt(stats.mean_size_delta)}\n")
            if outcome.step_index % window == 0:
                series.append(SeriesPoint(outcome.step_index, outcome.model_size_after,
                                          stats.hit_rate, stats.mean_size_delta))
            final = outcome
    finally:
        if out:
            out.close()
    stabilized = abs(stats.mean_size_delta) <= v["delta"]
    echo = {k: v[k] for k in ("target", "metric", "index", "stream", "steps",
                              "tie_tolerance", "window", "delta")}
    echo.update(q=q, epsilon=epsilon, seed=seed)
    return RunReport(
        config=echo,
        final_step=final.step_index,
        final_size=final.model_size_after,
        tail_window=window,
        tail_hit_rate=stats.hit_rate,
        tail_mean_delta=stats.mean_size_delta,
        stabilization_delta=v["delta"],
        stabilized=stabilized,
        series=series,
    )


@dataclass(slots=True)
class TraceRow:
    """One parsed trace line; field meanings match the CSV header."""

    n: int
    action: str
    model_size: int
    output_distance: float
    hit: bool
    window_hit_rate: float
    window_mean_delta: float


def read_trace(path: str) -> list[TraceRow]:
    """Parse a trace CSV back into records (round-trips cmd_run output)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ProtostreamError(f"unexpected trace header: {header!r}")
        for line in fh:
            n, action, size, dist, hit, hr, md = line.rstrip("\n").split(",")
            rows.append(TraceRow(int(n), action, int(size), float(dist),
                                 bool(int(hit)), float(hr), float(md)))
    return rows


def cmd_run(cfg: CliConfig) -> int:
    v = cfg.values
    trace_path = v["output"] or "trace.csv"
    try:
        report = _execute_run(v, v["q"], v["epsilon"], v["seed"], 0, trace_path)
    except OSError as exc:
        print(f"error: cannot write trace: {exc}", file=sys.stderr)
        return 3
    print(f"trace written to {trace_path}")
    for line in report.summary_lines():
        print(line)
    return 0


# -- sweep ----------------------------------------------------------------


def _sweep_worker(payload: tuple) -> dict:
    v, q, epsilon, seed, run_index, trace_path = payload
    report = _execute_run(v, q, epsilon, seed, run_index, trace_path)
    return {
        "q": q, "epsilon": epsilon, "seed": seed,
        "final_size": report.final_size,
        "tail_hit_rate": report.tail_hit_rate,
        "tail_mean_delta": report.tail_mean_delta,
        "stabilized": int(report.stabilized),
    }


def cmd_sweep(cfg: CliConfig) -> int:
    v = cfg.values
    out_dir = v["output"] or "sweep_out"
    qs = v["q_list"] or [v["q"]]
    epsilons = v["epsilon_list"] or [v["epsilon"]]
    seeds = v["seed_list"] or [v["seed"]]
    combos = list(product(qs, epsilons, seeds))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 3

    payloads = []
    for run_index, (q, epsilon, seed) in enumerate(combos):
        name = f"trace_q{q:g}_eps{epsilon:g}_seed{seed}.csv"
        payloads.append((v, q, epsilon, seed, run_index, os.path.join(out_dir, name)))

    jobs = v["jobs"] or min(len(combos), os.cpu_count() or 1)
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
    try:
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for row in rows:
                fh.write(f"{_fmt(row['q'])},{_fmt(row['epsilon'])},{row['seed']},"
                         f"{row['final_size']},{_fmt(row['tail_hit_rate'])},"
                         f"{_fmt(row['tail_mean_delta'])},{row['stabilized']}\n")
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

    inject = v.get("inject_removal_probability")
    if inject is not None:
        set_removal_probability_override(inject)
    try:
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

        for i, (p, q) in enumerate(product(GROWTH_PS, GROWTH_QS)):
            measured = growth_identity_experiment(p, q, v["growth_steps"],
                                                  base_seed + 100 + i)
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
    finally:
        if inject is not None:
            set_removal_probability_override(None)

    for line in lines:
        print(line)
    print("verify:", "all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.subcommand == "run":
            return cmd_run(cfg)
        if cfg.subcommand == "sweep":
            return cmd_sweep(cfg)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
