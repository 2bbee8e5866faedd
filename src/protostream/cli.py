"""Command-line front end: run traces, parameter sweeps, verification suite.

Exit codes, all decided in ``main``: 0 success; 1 a verification check
failed (every line was written); 2 configuration or input error, an
unreadable config file included; 3 any other OSError, from a trace or
summary file, a trace writer process, a pool that cannot start or loses a
worker, or stdout, printed as ``error: {text}``: each raise names in its
text what failed (``errors.naming_os_error``).

Every run goes through ``experiments.theorem_experiment``, which also
writes the trace CSV through a forked writer process; the trace format
(``TRACE_HEADER``, the writer and ``read_trace``) lives in ``experiments``
and is re-exported here.

``sweep`` and ``verify`` run their independent experiments through one
pool helper, ``_map_tasks``: ``--jobs`` worker processes (default: the
usable CPUs; never more than there are tasks), or this process alone at
``--jobs 1``.  Results are collected in task order, so the output does not
depend on ``jobs``.  ``concurrent.futures`` is imported only when a pool
starts, so ``run`` and ``--jobs 1`` never load it.

``verify`` takes ``seed``, ``jobs`` and its five sample sizes.  Each verify
experiment returns its finished checks; a theorem run counts as stabilized
exactly when its ``tail_mean_delta`` check passes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, NamedTuple, Optional

from .errors import ConfigError, ProtostreamError, naming_os_error
from .experiments import (  # noqa: F401  (the trace format names are re-exported)
    SERIES_WINDOW,
    STABILIZATION_DELTA,
    TAIL_WINDOW,
    TRACE_HEADER,
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
from .streams import STREAM_KINDS, GridSweep, IidUniform, RandomWalk, check_length
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
    "index": _Key(str, "vptree", _RUNS, INDEX_KINDS),
    "window": _Key(int, SERIES_WINDOW, _RUNS, help="sliding-window size for trace stats",
                   count=True),
    "delta": _Key(float, STABILIZATION_DELTA, _RUNS,
                  help="stabilization threshold on |mean size delta|"),
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
    "jobs": _Key(int, None, ("sweep", "verify"), help="worker processes (default: usable CPUs)",
                 count=True),
    "branch_trials": _Key(int, 100_000, ("verify",), count=True),
    "miss_trials": _Key(int, 10_000, ("verify",), count=True),
    "growth_steps": _Key(int, 100_000, ("verify",), count=True),
    "theorem_steps": _Key(int, 200_000, ("verify",), count=True),
    "tail_window": _Key(int, TAIL_WINDOW, ("verify",), count=True),
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
    except (OSError, UnicodeDecodeError) as exc:
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
            raise ConfigError(f"{path}:{lineno}: malformed value for key '{key}': "
                              f"{raw!r}") from None
    return values


@dataclass
class CliConfig:
    """Merged key values; ``runs`` holds each run's (LearnerConfig, generator)."""

    subcommand: str
    values: dict
    runs: list = field(default_factory=list)


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
    if subcommand == "sweep":
        _check_trace_names(cfg.runs)
    return cfg


def _validate(v: dict) -> None:
    """Checks made before any experiment starts: choices, counts, seed, delta."""
    for name, value in v.items():
        key = KEYS[name]
        if key.choices and value not in key.choices:
            raise ConfigError(f"unknown {name} '{value}'; expected one of {', '.join(key.choices)}")
        if key.count and value is not None and value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    if v["seed"] < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {v['seed']}")
    if not 0.0 <= v.get("delta", 0.0) < math.inf:
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
        check_length(generator, v["steps"])
        runs.append((config, generator))
    return runs


def _trace_name(config: LearnerConfig) -> str:
    """File name of one sweep run's trace, under the output directory."""
    return f"trace_q{config.q:g}_eps{config.epsilon:g}_seed{config.seed}.csv"


def _check_trace_names(runs: list) -> None:
    """Refuse a sweep in which two runs would write the same trace file."""
    seen = {}
    for run_index, (config, _) in enumerate(runs):
        name = _trace_name(config)
        run = f"{run_index} (q {config.q!r}, epsilon {config.epsilon!r}, seed {config.seed})"
        if name in seen:
            raise ConfigError(f"sweep runs {seen[name]} and {run} would both write {name}")
        seen[name] = run


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
    report = _drive(v, config, generator, 0, trace_path)
    _print_lines([f"trace written to {trace_path}", *report.summary_lines()])
    return 0


def _print_lines(lines) -> None:
    """Print ``lines`` to stdout and flush it; an OSError names stdout."""
    if sys.stdout is None:  # started with stdout closed: print would drop the lines
        raise OSError("cannot write stdout: it is closed")
    with naming_os_error("cannot write stdout"):
        for line in lines:
            print(line)
        sys.stdout.flush()


# -- sweep ----------------------------------------------------------------


def _map_tasks(fn, tasks: list, jobs: Optional[int]) -> list:
    """``[fn(*task) for task in tasks]``, in worker processes when ``jobs`` > 1.

    ``jobs`` None means the usable CPUs.  Results come back in task order, and
    the pool gets no more workers than tasks: under fork every worker starts
    at once.  Tasks are handed out in list order, so put the longest first.
    """
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs or usable or 1, len(tasks))
    if workers > 1:
        # Imported here: it is a large share of the package's import time, and
        # ``run`` and a one-worker map never use it.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        # Leaving the block waits for every task; map has started the workers.
        with (naming_os_error("cannot start the worker pool"),
              ProcessPoolExecutor(max_workers=workers) as pool):
            results = pool.map(fn, *zip(*tasks))
        try:
            return list(results)
        except BrokenExecutor as exc:  # for main an output error (exit 3), not a traceback
            raise OSError(f"a worker process died: {exc}") from None
    return [fn(*task) for task in tasks]


def _sweep_worker(v: dict, config: LearnerConfig, generator, run_index: int,
                  trace_path: str) -> str:
    """Run one sweep point; return its ``summary.csv`` line."""
    report = _drive(v, config, generator, run_index, trace_path)
    fmt = format_float
    return (f"{fmt(config.q)},{fmt(config.epsilon)},{config.seed},{report.final_size},"
            f"{fmt(report.tail_hit_rate)},{fmt(report.tail_mean_delta)},"
            f"{int(report.stabilized)}\n")


def cmd_sweep(cfg: CliConfig) -> int:
    v = cfg.values
    out_dir = v["output"] or "sweep_out"
    with naming_os_error("cannot create output directory"):
        os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for run_index, (config, generator) in enumerate(cfg.runs):
        tasks.append((v, config, generator, run_index,
                      os.path.join(out_dir, _trace_name(config))))
    lines = _map_tasks(_sweep_worker, tasks, v["jobs"])
    with (naming_os_error("cannot write summary file"),
          open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="") as fh):
        fh.write(SUMMARY_HEADER + "\n")
        fh.writelines(lines)
    _print_lines([f"{len(lines)} runs written under {out_dir}"])
    return 0


# -- verify ----------------------------------------------------------------


BRANCH_QS = (0.5, 0.6, 0.75, 0.9)
GROWTH_PS = (0.0, 0.25, 0.5, 0.75, 1.0)
GROWTH_QS = (0.5, 0.75, 0.9)
GROWTH_CELLS = tuple(product(GROWTH_PS, GROWTH_QS))
THEOREM_QS = (0.5, 0.75, 0.9)

BRANCH_TOL = 0.01
HIT_DELTA_TOL = 0.015
GROWTH_TOL = 0.01
THEOREM_HIT_TOL = 0.03

# verify's experiments as (kind, i), longest first, so that the pool's
# workers finish close together; their checks print in VERIFY_ORDER.
VERIFY_ORDER = ("branch", "miss", "growth", "theorem")
VERIFY_TASKS = ([("theorem", i) for i in range(len(THEOREM_QS))]
                + [("branch", i) for i in range(len(BRANCH_QS))]
                + [("growth", i) for i in range(len(GROWTH_CELLS))]
                + [("miss", 0)])


def _verify_task(v: dict, kind: str, i: int) -> list:
    """Run experiment ``i`` of ``kind``; return its finished checks.

    A check is ``(name, measured, expected, tolerance)``: tolerance None
    means an exact check, and measured None a value that could not be
    measured because the model size did not stabilize.
    """
    base_seed = v["seed"]
    if kind == "branch":
        q = BRANCH_QS[i]
        freq = conditional_branch_experiment(q, v["branch_trials"], base_seed + i)
        exact = q == 0.5
        return [(f"conditional-branch q={q:g} remove_frequency", freq, 1.0 / q - 1.0,
                 None if exact else BRANCH_TOL),
                (f"conditional-branch q={q:g} hit_mean_delta", -freq, 1.0 - 1.0 / q,
                 None if exact else HIT_DELTA_TOL)]
    if kind == "miss":
        return [("miss-branch insert_fraction",
                 forced_miss_experiment(v["miss_trials"], base_seed + 17), 1.0, None)]
    if kind == "growth":
        # --inject-removal-probability replaces the removal coin of these
        # runs only: they are the checks a wrong coin must fail.
        p, q = GROWTH_CELLS[i]
        delta = growth_identity_experiment(p, q, v["growth_steps"], base_seed + 100 + i,
                                           v["inject_removal_probability"])
        tol = None if p == 0.0 or (p == 1.0 and q == 0.5) else GROWTH_TOL
        return [(f"growth-identity p={p:g} q={q:g} mean_delta", delta, 1.0 - p / q, tol)]
    q = THEOREM_QS[i]
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.05, q=q, seed=base_seed + 200 + i)
    generator = IidUniform(target.domain, config.seed, points_stream_index(0))
    # At the default threshold, STABILIZATION_DELTA, "stabilized" is exactly
    # the tail_mean_delta check passing.
    report = theorem_experiment(
        target, METRICS["euclidean"], config, generator, v["theorem_steps"],
        tail_window=v["tail_window"])
    return [(f"theorem q={q:g} tail_mean_delta", report.tail_mean_delta, 0.0,
             STABILIZATION_DELTA),
            (f"theorem q={q:g} tail_hit_rate",
             report.tail_hit_rate if report.stabilized else None, q, THEOREM_HIT_TOL)]


def _verdict(name: str, measured: Optional[float], expected: float,
             tol: Optional[float]) -> tuple[bool, str]:
    """Whether one check passed, and its line."""
    if measured is None:
        return False, f"[FAIL] {name}: not evaluated, size did not stabilize"
    if tol is None:
        ok = measured == expected
        tol_text = "exact"
    else:
        ok = abs(measured - expected) <= tol
        tol_text = f"tol {tol:g}"
    return ok, (f"[{'PASS' if ok else 'FAIL'}] {name}: measured={measured:.6g} "
                f"expected={expected:.6g} ({tol_text})")


def cmd_verify(cfg: CliConfig) -> int:
    v = cfg.values
    results = _map_tasks(_verify_task, [(v, kind, i) for kind, i in VERIFY_TASKS], v["jobs"])
    ok = True
    lines = []
    # sorted is stable, and VERIFY_TASKS lists each kind by ascending i.
    for _task, checks in sorted(zip(VERIFY_TASKS, results),
                                key=lambda done: VERIFY_ORDER.index(done[0][0])):
        for check in checks:
            passed, line = _verdict(*check)
            ok &= passed
            lines.append(line)
    lines.append(f"verify: {'all checks passed' if ok else 'some checks FAILED'}")
    _print_lines(lines)
    return 0 if ok else 1


def main(argv=None) -> int:
    # The one place where an outcome becomes an exit code (module docstring).
    # An OSError, stdout's too, wins over a verdict that was never delivered:
    # each command prints its lines with _print_lines, which flushes stdout.
    try:
        cfg = parse_config(argv)
        # Built at each call: the benchmark tracer replaces these names.
        command = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify}[cfg.subcommand]
        return command(cfg)
    except ProtostreamError as exc:
        code, message = 2, f"error: {exc}"
    except OSError as exc:  # its text names what failed (errors.naming_os_error)
        code, message = 3, f"error: {exc}"
    if sys.stderr is not None:  # print(file=None) would write to stdout
        try:
            print(message, file=sys.stderr)
        except OSError:  # the code stands; console_main drops the line
            pass
    return code


def console_main() -> None:
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # drop what it cannot take, or the exit flush fails: exit 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(code)
