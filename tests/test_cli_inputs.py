"""Invalid inputs end in exit 2 before any output; sweep and verify size their pools.

Whatever stdout and stderr turn out to be, every command ends in a defined exit code.
"""

import concurrent.futures
import itertools
import math
import os
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protostream import cli
from protostream.errors import ConfigError, EmptyCandidatesError
from protostream.learner import LearnerConfig
from protostream.metrics import TARGETS
from protostream.streams import (
    MAX_GRID_POINTS, STREAM_KINDS, GridSweep, IidUniform, RandomWalk,
)


@pytest.mark.parametrize("flags", [
    ["--stream", "walk", "--walk-scale", "inf"],
    ["--stream-lo=-inf"],
    ["--stream-hi=inf"],
    ["--stream-lo=-1e308", "--stream-hi=1e308"],
    ["--stream", "grid", "--stream-lo=-1.7976931348623157e308"],
    ["--stream", "walk", "--stream-lo=-1e308", "--stream-hi=1e307", "--walk-scale", "1e308"],
    ["--delta", "nan"],
    ["--delta", "inf"],
])
def test_non_finite_run_values_exit_two_without_output(flags, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--steps", "10", "--output", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("bounds", [
    ((-math.inf, 1.0),), ((0.0, math.inf),), ((math.nan, 1.0),),
    ((-1e308, 1e308),),
])
def test_streams_reject_non_finite_bounds_and_widths(bounds):
    for make in (lambda: IidUniform(bounds, seed=0),
                 lambda: GridSweep(4, bounds, seed=0),
                 lambda: RandomWalk(0.1, bounds, seed=0)):
        with pytest.raises(ConfigError):
            make()


def test_walk_rejects_non_finite_scale():
    with pytest.raises(ConfigError):
        RandomWalk(math.inf, ((0.0, 1.0),), seed=0)


def test_grid_lattice_overflow_leaves_no_trace_file(tmp_path):
    out = tmp_path / "g.csv"
    code = cli.main(["run", "--stream", "grid", "--grid-resolution", "3",
                     "--steps", "100", "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_sweep_grid_too_short_for_steps_leaves_no_output_directory(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert cli.main(["sweep", "--stream", "grid", "--grid-resolution", "3",
                     "--steps", "100", "--output", str(out_dir)]) == 2
    assert "cannot emit 100" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_combination_error_comes_before_any_output(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert cli.main(["sweep", "--steps", "20", "--q-list", "0.75,1.5",
                     "--output", str(out_dir)]) == 2
    assert "0.5 <= q < 1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flags, name", [
    (["--seed-list", "1,1"], "trace_q0.9_eps0.05_seed1.csv"),
    (["--q-list", "0.9000001,0.9000002"], "trace_q0.9_eps0.05_seed0.csv"),
])
def test_sweep_runs_sharing_a_trace_name_are_refused(flags, name, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert cli.main(["sweep", "--steps", "20", "--jobs", "2", "--output", str(out_dir),
                     *flags]) == 2
    err = capsys.readouterr().err
    assert "sweep runs 0 (" in err and " and 1 (" in err and f"both write {name}" in err
    assert not out_dir.exists()


def test_parse_config_builds_every_sweep_run():
    cfg = cli.parse_config(["sweep", "--q-list", "0.5,0.9", "--seed-list", "3,4",
                            "--stream", "walk"])
    assert [(c.q, c.seed) for c, _ in cfg.runs] == [(0.5, 3), (0.5, 4), (0.9, 3), (0.9, 4)]
    assert all(isinstance(c, LearnerConfig) for c, _ in cfg.runs)
    assert [g.stream for _, g in cfg.runs] == [1, 3, 5, 7]
    assert all(isinstance(g, RandomWalk) for _, g in cfg.runs)


def test_run_time_package_error_exits_two(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise EmptyCandidatesError("no candidates")

    monkeypatch.setattr(cli, "theorem_experiment", fail)
    assert cli.main(["run", "--steps", "10", "--output", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "error: no candidates\n"


def test_verify_injection_changes_only_the_growth_checks(capsys):
    argv = ["verify", "--branch-trials", "20000", "--miss-trials", "100",
            "--growth-steps", "20000", "--theorem-steps", "100",
            "--tail-window", "100", "--inject-removal-probability", "0.5"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    branch = [line for line in lines if "conditional-branch" in line]
    growth = [line for line in lines if "growth-identity" in line]
    assert len(branch) == 8 and all(line.startswith("[PASS]") for line in branch)
    assert any(line.startswith("[FAIL]") for line in growth)


def test_injection_flag_is_not_a_config_file_key(tmp_path):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text("inject_removal_probability = 0.5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        cli.parse_config(["verify", "--config", str(cfg_file)])


def _no_experiment(*args, **kwargs):
    raise AssertionError("an experiment started")


@pytest.mark.parametrize("command", ["run", "sweep", "verify"])
def test_negative_seed_is_refused_before_any_experiment(command, monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.setattr(cli, "_map_tasks", _no_experiment)
    monkeypatch.setattr(cli, "theorem_experiment", _no_experiment)
    out = tmp_path / "out"
    argv = [command, "--seed", "-1"] + ([] if command == "verify" else ["--output", str(out)])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("window", "7"), ("delta", "0.01"),
                                        ("index", "linear")])
def test_verify_refuses_the_run_only_keys(key, value, monkeypatch, tmp_path, capsys):
    # These keys shape run and sweep traces; no verify verdict depends on them.
    monkeypatch.setattr(cli, "_map_tasks", _no_experiment)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", f"--{key}", value])
    assert exc.value.code == 2
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(cfg_file)]) == 2
    assert f"unknown key '{key}' for verify" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"q = 0.9\xff\n")
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--config", str(cfg_file), "--output", str(out)]) == 2
    assert f"error: cannot read config file {cfg_file}: 'utf-8' codec" in capsys.readouterr().err
    assert not out.exists()


# Config lines: raw bytes, or a known key with a value that is raw bytes or
# one of a few that convert.
_CONFIG_LINE = st.one_of(
    st.binary(max_size=30),
    st.builds(lambda key, value: key.encode() + b" = " + value,
              st.sampled_from(sorted(cli.KNOWN_KEYS["run"])),
              st.one_of(st.binary(max_size=10),
                        st.sampled_from((b"0", b"1", b"-1", b"0.9", b"nan", b"inf", b"1e308",
                                         b"3000000", b"grid", b"walk", b"linear", b"step_1d"))))
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_CONFIG_LINE, max_size=8))
def test_any_config_file_bytes_parse_or_raise_config_error(lines):
    # parse_config only, so no run starts whatever the file says.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        try:
            cfg = cli.parse_config(["run", "--config", path])
        except ConfigError:
            return
    assert cfg.subcommand == "run" and len(cfg.runs) == 1


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs the map in this process.

    ``created`` records each pool's worker count, ``submitted`` each map's
    tasks as argument tuples, in submission order.
    """

    created = []
    submitted = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        self.submitted.append(tasks)
        return [fn(*task) for task in tasks]


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    # cli imports the pool class from concurrent.futures when a pool starts.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


@pytest.mark.parametrize("q_list, expected", [("0.75", []), ("0.5,0.75", [2])])
def test_sweep_never_asks_for_more_workers_than_runs(q_list, expected, recording_pool,
                                                     tmp_path):
    assert cli.main(["sweep", "--steps", "20", "--jobs", "64", "--q-list", q_list,
                     "--output", str(tmp_path / "s")]) == 0
    assert recording_pool.created == expected


_TINY_VERIFY = ["verify", "--branch-trials", "2000", "--miss-trials", "100",
                "--growth-steps", "2000", "--theorem-steps", "300", "--tail-window", "100"]


@pytest.mark.parametrize("jobs, expected", [("1", []), ("3", [3]), ("23", [23]),
                                           ("64", [len(cli.VERIFY_TASKS)])])
def test_verify_pool_size_and_longest_tasks_first(jobs, expected, recording_pool, capsys):
    assert cli.main(_TINY_VERIFY + ["--jobs", "1"]) in (0, 1)
    in_process = capsys.readouterr().out
    assert cli.main(_TINY_VERIFY + ["--jobs", jobs]) in (0, 1)
    assert capsys.readouterr().out == in_process
    assert recording_pool.created == expected
    if expected:
        [tasks] = recording_pool.submitted
        assert [(kind, i) for _values, kind, i in tasks] == cli.VERIFY_TASKS
        kinds = [kind for _values, kind, _i in tasks]
        assert [k for k, _ in itertools.groupby(kinds)] == ["theorem", "branch", "growth", "miss"]


def _die(*_task):
    # A pool worker that ends abruptly, as one killed by the OOM killer does.
    os._exit(9)


def test_dead_pool_worker_is_an_output_error(monkeypatch, capsys):
    # BrokenProcessPool is no OSError; _map_tasks turns it into one, so main
    # exits 3 with one stderr line instead of a traceback and exit 1.
    with pytest.raises(OSError, match="a worker process died"):
        cli._map_tasks(_die, [(1,), (2,)], 2)
    monkeypatch.setattr(cli, "_verify_task", _die)
    assert cli.main(_TINY_VERIFY + ["--jobs", "2"]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write output: a worker process died"), line


# A fresh interpreter whose verify loses one pool worker mid-run; it exits
# with main's code once it has checked that no child process is left.
_DYING_VERIFY = """
import multiprocessing, os, sys
from protostream import cli

verify_task = cli._verify_task

def dying_task(v, kind, i):
    if (kind, i) == ("growth", 0):
        os._exit(9)
    return verify_task(v, kind, i)

cli._verify_task = dying_task
code = cli.main(sys.argv[1:])
assert not multiprocessing.active_children(), multiprocessing.active_children()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    raise AssertionError("a child process is left")
sys.exit(code)
"""


def test_dead_pool_worker_in_a_fresh_interpreter(tmp_path):
    done = subprocess.run([sys.executable, "-c", _DYING_VERIFY, *_TINY_VERIFY, "--jobs", "2"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 3, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: cannot write output: a worker process died"), line
    assert "Traceback" not in done.stdout + done.stderr


@pytest.mark.parametrize("jobs", ["0", "-1", str(-2**63)])
def test_verify_rejects_nonpositive_jobs(jobs, capsys):
    assert cli.main(_TINY_VERIFY + ["--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


# Up to two flags take any float at all (NaN and infinities included); the
# others are left out or set in their working range, so most examples reach
# the run itself instead of stopping at the first bad value.
_WORKING = {"epsilon": (1e-3, 1.0), "q": (0.5, 0.99), "tie-tolerance": (0.0, 1.0),
            "stream-lo": (-10.0, 0.0), "stream-hi": (1.0, 10.0),
            "walk-scale": (1e-3, 1.0), "delta": (0.0, 1.0)}


_EXTREMES = (math.nan, math.inf, -math.inf, 1.7976931348623157e308,
             -1.7976931348623157e308, 1e308, -1e308, 5e-324, 0.0, -0.0)


@st.composite
def _run_float_flags(draw):
    wild = draw(st.sets(st.sampled_from(sorted(_WORKING)), max_size=2))
    values = {}
    for flag, (lo, hi) in _WORKING.items():
        values[flag] = draw(st.one_of(st.floats(), st.sampled_from(_EXTREMES))
                            if flag in wild
                            else st.one_of(st.none(), st.floats(lo, hi)))
    return values


@settings(max_examples=300, deadline=None)
@given(values=_run_float_flags(),
       steps=st.integers(min_value=1, max_value=50),
       stream=st.sampled_from(STREAM_KINDS),
       target=st.sampled_from(sorted(TARGETS)))
def test_run_float_flags_end_in_a_defined_exit_code(values, steps, stream, target):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", f"--steps={steps}", f"--stream={stream}", f"--target={target}",
                f"--output={os.path.join(tmp, 't.csv')}"]
        argv += [f"--{flag}={value!r}" for flag, value in values.items() if value is not None]
        assert cli.main(argv) in (0, 2, 3)


_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(_EXTREMES))


@settings(max_examples=300, deadline=None)
@given(lo=st.one_of(st.none(), _ANY_FLOAT), hi=st.one_of(st.none(), _ANY_FLOAT),
       scale=_ANY_FLOAT, stream=st.sampled_from(STREAM_KINDS),
       target=st.sampled_from(sorted(TARGETS)))
def test_any_stream_box_ends_in_a_defined_exit_code(lo, hi, scale, stream, target):
    # The stream flags alone, everything else at its default: widths and
    # walk reflections that overflow must be refused, not run.
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--steps=20", f"--stream={stream}", f"--target={target}",
                f"--walk-scale={scale!r}", f"--output={os.path.join(tmp, 't.csv')}"]
        argv += [f"--stream-lo={lo!r}"] if lo is not None else []
        argv += [f"--stream-hi={hi!r}"] if hi is not None else []
        assert cli.main(argv) in (0, 2)


class _NoPool:
    """Fails the test if a pool is ever started."""

    def __init__(self, max_workers):
        raise AssertionError(f"a pool of {max_workers} workers was started")


def _traced_peak(fn):
    """``fn()`` and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_INT_EXTREMES = (0, -1, 1, 2**31, 2**63 - 1, 2**63, 2**64, -(2**63), 10**8, 10**30)
_ANY_INT = st.one_of(st.integers(), st.sampled_from(_INT_EXTREMES))


@st.composite
def _run_int_flags(draw):
    # Any int at all may reach --window, --seed and --jobs.  --steps and a
    # grid's --grid-resolution take any int that is refused or small: a
    # valid huge value would be a long run, not a bug.  A grid refuses a
    # resolution above MAX_GRID_POINTS and more steps than its lattice.
    stream = draw(st.sampled_from(STREAM_KINDS))
    refused_or_small = [st.integers(max_value=0), st.integers(1, 50)]
    if stream == "grid":
        refused_or_small.append(st.integers(min_value=MAX_GRID_POINTS + 1))
        resolution = st.one_of(st.integers(max_value=0), st.integers(1, 300),
                               st.integers(min_value=MAX_GRID_POINTS + 1),
                               st.sampled_from((10**8, 2**64)))
    else:
        resolution = _ANY_INT
    values = {"stream": stream,
              "steps": draw(st.one_of(*refused_or_small)),
              "grid-resolution": draw(st.one_of(st.none(), resolution)),
              "window": draw(st.one_of(st.none(), _ANY_INT)),
              "seed": draw(st.one_of(st.none(), _ANY_INT))}
    return {k: v for k, v in values.items() if v is not None}


@settings(max_examples=300, deadline=None)
@given(values=_run_int_flags(), sweep_jobs=st.one_of(st.none(), _ANY_INT))
def test_run_int_flags_end_in_a_defined_exit_code(values, sweep_jobs):
    # With sweep_jobs the same flags go to a one-run sweep with --jobs, which
    # never needs a pool, whatever jobs says.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", _NoPool):
        out = os.path.join(tmp, "out")
        argv = ["run" if sweep_jobs is None else "sweep", f"--output={out}"]
        argv += [f"--{flag}={value}" for flag, value in values.items()]
        argv += [] if sweep_jobs is None else [f"--jobs={sweep_jobs}"]
        code, peak = _traced_peak(lambda: cli.main(argv))
    assert code in (0, 2)
    assert peak < 20 * 2**20


def test_huge_grid_resolution_is_refused_before_any_allocation(tmp_path, capsys):
    out = tmp_path / "g.csv"
    argv = ["run", "--stream", "grid", "--grid-resolution", "100000000",
            "--steps", "10", "--output", str(out)]
    code, peak = _traced_peak(lambda: cli.main(argv))
    assert code == 2
    assert "more than the 1000000 allowed" in capsys.readouterr().err
    assert peak < 2**20
    assert not out.exists()


# Each command at a tiny size, also for test_cli's stdout tests; "OUT" stands
# for a path under tmp_path.
_TINY_VERIFY = ["verify", "--branch-trials", "2000", "--miss-trials", "100",
                "--growth-steps", "2000", "--theorem-steps", "300", "--tail-window", "100"]
IO_COMMANDS = {
    "run": ["run", "--steps", "10", "--output", "OUT"],
    **{f"sweep-jobs{jobs}": ["sweep", "--steps", "10", "--q-list", "0.75,0.9",
                             "--output", "OUT", "--jobs", jobs] for jobs in ("1", "2")},
    **{f"verify-jobs{jobs}": _TINY_VERIFY + ["--jobs", jobs] for jobs in ("1", "2")},
}


@pytest.mark.parametrize("stdout", ["writable", "full", "closed", "broken-pipe"])
@pytest.mark.parametrize("command", sorted(IO_COMMANDS))
def test_any_stdout_and_stderr_end_in_a_defined_exit_code(command, stdout, tmp_path):
    # Under every stderr ({writable, /dev/full, closed}) the exit code is the
    # same, 0-3: 3 when stdout fails, the command's own code otherwise.  A
    # writable stderr gets at most one line and never a traceback.
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    codes = []
    for k, stderr in enumerate(("writable", "full", "closed")):
        out = str(tmp_path / f"out{k}")
        argv = [sys.executable, "-m", "protostream",
                *(out if arg == "OUT" else arg for arg in IO_COMMANDS[command])]
        shell = shlex.join(argv) + {"full": " >/dev/full", "closed": " >&-"}.get(stdout, "")
        shell += {"full": " 2>/dev/full", "closed": " 2>&-"}.get(stderr, "")
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe fails with EPIPE
        try:
            done = subprocess.run(
                shell, shell=True, env=env, timeout=60,
                stdout=write_end if stdout == "broken-pipe" else subprocess.PIPE,
                stderr=subprocess.PIPE if stderr == "writable" else None)
        finally:
            os.close(write_end)
        codes.append(done.returncode)
        if stderr == "writable":
            err = done.stderr.decode(errors="replace")
            assert "Traceback" not in err and len(err.splitlines()) <= 1, err
    assert codes[0] in (0, 1, 2, 3)
    assert codes == [3 if stdout != "writable" else codes[0]] * 3, codes
