"""Invalid inputs end in exit 2 before any output; sweeps size their pools."""

import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protostream import cli
from protostream.errors import ConfigError, EmptyCandidatesError
from protostream.learner import LearnerConfig
from protostream.metrics import TARGETS
from protostream.streams import STREAM_KINDS, GridSweep, IidUniform, RandomWalk


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


def test_sweep_combination_error_comes_before_any_output(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert cli.main(["sweep", "--steps", "20", "--q-list", "0.75,1.5",
                     "--output", str(out_dir)]) == 2
    assert "0.5 <= q < 1" in capsys.readouterr().err
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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor; runs the map in this process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("q_list, expected", [("0.75", []), ("0.5,0.75", [2])])
def test_sweep_never_asks_for_more_workers_than_runs(q_list, expected, monkeypatch, tmp_path):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    assert cli.main(["sweep", "--steps", "20", "--jobs", "64", "--q-list", q_list,
                     "--output", str(tmp_path / "s")]) == 0
    assert _RecordingPool.created == expected


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
