"""Quantitative experiments behind the verification suite.

The degenerate-regime expectations are hand-derived from the update rule.
With the tolerance above the whole output diameter every consult is a hit,
so the model size is a Markov chain on {0, 1}: empty forces an insert, and
size one removes with probability 1/q - 1. The stationary split is
pi(1) = q, pi(0) = 1 - q, which pins the long-run hit rate at q and the
mean size change at zero.
"""

import os
import re
import signal
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protostream.errors import ConfigError, ProtostreamError
from protostream.experiments import (
    TRACE_HEADER,
    conditional_branch_experiment,
    forced_miss_experiment,
    growth_identity_experiment,
    read_trace,
    theorem_experiment,
)
from protostream.index import INDEX_KINDS
from protostream.learner import LearnerConfig
from protostream.metrics import METRICS, TARGETS, TargetFunction
from protostream.rng import points_stream_index
from protostream.stats import SeriesPoint, WindowStats
from protostream.streams import STREAM_KINDS, GridSweep, IidUniform, RandomWalk

EUCLID = METRICS["euclidean"]


def test_branch_at_half_removes_every_hit():
    assert conditional_branch_experiment(0.5, 2000, seed=1) == 1.0


def test_branch_tracks_one_over_q_minus_one():
    assert abs(conditional_branch_experiment(0.8, 100_000, seed=3) - 0.25) <= 0.01


def test_forced_miss_always_inserts():
    assert forced_miss_experiment(2000, seed=4) == 1.0


def test_growth_exact_corners():
    assert growth_identity_experiment(0.0, 0.75, 2000, seed=5) == 1.0
    assert growth_identity_experiment(1.0, 0.5, 2000, seed=5) == -1.0


def test_growth_interior_cell():
    measured = growth_identity_experiment(0.6, 0.75, 100_000, seed=6)
    assert abs(measured - 0.2) <= 0.01


def test_growth_rejects_bad_probability():
    with pytest.raises(ConfigError):
        growth_identity_experiment(-0.1, 0.75, 100, seed=0)
    with pytest.raises(ConfigError):
        growth_identity_experiment(1.5, 0.75, 100, seed=0)


def test_theorem_degenerate_regime_matches_markov_chain():
    target = TARGETS["step_1d"]
    config = LearnerConfig(epsilon=2.0, q=0.75, seed=12)
    generator = IidUniform(target.domain, config.seed, points_stream_index(0))
    report = theorem_experiment(
        target, EUCLID, config, generator, 20_000,
        tail_window=5000, index_kind="linear",
    )
    assert report.final_size in (0, 1)
    assert abs(report.tail_hit_rate - 0.75) <= 0.03
    assert abs(report.tail_mean_delta) <= 0.01
    assert report.stabilized


def test_theorem_report_reproduces_with_same_seed():
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.1, q=0.75, seed=3)
    gen = IidUniform(target.domain, config.seed, points_stream_index(0))
    a = theorem_experiment(target, EUCLID, config, gen, 4000, tail_window=1000)
    b = theorem_experiment(target, EUCLID, config, gen, 4000, tail_window=1000)
    assert a.final_size == b.final_size
    assert a.tail_hit_rate == b.tail_hit_rate
    assert a.tail_mean_delta == b.tail_mean_delta
    assert a.series == b.series
    assert a.config == b.config


def test_theorem_index_backends_agree():
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.1, q=0.75, seed=8)
    gen = IidUniform(target.domain, config.seed, points_stream_index(0))
    lin = theorem_experiment(target, EUCLID, config, gen, 5000,
                             tail_window=1000, index_kind="linear")
    vpt = theorem_experiment(target, EUCLID, config, gen, 5000,
                             tail_window=1000, index_kind="vptree")
    assert lin.final_size == vpt.final_size
    assert lin.tail_hit_rate == vpt.tail_hit_rate
    assert lin.tail_mean_delta == vpt.tail_mean_delta
    assert lin.series == vpt.series


def test_theorem_report_echoes_settings():
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.05, q=0.9, seed=0)
    gen = IidUniform(target.domain, 0, points_stream_index(0))
    report = theorem_experiment(target, EUCLID, config, gen, 2000, tail_window=500)
    assert report.config["q"] == 0.9
    assert report.config["epsilon"] == 0.05
    assert report.config["target"] == "sine_1d"
    assert report.tail_window == 500
    assert report.final_step == 2000


@pytest.mark.parametrize("tail_window", [1, 7, 50, 299, 300, 305])
def test_tail_estimators_equal_a_window_over_the_trace(tail_window, tmp_path):
    # Steps 300 and series window 50: the tails cover one step, a few, the
    # series window, all but the first step, the run and more than the run.
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.05, q=0.75, seed=5)
    gen = IidUniform(target.domain, 5, points_stream_index(0))
    path = str(tmp_path / "t.csv")
    report = theorem_experiment(target, EUCLID, config, gen, 300, tail_window=tail_window,
                                series_window=50, trace_path=path)
    tail = WindowStats(tail_window)
    for row in read_trace(path):
        tail.update(_DELTA[row.action])
    assert report.tail_hit_rate == tail.hit_rate
    assert report.tail_mean_delta == tail.mean_size_delta
    assert report.stabilized == (abs(tail.mean_size_delta) <= report.stabilization_delta)


@pytest.mark.parametrize("series_window", [1, 7, 50, 301])
def test_series_points_equal_a_window_over_the_trace(series_window, tmp_path):
    # A series point is taken from counts at every multiple of the window:
    # it must equal a WindowStats replay of the trace rows up to its step,
    # and a traced run must report what an untraced one does.
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.05, q=0.75, seed=5)
    gen = IidUniform(target.domain, 5, points_stream_index(0))
    path = str(tmp_path / "t.csv")
    traced = theorem_experiment(target, EUCLID, config, gen, 300, tail_window=100,
                                series_window=series_window, trace_path=path)
    untraced = theorem_experiment(target, EUCLID, config, gen, 300, tail_window=100,
                                  series_window=series_window)
    assert traced == untraced
    window = WindowStats(series_window)
    expected = []
    for row in read_trace(path):
        window.update(_DELTA[row.action])
        if row.n % series_window == 0:
            expected.append(SeriesPoint(row.n, row.model_size, window.hit_rate,
                                        window.mean_size_delta))
    assert traced.series == expected
    assert len(expected) == 300 // series_window


def test_theorem_rejects_empty_tail_window(tmp_path):
    # An untraced run keeps no series window, so the check cannot be left
    # to WindowStats; traced or not, a bad window writes no trace file.
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.05, q=0.9, seed=0)
    gen = IidUniform(target.domain, 0, points_stream_index(0))
    path = tmp_path / "t.csv"
    for windows in ({"tail_window": 0}, {"series_window": 0}):
        for trace_path in (None, str(path)):
            with pytest.raises(ConfigError):
                theorem_experiment(target, EUCLID, config, gen, 100, **windows,
                                   trace_path=trace_path)
            assert not path.exists()


def test_theorem_rejects_zero_steps_without_a_trace(tmp_path):
    # The stream's length check is the experiment's: a ConfigError, like
    # growth_identity_experiment's, raised before the trace file is opened.
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.05, q=0.9, seed=0)
    gen = IidUniform(target.domain, 0, points_stream_index(0))
    path = tmp_path / "t.csv"
    with pytest.raises(ConfigError):
        theorem_experiment(target, EUCLID, config, gen, 0, trace_path=str(path))
    assert not path.exists()


def _peak_traced_bytes(steps, epsilon, q, tail_window=1000):
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=epsilon, q=q, seed=0)
    gen = IidUniform(target.domain, 0, points_stream_index(0))
    tracemalloc.start()
    try:
        theorem_experiment(target, EUCLID, config, gen, steps,
                           tail_window=tail_window, series_window=1000)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("epsilon,q", [(0.05, 0.9), (0.002, 0.5)])
def test_theorem_memory_does_not_grow_with_steps(epsilon, q):
    # Both models are near their stable size (about 50 and 550 exemplars)
    # by 5k steps.  At q 0.5 half the hits remove, so the tree rebuilds
    # often: a stream list or uncompacted tree storage would add well over
    # 1 MB between 5k and 25k steps.
    growth = _peak_traced_bytes(25_000, epsilon, q) - _peak_traced_bytes(5000, epsilon, q)
    assert growth < 0.5e6


def test_theorem_memory_does_not_grow_with_tail_window():
    # The tail estimators are two counts taken where the tail starts, so
    # a 50k-step tail costs what a 1k-step one does; a window over the tail
    # would hold 50k events (~0.4 MB).
    gap = _peak_traced_bytes(60_000, 0.05, 0.9, 50_000) - _peak_traced_bytes(60_000, 0.05, 0.9)
    assert gap < 0.1e6


_DELTA = {"Insert": 1, "Remove": -1, "Keep": 0}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.floats(0.5, 0.95),
       epsilon=st.floats(0.01, 1.0), stream=st.sampled_from(STREAM_KINDS),
       index_kind=st.sampled_from(INDEX_KINDS), steps=st.integers(1, 2000))
def test_trace_size_is_running_sum_of_deltas(seed, q, epsilon, stream, index_kind, steps):
    target = TARGETS["sine_1d"]
    stream_index = points_stream_index(0)
    if stream == "iid":
        gen = IidUniform(target.domain, seed, stream_index)
    elif stream == "walk":
        gen = RandomWalk(0.3, target.domain, seed, stream_index)
    else:
        gen = GridSweep(2000, target.domain, seed, stream_index)
    config = LearnerConfig(epsilon=epsilon, q=q, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        report = theorem_experiment(target, EUCLID, config, gen, steps,
                                    tail_window=500, series_window=100,
                                    index_kind=index_kind, trace_path=path)
        rows = read_trace(path)
    assert [r.n for r in rows] == list(range(1, steps + 1))
    size = 0
    for row in rows:
        size += _DELTA[row.action]
        assert row.model_size == size
    assert size == report.final_size


def test_trace_keeps_every_completed_step_when_a_step_raises(monkeypatch, tmp_path):
    # A step that raises must not lose the rows completed before it, nor
    # leave the writer process unreaped.  Nor must a Ctrl-C, which reaches
    # the run and its writer process alike: the writer ignores it.
    writers = []
    fork = os.fork

    def fork_and_record():
        pid = fork()
        if pid:
            writers.append(pid)
        return pid

    def target_fails():
        raise RuntimeError("target failed")

    def ctrl_c():
        os.kill(writers[-1], signal.SIGINT)
        signal.raise_signal(signal.SIGINT)

    monkeypatch.setattr(os, "fork", fork_and_record)
    # The interpreter's own handler, even where SIGINT was ignored at start.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        for fail, error in ((target_fails, RuntimeError), (ctrl_c, KeyboardInterrupt)):
            calls = 0

            def evaluate(p):
                nonlocal calls
                calls += 1
                if calls == 1500:
                    fail()
                return 0.0

            target = TargetFunction("failing", evaluate, "absolute_difference", ((0.0, 1.0),))
            path = str(tmp_path / "trace.csv")
            with pytest.raises(error):
                theorem_experiment(target, EUCLID, LearnerConfig(epsilon=0.1, q=0.9),
                                   IidUniform(target.domain, 0), 3000,
                                   series_window=1000, trace_path=path)
            assert [row.n for row in read_trace(path)] == list(range(1, 1500)), error
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    finally:
        signal.signal(signal.SIGINT, previous)


@pytest.mark.parametrize("row", [b"1,Insert,1", b"1,Insert,1,inf,0,0.0,1.0,7",
                                 b"1,Insert,one,inf,0,0.0,1.0", b"1,Bogus,1,inf,0,0.0,1.0",
                                 b"1,Insert,1,inf,7,0.0,1.0", b"1,Insert,1,inf,0,0.0,1.0\xff"])
def test_read_trace_names_the_malformed_row(row, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(f"{TRACE_HEADER}\n1,Insert,1,inf,0,0.0,1.0\n".encode() + row + b"\n")
    shown = repr(row.decode("utf-8", "surrogateescape"))
    with pytest.raises(ProtostreamError, match=re.escape(f"t.csv:3: malformed trace row {shown}")):
        read_trace(str(path))
