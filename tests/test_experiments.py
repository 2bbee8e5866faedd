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
from protostream.streams import STREAM_KINDS, GridSweep, IidUniform, RandomWalk

EUCLID = METRICS["euclidean"]


def test_branch_at_half_removes_every_hit():
    remove_freq, keep_freq = conditional_branch_experiment(0.5, 2000, seed=1)
    assert remove_freq == 1.0
    assert keep_freq == 0.0


def test_branch_frequencies_sum_to_one():
    remove_freq, keep_freq = conditional_branch_experiment(0.8, 5000, seed=2)
    assert remove_freq + keep_freq == 1.0


def test_branch_tracks_one_over_q_minus_one():
    remove_freq, _ = conditional_branch_experiment(0.8, 100_000, seed=3)
    assert abs(remove_freq - 0.25) <= 0.01


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


def test_theorem_rejects_empty_tail_window():
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.05, q=0.9, seed=0)
    gen = IidUniform(target.domain, 0, points_stream_index(0))
    with pytest.raises(ConfigError):
        theorem_experiment(target, EUCLID, config, gen, 100, tail_window=0)


def _peak_traced_bytes(steps, epsilon, q):
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=epsilon, q=q, seed=0)
    gen = IidUniform(target.domain, 0, points_stream_index(0))
    tracemalloc.start()
    try:
        theorem_experiment(target, EUCLID, config, gen, steps,
                           tail_window=1000, series_window=1000)
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


def test_trace_keeps_every_completed_step_when_a_step_raises(tmp_path):
    # Rows are written in chunks of series_window; a step that raises
    # between two chunks must not lose the rows buffered before it.
    calls = 0

    def evaluate(p):
        nonlocal calls
        calls += 1
        if calls == 1500:
            raise RuntimeError("target failed")
        return 0.0

    target = TargetFunction("failing", evaluate, "absolute_difference", ((0.0, 1.0),))
    path = str(tmp_path / "trace.csv")
    with pytest.raises(RuntimeError):
        theorem_experiment(target, EUCLID, LearnerConfig(epsilon=0.1, q=0.9),
                           IidUniform(target.domain, 0), 3000,
                           series_window=1000, trace_path=path)
    assert [row.n for row in read_trace(path)] == list(range(1, 1500))


@pytest.mark.parametrize("row", ["1,Insert,1", "1,Insert,1,inf,0,0.0,1.0,7",
                                 "1,Insert,one,inf,0,0.0,1.0"])
def test_read_trace_names_the_malformed_row(row, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"{TRACE_HEADER}\n1,Insert,1,inf,0,0.0,1.0\n{row}\n")
    with pytest.raises(ProtostreamError, match=re.escape(f"t.csv:3: malformed trace row '{row}'")):
        read_trace(str(path))
