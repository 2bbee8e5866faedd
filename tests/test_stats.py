"""Sliding-window statistics over step size deltas."""

import pytest

from protostream.errors import ConfigError
from protostream.stats import RunReport, WindowStats

# A step is its size delta: a miss inserts, a hit removes or keeps.
INSERT, REMOVE, KEEP = +1, -1, 0


def test_all_misses_window():
    stats = WindowStats(window_size=10)
    for _ in range(5):
        stats.update(INSERT)
    assert stats.hit_rate == 0.0
    assert stats.mean_size_delta == 1.0
    assert (stats.hits, stats.delta_sum) == (0, 5)


def test_all_hits_all_removes_window():
    stats = WindowStats(window_size=10)
    for _ in range(7):
        stats.update(REMOVE)
    assert stats.hit_rate == 1.0
    assert stats.mean_size_delta == -1.0
    assert (stats.hits, stats.delta_sum) == (7, -7)


def test_window_evicts_old_entries():
    stats = WindowStats(window_size=4)
    # four misses then four hit-keeps: the window must forget the misses
    for _ in range(4):
        stats.update(INSERT)
    for _ in range(4):
        stats.update(KEEP)
    assert stats.hit_rate == 1.0
    assert stats.mean_size_delta == 0.0
    assert (stats.hits, stats.delta_sum) == (4, 0)


def test_partial_window_mixture():
    stats = WindowStats(window_size=100)
    stats.update(INSERT)
    stats.update(KEEP)
    stats.update(REMOVE)
    assert stats.hit_rate == 2.0 / 3.0
    assert stats.mean_size_delta == 0.0


def test_mean_delta_equals_miss_minus_remove_fraction():
    stats = WindowStats(window_size=1000)
    deltas = [INSERT, KEEP, REMOVE, INSERT, KEEP, KEEP, REMOVE, INSERT]
    for delta in deltas:
        stats.update(delta)
    misses = deltas.count(INSERT)
    removes = deltas.count(REMOVE)
    assert stats.mean_size_delta == (misses - removes) / len(deltas)


def test_empty_window_reports_zero():
    stats = WindowStats(window_size=5)
    assert stats.hit_rate == 0.0
    assert stats.mean_size_delta == 0.0
    with pytest.raises(ConfigError, match="window size must be at least 1, got 0"):
        WindowStats(0)


def test_run_report_summary_lines_mention_key_fields():
    report = RunReport(
        config={"q": 0.75, "epsilon": 0.05},
        final_step=1000,
        final_size=42,
        tail_window=500,
        tail_hit_rate=0.748,
        tail_mean_delta=0.002,
        stabilization_delta=0.01,
        stabilized=True,
        series=[],
    )
    text = "\n".join(report.summary_lines())
    assert "42" in text
    assert "0.748" in text
    assert "yes" in text or "stabilized" in text
