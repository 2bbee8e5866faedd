"""Sliding-window statistics over step outcomes."""

import math

from protostream.learner import Action, StepOutcome
from protostream.stats import RunReport, WindowStats


def _outcome(hit, action, size_after, delta):
    dist = 0.0 if hit else math.inf
    return StepOutcome(
        output_distance=dist,
        hit=hit,
        action=action,
        model_size_after=size_after,
        size_delta=delta,
    )


def test_all_misses_window():
    stats = WindowStats(window_size=10)
    for n in range(1, 6):
        stats.update(_outcome(False, Action.INSERT, n, 1))
    assert stats.hit_rate == 0.0
    assert stats.mean_size_delta == 1.0


def test_all_hits_all_removes_window():
    stats = WindowStats(window_size=10)
    size = 100
    for _ in range(7):
        size -= 1
        stats.update(_outcome(True, Action.REMOVE, size, -1))
    assert stats.hit_rate == 1.0
    assert stats.mean_size_delta == -1.0


def test_window_evicts_old_entries():
    stats = WindowStats(window_size=4)
    # four misses then four hit-keeps: the window must forget the misses
    for n in range(1, 5):
        stats.update(_outcome(False, Action.INSERT, n, 1))
    for _ in range(4):
        stats.update(_outcome(True, Action.KEEP, 4, 0))
    assert stats.hit_rate == 1.0
    assert stats.mean_size_delta == 0.0


def test_partial_window_mixture():
    stats = WindowStats(window_size=100)
    stats.update(_outcome(False, Action.INSERT, 1, 1))
    stats.update(_outcome(True, Action.KEEP, 1, 0))
    stats.update(_outcome(True, Action.REMOVE, 0, -1))
    assert stats.hit_rate == 2.0 / 3.0
    assert stats.mean_size_delta == 0.0


def test_mean_delta_equals_miss_minus_remove_fraction():
    stats = WindowStats(window_size=1000)
    actions = [Action.INSERT, Action.KEEP, Action.REMOVE, Action.INSERT,
               Action.KEEP, Action.KEEP, Action.REMOVE, Action.INSERT]
    size = 10
    for action in actions:
        delta = 1 if action is Action.INSERT else (-1 if action is Action.REMOVE else 0)
        size += delta
        stats.update(_outcome(action is not Action.INSERT, action, size, delta))
    misses = sum(1 for a in actions if a is Action.INSERT)
    removes = sum(1 for a in actions if a is Action.REMOVE)
    assert stats.mean_size_delta == (misses - removes) / len(actions)


def test_update_returns_stats_for_chaining():
    stats = WindowStats(window_size=3)
    out = stats.update(_outcome(False, Action.INSERT, 1, 1))
    assert out is stats


def test_empty_window_reports_zero():
    stats = WindowStats(window_size=5)
    assert stats.hit_rate == 0.0
    assert stats.mean_size_delta == 0.0


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
