"""Sliding-window trace estimators and the per-run report."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .learner import StepOutcome


class WindowStats:
    """Hit-rate and mean size-delta over the last ``window_size`` steps.

    Counters update in O(1) per step.  Over any full or partial window
    the identity mean_size_delta == miss_fraction - remove_fraction holds
    exactly, because every miss inserts (+1) and the only -1 is a removal.
    """

    __slots__ = ("window_size", "_events", "_hits", "_delta_sum",
                 "step_count", "model_size")

    def __init__(self, window_size: int = 1000):
        if window_size < 1:
            raise ValueError("window size must be at least 1")
        self.window_size = window_size
        self._events: deque = deque()
        self._hits = 0
        self._delta_sum = 0
        self.step_count = 0
        self.model_size = 0

    def update(self, outcome: StepOutcome) -> "WindowStats":
        hit = outcome.hit
        delta = outcome.size_delta
        self._events.append((hit, delta))
        if hit:
            self._hits += 1
        self._delta_sum += delta
        if len(self._events) > self.window_size:
            old_hit, old_delta = self._events.popleft()
            if old_hit:
                self._hits -= 1
            self._delta_sum -= old_delta
        self.step_count = outcome.step_index
        self.model_size = outcome.model_size_after
        return self

    @property
    def window_fill(self) -> int:
        return len(self._events)

    @property
    def hit_rate(self) -> float:
        n = len(self._events)
        return self._hits / n if n else 0.0

    @property
    def mean_size_delta(self) -> float:
        n = len(self._events)
        return self._delta_sum / n if n else 0.0


@dataclass(slots=True)
class SeriesPoint:
    """One snapshot of the windowed estimators."""

    step: int
    model_size: int
    hit_rate: float
    mean_size_delta: float


@dataclass
class RunReport:
    """End-of-run summary plus the per-window time series.

    ``stabilized`` means the tail window's mean size delta stayed within
    ``stabilization_delta`` of zero; hit-rate claims about the target
    rate are only meaningful under that flag.
    """

    config: dict
    final_step: int
    final_size: int
    tail_window: int
    tail_hit_rate: float
    tail_mean_delta: float
    stabilization_delta: float
    stabilized: bool
    series: list[SeriesPoint] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        return [
            f"steps:                {self.final_step}",
            f"final model size:     {self.final_size}",
            f"tail window:          {min(self.tail_window, self.final_step)} steps",
            f"tail hit rate:        {self.tail_hit_rate:.6f}",
            f"tail mean size delta: {self.tail_mean_delta:+.6f}",
            f"stabilized:           {'yes' if self.stabilized else 'no'}"
            f" (threshold {self.stabilization_delta:g})",
        ]
