"""The sliding window behind the trace's window columns, and the per-run report."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigError


class WindowStats:
    """Hit count and size-delta sum over the last ``window_size`` steps.

    A step is its size delta: a miss inserts (+1), and a hit removes (-1)
    or keeps (0), so a step hits exactly when its delta is not +1.  The
    trace writer keeps its window columns here; a run's tail estimators and
    series points come from counts, and a window replayed over the trace
    rows is the tests' reference for them.  ``hits`` and ``delta_sum``
    update in O(1) per step.  Over any full or partial window the identity
    mean_size_delta == miss_fraction - remove_fraction holds exactly.
    """

    __slots__ = ("window_size", "hits", "delta_sum", "_deltas")

    def __init__(self, window_size: int):
        if window_size < 1:
            raise ConfigError(f"window size must be at least 1, got {window_size}")
        self.window_size = window_size
        self._deltas: deque = deque()
        self.hits = 0
        self.delta_sum = 0

    def update(self, delta: int) -> None:
        deltas = self._deltas
        deltas.append(delta)
        self.hits += delta != 1
        self.delta_sum += delta
        if len(deltas) > self.window_size:
            old = deltas.popleft()
            self.hits -= old != 1
            self.delta_sum -= old

    @property
    def hit_rate(self) -> float:
        n = len(self._deltas)
        return self.hits / n if n else 0.0

    @property
    def mean_size_delta(self) -> float:
        n = len(self._deltas)
        return self.delta_sum / n if n else 0.0


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
