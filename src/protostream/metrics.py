"""Concrete metric spaces and synthetic target functions.

Input points are plain tuples of floats (or any equal-length sequences
for the positional metrics); output values are floats for regression
targets and small integer labels for classification targets.  Every
distance is evaluated as ``distance(stored, query)`` by the callers in
this package, which keeps floating-point results bit-identical across
the two index backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .errors import DimensionMismatchError

Point = tuple  # coordinates of an input-space element


@dataclass(frozen=True)
class MetricDescriptor:
    """A named distance function satisfying the metric axioms."""

    name: str
    distance: Callable[[Any, Any], float]


def euclidean_distance(a, b) -> float:
    # math.dist checks the dimensions itself; only its error is translated.
    try:
        return math.dist(a, b)
    except ValueError:
        raise DimensionMismatchError(
            f"euclidean distance needs equal dimensions, got {len(a)} and {len(b)}"
        ) from None


def chebyshev_distance(a, b) -> float:
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"chebyshev distance needs equal dimensions, got {len(a)} and {len(b)}"
        )
    m = 0.0
    for x, y in zip(a, b):
        d = abs(x - y)
        if d > m:
            m = d
    return m


def hamming_distance(a, b) -> float:
    """Count of differing positions between two equal-length sequences."""
    if len(a) != len(b):
        raise DimensionMismatchError(
            f"hamming distance needs equal lengths, got {len(a)} and {len(b)}"
        )
    return float(sum(1 for x, y in zip(a, b) if x != y))


def discrete_distance(a, b) -> float:
    """0 for equal values, 1 otherwise; any equality-comparable values."""
    return 0.0 if a == b else 1.0


def absolute_difference(a, b) -> float:
    """Distance on the real line, for scalar regression outputs."""
    return abs(a - b)


METRICS: dict[str, MetricDescriptor] = {
    m.name: m
    for m in (
        MetricDescriptor("euclidean", euclidean_distance),
        MetricDescriptor("chebyshev", chebyshev_distance),
        MetricDescriptor("hamming", hamming_distance),
        MetricDescriptor("discrete", discrete_distance),
        MetricDescriptor("absolute_difference", absolute_difference),
    )
}


@dataclass(frozen=True)
class TargetFunction:
    """A deterministic function to learn, with its natural sampling box.

    ``output_metric`` names the METRICS entry under which closeness of
    predictions is judged; ``domain`` is the per-dimension (lo, hi) box
    stream generators default to.
    """

    name: str
    evaluate: Callable[[Point], Any]
    output_metric: str
    domain: tuple[tuple[float, float], ...]


def _sine_1d(p: Point) -> float:
    return math.sin(p[0])


def _step_1d(p: Point) -> float:
    return 0.0 if p[0] < 0.5 else 1.0


_LABEL_CELLS = 8


def _quantized_labeler(p: Point) -> int:
    # Cell index on [0, 1]; values outside the box clamp to the edge cells
    # (before scaling, so a huge coordinate cannot overflow to inf).
    return min(int(min(max(p[0], 0.0), 1.0) * _LABEL_CELLS), _LABEL_CELLS - 1)


TARGETS: dict[str, TargetFunction] = {
    t.name: t
    for t in (
        TargetFunction("sine_1d", _sine_1d, "absolute_difference", ((0.0, 2.0 * math.pi),)),
        TargetFunction("step_1d", _step_1d, "absolute_difference", ((0.0, 1.0),)),
        TargetFunction("quantized_labeler", _quantized_labeler, "discrete", ((0.0, 1.0),)),
    )
}
