"""Online exemplar-set learner for functions between metric spaces.

The learner keeps a growing-and-shrinking multiset of (input, output)
exemplars. Each step consults the nearest stored exemplar (uniformly among
ties), inserts the observed pair on a miss, and on a hit removes the
consulted exemplar with probability 1/q - 1. Long-run size stability then
pins the hit rate to q.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyCandidatesError,
    EmptyModelError,
    PositionOutOfRangeError,
    ProtostreamError,
)
from .experiments import (
    conditional_branch_experiment,
    forced_miss_experiment,
    growth_identity_experiment,
    theorem_experiment,
)
from .index import INDEXES, LinearScanIndex, VpTreeIndex, linear_tie_set
from .learner import Action, LearnerConfig, StepOutcome, predict, step
from .metrics import METRICS, TARGETS, MetricDescriptor, TargetFunction
from .rng import RandomStream, learner_stream_index, points_stream_index, sample_uniform
from .stats import RunReport, SeriesPoint, WindowStats
from .streams import GridSweep, IidUniform, RandomWalk, generate_stream

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ConfigError",
    "DimensionMismatchError",
    "EmptyCandidatesError",
    "EmptyModelError",
    "GridSweep",
    "INDEXES",
    "IidUniform",
    "LearnerConfig",
    "LinearScanIndex",
    "METRICS",
    "MetricDescriptor",
    "PositionOutOfRangeError",
    "ProtostreamError",
    "RandomStream",
    "RandomWalk",
    "RunReport",
    "SeriesPoint",
    "StepOutcome",
    "TARGETS",
    "TargetFunction",
    "VpTreeIndex",
    "WindowStats",
    "conditional_branch_experiment",
    "forced_miss_experiment",
    "generate_stream",
    "growth_identity_experiment",
    "learner_stream_index",
    "linear_tie_set",
    "points_stream_index",
    "predict",
    "sample_uniform",
    "step",
    "theorem_experiment",
]
