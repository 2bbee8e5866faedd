"""The per-step update rule of the exemplar model, and prediction.

The model is an ordered multiset of (input, observed output) exemplars,
held by a nearest-set index (``index.LinearScanIndex`` or
``index.VpTreeIndex``) in insertion order.  Each step consults a
uniformly sampled nearest exemplar; if its stored output is farther than
``epsilon`` from the observed output the new pair is inserted, otherwise
the consulted exemplar itself is removed with probability ``1/q - 1`` and
kept with probability ``2 - 1/q``.

A step reads the sampled exemplar's output as ``index.outputs[handle]``
for the handle its query just returned, and hands that handle to
``remove``; handles ascend in insertion order, so a draw picks the same
exemplar on both backends.  A step finds an empty model by its query's
EmptyModelError, and then inserts: it never asks for the model's size.

Each outcome has its own size change, so a step is recorded by its size
delta alone: a miss inserts (+1), and a hit removes (-1) or keeps (0).
``ACTION_BY_DELTA`` is the package's one map from a delta to its action.

Per-step randomness consumption is fixed and part of the reproducibility
contract: first the tie-break draw(s) of the nearest-set sample, then,
only on a hit, exactly one draw for the removal coin
``next_unit() < remove_probability``.  The coin is taken as the integer
comparison ``next_u64() < remove_bound`` (``rng.unit_bound``), which
passes for exactly the same draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import ConfigError, EmptyModelError
from .metrics import MetricDescriptor
from .rng import RandomStream, sample_uniform, unit_bound


class Action(Enum):
    INSERT = "Insert"
    REMOVE = "Remove"
    KEEP = "Keep"


ACTION_BY_DELTA = {+1: Action.INSERT, -1: Action.REMOVE, 0: Action.KEEP}


@dataclass(frozen=True)
class LearnerConfig:
    """Validated run parameters.

    ``epsilon`` is the hit threshold in output-metric units; ``q`` is the
    target long-run hit rate and must lie in [1/2, 1).  ``tie_tolerance``
    is the relative band for nearest-set ties (0 means bit-exact ties).
    """

    epsilon: float
    q: float
    seed: int = 0
    tie_tolerance: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.5 <= self.q < 1.0):
            raise ConfigError(f"q must satisfy 0.5 <= q < 1, got {self.q}")
        if not 0.0 <= self.tie_tolerance < math.inf:
            raise ConfigError(f"tie_tolerance must be finite and nonnegative, got {self.tie_tolerance}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")

    @cached_property
    def remove_probability(self) -> float:
        """Chance that a hit removes the consulted exemplar: 1/q - 1."""
        return 1.0 / self.q - 1.0

    @cached_property
    def remove_bound(self) -> int:
        """``unit_bound(remove_probability)``: a hit removes when ``next_u64()`` is below it."""
        return unit_bound(self.remove_probability)


@dataclass(slots=True)
class StepOutcome:
    """One update step: the consulted exemplar's output distance (infinite
    on an empty model) and the model's size change, which names the action."""

    output_distance: float
    size_delta: int

    @property
    def action(self) -> Action:
        return ACTION_BY_DELTA[self.size_delta]


def predict(index, x, config: LearnerConfig, rng: RandomStream):
    """Stored output of a uniformly sampled nearest exemplar of ``index``.

    Randomized: every call draws fresh tie-break randomness from ``rng``.
    An empty index raises EmptyModelError.
    """
    return index.output(sample_uniform(index.query_nearest_set(x, config.tie_tolerance), rng))


def step(index, x, y_true, output_metric: MetricDescriptor, config: LearnerConfig,
         rng: RandomStream) -> StepOutcome:
    """Apply one observation (x, y_true) to the exemplars held by ``index``.

    An empty index forces an insert (infinite output distance, no hit, no
    randomness consumed).
    """
    try:
        candidates = index.query_nearest_set(x, config.tie_tolerance)
    except EmptyModelError:
        index.insert(x, y_true)
        return StepOutcome(math.inf, +1)
    if len(candidates) == 1:
        # sample_uniform's one draw for a single candidate, inline.
        rng.next_u64()
        sampled = candidates[0]
    else:
        sampled = sample_uniform(candidates, rng)
    d = output_metric.distance(index.outputs[sampled], y_true)

    if d > config.epsilon:
        index.insert(x, y_true)
        return StepOutcome(d, +1)

    if rng.next_u64() < config.remove_bound:
        index.remove(sampled)
        return StepOutcome(d, -1)
    return StepOutcome(d, 0)
