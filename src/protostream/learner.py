"""The exemplar model, its per-step update rule, and prediction.

A model is an ordered multiset of (input, observed output) exemplars.
Each step consults a uniformly sampled nearest exemplar; if its stored
output is farther than ``epsilon`` from the observed output the new pair
is inserted, otherwise the consulted exemplar itself is removed with
probability ``1/q - 1`` and kept with probability ``2 - 1/q``.

Per-step randomness consumption is fixed and part of the reproducibility
contract: first the tie-break draw(s) of the nearest-set sample, then,
only on a hit, exactly one unit draw for the removal coin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ConfigError, EmptyModelError, EmptyStreamError, PositionOutOfRangeError
from .index import linear_tie_set
from .metrics import MetricDescriptor
from .rng import RandomStream, learner_stream_index, sample_uniform


class Action(Enum):
    INSERT = "Insert"
    REMOVE = "Remove"
    KEEP = "Keep"


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

    @property
    def remove_probability(self) -> float:
        """Chance that a hit removes the consulted exemplar: 1/q - 1."""
        return 1.0 / self.q - 1.0

    @property
    def keep_probability(self) -> float:
        """Chance that a hit leaves the model unchanged: 2 - 1/q."""
        return 2.0 - 1.0 / self.q


@dataclass(slots=True)
class Exemplar:
    """A stored input point and the output observed for it at insertion."""

    input: object
    output: object


@dataclass
class Model:
    """Ordered exemplar multiset; order is insertion order."""

    exemplars: list[Exemplar] = field(default_factory=list)
    insertion_counter: int = 0

    @property
    def size(self) -> int:
        return len(self.exemplars)

    @property
    def is_empty(self) -> bool:
        return not self.exemplars

    def append(self, exemplar: Exemplar) -> None:
        self.exemplars.append(exemplar)
        self.insertion_counter += 1

    def remove_at(self, position: int) -> Exemplar:
        if not 0 <= position < len(self.exemplars):
            raise PositionOutOfRangeError(
                f"position {position} not in [0, {len(self.exemplars)})"
            )
        return self.exemplars.pop(position)


@dataclass(slots=True)
class StepOutcome:
    """Full record of one update step."""

    step_index: int
    sampled_index: Optional[int]
    output_distance: float
    hit: bool
    action: Action
    model_size_after: int
    size_delta: int


def nearest_set(x, model: Model, metric: MetricDescriptor,
                tie_tolerance: float = 0.0) -> list[int]:
    """Ascending positions of all exemplars at (tie-band) minimal distance."""
    if model.is_empty:
        raise EmptyModelError("nearest-set query against an empty model")
    return linear_tie_set(
        (ex.input for ex in model.exemplars), x, metric.distance, tie_tolerance
    )


def predict(model: Model, x, metric: MetricDescriptor, config: LearnerConfig,
            rng: RandomStream):
    """Stored output of a uniformly sampled nearest exemplar.

    Randomized: every call draws fresh tie-break randomness from ``rng``.
    """
    if model.is_empty:
        raise EmptyModelError("cannot predict from an empty model")
    candidates = nearest_set(x, model, metric, config.tie_tolerance)
    return model.exemplars[sample_uniform(candidates, rng)].output


def resolve_hit_action(remove_probability: float, rng: RandomStream) -> Action:
    """The post-hit coin: Remove with the given probability (1/q - 1), else Keep."""
    return Action.REMOVE if rng.next_unit() < remove_probability else Action.KEEP


def step(model: Model, x, y_true, input_metric: MetricDescriptor,
         output_metric: MetricDescriptor, config: LearnerConfig,
         rng: RandomStream, index=None, step_index: int = 1) -> StepOutcome:
    """Apply one observation (x, y_true) to the model in place.

    When ``index`` is given it must mirror the model's input points; it is
    queried instead of a linear scan and kept in sync with the mutation.
    An empty model forces an insert (infinite output distance, no hit, no
    randomness consumed).
    """
    if model.is_empty:
        model.append(Exemplar(x, y_true))
        if index is not None:
            index.insert(x)
        return StepOutcome(step_index, None, math.inf, False, Action.INSERT,
                           model.size, +1)

    if index is not None:
        candidates = index.query_nearest_set(x, config.tie_tolerance)
    else:
        candidates = nearest_set(x, model, input_metric, config.tie_tolerance)
    sampled = sample_uniform(candidates, rng)
    d = output_metric.distance(model.exemplars[sampled].output, y_true)

    if d > config.epsilon:
        model.append(Exemplar(x, y_true))
        if index is not None:
            index.insert(x)
        return StepOutcome(step_index, sampled, d, False, Action.INSERT,
                           model.size, +1)

    action = resolve_hit_action(config.remove_probability, rng)
    if action is Action.REMOVE:
        model.remove_at(sampled)
        if index is not None:
            index.remove(sampled)
        return StepOutcome(step_index, sampled, d, True, Action.REMOVE,
                           model.size, -1)
    return StepOutcome(step_index, sampled, d, True, Action.KEEP, model.size, 0)


def run_stream(pairs, config: LearnerConfig, input_metric: MetricDescriptor,
               output_metric: MetricDescriptor, rng: Optional[RandomStream] = None,
               index=None, model: Optional[Model] = None) -> list[StepOutcome]:
    """Materialized trace of a whole stream; the stream must be nonempty."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyStreamError("run_stream needs at least one (point, value) pair")
    if rng is None:
        rng = RandomStream(config.seed, learner_stream_index(0))
    if model is None:
        model = Model()
    return [step(model, x, y, input_metric, output_metric, config, rng,
                 index=index, step_index=k)
            for k, (x, y) in enumerate(pairs, 1)]
