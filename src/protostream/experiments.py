"""Monte Carlo drivers for the update rule's quantitative behavior.

Three layers of evidence, from isolated to end-to-end:

* conditional_branch_experiment / forced_miss_experiment pin the per-step
  branch frequencies on a fixed two-exemplar model.
* growth_identity_experiment checks mean size growth of 1 - p/q against a
  Bernoulli(p) hit stub, bypassing all geometry.
* theorem_experiment runs the full learner on a synthetic target and
  reports the tail hit rate together with a stabilization flag; the
  prediction hit_rate ~= q is only meaningful when the flag is set.  It is
  the package's one driver of learner runs: ``protostream run`` and
  ``sweep`` call it too, with a trace path.

The trace CSV format lives here as well: ``TRACE_HEADER``, the writer in
theorem_experiment and ``read_trace`` (``cli`` re-exports both names).
One row per step, floats at 17 significant digits, infinity as the
literal ``inf``; the window columns reflect the series window after the
row's step::

    n,action,model_size,output_distance,hit,window_hit_rate,window_mean_delta
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, ProtostreamError
from .index import INDEX_KINDS, INDEXES
from .learner import (
    Action,
    Exemplar,
    LearnerConfig,
    Model,
    resolve_hit_action,
    step,
)
from .metrics import METRICS, MetricDescriptor, TargetFunction
from .rng import RandomStream, learner_stream_index
from .stats import RunReport, SeriesPoint, WindowStats
from .streams import generate_stream

TRACE_HEADER = "n,action,model_size,output_distance,hit,window_hit_rate,window_mean_delta"


def format_float(x: float) -> str:
    """17 significant digits: every float round-trips through the text."""
    return f"{x:.17g}"


def _two_exemplar_model() -> Model:
    model = Model()
    model.append(Exemplar((0.0,), 0.0))
    model.append(Exemplar((9.0,), 4.0))
    return model


def conditional_branch_experiment(q: float, trials: int, seed: int) -> tuple[float, float]:
    """Empirical (remove, keep) frequencies over forced hit steps.

    Every trial queries next to the first exemplar with a matching output,
    so the hit branch runs unconditionally; the model is restored after a
    removal to keep the setup fixed.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    config = LearnerConfig(epsilon=0.5, q=q, seed=seed)
    input_metric = METRICS["euclidean"]
    output_metric = METRICS["absolute_difference"]
    model = _two_exemplar_model()
    consulted = model.exemplars[0]
    rng = RandomStream(seed, learner_stream_index(0))
    x, y = (0.1,), 0.0
    removes = 0
    for k in range(1, trials + 1):
        outcome = step(model, x, y, input_metric, output_metric, config, rng,
                       step_index=k)
        if outcome.action is Action.REMOVE:
            removes += 1
            model.exemplars.insert(outcome.sampled_index, consulted)
    return removes / trials, (trials - removes) / trials


def forced_miss_experiment(trials: int, seed: int) -> float:
    """Fraction of forced-miss steps that insert (must be exactly 1.0)."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    config = LearnerConfig(epsilon=0.5, q=0.75, seed=seed)
    input_metric = METRICS["euclidean"]
    output_metric = METRICS["absolute_difference"]
    model = _two_exemplar_model()
    rng = RandomStream(seed, learner_stream_index(0))
    x, y = (0.1,), 100.0  # far beyond epsilon from both stored outputs
    inserts = 0
    for k in range(1, trials + 1):
        outcome = step(model, x, y, input_metric, output_metric, config, rng,
                       step_index=k)
        if outcome.action is Action.INSERT:
            inserts += 1
            model.exemplars.pop()  # keep the setup fixed
    return inserts / trials


def growth_identity_experiment(hit_probability: float, q: float, steps: int,
                               seed: int,
                               removal_probability: Optional[float] = None) -> float:
    """Mean size delta when hits arrive as independent Bernoulli draws.

    Converges to 1 - hit_probability / q.  The model is abstracted to a
    size counter that starts above ``steps`` so it can never empty and
    the hit coin applies at every step; the removal coin is the real one.
    ``removal_probability`` replaces the coin's 1/q - 1, to check that a
    wrong coin fails the identity.
    """
    if not 0.0 <= hit_probability <= 1.0:
        raise ConfigError(f"hit probability must lie in [0, 1], got {hit_probability}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    config = LearnerConfig(epsilon=1.0, q=q, seed=seed)
    if removal_probability is None:
        removal_probability = config.remove_probability
    rng = RandomStream(seed, learner_stream_index(0))
    next_unit = rng.next_unit
    delta_total = 0
    for _ in range(steps):
        if next_unit() < hit_probability:
            if resolve_hit_action(removal_probability, rng) is Action.REMOVE:
                delta_total -= 1
        else:
            delta_total += 1
    return delta_total / steps


def theorem_experiment(target: TargetFunction, input_metric: MetricDescriptor,
                       config: LearnerConfig, generator, steps: int,
                       output_metric: Optional[MetricDescriptor] = None,
                       tail_window: int = 50_000, series_window: int = 1000,
                       stabilization_delta: float = 0.01,
                       index_kind: str = "vptree", run_index: int = 0,
                       trace_path: Optional[str] = None) -> RunReport:
    """Full learner run; reports tail estimators and the stabilization flag.

    ``run_index`` selects the learner substream ``learner_stream_index(run_index)``
    (the generator carries its own).  Stream points are drawn as the run
    steps, so memory follows the live model and the windows, not ``steps``.
    With ``trace_path`` the trace CSV is written there as the run steps; the
    file is opened only once ``generate_stream`` has returned, so a stream
    that cannot be generated leaves no file behind.
    """
    if index_kind not in INDEXES:
        raise ConfigError(f"unknown index kind {index_kind!r}; expected one of {INDEX_KINDS}")
    if output_metric is None:
        output_metric = METRICS[target.output_metric]
    points = generate_stream(generator, steps)
    rng = RandomStream(config.seed, learner_stream_index(run_index))
    model = Model()
    # The index starts empty and is filled through the steps themselves.
    index = INDEXES[index_kind](input_metric)

    series_stats = WindowStats(series_window)
    tail = series_stats if tail_window == series_window else WindowStats(tail_window)
    series: list[SeriesPoint] = []
    evaluate = target.evaluate
    out = open(trace_path, "w", encoding="utf-8", newline="") if trace_path else None
    try:
        if out:
            out.write(TRACE_HEADER + "\n")
        for k, x in enumerate(points, 1):
            outcome = step(model, x, evaluate(x), input_metric, output_metric,
                           config, rng, index=index, step_index=k)
            series_stats.update(outcome)
            if tail is not series_stats:
                tail.update(outcome)
            if out:
                out.write(f"{k},{outcome.action.value},{outcome.model_size_after},"
                          f"{format_float(outcome.output_distance)},{int(outcome.hit)},"
                          f"{format_float(series_stats.hit_rate)},"
                          f"{format_float(series_stats.mean_size_delta)}\n")
            if k % series_window == 0:
                series.append(SeriesPoint(k, outcome.model_size_after,
                                          series_stats.hit_rate,
                                          series_stats.mean_size_delta))
    finally:
        if out:
            out.close()
    stabilized = abs(tail.mean_size_delta) <= stabilization_delta
    return RunReport(
        config={
            "target": target.name,
            "metric": input_metric.name,
            "output_metric": output_metric.name,
            "epsilon": config.epsilon,
            "q": config.q,
            "tie_tolerance": config.tie_tolerance,
            "seed": config.seed,
            "steps": steps,
            "index": index_kind,
        },
        final_step=steps,
        final_size=model.size,
        tail_window=tail_window,
        tail_hit_rate=tail.hit_rate,
        tail_mean_delta=tail.mean_size_delta,
        stabilization_delta=stabilization_delta,
        stabilized=stabilized,
        series=series,
    )


@dataclass(slots=True)
class TraceRow:
    """One parsed trace line; field meanings match the CSV header."""

    n: int
    action: str
    model_size: int
    output_distance: float
    hit: bool
    window_hit_rate: float
    window_mean_delta: float


def read_trace(path: str) -> list[TraceRow]:
    """Parse a trace CSV back into records (round-trips theorem_experiment output)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ProtostreamError(f"unexpected trace header: {header!r}")
        for line in fh:
            n, action, size, dist, hit, hr, md = line.rstrip("\n").split(",")
            rows.append(TraceRow(int(n), action, int(size), float(dist),
                                 bool(int(hit)), float(hr), float(md)))
    return rows
