"""Monte Carlo drivers for the update rule's quantitative behavior.

Three layers of evidence, from isolated to end-to-end:

* conditional_branch_experiment / forced_miss_experiment pin the per-step
  branch frequencies on a fixed two-exemplar model (a LinearScanIndex).
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
from .index import INDEX_KINDS, INDEXES, LinearScanIndex
from .learner import Action, LearnerConfig, resolve_hit_action, step
from .metrics import METRICS, MetricDescriptor, TargetFunction
from .rng import RandomStream, learner_stream_index
from .stats import RunReport, SeriesPoint, WindowStats
from .streams import generate_stream

TRACE_HEADER = "n,action,model_size,output_distance,hit,window_hit_rate,window_mean_delta"


def format_float(x: float) -> str:
    """17 significant digits: every float round-trips through the text."""
    return f"{x:.17g}"


# The fixed model of the branch experiments; queries sit next to the first.
_NEAR = ((0.0,), 0.0)
_FAR = ((9.0,), 4.0)


def _two_exemplar_index() -> LinearScanIndex:
    index = LinearScanIndex(METRICS["euclidean"])
    index.insert(*_NEAR)
    index.insert(*_FAR)
    return index


def conditional_branch_experiment(q: float, trials: int, seed: int) -> tuple[float, float]:
    """Empirical (remove, keep) frequencies over forced hit steps.

    Every trial queries next to the first exemplar with a matching output,
    so the hit branch runs unconditionally; the consulted exemplar is
    inserted again after a removal to keep the setup fixed (its position
    does not matter: the nearest set is always that one exemplar).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    config = LearnerConfig(epsilon=0.5, q=q, seed=seed)
    output_metric = METRICS["absolute_difference"]
    index = _two_exemplar_index()
    rng = RandomStream(seed, learner_stream_index(0))
    x, y = (0.1,), 0.0
    removes = 0
    for k in range(1, trials + 1):
        outcome = step(index, x, y, output_metric, config, rng, k)
        if outcome.action is Action.REMOVE:
            removes += 1
            index.insert(*_NEAR)
    return removes / trials, (trials - removes) / trials


def forced_miss_experiment(trials: int, seed: int) -> float:
    """Fraction of forced-miss steps that insert (must be exactly 1.0)."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    config = LearnerConfig(epsilon=0.5, q=0.75, seed=seed)
    output_metric = METRICS["absolute_difference"]
    index = _two_exemplar_index()
    rng = RandomStream(seed, learner_stream_index(0))
    x, y = (0.1,), 100.0  # far beyond epsilon from both stored outputs
    inserts = 0
    for k in range(1, trials + 1):
        outcome = step(index, x, y, output_metric, config, rng, k)
        if outcome.action is Action.INSERT:
            inserts += 1
            index.remove(len(index) - 1)  # keep the setup fixed
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
    With ``trace_path`` the trace CSV is written there as the run steps, in
    chunks of ``series_window`` rows; the file is opened only once
    ``generate_stream`` has returned, so a stream that cannot be generated
    leaves no file behind.
    """
    if index_kind not in INDEXES:
        raise ConfigError(f"unknown index kind {index_kind!r}; expected one of {INDEX_KINDS}")
    if output_metric is None:
        output_metric = METRICS[target.output_metric]
    points = generate_stream(generator, steps)
    rng = RandomStream(config.seed, learner_stream_index(run_index))
    # The index holds the model; it starts empty and fills through the steps.
    index = INDEXES[index_kind](input_metric)

    series_stats = WindowStats(series_window)
    tail = series_stats if tail_window == series_window else WindowStats(tail_window)
    series: list[SeriesPoint] = []
    evaluate = target.evaluate
    rows: list[str] = []  # trace rows not yet written, at most series_window
    out = open(trace_path, "w", encoding="utf-8", newline="") if trace_path else None
    try:
        if out:
            out.write(TRACE_HEADER + "\n")
        for k, x in enumerate(points, 1):
            outcome = step(index, x, evaluate(x), output_metric, config, rng, k)
            series_stats.update(outcome)
            if tail is not series_stats:
                tail.update(outcome)
            if out:
                # format_float inlined: 17 significant digits.
                rows.append(f"{k},{outcome.action.value},{outcome.model_size_after},"
                            f"{outcome.output_distance:.17g},{outcome.hit:d},"
                            f"{series_stats.hit_rate:.17g},"
                            f"{series_stats.mean_size_delta:.17g}\n")
            if k % series_window == 0:
                series.append(SeriesPoint(k, outcome.model_size_after,
                                          series_stats.hit_rate,
                                          series_stats.mean_size_delta))
                if out:
                    out.write("".join(rows))
                    rows.clear()
    finally:
        if out:
            # Every completed step reaches the file, even when a step
            # raised; ``with`` closes it even when this write fails.
            with out:
                out.write("".join(rows))
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
        final_size=len(index),
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
            raise ProtostreamError(f"{path}:1: unexpected trace header: {header!r}")
        for lineno, line in enumerate(fh, 2):
            try:
                n, action, size, dist, hit, hr, md = line.rstrip("\n").split(",")
                rows.append(TraceRow(int(n), action, int(size), float(dist),
                                     bool(int(hit)), float(hr), float(md)))
            except ValueError:
                raise ProtostreamError(f"{path}:{lineno}: malformed trace row "
                                       f"{line.rstrip()!r}; expected {TRACE_HEADER}") from None
    return rows
