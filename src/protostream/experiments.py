"""Monte Carlo drivers for the update rule's quantitative behavior.

Three layers of evidence, from isolated to end-to-end:

* conditional_branch_experiment / forced_miss_experiment pin the per-step
  branch frequencies through one fixed-model loop, which steps a
  two-exemplar LinearScanIndex and puts it back after every step.
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

The writer has one path.  ``action`` and ``hit`` come from two tables keyed
by the step's size delta.  While the series window fills (step ``k < w``),
the window columns come from the run's own counts over every step so far,
``hits / k`` and ``model_size / k``.  A ``WindowStats(w)``, built and fed
at every step of a traced run only, holds the last ``w`` steps; from step
``w`` on the columns are its ``hits / w`` and ``delta_sum / w``, and their
text comes from one memo keyed by the integer count, filled on first use:
the same division and format, so the same bytes, from at most ``2w + 1``
entries.

A series point needs no window: at every multiple of ``w`` it divides the
hits and the size change since the previous multiple by ``w``, the same
integers and the same division as a window over those ``w`` steps.
"""

from __future__ import annotations

from contextlib import nullcontext
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
_ACTIONS = frozenset(action.value for action in Action)

# theorem_experiment's defaults, which the command line's keys share.
TAIL_WINDOW = 50_000
SERIES_WINDOW = 1000
STABILIZATION_DELTA = 0.01


def format_float(x: float) -> str:
    """17 significant digits: every float round-trips through the text."""
    return f"{x:.17g}"


class _RatioText(dict):
    """``format_float(count / n)`` by integer ``count``, each filled on first use."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, count: int) -> str:
        text = self[count] = f"{count / self.n:.17g}"
        return text


# The fixed model of the branch experiments; queries sit next to the first.
_NEAR = ((0.0,), 0.0)
_FAR = ((9.0,), 4.0)


def _fixed_model_counts(q: float, y: float, trials: int, seed: int) -> tuple[int, int]:
    """(removes, inserts) over ``trials`` steps at x = 0.1 with output ``y``.

    Every step consults ``_NEAR``, the whole nearest set, and the model is
    put back after it: ``_NEAR`` goes in again after a Remove (its position
    does not matter), the new last point comes out after an Insert.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    config = LearnerConfig(epsilon=0.5, q=q, seed=seed)
    output_metric = METRICS["absolute_difference"]
    index = LinearScanIndex(METRICS["euclidean"])
    index.insert(*_NEAR)
    index.insert(*_FAR)
    rng = RandomStream(seed, learner_stream_index(0))
    x = (0.1,)
    removes = inserts = 0
    for _ in range(trials):
        action = step(index, x, y, output_metric, config, rng).action
        if action is Action.REMOVE:
            removes += 1
            index.insert(*_NEAR)
        elif action is Action.INSERT:
            inserts += 1
            index.remove(len(index) - 1)
    return removes, inserts


def conditional_branch_experiment(q: float, trials: int, seed: int) -> float:
    """Empirical removal frequency over forced hit steps (the rest keep).

    The fixed-model loop's output matches ``_NEAR``'s, so every step hits.
    """
    removes, _ = _fixed_model_counts(q, 0.0, trials, seed)
    return removes / trials


def forced_miss_experiment(trials: int, seed: int) -> float:
    """Fraction of forced-miss steps that insert (must be exactly 1.0).

    The fixed-model loop's output is far beyond epsilon from both exemplars'.
    """
    _, inserts = _fixed_model_counts(0.75, 100.0, trials, seed)
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
                       tail_window: int = TAIL_WINDOW, series_window: int = SERIES_WINDOW,
                       stabilization_delta: float = STABILIZATION_DELTA,
                       index_kind: str = "vptree", run_index: int = 0,
                       trace_path: Optional[str] = None) -> RunReport:
    """Full learner run; reports tail estimators and the stabilization flag.

    ``run_index`` selects the learner substream ``learner_stream_index(run_index)``
    (the generator carries its own).  Stream points are drawn as the run
    steps, so memory follows the live model, not ``steps``; only a traced
    run holds a window of ``series_window`` steps.  With ``trace_path`` the
    trace CSV is written there as the run steps; the file is opened only
    once ``generate_stream`` has returned, so a stream that cannot be
    generated leaves no file behind.
    """
    if index_kind not in INDEXES:
        raise ConfigError(f"unknown index kind {index_kind!r}; expected one of {INDEX_KINDS}")
    if tail_window < 1 or series_window < 1:
        raise ConfigError("window size must be at least 1, got "
                          f"tail_window={tail_window}, series_window={series_window}")
    output_metric = METRICS[target.output_metric]
    points = generate_stream(generator, steps)
    rng = RandomStream(config.seed, learner_stream_index(run_index))
    # The index holds the model; it starts empty and fills through the steps.
    index = INDEXES[index_kind](input_metric)

    # The tail is the steps after step cut: its counts are the final ones
    # less those at cut.  A series point's are those at the previous
    # multiple of series_window.
    cut = max(steps - tail_window, 0)
    hits = hits_at_cut = size_at_cut = hits_then = size_then = 0
    series: list[SeriesPoint] = []
    evaluate = target.evaluate
    # Closing flushes every completed row, even when a step raises.
    trace = open(trace_path, "w", encoding="utf-8", newline="") if trace_path else nullcontext()
    with trace as out:
        if out:
            out.write(TRACE_HEADER + "\n")
            window = WindowStats(series_window)
            # A full window divides its hit count (0..w) and its delta sum
            # (-w..w) by w, so both columns share one text memo of at most
            # 2w + 1 entries.
            window_text = _RatioText(series_window)
            # The action and hit columns by size delta: Insert (+1) is the
            # one miss, Remove (-1) and Keep (0) are hits.
            action_text = {+1: Action.INSERT.value, -1: Action.REMOVE.value, 0: Action.KEEP.value}
            hit_text = {+1: "0", -1: "1", 0: "1"}
        for k, x in enumerate(points, 1):
            outcome = step(index, x, evaluate(x), output_metric, config, rng)
            hits += outcome.hit
            if k == cut:
                hits_at_cut, size_at_cut = hits, outcome.model_size_after
            if out:
                window.update(outcome)
                # format_float inlined: 17 significant digits.
                if k < series_window:
                    hit_rate = f"{hits / k:.17g}"
                    mean_delta = f"{outcome.model_size_after / k:.17g}"
                else:
                    hit_rate = window_text[window.hits]
                    mean_delta = window_text[window.delta_sum]
                delta = outcome.size_delta
                out.write(f"{k},{action_text[delta]},{outcome.model_size_after},"
                          f"{outcome.output_distance:.17g},{hit_text[delta]},"
                          f"{hit_rate},{mean_delta}\n")
            if k % series_window == 0:
                size = outcome.model_size_after
                series.append(SeriesPoint(k, size, (hits - hits_then) / series_window,
                                          (size - size_then) / series_window))
                hits_then, size_then = hits, size
    n = steps - cut  # a WindowStats(tail_window) divides the same integers
    tail_mean_delta = (len(index) - size_at_cut) / n
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
        tail_hit_rate=(hits - hits_at_cut) / n,
        tail_mean_delta=tail_mean_delta,
        stabilization_delta=stabilization_delta,
        stabilized=abs(tail_mean_delta) <= stabilization_delta,
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
    # A byte that is not UTF-8 becomes a lone surrogate, which no field accepts.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ProtostreamError(f"{path}:1: unexpected trace header: {header!r}")
        for lineno, line in enumerate(fh, 2):
            try:
                n, action, size, dist, hit, hr, md = line.rstrip("\n").split(",")
                if action not in _ACTIONS or hit not in ("0", "1"):
                    raise ValueError(action, hit)
                rows.append(TraceRow(int(n), action, int(size), float(dist),
                                     hit == "1", float(hr), float(md)))
            except ValueError:
                raise ProtostreamError(f"{path}:{lineno}: malformed trace row "
                                       f"{line.rstrip()!r}; expected {TRACE_HEADER}") from None
    return rows
