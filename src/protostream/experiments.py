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

The trace CSV format lives here as well: ``TRACE_HEADER``, the writer
process behind theorem_experiment and ``read_trace`` (``cli`` re-exports
both names).  One row per step, floats at 17 significant digits, infinity
as the literal ``inf``; the window columns reflect the series window after
the row's step::

    n,action,model_size,output_distance,hit,window_hit_rate,window_mean_delta

A traced run formats no rows itself.  It forks one writer process
(``os.fork``, so traced runs need POSIX), which owns the trace file, and
sends it one 16-byte record per step down a pipe, ``_BATCH`` steps at a
time: the output distance and the size delta, as two doubles.  A record
the run did not finish is not written.  The writer rebuilds every other
column from the deltas: the model size is their running sum, the action is
``ACTION_BY_DELTA``'s, and only an Insert (+1) misses.  The window columns
are a ``WindowStats`` of the series window, fed the deltas: its hit count
and delta sum divided by the steps it holds, ``min(k, w)`` at step ``k``.
Their text comes from a memo keyed by those integers, filled on first use.
While the window fills each step takes a fresh memo; from step ``w`` on
both columns share one, of at most ``2w + 1`` entries.

A series point needs no window: at every multiple of ``w`` it divides the
hits and the size change since the previous multiple by ``w``, the same
integers and the same division as a window over those ``w`` steps.  The
model size there is ``len(index)``: the run keeps no count of its own.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NoReturn, Optional

from .errors import ConfigError, ProtostreamError, naming_os_error
from .index import INDEX_KINDS, INDEXES, LinearScanIndex
from .learner import ACTION_BY_DELTA, Action, LearnerConfig, step
from .metrics import METRICS, MetricDescriptor, TargetFunction
from .rng import RandomStream, learner_stream_index, unit_bound
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
        delta = step(index, x, y, output_metric, config, rng).size_delta
        if delta < 0:
            removes += 1
            index.insert(*_NEAR)
        elif delta:
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
    the hit coin applies at every step; the removal coin is ``step``'s own
    comparison, ``next_u64() < remove_bound``.  Both coins are integer
    comparisons with ``unit_bound``, the same draws as ``next_unit() < p``.
    ``removal_probability`` replaces the coin's 1/q - 1, to check that a
    wrong coin fails the identity.
    """
    if not 0.0 <= hit_probability <= 1.0:
        raise ConfigError(f"hit probability must lie in [0, 1], got {hit_probability}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    config = LearnerConfig(epsilon=1.0, q=q, seed=seed)
    hit_bound = unit_bound(hit_probability)
    remove_bound = (config.remove_bound if removal_probability is None
                    else unit_bound(removal_probability))
    next_u64 = RandomStream(seed, learner_stream_index(0)).next_u64
    delta_total = 0
    for _ in range(steps):
        if next_u64() < hit_bound:
            if next_u64() < remove_bound:
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
    run's writer holds a window of ``series_window`` steps.  With
    ``trace_path`` the trace CSV is written there by a forked writer process
    (POSIX only) while the run steps; the file is opened only once
    ``generate_stream`` has returned, so a stream that cannot be generated
    leaves no file behind.  The run returns, or raises, only once the writer
    has written every completed step it was sent and exited; a writer's
    OSError is raised here in its place.
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
    # Leaving the block hands the writer every completed step and reaps it,
    # even when a step raises.
    trace = nullcontext()
    if trace_path:
        with naming_os_error("cannot write trace file"):
            out = open(trace_path, "w", encoding="utf-8", newline="")
        trace = _TraceWriter(out, series_window)
    with trace as writer:
        if writer:
            record = writer.records.append
            batch = _BATCH
        for k, x in enumerate(points, 1):
            outcome = step(index, x, evaluate(x), output_metric, config, rng)
            delta = outcome.size_delta
            hits += delta != 1
            if k == cut:
                hits_at_cut, size_at_cut = hits, len(index)
            if writer:
                record(outcome.output_distance)
                record(delta)
                if k % batch == 0:
                    writer.send()
            if k % series_window == 0:
                size = len(index)
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


# Steps per message from a traced run to its writer process.
_BATCH = 4096


class _TraceWriter:
    """A traced run's end of its forked trace writer.

    The run appends each step's record to ``records``: its output distance,
    then its size delta.  ``send`` empties ``records`` and writes their bytes
    down a pipe, whose capacity bounds how far the run gets ahead.  Leaving
    the ``with`` block sends the rest, closes the pipe, reaps the writer and
    raises the writer's own OSError if it failed.
    """

    def __init__(self, out, series_window: int):
        from array import array  # here: an untraced run never loads it

        self.records = array("d")
        # This process writes nothing to ``out``; the writer owns it.
        with out, naming_os_error("cannot start the trace writer"):
            fds = []
            try:
                fds += os.pipe()
                fds += os.pipe()
                run_cpu = _current_cpu()
                pid = os.fork()
            except BaseException:
                for fd in fds:
                    os.close(fd)
                raise
            source, self._pipe, self._errors, error_sink = fds
            if pid == 0:
                _writer_process(source, error_sink, (self._pipe, self._errors),
                                out, series_window, run_cpu)
        os.close(source)
        os.close(error_sink)
        self._pid = pid

    def __enter__(self) -> "_TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self.records:
                self.send()
        finally:
            os.close(self._pipe)
            self._reap()

    def send(self) -> None:
        # Emptied before the write: after a send cut short, nothing follows
        # its partial bytes down the pipe.
        message = memoryview(self.records.tobytes())
        del self.records[:]
        try:
            while message:
                message = message[os.write(self._pipe, message):]
        except BrokenPipeError as exc:  # the writer is gone: its own error says why
            self._reap()
            raise OSError(f"the trace writer stopped reading: {exc}") from None

    def _reap(self) -> None:
        """Wait for the writer once; raise its error if it failed."""
        pid, self._pid = self._pid, None
        if pid is None:
            return
        _, status = os.waitpid(pid, 0)
        with open(self._errors, "rb") as errors:
            message = errors.read().decode()
        if message:
            raise OSError(f"the trace writer failed: {message}")
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise OSError(f"the trace writer died (exit code {code})")


def _current_cpu() -> Optional[int]:
    """The CPU this process runs on, from Linux's ``/proc``; else None."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _writer_process(source: int, error_sink: int, parent_fds, out,
                    series_window: int, run_cpu: Optional[int]) -> NoReturn:
    """The forked trace writer: writes every row the run sends, then exits.

    It leaves only through ``os._exit``, so it never returns into the run's
    stack or flushes the stdio it inherited.  It ignores SIGINT: a Ctrl-C
    reaches the run too, which sends its completed steps and closes the pipe,
    and the writer writes them all.  An OSError goes back to the run as its
    text on ``error_sink``.
    """
    code = 1
    try:
        import signal  # here: a run that is not traced never needs it

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A woken pipe reader tends to stay on its waker's CPU, so left alone
        # the writer would share the run's CPU: keep it on the others.
        if hasattr(os, "sched_setaffinity"):
            others = os.sched_getaffinity(0) - {run_cpu}
            if others:
                os.sched_setaffinity(0, others)
        for fd in parent_fds:
            os.close(fd)
        with open(source, "rb") as messages, out:
            out.write(TRACE_HEADER + "\n")
            for text in _trace_text(messages, series_window):
                out.write(text)
        code = 0
    except OSError as exc:
        os.write(error_sink, str(exc).encode())
    finally:
        os._exit(code)


def _trace_text(messages, series_window: int):
    """The rows of the run's step records, as one string per read.

    Each read takes ``_BATCH`` records of 16 bytes; only whole records are
    written.  The stream can end in part of one (a step interrupted between
    its two appends, or a ``send`` cut short), which is dropped.
    """
    # The window columns divide the window's hit count and delta sum by the
    # steps it holds, min(k, w) at step k: while it fills each step takes a
    # fresh memo, and from k = w on both columns share one of at most
    # 2w + 1 entries (hit counts 0..w, delta sums -w..w).
    # The action and hit columns by size delta: Insert (+1) is the one miss.
    action_text = {delta: action.value for delta, action in ACTION_BY_DELTA.items()}
    hit_text = {+1: "0", -1: "1", 0: "1"}
    window = WindowStats(series_window)
    update = window.update
    k = size = 0
    while chunk := messages.read(16 * _BATCH):
        rows = []
        append = rows.append
        records = memoryview(chunk)[:len(chunk) // 16 * 16].cast("d")
        for distance, delta in zip(records[::2], map(int, records[1::2])):
            k += 1
            size += delta
            update(delta)
            if k <= series_window:
                text = _RatioText(k)
            # format_float inlined: 17 significant digits.
            append(f"{k},{action_text[delta]},{size},{distance:.17g},{hit_text[delta]},"
                   f"{text[window.hits]},{text[window.delta_sum]}\n")
        yield "".join(rows)


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
