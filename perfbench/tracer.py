"""Per-layer tracing for one benchmark child, installed from outside ``src/``.

Every public entry point of a layer is replaced, where its caller looks it
up, by a wrapper that times the call on a stack of nested timers.  A span's
busy time is its inclusive duration; its self time is that duration minus
the part covered by the wrapped calls made inside it.  Everything is
aggregated in memory; per-call durations are kept only for learner steps,
index queries and index removals, because their percentiles are reported.
"""

from __future__ import annotations

import dataclasses
import math
import time
from array import array

# Index query latency is reported per live-size bucket, as len(index) at
# query time; sizes below 16 are warm-up and are not reported apart.
QUERY_BUCKETS = ((16, 63, "n16-63"), (64, 255, "n64-255"),
                 (256, 1023, "n256-1023"), (1024, math.inf, "n1024-"))


class Span:
    """Aggregate of every call made through one or more wrappers."""

    __slots__ = ("count", "busy", "self_time", "samples")

    def __init__(self, keep_samples: bool):
        self.count = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.samples = array("d") if keep_samples else None


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Owns the span table and the open-span stack of one process."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        # One child-time accumulator per open span; the bottom entry is the
        # process itself, so top-level spans have somewhere to report to.
        self._stack = [0.0]
        self.actions = {"Insert": 0, "Remove": 0, "Keep": 0}
        self.query_evals = 0
        self.query_live = 0
        self.query_buckets = {label: array("d") for _, _, label in QUERY_BUCKETS}
        self.stream_points = 0

    def span(self, name: str, keep_samples: bool = False) -> Span:
        if name not in self.spans:
            self.spans[name] = Span(keep_samples)
        return self.spans[name]

    def timed(self, name: str, fn, keep_samples: bool = False,
              before=None, after=None):
        """Wrap ``fn`` so each call is recorded under span ``name``.

        ``before(args)`` and ``after(args, result, duration, token)``, where
        ``token`` is what ``before`` returned, run outside the timed interval.
        """
        span = self.span(name, keep_samples)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                span.count += 1
                span.busy += dt
                span.self_time += dt - child
                if span.samples is not None:
                    span.samples.append(dt)
            if after is not None:
                after(args, result, dt, token)
            return result

        return wrapper

    # -- layer-specific wrappers ---------------------------------------

    def query(self, fn):
        """Index query: also counts input-metric evaluations and live size."""
        dist = self.span("metrics.dist.input")
        buckets = [(lo, hi, self.query_buckets[label]) for lo, hi, label in QUERY_BUCKETS]

        def before(args):
            return len(args[0]), dist.count

        def after(_args, _result, dt, token):
            live, evals = token
            self.query_evals += dist.count - evals
            self.query_live += live
            for lo, hi, samples in buckets:
                if lo <= live <= hi:
                    samples.append(dt)
                    break

        return self.timed("index.query", fn, keep_samples=True, before=before, after=after)

    def step(self, fn):
        def count_action(_args, outcome, _dt, _token):
            self.actions[outcome.action.value] += 1
        return self.timed("learner.step", fn, keep_samples=True, after=count_action)

    def stream(self, fn):
        def count_points(_args, points, _dt, _token):
            self.stream_points += len(points)
        return self.timed("streams.generate", fn, after=count_points)

    # -- installation ----------------------------------------------------

    def install(self, input_metric: str, target: str) -> None:
        """Patch the imported ``protostream`` package in place.

        Metrics and targets are swapped in their registries, so this must
        run before any index or run is built from them.
        """
        from protostream import cli, experiments, index, learner, metrics, rng, stats

        step = self.step(learner.step)
        learner.step = step
        experiments.step = step

        generate = self.stream(cli.generate_stream)
        cli.generate_stream = generate
        experiments.generate_stream = generate

        for cls in (index.LinearScanIndex, index.VpTreeIndex):
            cls.query_nearest_set = self.query(cls.query_nearest_set)
            cls.insert = self.timed("index.insert", cls.insert)
            cls.remove = self.timed("index.remove", cls.remove, keep_samples=True)

        stats.WindowStats.update = self.timed("stats.update", stats.WindowStats.update)
        rng.RandomStream.next_u64 = self.timed("rng.next_u64", rng.RandomStream.next_u64)

        target_fn = metrics.TARGETS[target]
        roles = {input_metric: "input", target_fn.output_metric: "output"}
        for name, role in roles.items():
            desc = metrics.METRICS[name]
            metrics.METRICS[name] = dataclasses.replace(
                desc, distance=self.timed(f"metrics.dist.{role}", desc.distance))
        metrics.TARGETS[target] = dataclasses.replace(
            target_fn, evaluate=self.timed("metrics.target", target_fn.evaluate))

        cli.conditional_branch_experiment = self.timed(
            "experiments.branch", cli.conditional_branch_experiment)
        cli.forced_miss_experiment = self.timed(
            "experiments.branch", cli.forced_miss_experiment)
        cli.growth_identity_experiment = self.timed(
            "experiments.growth", cli.growth_identity_experiment)
        theorem = self.timed("experiments.theorem", experiments.theorem_experiment)
        cli.theorem_experiment = theorem
        experiments.theorem_experiment = theorem

        cli.cmd_run = self.timed("cli.cmd", cli.cmd_run)
        cli.cmd_verify = self.timed("cli.cmd", cli.cmd_verify)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric this process measured, as (value, unit)."""
        span = self.span
        out: dict[str, tuple[float, str]] = {}

        def us(seconds: float) -> float:
            return seconds * 1e6

        query = span("index.query", True)
        q_sorted = sorted(query.samples)
        out["index.query_busy_s"] = (query.busy, "s")
        out["index.query_p50_us"] = (us(percentile(q_sorted, 0.50)), "us")
        out["index.query_p99_us"] = (us(percentile(q_sorted, 0.99)), "us")
        out["index.dist_evals_per_query"] = (
            self.query_evals / query.count if query.count else 0.0, "count")
        out["index.prune_ratio"] = (
            self.query_evals / self.query_live if self.query_live else 0.0, "ratio")
        out["index.live_mean"] = (
            self.query_live / query.count if query.count else 0.0, "count")
        for _, _, label in QUERY_BUCKETS:
            samples = sorted(self.query_buckets[label])
            out[f"index.query_p50_us.{label}"] = (us(percentile(samples, 0.50)), "us")
        insert = span("index.insert")
        remove = span("index.remove", True)
        out["index.insert_busy_s"] = (insert.busy, "s")
        out["index.remove_busy_s"] = (remove.busy, "s")
        out["index.remove_p99_us"] = (us(percentile(sorted(remove.samples), 0.99)), "us")
        out["index.self_s"] = (query.self_time + insert.self_time + remove.self_time, "s")

        for role in ("input", "output"):
            dist = span(f"metrics.dist.{role}")
            out[f"metrics.dist_calls.{role}"] = (dist.count, "count")
            out[f"metrics.dist_busy_s.{role}"] = (dist.busy, "s")
        target = span("metrics.target")
        out["metrics.target_evals"] = (target.count, "count")
        out["metrics.target_busy_s"] = (target.busy, "s")

        out["streams.points"] = (self.stream_points, "count")
        out["streams.busy_s"] = (span("streams.generate").busy, "s")

        out["cli.self_s"] = (span("cli.cmd").self_time, "s")

        draws = span("rng.next_u64")
        out["rng.draws"] = (draws.count, "count")
        out["rng.busy_s"] = (draws.busy, "s")

        step = span("learner.step", True)
        s_sorted = sorted(step.samples)
        out["learner.steps"] = (step.count, "count")
        out["learner.step_self_s"] = (step.self_time, "s")
        out["learner.step_p50_us"] = (us(percentile(s_sorted, 0.50)), "us")
        out["learner.step_p99_us"] = (us(percentile(s_sorted, 0.99)), "us")
        for action, key in (("Insert", "insert"), ("Remove", "remove"), ("Keep", "keep")):
            frac = self.actions[action] / step.count if step.count else 0.0
            out[f"learner.{key}_frac"] = (frac, "ratio")

        update = span("stats.update")
        out["stats.updates"] = (update.count, "count")
        out["stats.busy_s"] = (update.busy, "s")

        names = ("experiments.branch", "experiments.growth", "experiments.theorem")
        out["experiments.self_s"] = (sum(span(n).self_time for n in names), "s")
        for n in names:
            out[f"{n}_s"] = (span(n).busy, "s")
        return out
