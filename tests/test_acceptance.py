"""Acceptance gate: seven full-scale checks, one reported line each.

Tolerances here are fixed. Statistical checks run at the scales the
tolerances were sized for, so shrinking any trial count invalidates the
bound printed next to it.
"""

import math
import subprocess
import sys
import time
from itertools import product

from protostream.experiments import (
    conditional_branch_experiment,
    forced_miss_experiment,
    growth_identity_experiment,
    theorem_experiment,
)
from protostream.index import LinearScanIndex, VpTreeIndex
from protostream.learner import LearnerConfig
from protostream.metrics import METRICS, TARGETS
from protostream.rng import RandomStream, points_stream_index
from protostream.streams import IidUniform

from handles import live_handles, nearest_outputs

BRANCH_QS = (0.5, 0.6, 0.75, 0.9)
BRANCH_TRIALS = 100_000
BRANCH_TOL = 0.01
HIT_DELTA_TOL = 0.015
BRANCH_BUDGET_S = 5.0

MISS_TRIALS = 10_000
MISS_SEEDS = (0, 1, 2)
MISS_BUDGET_S = 1.0

GROWTH_PS = (0.0, 0.25, 0.5, 0.75, 1.0)
GROWTH_QS = (0.5, 0.75, 0.9)
GROWTH_STEPS = 100_000
GROWTH_TOL = 0.01
GROWTH_BUDGET_S = 30.0

THEOREM_QS = (0.5, 0.75, 0.9)
THEOREM_STEPS = 200_000
THEOREM_TAIL = 50_000
THEOREM_DELTA_TOL = 0.01
THEOREM_HIT_TOL = 0.03
THEOREM_BUDGET_S = 60.0

INDEX_OPS = 10_000
INDEX_BUDGET_S = 10.0

AXIOM_SAMPLES = 10_000
AXIOM_ULPS = 4


def _announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_conditional_branch(capsys):
    failures = []
    t0 = time.perf_counter()
    for i, q in enumerate(BRANCH_QS):
        remove_freq, keep_freq = conditional_branch_experiment(
            q, BRANCH_TRIALS, seed=i)
        expected = 1.0 / q - 1.0
        hit_delta = -remove_freq
        if q == 0.5:
            if remove_freq != 1.0:
                failures.append(f"q=0.5 remove_freq={remove_freq} not exact")
            if hit_delta != -1.0:
                failures.append(f"q=0.5 hit_delta={hit_delta} not exact")
        else:
            if abs(remove_freq - expected) > BRANCH_TOL:
                failures.append(f"q={q} remove_freq={remove_freq:.5f} "
                                f"vs {expected:.5f}")
            if abs(hit_delta - (1.0 - 1.0 / q)) > HIT_DELTA_TOL:
                failures.append(f"q={q} hit_delta={hit_delta:.5f}")
        if remove_freq + keep_freq != 1.0:
            failures.append(f"q={q} frequencies do not sum to 1")
    elapsed = time.perf_counter() - t0
    if elapsed >= BRANCH_BUDGET_S:
        failures.append(f"took {elapsed:.1f}s, budget {BRANCH_BUDGET_S}s")
    ok = not failures
    _announce(capsys, 1, "conditional-branch frequencies", ok,
              f"{len(BRANCH_QS)} qs x {BRANCH_TRIALS} hits, "
              f"tol {BRANCH_TOL}/{HIT_DELTA_TOL}, {elapsed:.1f}s")
    assert ok, failures


def test_acceptance_2_forced_miss_determinism(capsys):
    failures = []
    t0 = time.perf_counter()
    for seed in MISS_SEEDS:
        fraction = forced_miss_experiment(MISS_TRIALS, seed=seed)
        if fraction != 1.0:
            failures.append(f"seed {seed}: insert fraction {fraction}")
    elapsed = time.perf_counter() - t0
    if elapsed >= MISS_BUDGET_S:
        failures.append(f"took {elapsed:.2f}s, budget {MISS_BUDGET_S}s")
    ok = not failures
    _announce(capsys, 2, "miss branch always inserts", ok,
              f"{len(MISS_SEEDS)} seeds x {MISS_TRIALS} misses, {elapsed:.2f}s")
    assert ok, failures


def test_acceptance_3_growth_identity(capsys):
    failures = []
    worst = 0.0
    t0 = time.perf_counter()
    for i, (p, q) in enumerate(product(GROWTH_PS, GROWTH_QS)):
        measured = growth_identity_experiment(p, q, GROWTH_STEPS, seed=100 + i)
        expected = 1.0 - p / q
        if p == 0.0 or (p == 1.0 and q == 0.5):
            if measured != expected:
                failures.append(f"p={p} q={q}: {measured} not exactly {expected}")
        else:
            dev = abs(measured - expected)
            worst = max(worst, dev)
            if dev > GROWTH_TOL:
                failures.append(f"p={p} q={q}: {measured:.5f} vs {expected:.5f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= GROWTH_BUDGET_S:
        failures.append(f"took {elapsed:.1f}s, budget {GROWTH_BUDGET_S}s")
    ok = not failures
    _announce(capsys, 3, "growth identity 1 - p/q", ok,
              f"15 cells x {GROWTH_STEPS} steps, worst dev {worst:.4f}, "
              f"tol {GROWTH_TOL}, {elapsed:.1f}s")
    assert ok, failures


def test_acceptance_4_stabilization_pins_hit_rate(capsys):
    target = TARGETS["sine_1d"]
    metric = METRICS["euclidean"]
    failures = []
    details = []
    for i, q in enumerate(THEOREM_QS):
        config = LearnerConfig(epsilon=0.05, q=q, seed=200 + i)
        generator = IidUniform(target.domain, config.seed, points_stream_index(0))
        t0 = time.perf_counter()
        report = theorem_experiment(target, metric, config, generator,
                                    THEOREM_STEPS, tail_window=THEOREM_TAIL)
        elapsed = time.perf_counter() - t0
        if abs(report.tail_mean_delta) > THEOREM_DELTA_TOL:
            failures.append(f"q={q}: tail mean delta {report.tail_mean_delta:.5f}")
        if abs(report.tail_hit_rate - q) > THEOREM_HIT_TOL:
            failures.append(f"q={q}: tail hit rate {report.tail_hit_rate:.5f}")
        if elapsed >= THEOREM_BUDGET_S:
            failures.append(f"q={q}: took {elapsed:.1f}s, budget {THEOREM_BUDGET_S}s")
        details.append(f"q={q} hit={report.tail_hit_rate:.3f} "
                       f"delta={report.tail_mean_delta:+.4f} {elapsed:.1f}s")
    ok = not failures
    _announce(capsys, 4, "stability forces hit rate to q", ok, "; ".join(details))
    assert ok, failures


def _lattice_point(rng, dim, cells):
    return tuple(float(rng.next_below(cells)) for _ in range(dim))


def _float_point(rng, dim):
    return tuple(rng.next_unit() * 10.0 for _ in range(dim))


def _differential_ops(metric, ops, seed, make_point, tie_tol):
    # Each point's output is its operation number, so equal outputs name
    # the same exemplar on both backends.
    rng = RandomStream(seed, 0)
    lin = LinearScanIndex(metric)
    vpt = VpTreeIndex(metric)
    queries = 0
    for op in range(ops):
        roll = rng.next_below(10)
        if roll < 5 or len(lin) == 0:
            p = make_point(rng)
            lin.insert(p, op)
            vpt.insert(p, op)
        elif roll < 7:
            k = rng.next_below(len(lin))
            lin.remove(k)
            vpt.remove(live_handles(vpt)[k])
        else:
            x = make_point(rng)
            if nearest_outputs(lin, x, tie_tol) != nearest_outputs(vpt, x, tie_tol):
                return queries, False
            queries += 1
    return queries, True


def test_acceptance_5_index_differential(capsys):
    euclid = METRICS["euclidean"]
    cheby = METRICS["chebyshev"]
    t0 = time.perf_counter()
    q1, ok1 = _differential_ops(euclid, INDEX_OPS // 2, 11,
                                lambda r: _float_point(r, 2), 0.0)
    q2, ok2 = _differential_ops(cheby, INDEX_OPS // 2, 22,
                                lambda r: _lattice_point(r, 2, 4), 0.0)
    elapsed = time.perf_counter() - t0
    failures = []
    if not ok1:
        failures.append("euclidean float session diverged")
    if not ok2:
        failures.append("chebyshev lattice session diverged")
    if elapsed >= INDEX_BUDGET_S:
        failures.append(f"took {elapsed:.1f}s, budget {INDEX_BUDGET_S}s")
    ok = not failures
    _announce(capsys, 5, "tree matches linear scan", ok,
              f"{INDEX_OPS} ops, {q1 + q2} compared queries, {elapsed:.1f}s")
    assert ok, failures


def test_acceptance_6_byte_identical_traces(capsys, tmp_path):
    args = ["--steps", "2000", "--q", "0.75", "--epsilon", "0.1",
            "--seed", "9", "--target", "sine_1d"]
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    t0 = time.perf_counter()
    for path in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "protostream", "run", *args,
             "--output", str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - t0
    _announce(capsys, 6, "repeated runs byte-identical", identical,
              f"2 processes x 2000 steps, {elapsed:.1f}s")
    assert identical


def _axiom_failures(name, distance, make_point, samples, seed):
    rng = RandomStream(seed, 0)
    bad = []
    for i in range(samples):
        a, b, c = make_point(rng), make_point(rng), make_point(rng)
        dab, dba = distance(a, b), distance(b, a)
        if dab != dba:
            bad.append(f"{name}: symmetry broke at sample {i}")
            break
        lhs = distance(a, c)
        rhs = dab + distance(b, c)
        if lhs > rhs + AXIOM_ULPS * math.ulp(max(rhs, 1e-300)):
            bad.append(f"{name}: triangle broke at sample {i}: {lhs} > {rhs}")
            break
        if distance(a, a) != 0.0:
            bad.append(f"{name}: self distance nonzero at sample {i}")
            break
    return bad


def test_acceptance_7_metric_axioms(capsys):
    cases = {
        "euclidean": lambda r: tuple(r.next_unit() * 200.0 - 100.0 for _ in range(3)),
        "chebyshev": lambda r: tuple(r.next_unit() * 200.0 - 100.0 for _ in range(3)),
        "hamming": lambda r: tuple(r.next_below(3) for _ in range(8)),
        "discrete": lambda r: r.next_below(6),
        "absolute_difference": lambda r: r.next_unit() * 2000.0 - 1000.0,
    }
    failures = []
    t0 = time.perf_counter()
    for seed_offset, (name, make_point) in enumerate(sorted(cases.items())):
        failures.extend(_axiom_failures(
            name, METRICS[name].distance, make_point, AXIOM_SAMPLES,
            seed=300 + seed_offset))
    elapsed = time.perf_counter() - t0
    ok = not failures
    _announce(capsys, 7, "metric axioms hold", ok,
              f"{len(cases)} metrics x {AXIOM_SAMPLES} triples, "
              f"slack {AXIOM_ULPS} ulps, {elapsed:.1f}s")
    assert ok, failures
