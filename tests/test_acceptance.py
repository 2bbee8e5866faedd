"""Acceptance gate: seven full-scale checks, one reported line each.

Tests 1, 3 and 4 run ``verify``'s own checks at its defaults, through the
pool ``cmd_verify`` uses, so their q lists, sizes, seeds and tolerances live
in ``cli`` alone.  Tests 2 and 5-7 use their own seeds and inputs.  Their
tolerances are fixed, and statistical checks run at the scales the
tolerances were sized for, so shrinking any trial count invalidates the
bound printed next to it.
"""

import math
import subprocess
import sys
import time

from protostream import cli
from protostream.experiments import forced_miss_experiment
from protostream.index import LinearScanIndex, VpTreeIndex
from protostream.metrics import METRICS
from protostream.rng import RandomStream

from handles import live_handles, nearest_outputs

VERIFY_DEFAULTS = cli.parse_config(["verify"]).values

BRANCH_BUDGET_S = 5.0

MISS_TRIALS = 10_000
MISS_SEEDS = (0, 1, 2)
MISS_BUDGET_S = 1.0

GROWTH_BUDGET_S = 30.0

THEOREM_BUDGET_S = 60.0

INDEX_OPS = 10_000
INDEX_BUDGET_S = 10.0

AXIOM_SAMPLES = 10_000
AXIOM_ULPS = 4


def _announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _assert_verify_checks(capsys, number, name, kind, budget_s):
    """Run verify's experiments of ``kind`` as ``cmd_verify`` does; every check must pass."""
    tasks = [(VERIFY_DEFAULTS, k, i) for k, i in cli.VERIFY_TASKS if k == kind]
    t0 = time.perf_counter()
    results = cli._map_tasks(cli._verify_task, tasks, VERIFY_DEFAULTS["jobs"])
    elapsed = time.perf_counter() - t0
    checks = [check for run_checks in results for check in run_checks]
    failures = [line for ok, line in (cli._verdict(*check) for check in checks) if not ok]
    if elapsed >= budget_s:
        failures.append(f"took {elapsed:.1f}s, budget {budget_s}s")
    # The largest deviation of a measured value, in units of its tolerance.
    worst = max((abs(measured - expected) / tol for _name, measured, expected, tol in checks
                 if tol is not None and measured is not None), default=0.0)
    ok = not failures
    _announce(capsys, number, name, ok,
              f"{len(tasks)} runs, {len(checks)} checks, worst |dev| {worst:.2f} x tol, "
              f"{elapsed:.1f}s")
    assert ok, failures


def test_acceptance_1_conditional_branch(capsys):
    _assert_verify_checks(capsys, 1, "conditional-branch frequencies", "branch",
                          BRANCH_BUDGET_S)


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
    _assert_verify_checks(capsys, 3, "growth identity 1 - p/q", "growth", GROWTH_BUDGET_S)


def test_acceptance_4_stabilization_pins_hit_rate(capsys):
    _assert_verify_checks(capsys, 4, "stability forces hit rate to q", "theorem",
                          THEOREM_BUDGET_S)


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
