"""Nearest-set backends: linear oracle vs vantage-point tree."""

import hashlib
import math

import pytest

from protostream.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyModelError,
    PositionOutOfRangeError,
)
from protostream.experiments import theorem_experiment
from protostream.index import INDEXES, LinearScanIndex, VpTreeIndex, linear_tie_set
from protostream.learner import LearnerConfig
from protostream.metrics import METRICS, TARGETS, MetricDescriptor
from protostream.rng import RandomStream

EUCLID = METRICS["euclidean"]
CHEBY = METRICS["chebyshev"]


def test_linear_tie_set_single_point():
    assert linear_tie_set([(0.0,)], (5.0,), EUCLID.distance, 0.0) == [0]


def test_linear_tie_set_two_equidistant():
    pts = [(-1.0,), (1.0,), (4.0,)]
    assert linear_tie_set(pts, (0.0,), EUCLID.distance, 0.0) == [0, 1]


def test_linear_tie_set_empty_rejected():
    with pytest.raises(EmptyModelError):
        linear_tie_set([], (0.0,), EUCLID.distance, 0.0)


class _NoPoints:
    def generate(self, length):
        raise AssertionError("no stream point may be generated")


def test_unknown_index_kind_rejected():
    with pytest.raises(ConfigError):
        theorem_experiment(TARGETS["sine_1d"], EUCLID, LearnerConfig(epsilon=0.1, q=0.9),
                           _NoPoints(), 10, index_kind="kdtree")


def test_all_identical_points_are_all_tied():
    pts = [(2.0, 2.0)] * 7
    for kind in ("linear", "vptree"):
        idx = INDEXES[kind](EUCLID, pts)
        assert idx.query_nearest_set((0.0, 0.0), 0.0) == list(range(7))


def test_insert_then_query_sees_new_point():
    idx = VpTreeIndex(EUCLID)
    idx.insert((10.0,))
    idx.insert((1.0,))
    assert len(idx) == 2
    assert idx.query_nearest_set((0.0,), 0.0) == [1]


def test_remove_promotes_runner_up():
    for kind in ("linear", "vptree"):
        idx = INDEXES[kind](EUCLID, [(1.0,), (2.0,), (3.0,)])
        assert idx.query_nearest_set((0.0,), 0.0) == [0]
        idx.remove(0)
        # positions shift down after removal
        assert idx.query_nearest_set((0.0,), 0.0) == [0]
        assert len(idx) == 2


def test_remove_out_of_range():
    idx = INDEXES["vptree"](EUCLID, [(1.0,)])
    with pytest.raises(PositionOutOfRangeError):
        idx.remove(1)
    with pytest.raises(PositionOutOfRangeError):
        idx.remove(-1)
    lin = LinearScanIndex(EUCLID)
    with pytest.raises(PositionOutOfRangeError):
        lin.remove(0)


def test_query_empty_index_rejected():
    for idx in (LinearScanIndex(EUCLID), VpTreeIndex(EUCLID)):
        with pytest.raises(EmptyModelError):
            idx.query_nearest_set((0.0,), 0.0)


def _random_point(rng, dim, lattice=None):
    if lattice:
        return tuple(float(rng.next_below(lattice)) for _ in range(dim))
    return tuple(rng.next_unit() * 10.0 for _ in range(dim))


def _differential_session(metric, dim, steps, seed, lattice=None, tie_tol=0.0):
    rng = RandomStream(seed, 0)
    lin = LinearScanIndex(metric)
    vpt = VpTreeIndex(metric)
    for step_no in range(steps):
        roll = rng.next_below(10)
        if roll < 5 or len(lin) == 0:
            p = _random_point(rng, dim, lattice)
            lin.insert(p)
            vpt.insert(p)
        elif roll < 7:
            pos = rng.next_below(len(lin))
            lin.remove(pos)
            vpt.remove(pos)
        else:
            x = _random_point(rng, dim, lattice)
            got_lin = lin.query_nearest_set(x, tie_tol)
            got_vpt = vpt.query_nearest_set(x, tie_tol)
            assert got_lin == got_vpt, (
                f"step {step_no}: linear={got_lin} vptree={got_vpt} at {x}"
            )
        assert len(lin) == len(vpt)


def test_differential_euclidean_floats():
    _differential_session(EUCLID, 2, 3000, seed=101)


def test_differential_chebyshev_integer_lattice_ties():
    # tiny lattice forces heavy duplication and large tie sets
    _differential_session(CHEBY, 2, 3000, seed=202, lattice=4)


def test_differential_euclidean_lattice_with_tolerance():
    _differential_session(EUCLID, 3, 2000, seed=303, lattice=3, tie_tol=0.25)


def test_query_distance_evaluations_bounded_by_size():
    calls = 0
    base = EUCLID.distance

    def counting(a, b):
        nonlocal calls
        calls += 1
        return base(a, b)

    counted = type(EUCLID)(name="counted", distance=counting)
    rng = RandomStream(77, 0)
    idx = VpTreeIndex(counted)
    for _ in range(500):
        idx.insert(_random_point(rng, 2))
    for _ in range(50):
        calls = 0
        idx.query_nearest_set(_random_point(rng, 2), 0.0)
        assert calls <= len(idx)


def test_rebuild_preserves_live_set():
    rng = RandomStream(55, 0)
    pts = [_random_point(rng, 2) for _ in range(200)]
    lin = LinearScanIndex(EUCLID, pts)
    vpt = INDEXES["vptree"](EUCLID, pts)
    # removing most points forces at least one tombstone rebuild
    for _ in range(180):
        pos = rng.next_below(len(lin))
        lin.remove(pos)
        vpt.remove(pos)
    for _ in range(40):
        x = _random_point(rng, 2)
        assert lin.query_nearest_set(x, 0.0) == vpt.query_nearest_set(x, 0.0)


def test_vptree_handles_duplicate_heavy_inserts():
    idx = VpTreeIndex(EUCLID)
    for _ in range(100):
        idx.insert((1.0, 1.0))
    idx.insert((5.0, 5.0))
    assert idx.query_nearest_set((5.0, 5.0), 0.0) == [100]
    assert idx.query_nearest_set((0.0, 0.0), 0.0) == list(range(100))


def test_leaf_capacity_below_one_rejected():
    with pytest.raises(ConfigError):
        VpTreeIndex(EUCLID, leaf_capacity=0)


def test_outputs_follow_positions_through_rebuilds():
    rng = RandomStream(66, 0)
    lin = LinearScanIndex(EUCLID)
    vpt = VpTreeIndex(EUCLID)
    for phase, count in [("insert", 300), ("remove", 270), ("insert", 100)]:
        for k in range(count):
            if phase == "insert":
                p = _random_point(rng, 2)
                lin.insert(p, (phase, k))
                vpt.insert(p, (phase, k))
            else:
                pos = rng.next_below(len(lin))
                lin.remove(pos)
                vpt.remove(pos)
    assert [vpt.output(i) for i in range(len(vpt))] == \
           [lin.output(i) for i in range(len(lin))]
    # one-argument inserts store None
    vpt.insert((0.5, 0.5))
    assert vpt.output(len(vpt) - 1) is None
    for idx in (lin, vpt):
        with pytest.raises(PositionOutOfRangeError):
            idx.output(len(idx))
        with pytest.raises(PositionOutOfRangeError):
            idx.output(-1)


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
def test_failed_insert_leaves_the_tree_unchanged(metric):
    # The metric raises on the way down; no live position may be left
    # behind in no bucket.
    m = METRICS[metric]
    rng = RandomStream(8, 0)
    idx = VpTreeIndex(m, [_random_point(rng, 1) for _ in range(40)])
    queries = [_random_point(rng, 1) for _ in range(20)]
    before = [idx.query_nearest_set(x, 0.0) for x in queries]
    with pytest.raises(DimensionMismatchError):
        idx.insert((1.0, 2.0))
    assert len(idx) == 40
    assert [idx.query_nearest_set(x, 0.0) for x in queries] == before


def test_euclidean_dimension_mismatch_is_not_a_value_error():
    for kind in ("linear", "vptree"):
        idx = INDEXES[kind](EUCLID, [(float(i),) for i in range(40)])
        with pytest.raises(DimensionMismatchError):
            idx.query_nearest_set((1.0, 2.0))
        # A one-point index stores a new point without measuring it (the
        # tree has no vantage point yet); the next query meets it.
        idx = INDEXES[kind](EUCLID, [(0.0,)])
        idx.insert((1.0, 2.0))
        with pytest.raises(DimensionMismatchError):
            idx.query_nearest_set((0.0,))
    # A larger tree measures a new point on its way down.
    with pytest.raises(DimensionMismatchError):
        VpTreeIndex(EUCLID, [(float(i),) for i in range(40)]).insert((1.0, 2.0))
    # Once a mismatched point is stored, every split of its leaf fails: at
    # insert, and at the rebuild a removal starts.
    tree = VpTreeIndex(EUCLID, [(0.0,), (1.0, 2.0)], leaf_capacity=2)
    for i in range(2, 6):
        with pytest.raises(DimensionMismatchError):
            tree.insert((float(i),))
    with pytest.raises(DimensionMismatchError):
        for _ in range(3):
            tree.remove(len(tree) - 1)


def test_other_metrics_errors_pass_through():
    # Only euclidean_distance itself is resolved to math.dist; a metric
    # that calls math.dist on its own keeps its ValueError.
    raw = MetricDescriptor("raw", math.dist)
    for kind in ("linear", "vptree"):
        idx = INDEXES[kind](raw, [(float(i),) for i in range(40)])
        with pytest.raises(ValueError):
            idx.query_nearest_set((1.0, 2.0))


# Call count and SHA-256 of every distance(stored, query) call the tree
# made in _counted_session, taken from the two-stack descent that pushed
# both children per node; the near-child descent must make the same calls.
_SESSION_CALLS = {
    0.0: (23228, "2ffba989765cf2584ec1b1c5a3523ec7624fda8fb2418908add407647b03d98d"),
    0.25: (24929, "5d70e0ee6e4643569f1d57ea6b5c36650215a0d3dbe4bce8ee0e2d583d163eba"),
}


@pytest.mark.parametrize("tie_tol", sorted(_SESSION_CALLS))
def test_tree_distance_calls_are_pinned(tie_tol):
    calls = []

    def distance(stored, query):
        calls.append(f"{stored!r}|{query!r}")
        return EUCLID.distance(stored, query)

    idx = VpTreeIndex(MetricDescriptor("counted", distance))
    rng = RandomStream(2024, 0)

    def point():
        # Half the coordinates on an integer lattice, so ties are common.
        return tuple(float(rng.next_below(6)) if rng.next_below(2) else rng.next_unit() * 5.0
                     for _ in range(2))

    # Grow, shrink and regrow: each shrink leaves enough tombstones to
    # rebuild the tree.
    for op, count in [("insert", 300), ("remove", 280), ("insert", 150),
                      ("remove", 100), ("insert", 60)]:
        for _ in range(count):
            if op == "insert":
                idx.insert(point())
            else:
                idx.remove(rng.next_below(len(idx)))
            idx.query_nearest_set(point(), tie_tol)
    digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
    assert (len(calls), digest) == _SESSION_CALLS[tie_tol]
