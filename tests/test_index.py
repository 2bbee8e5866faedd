"""Nearest-set backends: linear oracle vs vantage-point tree."""

import pytest

from protostream.errors import ConfigError, EmptyModelError, PositionOutOfRangeError
from protostream.experiments import theorem_experiment
from protostream.index import INDEXES, LinearScanIndex, VpTreeIndex, linear_tie_set
from protostream.learner import LearnerConfig
from protostream.metrics import METRICS, TARGETS
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
