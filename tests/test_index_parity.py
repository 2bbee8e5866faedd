"""Vantage-point tree contracts beyond per-query agreement with the oracle.

The README promises that a query evaluates the metric on a stored point at
most once, plus once for each internal node it routes, and the learner
relies on the two backends giving identical whole runs, series included.
Removed points must not decide whether an insert of mixed-dimension points
succeeds.
"""

import dataclasses
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protostream.errors import DimensionMismatchError
from protostream.experiments import theorem_experiment
from protostream.index import LinearScanIndex, VpTreeIndex
from protostream.learner import LearnerConfig
from protostream.metrics import METRICS, TARGETS, MetricDescriptor
from protostream.rng import RandomStream, points_stream_index
from protostream.streams import STREAM_KINDS, GridSweep, IidUniform, RandomWalk

from handles import live_handles, nearest_outputs, stored_outputs

EUCLID = METRICS["euclidean"]


def _fresh_point(rng, lattice):
    # A new tuple object every call, so id() names one stored point.
    if lattice:
        return tuple([float(rng.next_below(lattice)) for _ in range(2)])
    return tuple([rng.next_unit() * 10.0 for _ in range(2)])


def _routing_counts(idx) -> Counter:
    """How many internal nodes each point routes, by the point's identity."""
    routes = Counter()
    stack = [idx._root]
    while stack:
        node = stack.pop()
        if node.bucket is None:
            routes[id(node.point)] += 1
            stack += [node.inner, node.outer]
    return routes


# The euclidean cases' ids name the lattice and the tolerance alone.  Under
# discrete every live point ties, so a query visits every node.  A point
# sits in one leaf and may also route internal nodes (an exact duplicate on
# the lattice can route two), so a query measures it at most once more than
# the nodes it routes.
@pytest.mark.parametrize("metric, lattice, tie_tol", [
    pytest.param(metric, lattice, tie_tol,
                 id=("" if metric == "euclidean" else f"{metric}-") + f"{lattice}-{tie_tol}")
    for metric in ("euclidean", "discrete") for lattice in (None, 5) for tie_tol in (0.0, 0.25)])
def test_query_evaluates_each_stored_point_at_most_once(metric, lattice, tie_tol):
    per_point = Counter()
    counting = False
    measure = METRICS[metric].distance

    def distance(stored, query):
        if counting:
            per_point[id(stored)] += 1
        return measure(stored, query)

    idx = VpTreeIndex(MetricDescriptor("counted", distance))
    rng = RandomStream(909, 0)
    # Grow to 300, shrink to 20, grow again: the shrink leaves far more
    # removed points than twice the live count, so the tree is rebuilt.
    phases = [("insert", 300), ("remove", 280), ("insert", 150)]
    for op, count in phases:
        for _ in range(count):
            if op == "insert":
                idx.insert(_fresh_point(rng, lattice))
            else:
                idx.remove(live_handles(idx)[rng.next_below(len(idx))])
            per_point.clear()
            counting = True
            idx.query_nearest_set(_fresh_point(rng, lattice), tie_tol)
            counting = False
            routes = _routing_counts(idx)
            assert per_point
            assert all(n <= 1 + routes[p] for p, n in per_point.items())


def test_storage_follows_live_count():
    # Rebuilds renumber the live ids and drop removed points, so per-id
    # storage never exceeds the live count plus the removals a rebuild
    # tolerates (at most twice the live count, plus one).
    idx = VpTreeIndex(EUCLID)
    rng = RandomStream(4, 0)
    for op, count in [("insert", 400), ("remove", 390), ("insert", 200),
                      ("remove", 205)]:
        for _ in range(count):
            if op == "insert":
                idx.insert(_fresh_point(rng, None))
            else:
                idx.remove(live_handles(idx)[rng.next_below(len(idx))])
            assert len(idx._points) <= 3 * len(idx) + 1
    assert len(idx) == 5


def _assert_runs_equal(target, config, generator, steps, metric=EUCLID, **kwargs):
    lin = theorem_experiment(target, metric, config, generator, steps,
                             index_kind="linear", **kwargs)
    vpt = theorem_experiment(target, metric, config, generator, steps,
                             index_kind="vptree", **kwargs)
    assert lin.config["index"] == "linear" and vpt.config["index"] == "vptree"
    assert dataclasses.replace(vpt, config=lin.config) == lin
    assert lin.series


def test_whole_run_parity_sine_iid():
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.01, q=0.8, seed=21)
    gen = IidUniform(target.domain, config.seed, points_stream_index(0))
    _assert_runs_equal(target, config, gen, 20_000,
                       tail_window=5000, series_window=500)


@pytest.mark.parametrize("tie_tol", [0.0, 0.3])
def test_whole_run_parity_tie_heavy_grid(tie_tol):
    # The whole 8x8x8 integer lattice: stored neighbours of a lattice query
    # sit at bit-equal distances, and about half of the nearest sets hold
    # more than one point.
    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.2, q=0.75, seed=5, tie_tolerance=tie_tol)
    gen = GridSweep(8, ((0.0, 7.0),) * 3, config.seed, points_stream_index(0))
    _assert_runs_equal(target, config, gen, 512,
                       tail_window=128, series_window=32)


# Integer lattice coordinates make bit-equal distances, hence ties, common.
_LATTICE = 45


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), q=st.floats(0.5, 0.95),
       epsilon=st.floats(0.1, 1.0), tie_tol=st.sampled_from([0.0, 0.05, 0.3]),
       stream=st.sampled_from(STREAM_KINDS),
       metric=st.sampled_from(["euclidean", "chebyshev", "hamming", "discrete"]),
       dim=st.integers(1, 2), steps=st.integers(50, 2000))
def test_whole_run_parity_property(seed, q, epsilon, tie_tol, stream, metric, dim, steps):
    box = ((0.0, _LATTICE - 1.0),) * dim
    stream_index = points_stream_index(0)
    if stream == "iid":
        gen = IidUniform(box, seed, stream_index)
    elif stream == "walk":
        gen = RandomWalk(1.5, box, seed, stream_index)
    else:
        gen = GridSweep(_LATTICE, box, seed, stream_index)
        steps = min(steps, _LATTICE ** dim)
    config = LearnerConfig(epsilon=epsilon, q=q, seed=seed, tie_tolerance=tie_tol)
    _assert_runs_equal(TARGETS["sine_1d"], config, gen, steps, metric=METRICS[metric],
                       tail_window=500, series_window=25)


# Batches of 1-D or 2-D inserts on a small lattice, batches of removals of
# the k-th live point (k taken modulo the live count), and purges of every
# live point of one dimension: a purge takes the removed points out of their
# leaves but may leave their points routing internal nodes, and a later batch
# of the other dimension overflows and splits those leaves.
_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 2), st.integers(1, 24)),
    st.tuples(st.just("remove"), st.integers(0, 31), st.integers(1, 8)),
    st.tuples(st.just("purge"), st.integers(1, 2), st.just(0))),
    max_size=10)


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_tombstones_never_decide_an_insert(ops):
    # While every live point has the new point's dimension the tree insert
    # must succeed; otherwise its descent may measure a live point of the
    # other dimension and raise, which leaves the tree as it was.
    lin = LinearScanIndex(EUCLID)
    tree = VpTreeIndex(EUCLID)
    live = []  # the points both backends hold, in insertion order
    tags = itertools.count()  # each point's output names it

    def remove(k):
        lin.remove(k)
        tree.remove(live_handles(tree)[k])
        del live[k]

    for kind, arg, count in ops:
        if kind == "purge":
            for pos in reversed(range(len(live))):
                if len(live[pos]) == arg:
                    remove(pos)
        elif kind == "remove":
            for _ in range(min(count, len(live))):
                remove(arg % len(live))
        else:
            for i in range(count):
                v = (7 * len(live) + 3 * i) % 21
                point = (float(v),) if arg == 1 else (float(v), float(v % 5))
                tag = next(tags)
                if all(len(p) == arg for p in live):
                    tree.insert(point, tag)
                else:
                    try:
                        tree.insert(point, tag)
                    except DimensionMismatchError:
                        continue
                lin.insert(point, tag)
                live.append(point)
        assert len(tree) == len(lin) == len(live)
        assert stored_outputs(tree) == stored_outputs(lin)
        dims = {len(p) for p in live}
        if len(dims) == 1:
            one_d = dims == {1}
            for v in (0.2, 6.5, 13.0, 19.9):
                x = (v,) if one_d else (v, v % 5)
                assert nearest_outputs(tree, x) == nearest_outputs(lin, x)


def _assert_leaves_hold_the_live_ids(tree, lin):
    # An id is live exactly when _node names a leaf for it, and the live
    # ids hold the exemplars the oracle holds.  Each live id sits in exactly
    # one bucket, the one _node names, and every internal node routes by a
    # point.  Buckets hold no removed id, and a removed id maps to nothing
    # and holds no point: a node whose point it was keeps the point alone,
    # to route by.  Every point below an internal node, in a bucket or on a
    # node, lies on the side of it that its distance says: within mu under
    # inner, else (a NaN distance too) under outer.  The leaf count and the
    # deepest leaf the tree keeps are the walk's.
    assert len(tree) == len(lin)
    assert stored_outputs(tree) == stored_outputs(lin)
    live = set(live_handles(tree))
    assert len(live) == len(tree)
    in_bucket = Counter()
    leaves = deepest = 0
    dist = tree._distance
    stack = [(tree._root, ())]  # a node, and (point, mu, inner?) of each ancestor
    while stack:
        node, sides = stack.pop()
        assert node.depth == len(sides)
        if node.bucket is None:
            below = [node.point]
        else:
            below = [tree._points[pid] for pid in node.bucket]
        for p in below:
            for vp, mu, inner in sides:
                assert (dist(vp, p) <= mu) == inner
        if node.bucket is None:
            assert node.point is not None
            stack += [(node.inner, sides + ((node.point, node.mu, True),)),
                      (node.outer, sides + ((node.point, node.mu, False),))]
            continue
        leaves += 1
        deepest = max(deepest, len(sides))
        for pid in node.bucket:
            assert pid in live
            assert tree._node[pid] is node
            in_bucket[pid] += 1
    assert all(count == 1 for count in in_bucket.values())
    assert in_bucket.keys() == live
    for pid, node in enumerate(tree._node):
        if node is None:
            assert tree._points[pid] is None and tree._outputs[pid] is None
    assert (tree._leaves, tree._deepest) == (leaves, deepest)
    assert len(tree._points) <= 3 * len(tree) + 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 2),
       lattice=st.sampled_from([None, 3, 8]),
       ops=st.lists(st.tuples(st.sampled_from(["insert", "remove", "query"]),
                              st.integers(1, 40)), max_size=20))
def test_leaves_hold_only_live_ids(seed, dim, lattice, ops):
    # Batches of inserts, removals at random positions and queries, on the
    # reals or a small lattice (many equal points, so failed splits); the
    # tree's leaves and storage are checked after every operation.
    rng = RandomStream(seed, 0)

    def point():
        if lattice:
            return tuple(float(rng.next_below(lattice)) for _ in range(dim))
        return tuple(rng.next_unit() * 10.0 for _ in range(dim))

    lin = LinearScanIndex(EUCLID)
    tree = VpTreeIndex(EUCLID)
    tag = 0  # each point's output names it
    for op, count in ops:
        for _ in range(count):
            if op == "insert":
                p = point()
                lin.insert(p, tag)
                tree.insert(p, tag)
                tag += 1
            elif not lin:
                break
            elif op == "remove":
                k = rng.next_below(len(lin))
                lin.remove(k)
                tree.remove(live_handles(tree)[k])
            else:
                x = point()
                assert nearest_outputs(tree, x) == nearest_outputs(lin, x)
            _assert_leaves_hold_the_live_ids(tree, lin)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       lattice=st.sampled_from([None, 3, 6]),
       metric=st.sampled_from(["euclidean", "chebyshev"]),
       tie_tol=st.sampled_from([0.0, 1e-12, 0.05, 0.5, 2.0, -0.5, math.nan]),
       grow=st.integers(0, 200),
       ops=st.lists(st.tuples(st.sampled_from(["insert", "remove", "query"]),
                              st.integers(1, 40)), max_size=12))
def test_query_parity_at_the_edges_of_the_band(seed, dim, lattice, metric, tie_tol, grow, ops):
    # Every query's tie set equals the linear scan's, for tolerances at and
    # past the edges of what a run accepts: 0 (bit-equal ties), a band
    # narrower than most distance gaps, wide bands, and the negative and
    # NaN tolerances under which the linear scan keeps only exact zeros or
    # nothing.  The first ``grow`` inserts give the tree internal nodes.
    rng = RandomStream(seed, 0)

    def point():
        if lattice:
            return tuple(float(rng.next_below(lattice)) for _ in range(dim))
        return tuple(rng.next_unit() * 10.0 for _ in range(dim))

    lin = LinearScanIndex(METRICS[metric])
    tree = VpTreeIndex(METRICS[metric])
    tag = 0  # each point's output names it
    for op, count in [("insert", grow)] + ops:
        for _ in range(count):
            if op == "insert":
                p = point()
                lin.insert(p, tag)
                tree.insert(p, tag)
                tag += 1
            elif not lin:
                break
            elif op == "remove":
                k = rng.next_below(len(lin))
                lin.remove(k)
                tree.remove(live_handles(tree)[k])
            else:
                x = point()
                assert nearest_outputs(tree, x, tie_tol) == nearest_outputs(lin, x, tie_tol)
