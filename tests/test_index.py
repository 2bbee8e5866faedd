"""Nearest-set backends: linear oracle vs vantage-point tree."""

import hashlib
import itertools
import math

import pytest

from protostream.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyModelError,
    PositionOutOfRangeError,
)
from protostream.experiments import theorem_experiment
from protostream.index import (
    _LEAF_CAPACITY,
    INDEXES,
    LinearScanIndex,
    VpTreeIndex,
    linear_tie_set,
)
from protostream.learner import LearnerConfig
from protostream.metrics import METRICS, TARGETS, MetricDescriptor
from protostream.rng import RandomStream, points_stream_index
from protostream.streams import IidUniform, RandomWalk

from handles import live_handles, nearest_outputs, stored_outputs

EUCLID = METRICS["euclidean"]
CHEBY = METRICS["chebyshev"]


def _filled(cls, metric, points):
    """A ``cls`` index holding ``points`` in order, each point's number as its output."""
    idx = cls(metric)
    for k, p in enumerate(points):
        idx.insert(p, k)
    return idx


def test_linear_tie_set_single_point():
    assert linear_tie_set([(0.0,)], (5.0,), EUCLID.distance, 0.0) == [0]


def test_linear_tie_set_two_equidistant():
    pts = [(-1.0,), (1.0,), (4.0,)]
    assert linear_tie_set(pts, (0.0,), EUCLID.distance, 0.0) == [0, 1]


def test_linear_tie_set_empty_rejected():
    with pytest.raises(EmptyModelError):
        linear_tie_set([], (0.0,), EUCLID.distance, 0.0)


class _NoPoints:
    def points(self, length):
        raise AssertionError("no stream point may be generated")


def test_unknown_index_kind_rejected():
    with pytest.raises(ConfigError):
        theorem_experiment(TARGETS["sine_1d"], EUCLID, LearnerConfig(epsilon=0.1, q=0.9),
                           _NoPoints(), 10, index_kind="kdtree")


def test_all_identical_points_are_all_tied():
    pts = [(2.0, 2.0)] * 7
    for kind in ("linear", "vptree"):
        idx = _filled(INDEXES[kind], EUCLID, pts)
        assert idx.query_nearest_set((0.0, 0.0), 0.0) == list(range(7))


def test_insert_then_query_sees_new_point():
    idx = VpTreeIndex(EUCLID)
    idx.insert((10.0,))
    idx.insert((1.0,))
    assert len(idx) == 2
    assert idx.query_nearest_set((0.0,), 0.0) == [1]


def test_remove_promotes_runner_up():
    for kind in ("linear", "vptree"):
        idx = _filled(INDEXES[kind], EUCLID, [(1.0,), (2.0,), (3.0,)])
        [nearest] = idx.query_nearest_set((0.0,), 0.0)
        assert idx.output(nearest) == 0
        idx.remove(nearest)
        assert nearest_outputs(idx, (0.0,)) == [1]
        assert len(idx) == 2


def test_remove_out_of_range():
    idx = _filled(VpTreeIndex, EUCLID, [(1.0,)])
    with pytest.raises(PositionOutOfRangeError):
        idx.remove(1)
    with pytest.raises(PositionOutOfRangeError):
        idx.remove(-1)
    lin = LinearScanIndex(EUCLID)
    with pytest.raises(PositionOutOfRangeError):
        lin.remove(0)


@pytest.mark.parametrize("kind", sorted(INDEXES))
def test_dead_handles_are_refused(kind):
    # A negative handle, one past every stored exemplar, and a removed one
    # (the last, so that it names no exemplar on the linear scan either)
    # are refused by output and remove, and a refused remove changes nothing.
    idx = _filled(INDEXES[kind], EUCLID, [(float(i),) for i in range(40)])
    idx.remove(39)
    dead = [-1, 40, 39]
    if kind == "vptree":
        # The id whose point routes the root: its node keeps the point.
        routing = next(h for h, p in enumerate(idx._points) if p is idx._root.point)
        idx.remove(routing)
        dead.append(routing)
    live = stored_outputs(idx)
    for handle in dead:
        with pytest.raises(PositionOutOfRangeError):
            idx.output(handle)
        with pytest.raises(PositionOutOfRangeError):
            idx.remove(handle)
    assert stored_outputs(idx) == live and len(idx) == len(live)


def test_query_empty_index_rejected():
    for idx in (LinearScanIndex(EUCLID), VpTreeIndex(EUCLID)):
        with pytest.raises(EmptyModelError):
            idx.query_nearest_set((0.0,), 0.0)


def _random_point(rng, dim, lattice=None):
    if lattice:
        return tuple(float(rng.next_below(lattice)) for _ in range(dim))
    return tuple(rng.next_unit() * 10.0 for _ in range(dim))


def _differential_session(metric, dim, steps, seed, lattice=None, tie_tol=0.0):
    # Each point's output is its step number, so equal outputs name the
    # same exemplar on both backends.
    rng = RandomStream(seed, 0)
    lin = LinearScanIndex(metric)
    vpt = VpTreeIndex(metric)
    for step_no in range(steps):
        roll = rng.next_below(10)
        if roll < 5 or len(lin) == 0:
            p = _random_point(rng, dim, lattice)
            lin.insert(p, step_no)
            vpt.insert(p, step_no)
        elif roll < 7:
            k = rng.next_below(len(lin))
            lin.remove(k)
            vpt.remove(live_handles(vpt)[k])
        else:
            x = _random_point(rng, dim, lattice)
            got_lin = nearest_outputs(lin, x, tie_tol)
            got_vpt = nearest_outputs(vpt, x, tie_tol)
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
    lin = _filled(LinearScanIndex, EUCLID, pts)
    vpt = _filled(VpTreeIndex, EUCLID, pts)
    # removing most points forces at least one tombstone rebuild
    for _ in range(180):
        k = rng.next_below(len(lin))
        lin.remove(k)
        vpt.remove(live_handles(vpt)[k])
    assert stored_outputs(vpt) == stored_outputs(lin)
    for _ in range(40):
        x = _random_point(rng, 2)
        assert nearest_outputs(lin, x) == nearest_outputs(vpt, x)


def test_vptree_handles_duplicate_heavy_inserts():
    idx = VpTreeIndex(EUCLID)
    for _ in range(100):
        idx.insert((1.0, 1.0))
    idx.insert((5.0, 5.0))
    assert idx.query_nearest_set((5.0, 5.0), 0.0) == [100]
    assert idx.query_nearest_set((0.0, 0.0), 0.0) == list(range(100))


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
                k = rng.next_below(len(lin))
                lin.remove(k)
                vpt.remove(live_handles(vpt)[k])
    assert stored_outputs(vpt) == stored_outputs(lin)
    # one-argument inserts store None
    vpt.insert((0.5, 0.5))
    assert vpt.output(live_handles(vpt)[-1]) is None
    for idx in (lin, vpt):
        with pytest.raises(PositionOutOfRangeError):
            idx.output(max(live_handles(idx)) + 1)
        with pytest.raises(PositionOutOfRangeError):
            idx.output(-1)


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
def test_failed_insert_leaves_the_tree_unchanged(metric):
    # The metric raises on the way down; no live position may be left
    # behind in no bucket.
    m = METRICS[metric]
    rng = RandomStream(8, 0)
    idx = _filled(VpTreeIndex, m, [_random_point(rng, 1) for _ in range(40)])
    queries = [_random_point(rng, 1) for _ in range(20)]
    before = [idx.query_nearest_set(x, 0.0) for x in queries]
    with pytest.raises(DimensionMismatchError):
        idx.insert((1.0, 2.0))
    assert len(idx) == 40
    assert [idx.query_nearest_set(x, 0.0) for x in queries] == before


def test_euclidean_dimension_mismatch_is_not_a_value_error():
    for kind in ("linear", "vptree"):
        idx = _filled(INDEXES[kind], EUCLID, [(float(i),) for i in range(40)])
        with pytest.raises(DimensionMismatchError):
            idx.query_nearest_set((1.0, 2.0))
        # A one-point index stores a new point without measuring it (the
        # tree has no vantage point yet); the next query meets it.
        idx = _filled(INDEXES[kind], EUCLID, [(0.0,)])
        idx.insert((1.0, 2.0))
        with pytest.raises(DimensionMismatchError):
            idx.query_nearest_set((0.0,))
    # A larger tree measures a new point on its way down.
    with pytest.raises(DimensionMismatchError):
        _filled(VpTreeIndex, EUCLID, [(float(i),) for i in range(40)]).insert((1.0, 2.0))
    # Once a mismatched point is stored, every split of its leaf fails: a
    # full root leaf of 16 points overflows at the 17th.
    tree = _filled(VpTreeIndex, EUCLID, [(1.0, 2.0)] + [(float(i),) for i in range(15)])
    for i in range(15, 19):
        with pytest.raises(DimensionMismatchError):
            tree.insert((float(i),))


@pytest.mark.parametrize("metric", ["euclidean", "chebyshev"])
def test_failed_split_takes_the_new_point_back_out(metric):
    # A full root leaf of 16 points: the 17th overflows it, and the split
    # cannot measure the stored 2-D point.  Each failed insert used to leave
    # its point behind.
    tree = VpTreeIndex(METRICS[metric])
    tree.insert((1.0, 2.0), "b")
    for i in range(15):
        tree.insert((float(i),), i)
    for i in range(15, 19):
        with pytest.raises(DimensionMismatchError):
            tree.insert((float(i),), i)
        assert len(tree) == 16
    assert stored_outputs(tree) == ["b", *range(15)]
    # Removing the mismatched point heals the tree, because a removal takes
    # it out of its leaf at once: later inserts split as usual.
    for _ in range(6):
        tree.remove(live_handles(tree)[0])
    for i in range(15, 25):
        tree.insert((float(i),), i)
    assert len(tree) == 20
    assert nearest_outputs(tree, (16.1,)) == [16]
    assert stored_outputs(tree) == list(range(5, 25))


def test_split_skips_removed_points():
    # The removed 2-D point leaves the root leaf at once; the split that
    # the 17th live point forces must not measure it.
    lin = LinearScanIndex(EUCLID)
    tree = VpTreeIndex(EUCLID)
    for idx in (lin, tree):
        idx.insert((1.0, 2.0), "b")
        for i in range(15):
            idx.insert((float(i),), i)
        idx.remove(live_handles(idx)[0])
        for i in range(5):
            idx.insert((20.0 + i,), 20 + i)
    assert len(tree) == len(lin) == 20
    for x in ((0.4,), (14.6,), (22.2,), (30.0,)):
        assert nearest_outputs(tree, x) == nearest_outputs(lin, x)


def test_split_keeps_a_point_at_nan_distance():
    # The 17th insert splits the root leaf around (8.0,), and (nan,) sits
    # at a NaN distance from it: the split must still put it in a leaf, so
    # that removing it takes that point out and nothing else.
    lin = LinearScanIndex(EUCLID)
    tree = VpTreeIndex(EUCLID)
    for idx in (lin, tree):
        idx.insert((math.nan,), "nan")
        for i in range(1, 17):
            idx.insert((float(i),), i)
    queries = [(0.4,), (8.0,), (8.6,), (16.5,), (math.nan,)]
    for removed in (False, True):
        assert len(tree) == len(lin) == 17 - removed
        assert stored_outputs(tree) == stored_outputs(lin)
        for x in queries:
            assert nearest_outputs(tree, x) == nearest_outputs(lin, x)
        for idx in (lin, tree):
            idx.remove(live_handles(idx)[0])
    assert stored_outputs(tree) == list(range(2, 17))


def test_rebuild_keeps_an_unmeasured_root_leaf():
    # Seventeen equal points cannot be split, so the root leaf's cap grows
    # and a 2-D point joins it unmeasured.  The removals below force a
    # compaction, which measures nothing: a removal never raises.
    lin = LinearScanIndex(EUCLID)
    tree = VpTreeIndex(EUCLID)
    for idx in (lin, tree):
        for i in range(17):
            idx.insert((0.0,), i)
        idx.insert((1.0, 2.0), "b")
    stored = len(tree._points)
    for _ in range(40):
        for idx in (lin, tree):
            idx.insert((0.0,), "new")
            idx.remove(live_handles(idx)[-1])
    assert len(tree._points) < stored + 40
    for idx in (lin, tree):
        with pytest.raises(DimensionMismatchError):
            idx.query_nearest_set((0.0,))
        idx.remove(live_handles(idx)[17])
    assert nearest_outputs(tree, (0.5,)) == nearest_outputs(lin, (0.5,)) == list(range(17))


def test_a_root_leaf_rebuilt_at_one_live_id_grows_a_tree_again():
    # As above, the root leaf's cap doubles to 34 and a 2-D point joins it
    # unmeasured.  Once that point and all but one other are removed, the
    # compaction at one live id rebuilds the root, and no removal raises.
    # Inserts after it must grow a tree that agrees with the linear scan.
    lin = LinearScanIndex(EUCLID)
    tree = VpTreeIndex(EUCLID)
    for idx in (lin, tree):
        for i in range(17):
            idx.insert((0.0,), i)
        idx.insert((1.0, 2.0), "b")
        idx.remove(live_handles(idx)[17])
        while len(idx) > 1:
            idx.remove(live_handles(idx)[0])
        for i in range(40):
            idx.insert((i * 7 % 40 / 8.0,), 100 + i)
    assert tree._root.bucket is None
    assert stored_outputs(tree) == stored_outputs(lin)
    for k in range(-2, 45):
        x = (k / 8.0 + 0.03,)
        assert nearest_outputs(tree, x) == nearest_outputs(lin, x)
    assert nearest_outputs(tree, (0.0,)) == [16, 100]


def test_unsplittable_leaf_is_not_resorted_at_every_insert():
    # Under the discrete metric distinct points are all at distance 1, so
    # no split can separate them.  A failed split doubles the leaf's cap,
    # so the splits measure O(n) points in all, not the whole leaf per insert.
    calls = 0
    base = METRICS["discrete"].distance

    def counting(a, b):
        nonlocal calls
        calls += 1
        return base(a, b)

    idx = VpTreeIndex(MetricDescriptor("counted", counting))
    for i in range(2000):
        idx.insert((float(i),))
    assert calls <= 10 * 2000
    assert idx.query_nearest_set((1999.0,)) == [1999]


def test_discrete_run_costs_the_tree_no_more_than_a_linear_scan():
    # Under the discrete metric every live point ties with every other, so
    # both backends measure every live point at every query.  The tree may
    # add its vantage and split measurements, within 1% of the scan's.
    target = TARGETS["sine_1d"]
    base = METRICS["discrete"].distance
    calls = {}
    for kind in ("vptree", "linear"):
        calls[kind] = 0

        def counting(a, b, kind=kind):
            calls[kind] += 1
            return base(a, b)

        theorem_experiment(target, MetricDescriptor("counted", counting),
                           LearnerConfig(epsilon=0.05, q=0.9, seed=0),
                           IidUniform(target.domain, 0, points_stream_index(0)), 2000,
                           tail_window=1000, index_kind=kind)
    assert calls["linear"] > 1_000_000
    assert calls["vptree"] <= 1.01 * calls["linear"]


def test_churn_rebuilds_rarely(monkeypatch):
    # 10,000 insert/remove pairs at a steady 1000 live points: a compaction
    # waits until the removed ids still holding a slot exceed twice the live
    # count, and keeps none of them, so one comes every 2001 removals; a
    # tree this steady is never rebuilt.
    rebuilds = 0
    rebuild = VpTreeIndex._rebuild

    def counting(self):
        nonlocal rebuilds
        rebuilds += 1
        rebuild(self)

    monkeypatch.setattr(VpTreeIndex, "_rebuild", counting)
    rng = RandomStream(31, 0)
    idx = _filled(VpTreeIndex, EUCLID, [_random_point(rng, 2) for _ in range(1000)])
    for k in range(20_000):
        if k % 2:
            idx.remove(live_handles(idx)[rng.next_below(len(idx))])
        else:
            idx.insert(_random_point(rng, 2))
    assert len(idx) == 1000
    assert rebuilds <= 6


def _tree_shape(tree):
    """The tree's node count and the depth of its deepest leaf (a root leaf: 0)."""
    nodes = deepest = 0
    stack = [(tree._root, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        if node.bucket is None:
            stack += [(node.inner, depth + 1), (node.outer, depth + 1)]
        else:
            deepest = max(deepest, depth)
    return nodes, deepest


def _triggered_session(monkeypatch, points, rounds, rng, oracle=False):
    """Run ``rounds`` of (inserts, removals) on a tree and note its triggers.

    Each round inserts the next ``points``, then removes live points at
    random.  ``remove`` calls ``_compact`` once the removed ids holding a
    slot exceed twice the live count, and ``_compact`` rebuilds a stale tree
    through ``_rebuild``.  Returns the tree and, per trigger, the live
    count, whether it rebuilt, the removals since the previous trigger, and
    the node count and deepest leaf it left.  With ``oracle``, a linear scan
    mirrors the tree and each round ends with a query both answer alike.
    """
    compact, rebuild = VpTreeIndex._compact, VpTreeIndex._rebuild
    triggers, rebuilt = [], []

    def watched_compact(tree):
        rebuilt.clear()
        live = len(tree)
        compact(tree)
        triggers.append((live, bool(rebuilt), removals, *_tree_shape(tree)))

    def watched_rebuild(tree):
        rebuilt.append(True)
        rebuild(tree)

    monkeypatch.setattr(VpTreeIndex, "_compact", watched_compact)
    monkeypatch.setattr(VpTreeIndex, "_rebuild", watched_rebuild)
    tree = VpTreeIndex(EUCLID)
    lin = LinearScanIndex(EUCLID) if oracle else None
    handles = []  # the tree's live handles, ascending; renumbered at a trigger
    removals = 0  # since the last trigger
    tags = itertools.count()  # each point's output names it
    for inserts, removes in rounds:
        for _ in range(inserts):
            p, tag = next(points), next(tags)
            handles.append(len(tree._points))
            tree.insert(p, tag)
            if lin is not None:
                lin.insert(p, tag)
        for _ in range(removes):
            k = rng.next_below(len(handles))
            removals += 1
            seen = len(triggers)
            tree.remove(handles.pop(k))
            if lin is not None:
                lin.remove(k)
            if len(triggers) > seen:
                handles, removals = live_handles(tree), 0
        if lin is not None:
            x = _random_point(rng, 2)
            assert nearest_outputs(tree, x) == nearest_outputs(lin, x)
    assert len(tree) == len(handles)
    return tree, triggers


def _assert_triggers_amortized(triggers):
    # A compaction or rebuild keeps no removed id, so each trigger comes more
    # removals after the one before than twice the live count it meets:
    # compactions plus rebuilds number at most removals / (2 * live) + 1, the
    # live count taken at the triggers.
    for live, _, removals, _, _ in triggers:
        assert removals > 2 * live


def test_steady_churn_compacts_without_rebuilding(monkeypatch):
    # 12,000 insert/remove pairs at 1000 live points, each pair followed by a
    # query that must match the linear scan's: a trigger every 2,001
    # removals.
    rng = RandomStream(32, 0)
    points = iter(lambda: _random_point(rng, 2), None)
    tree, triggers = _triggered_session(monkeypatch, points, [(1000, 0)] + [(1, 1)] * 12_000,
                                        rng, oracle=True)
    assert len(triggers) >= 5
    assert not any(rebuilt for _, rebuilt, _, _, _ in triggers)
    _assert_triggers_amortized(triggers)


def test_grown_then_shrunk_tree_is_rebuilt(monkeypatch):
    # A tree grown to 10,000 live points and shrunk to 100 would keep most of
    # its leaves, nearly empty, if it were only compacted.
    rng = RandomStream(33, 0)
    points = iter(lambda: _random_point(rng, 2), None)
    tree, triggers = _triggered_session(monkeypatch, points, [(10_000, 9_900)], rng)
    assert len(tree) == 100
    assert any(rebuilt for _, rebuilt, _, _, _ in triggers)
    _assert_triggers_amortized(triggers)
    nodes, _ = _tree_shape(tree)
    assert nodes < len(tree)


def test_drifting_points_keep_the_tree_shallow(monkeypatch):
    # Insert/remove pairs whose points follow a random walk: new points keep
    # landing at the walk's end and deepen the tree there, so a trigger must
    # leave no leaf deeper than twice the bit length of live // leaf size.
    rng = RandomStream(34, 0)
    points = iter(RandomWalk(0.05, ((0.0, 10.0),) * 2, 34, 1).points(12_000))
    tree, triggers = _triggered_session(monkeypatch, points, [(1000, 0)] + [(1, 1)] * 10_000, rng)
    assert triggers
    for live, _, _, _, deepest in triggers:
        assert deepest <= 2 * (live // _LEAF_CAPACITY).bit_length()
    _assert_triggers_amortized(triggers)


def test_drifting_inserts_keep_the_tree_shallow_and_the_handles():
    # 10,000 inserts along a random walk, with no removal to trigger a
    # compaction, would leave a leaf ~150 deep: a split that pushes the
    # deepest leaf past twice the bit length of the live count re-splits
    # the tree without renumbering.  The handles taken before the inserts,
    # where removed ids still hold slots, keep naming their outputs.
    rng = RandomStream(35, 0)
    tree, lin = VpTreeIndex(EUCLID), LinearScanIndex(EUCLID)
    for tag in range(300):
        p = _random_point(rng, 2)
        for idx in (tree, lin):
            idx.insert(p, tag)
    for _ in range(100):
        k = rng.next_below(len(lin))
        tree.remove(live_handles(tree)[k])
        lin.remove(k)
    before = {h: tree.output(h) for h in live_handles(tree)}
    assert len(tree._points) == 300 and len(before) == 200
    for tag, p in enumerate(RandomWalk(0.05, ((0.0, 10.0),) * 2, 35, 1).points(10_000), 300):
        for idx in (tree, lin):
            idx.insert(p, tag)
    assert {h: tree.output(h) for h in before} == before
    assert len(tree._points) == 10_300
    _, deepest = _tree_shape(tree)
    assert deepest == tree._deepest <= 2 * len(tree).bit_length()
    for _ in range(20):
        x = _random_point(rng, 2)
        assert nearest_outputs(tree, x) == nearest_outputs(lin, x)


def test_other_metrics_errors_pass_through():
    # Only euclidean_distance itself is resolved to math.dist; a metric
    # that calls math.dist on its own keeps its ValueError.
    raw = MetricDescriptor("raw", math.dist)
    for kind in ("linear", "vptree"):
        idx = _filled(INDEXES[kind], raw, [(float(i),) for i in range(40)])
        with pytest.raises(ValueError):
            idx.query_nearest_set((1.0, 2.0))


# Call count and SHA-256 of every distance(stored, query) call the tree
# made in the session below: a change to the descent must make the same
# calls.  Taken once every live id came to sit in a leaf, internal nodes
# only routing: a split's routing point goes inner with its bucket, and a
# query measures routing points to route only (before: 20583 and 22408
# calls).  Earlier, a compaction came to keep only the live ids, dropping
# the slots of removed ids that still routed nodes, so that the triggers
# come later: the shrinks rebuild at 32 and 60 live, not 37 and 62 (before
# that: 20716 and 22472 calls).
# Earlier, a removal trigger came to compact the ids of a tree that was
# not stale instead of re-splitting it, which keeps the tree's shape between
# rebuilds (before that: 21156 and 22962 calls).  Earlier, removals came to leave
# their leaves at once and rebuilds to wait for twice the live count in
# removed points, and the second shrink grew from 100 to 120 removals so
# that it still rebuilds (before that: 23088 and 24952 calls; before splits
# stopped measuring removed ids: 23228 and 24929).
_SESSION_CALLS = {
    0.0: (21112, "faba91cc3f526b371d0a6ce3c07832409b15e825a671bf314bc4e84a6dca021b"),
    0.25: (22818, "3d46ea7724df729b9270e9ca09c2515b52fecca6ae1f7fe06b5fdd954f1d51c2"),
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

    # Grow, shrink and regrow: each shrink leaves more removed ids than
    # twice the live count.  The first compacts the ids once, then finds the
    # tree stale and rebuilds it; the second takes 120 from 170 and rebuilds.
    for op, count in [("insert", 300), ("remove", 280), ("insert", 150),
                      ("remove", 120), ("insert", 60)]:
        for _ in range(count):
            if op == "insert":
                idx.insert(point())
            else:
                idx.remove(live_handles(idx)[rng.next_below(len(idx))])
            idx.query_nearest_set(point(), tie_tol)
    digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
    assert (len(calls), digest) == _SESSION_CALLS[tie_tol]


# Call count and SHA-256 of every distance(stored, query) call in a 1-D run
# shaped like the benchmark's churn workload (sine_1d, epsilon 0.001,
# q 0.5, seed 0): about 1100 live exemplars, half of the steps inserting and
# half removing, and two compactions, no rebuild, within the 12,000 steps.
# Taken once every live id came to sit in a leaf and internal nodes came to
# route only (before: 255995 calls; before that, 271254, when each of the
# two compactions re-split the tree).
_CHURN_CALLS = (258305, "d065028aeebc9685aa96d0c81c67a92890f398ae24ff24f281155e57fbbd66b3")


def test_tree_distance_calls_are_pinned_on_a_churn_run():
    calls = []

    def distance(stored, query):
        calls.append(f"{stored!r}|{query!r}")
        return EUCLID.distance(stored, query)

    target = TARGETS["sine_1d"]
    config = LearnerConfig(epsilon=0.001, q=0.5, seed=0)
    theorem_experiment(target, MetricDescriptor("counted", distance), config,
                       IidUniform(target.domain, config.seed, points_stream_index(0)),
                       12_000, index_kind="vptree")
    digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
    assert (len(calls), digest) == _CHURN_CALLS
