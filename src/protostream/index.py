"""Exact nearest-set search with two interchangeable backends.

Both backends answer the same question: the ascending handles of the
exemplars whose distance to the query is within ``tie_tolerance``
(relative) of the exact minimum.  A handle names one exemplar until the
next ``remove``, and ``output(handle)`` and ``remove(handle)`` take it;
a negative, out-of-range or removed handle raises PositionOutOfRangeError.
Handles ascend in insertion order, so the k-th handle of a tie set names
the same exemplar on both backends.  Both also expose the list they keep
the outputs in, read-only, as ``outputs``: ``outputs[handle]`` is
``output(handle)`` for a live handle, without the check, and the learner
reads it with the handle its query just returned.  ``LinearScanIndex`` is
the reference and hands out positions; ``VpTreeIndex`` prunes with the
triangle inequality, hands out its internal ids, and must return the same
exemplars for any operation sequence that both accept (see below for the
inserts only the linear scan accepts).

The tree answers a query in a single descent.  It keeps every live point
within ``best * (1 + tie_tolerance)`` of the closest distance seen so far,
prunes against that shrinking band, and at the end drops the candidates
outside the band of the exact minimum.  An internal node holds its vantage
point itself, ``point``, so a descent measures it without an id lookup.  A
far child waits with its gap, the bound below which the slack-widened
triangle test prunes it, computed once when it is pushed; popping it costs
one comparison, and a NaN gap never prunes.  Every candidate is at least
the best distance known when it was added, so a new best ``d`` with
``d * (1 + tie_tolerance)`` below the previous best leaves no earlier
candidate in the final band, and the candidate list restarts at ``d``.  At
tolerance 0 it restarts at every new best, so a query usually ends with one
candidate, which it returns after the band test without a sort.

A removal releases the id's point and output at once and takes a leaf id
out of its leaf, so leaves hold only live ids and a query never measures a
removed leaf point.  A removed vantage point stays on its node, which is
marked no longer live, and still partitions the points below; its id, like
any removed id, names no node.  Every removed id keeps its slot in the
per-id lists until the removed ids holding a slot outnumber twice the live
count, so the tree's storage stays within three times the live count, not
the number of points ever inserted.  Then one renumbering keeps the live
ids, in the same order, and drops every other slot.  A compaction then
remaps the buckets and vantage ids the kept ids name, in place: it measures
no distance and leaves the tree's shape as it is.  A stale tree is rebuilt
from the renumbered ids instead.  It is stale when it has more leaves than
half the live count, or a leaf deeper than twice the bit length of
``live // _LEAF_CAPACITY``: the depth test of a scapegoat tree (Galperin
and Rivest, SODA 1993), applied to the whole tree.  The tree counts its
leaves and its deepest leaf as it splits, so the test is O(1).  No removed
id survives a trigger, so the next one comes more removals later than
twice the live count it meets.  Amortized, each removal pays O(1) for
compactions and O(log n) distance calls for rebuilds.  Inserts alone, such
as a drifting stream's, can deepen the tree too: an insert whose split
pushes the deepest leaf past twice the bit length of the live count (about
eight levels above the stale test's bound) re-splits the tree from its live
ids without renumbering them, so every handle stays valid.

Candidate distances are always evaluated as ``distance(stored, query)``
in both backends, so tie comparisons at tolerance 0 are bit-exact.  Under
``euclidean_distance`` both call ``math.dist`` itself and turn its
ValueError into DimensionMismatchError at their own boundary.

Neither backend checks a point's dimension when it does not measure it:
``LinearScanIndex`` never measures on insert, and the tree does not while
its root is still a leaf.  Such a point is stored, and the next query
raises DimensionMismatchError.  An insert that raises, on the way down or
in the split of an overflowing leaf, leaves the index as it was.

Leaves hold only live ids, so a split measures live points only, and once
the root has split every stored point, removed vantage points included, has
the root vantage point's dimension.  So a tree insert whose point has the
dimension of every live point never raises.  Where the live points'
dimensions differ, the tree's descent or split may raise where the linear
scan stores the point: the two backends accept the same inserts only while
the live points share one dimension.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import DimensionMismatchError, EmptyModelError, PositionOutOfRangeError
from .metrics import MetricDescriptor, euclidean_distance

_LEAF_CAPACITY = 16

# Relative slack applied to pruning bounds only (never to the tie test
# itself): computed distances can violate the triangle inequality by a
# few ulps, and a pruned subtree cannot be recovered later.
_PRUNE_SLACK = 1e-9

# ``outputs`` of both backends: read-only, and read without a Python call.
_OUTPUTS = property(attrgetter("_outputs"), doc="The stored outputs by handle; a removed "
                    "handle's slot of the tree holds None.")

# A far child is pruned when dv < (mu - bound) * (1 - slack) (outer) or
# dv > (mu + bound) * (1 + slack) (inner), that is when the bound falls
# below mu - dv * _OUTER or dv * _INNER - mu.
_OUTER = 1.0 / (1.0 - _PRUNE_SLACK)
_INNER = 1.0 / (1.0 + _PRUNE_SLACK)


def _resolve(metric: MetricDescriptor):
    """The distance a backend calls, and the errors that mean a dimension mismatch.

    ``euclidean_distance`` only wraps ``math.dist`` to translate its
    ValueError, so it is resolved, by identity, to ``math.dist``.  Any
    other metric, a wrapped euclidean included, is called as given and its
    errors pass through: ``except ()`` catches nothing.
    """
    if metric.distance is euclidean_distance:
        return math.dist, ValueError
    return metric.distance, ()


def _dimension_error(exc: ValueError) -> DimensionMismatchError:
    return DimensionMismatchError(f"euclidean distance needs equal dimensions: {exc}")


def linear_tie_set(points, x, distance, tie_tolerance: float) -> list[int]:
    """Positions of all points within the relative tie band of the minimum.

    Single pass; with ``tie_tolerance`` 0 membership requires bit-equality
    with the minimum distance.  Ascending position order.
    """
    dmin = math.inf
    ds = []
    append = ds.append
    for p in points:
        d = distance(p, x)
        append(d)
        if d < dmin:
            dmin = d
    if not ds:
        raise EmptyModelError("nearest-set query against an empty point sequence")
    threshold = dmin * (1.0 + tie_tolerance)
    return [i for i, d in enumerate(ds) if d <= threshold]


def _check_position(position: int, n: int) -> None:
    if not 0 <= position < n:
        raise PositionOutOfRangeError(f"position {position} not in [0, {n})")


class LinearScanIndex:
    """Brute-force backend, the tree's oracle; its handles are positions."""

    def __init__(self, metric: MetricDescriptor):
        self._distance, self._mismatch = _resolve(metric)
        self._points: list = []
        self._outputs: list = []

    outputs = _OUTPUTS

    def __len__(self) -> int:
        return len(self._points)

    def insert(self, point, output=None) -> None:
        self._points.append(point)
        self._outputs.append(output)

    def output(self, position: int):
        _check_position(position, len(self._points))
        return self._outputs[position]

    def remove(self, position: int) -> None:
        _check_position(position, len(self._points))
        del self._points[position]
        del self._outputs[position]

    def query_nearest_set(self, x, tie_tolerance: float = 0.0) -> list[int]:
        try:
            return linear_tie_set(self._points, x, self._distance, tie_tolerance)
        except self._mismatch as exc:
            raise _dimension_error(exc) from None


class _Node:
    """Tree node; ``bucket`` is a list of point ids at leaves, else None.

    An internal node's vantage point is ``point``, and ``vantage`` is its id,
    the handle.  A compaction renumbers ``vantage`` and the bucket ids in
    place, and a rebuild builds new nodes; neither replaces a point object,
    so ``point`` never goes stale.  Inner holds the points
    with ``d(point, p) <= mu``, outer every other one, NaN distances included.
    An internal node is ``live`` until its vantage point is removed; then it
    keeps ``point`` to route by, and ``vantage`` names no id any more.  A
    leaf is always ``live``.  ``depth`` counts the edges from the root.  A
    leaf splits once its bucket outgrows ``cap``.  A split that cannot
    separate the bucket (every point at one distance from the vantage, or a
    NaN median) doubles the leaf's ``cap``, so the next attempt waits until
    the bucket has doubled instead of coming at every insert.
    """

    __slots__ = ("vantage", "point", "live", "mu", "inner", "outer", "bucket", "cap", "depth")

    def __init__(self, bucket, depth=0):
        self.vantage = -1
        self.point = None
        self.live = True
        self.mu = 0.0
        self.inner = None
        self.outer = None
        self.bucket = bucket
        self.cap = _LEAF_CAPACITY
        self.depth = depth


class VpTreeIndex:
    """Vantage-point tree over an arbitrary metric (Yianilos, SODA 1993).

    Inserts descend by the stored split radii, so the partition invariant
    (inner holds exactly the points with d(vantage, p) <= mu) survives
    mutation.  Points get increasing internal ids, the handles the tree
    hands out.  ``_node`` names each live id's node: the leaf that holds
    it, or the internal node whose vantage point it is; a removed id's entry
    is None, so an id is live exactly when its node is not None.  Whenever
    the removed ids still holding a slot, ``len(_points) - _live``, exceed
    twice the live count, ``_compact`` keeps the live ids, renumbered to
    ``0..n-1`` in order, and drops every other slot; it then remaps the
    nodes the kept ids name, or rebuilds a stale tree from them (see the
    module docstring).  So ``len(_points)`` never exceeds three times the
    live count, and the order of handles, hence every tie order, is
    unchanged.  ``_leaves`` and ``_deepest`` count the tree's leaves and
    the depth of its deepest leaf, so the stale test walks nothing.
    """

    def __init__(self, metric: MetricDescriptor):
        self._distance, self._mismatch = _resolve(metric)
        self._points: list = []       # by internal id, compacted at a trigger
        self._outputs: list = []      # by internal id, compacted at a trigger
        self._node: list = []         # by internal id: its leaf or vantage node, or None
        self._live = 0                # number of live ids
        self._root = _Node([])        # an empty leaf while nothing is stored
        self._leaves, self._deepest = 1, 0  # the tree's leaf count and deepest leaf

    outputs = _OUTPUTS

    def __len__(self) -> int:
        return self._live

    def output(self, handle: int):
        node_of = self._node
        if not 0 <= handle < len(node_of) or node_of[handle] is None:
            raise PositionOutOfRangeError(f"handle {handle} names no live exemplar")
        return self._outputs[handle]

    # -- maintenance ---------------------------------------------------

    def insert(self, point, output=None) -> None:
        # Descend before storing anything, so a metric that raises on the
        # way down leaves the index as it was.
        node = self._root
        dist = self._distance
        pts = self._points
        try:
            while node.bucket is None:
                node = node.inner if dist(node.point, point) <= node.mu else node.outer
            pid = len(pts)
            pts.append(point)
            self._outputs.append(output)
            self._node.append(node)
            bucket = node.bucket
            bucket.append(pid)
            if len(bucket) > node.cap:
                deepest = self._deepest
                try:
                    self._split(node)
                except Exception:
                    # Only the split's first distance pass measures the new
                    # point, and it runs before any node changes; later
                    # passes compare points it measured.  Take it back out.
                    bucket.pop()
                    pts.pop()
                    self._outputs.pop()
                    self._node.pop()
                    raise
                # A split that pushes the deepest leaf past this bound re-splits
                # the tree, keeping every id (see the module docstring).
                if deepest <= 2 * self._live.bit_length() < self._deepest:
                    self._rebuild()
        except self._mismatch as exc:
            raise _dimension_error(exc) from None
        self._live += 1

    def remove(self, handle: int) -> None:
        # Points of different dimensions can only share a root leaf (a
        # descent or split measures every other stored point against the
        # root vantage); a compaction measures nothing, and a rebuild does
        # not split a root leaf: it cannot raise.
        self.output(handle)  # raises PositionOutOfRangeError unless the handle is live
        node = self._node[handle]
        self._node[handle] = None
        if node.bucket is None:
            # The vantage point stays on its node: descents still measure it.
            node.live = False
        else:
            node.bucket.remove(handle)
        self._points[handle] = self._outputs[handle] = None
        self._live = live = self._live - 1
        if len(self._points) - live > 2 * live:
            self._compact()

    def _compact(self) -> None:
        # Keep the live ids, renumbered in order, and drop every other slot.
        node_of, pts, outputs = self._node, self._points, self._outputs
        kept = [i for i, node in enumerate(node_of) if node is not None]
        self._points = [pts[i] for i in kept]
        self._outputs = [outputs[i] for i in kept]
        self._node = nodes = [node_of[i] for i in kept]
        live = self._live
        if 2 * self._leaves > live or self._deepest > 2 * (live // _LEAF_CAPACITY).bit_length():
            self._rebuild()
            return
        # The tree keeps its shape and points: only the nodes the kept ids
        # name change, and a bucket keeps its order.
        new_id = dict(zip(kept, range(live)))
        for node in dict.fromkeys(nodes):
            if node.bucket is None:
                node.vantage = new_id[node.vantage]
            else:
                node.bucket = [new_id[i] for i in node.bucket]

    def _rebuild(self) -> None:
        # Re-split the tree from its live ids, keeping their numbers.
        root = _Node([i for i, node in enumerate(self._node) if node is not None])
        if self._root.bucket is not None:
            # A root leaf already holds every live id within its cap, and
            # some of them no split has measured: it stays unsplit.
            root.cap = self._root.cap
        self._root = root
        self._leaves, self._deepest = 1, 0
        self._split(root)

    def _split(self, node: _Node) -> None:
        # Iteratively split oversized leaves; a leaf whose points all sit
        # at one distance from the vantage, or whose median distance is NaN,
        # leaves one side empty: it cannot make progress, is kept
        # oversized and doubles its cap.  Every bucket holds live ids only,
        # and ``_node`` names the leaf or internal node where each id ends.
        # No node changes before the first distance pass, so a split that
        # raises leaves the tree as it was.
        dist = self._distance
        pts = self._points
        node_of = self._node
        stack = [node]
        while stack:
            leaf = stack.pop()
            bucket = leaf.bucket
            if len(bucket) <= leaf.cap:
                for i in bucket:
                    node_of[i] = leaf
                continue
            vantage = bucket[len(bucket) // 2]
            rest = bucket[: len(bucket) // 2] + bucket[len(bucket) // 2 + 1:]
            vp = pts[vantage]
            pairs = sorted((dist(vp, pts[i]), i) for i in rest)
            mu = pairs[(len(pairs) - 1) // 2][0]
            # A NaN distance goes outer, where an insert's descent sends it.
            inner = [i for d, i in pairs if d <= mu]
            outer = [i for d, i in pairs if not d <= mu]
            if not inner or not outer:
                leaf.cap = 2 * len(bucket)
                for i in bucket:
                    node_of[i] = leaf
                continue
            node_of[vantage] = leaf
            leaf.vantage = vantage
            leaf.point = vp
            leaf.mu = mu
            depth = leaf.depth + 1
            leaf.inner = _Node(inner, depth)
            leaf.outer = _Node(outer, depth)
            leaf.bucket = None
            self._leaves += 1
            self._deepest = max(self._deepest, depth)
            stack.append(leaf.inner)
            stack.append(leaf.outer)

    # -- queries ---------------------------------------------------------

    def query_nearest_set(self, x, tie_tolerance: float = 0.0) -> list[int]:
        # One descent: every live point within the current band
        # best * (1 + tol) is a candidate, and the band only shrinks, so
        # the candidates include the final tie set.  Each id sits in one
        # node, so each distance is evaluated at most once.
        if not self._live:
            raise EmptyModelError("nearest-set query against an empty index")
        dist = self._distance
        pts = self._points
        widen = 1.0 + tie_tolerance
        best = bound = math.inf
        # Every candidate is at least the best distance known when it was
        # added, so a new best d with d * widen < best leaves no earlier
        # candidate inside the final band: the list restarts.
        found = []
        far = []  # (gap, child): the child is pruned once the bound is below gap
        node = self._root
        try:
            while True:
                while (bucket := node.bucket) is None:
                    dv = dist(node.point, x)
                    if node.live and dv <= bound:
                        if dv < best:
                            if dv * widen < best:
                                found = []
                            best = dv
                            bound = dv * widen
                        found.append((node.vantage, dv))
                    mu = node.mu
                    # The near child can never be pruned (dv <= mu <= mu + bound,
                    # or dv > mu >= mu - bound), so descend into it at once.
                    if dv <= mu:
                        far.append((mu - dv * _OUTER, node.outer))
                        node = node.inner
                    else:
                        far.append((dv * _INNER - mu, node.inner))
                        node = node.outer
                for pid in bucket:
                    d = dist(pts[pid], x)
                    if d <= bound:
                        if d < best:
                            if d * widen < best:
                                found = []
                            best = d
                            bound = d * widen
                        found.append((pid, d))
                # A NaN gap never prunes.
                while far:
                    gap, node = far.pop()
                    if not gap > bound:
                        break
                else:
                    break
        except self._mismatch as exc:
            raise _dimension_error(exc) from None
        # bound is now best * (1 + tol) for the exact minimum best, the same
        # threshold linear_tie_set applies (best * 1.0 == best at tol 0).
        # The test stays for one candidate too: under a negative or NaN
        # tolerance the band can exclude even the best candidate.
        if len(found) == 1:
            (pid, d), = found
            return [pid] if d <= bound else []
        return sorted([pid for pid, d in found if d <= bound])


# The one place an index kind name maps to a backend class.
INDEXES = {"linear": LinearScanIndex, "vptree": VpTreeIndex}
INDEX_KINDS = tuple(INDEXES)
