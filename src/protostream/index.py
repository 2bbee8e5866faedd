"""Exact nearest-set search with two interchangeable backends.

Both backends answer the same question: the ascending handles of the
exemplars whose distance to the query is within ``tie_tolerance``
(relative) of the exact minimum.  A handle names one exemplar until the
next ``remove``, and ``output(handle)`` and ``remove(handle)`` take it;
a negative, out-of-range or removed handle raises PositionOutOfRangeError.
Handles ascend in insertion order, so the k-th handle of a tie set names
the same exemplar on both backends.  ``LinearScanIndex`` is the reference
and hands out positions; ``VpTreeIndex`` prunes with the triangle
inequality, hands out its internal ids, and must return the same
exemplars for any operation sequence that both accept (see below for the
inserts only the linear scan accepts).

The tree answers a query in a single descent.  It keeps every live point
within ``best * (1 + tie_tolerance)`` of the closest distance seen so far,
prunes against that shrinking band, and at the end drops the candidates
outside the band of the exact minimum.

A removal takes the id out of its leaf at once and releases its point and
output, so leaves hold only live ids and a query never measures a removed
leaf point.  A removed vantage point stays in its node, which is marked no
longer live, and still partitions the points below.  Every removed id keeps
its slot in the per-id lists until the next rebuild, which renumbers the
live ids to ``0..n-1`` in the same order and drops the slots; it runs once
the removed ids outnumber twice the live count, so the tree's storage stays
within three times the live count, not the number of points ever inserted.

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

from .errors import DimensionMismatchError, EmptyModelError, PositionOutOfRangeError
from .metrics import MetricDescriptor, euclidean_distance

_LEAF_CAPACITY = 16

# Relative slack applied to pruning bounds only (never to the tie test
# itself): computed distances can violate the triangle inequality by a
# few ulps, and a pruned subtree cannot be recovered later.
_PRUNE_SLACK = 1e-9


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

    An internal node is ``live`` until its vantage point is removed; a leaf
    is always ``live``.  A leaf splits once its bucket outgrows ``cap``.  A
    split that cannot separate the bucket (every point at one distance from
    the vantage) doubles the leaf's ``cap``, so the next attempt waits until
    the bucket has doubled instead of coming at every insert.
    """

    __slots__ = ("vantage", "live", "mu", "inner", "outer", "bucket", "cap")

    def __init__(self, bucket):
        self.vantage = -1
        self.live = True
        self.mu = 0.0
        self.inner = None
        self.outer = None
        self.bucket = bucket
        self.cap = _LEAF_CAPACITY


class VpTreeIndex:
    """Vantage-point tree over an arbitrary metric (Yianilos, SODA 1993).

    Inserts descend by the stored split radii, so the partition invariant
    (inner holds exactly the points with d(vantage, p) <= mu) survives
    mutation.  Points get increasing internal ids, the handles the tree
    hands out.  ``_node`` names each id's node: the leaf that holds it, or
    the internal node whose vantage point it is.  Removal takes the id out
    of its leaf and clears its ``_node`` entry, or clears its internal
    node's ``live``, so an id is live exactly when its node is not None and
    ``live``.  The tree is rebuilt from live points whenever the removed ids
    still holding a slot, ``len(_points) - _live``, exceed twice the live
    count, so ``len(_points)`` never exceeds three times the live count.  A
    rebuild renumbers the live ids to ``0..n-1``, order preserved, and drops
    the dead entries; vantage picks and tie orders are unchanged by it.
    """

    def __init__(self, metric: MetricDescriptor):
        self._distance, self._mismatch = _resolve(metric)
        self._points: list = []       # by internal id, compacted at rebuild
        self._outputs: list = []      # by internal id, compacted at rebuild
        self._node: list = []         # by internal id: its leaf or vantage node, or None
        self._live = 0                # number of live ids
        self._root = _Node([])        # an empty leaf while nothing is stored

    def __len__(self) -> int:
        return self._live

    def output(self, handle: int):
        node_of = self._node
        node = node_of[handle] if 0 <= handle < len(node_of) else None
        if node is None or not node.live:
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
                node = node.inner if dist(pts[node.vantage], point) <= node.mu else node.outer
            pid = len(pts)
            pts.append(point)
            self._outputs.append(output)
            self._node.append(node)
            bucket = node.bucket
            bucket.append(pid)
            if len(bucket) > node.cap:
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
        except self._mismatch as exc:
            raise _dimension_error(exc) from None
        self._live += 1

    def remove(self, handle: int) -> None:
        # Points of different dimensions can only share a root leaf (a
        # descent or split measures every other stored point against the
        # root vantage), and a rebuild does not split that: it cannot raise.
        self.output(handle)  # raises PositionOutOfRangeError unless the handle is live
        node = self._node[handle]
        if node.bucket is None:
            # A vantage point keeps its point: descents still measure it.
            node.live = False
        else:
            node.bucket.remove(handle)
            self._node[handle] = self._points[handle] = self._outputs[handle] = None
        self._live = live = self._live - 1
        if len(self._points) - live > 2 * live:
            self._rebuild()

    def _rebuild(self) -> None:
        # Leaves are always live, so an id is live while its node is.
        ids = [i for i, node in enumerate(self._node) if node is not None and node.live]
        pts, outputs = self._points, self._outputs
        self._points = [pts[i] for i in ids]
        self._outputs = [outputs[i] for i in ids]
        n = len(ids)
        root = _Node(list(range(n)))
        self._node = [root] * n
        old, self._root = self._root, root
        if old.bucket is not None:
            # A root leaf already holds every live id within its cap, and
            # some of them no split has measured.
            root.cap = old.cap
        elif n > _LEAF_CAPACITY:
            self._split(root)

    def _split(self, node: _Node) -> None:
        # Iteratively split oversized leaves; a leaf whose points all sit
        # at one distance from the vantage cannot make progress, is kept
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
            inner = [i for d, i in pairs if d <= mu]
            outer = [i for d, i in pairs if d > mu]
            if not outer:
                leaf.cap = 2 * len(bucket)
                for i in bucket:
                    node_of[i] = leaf
                continue
            node_of[vantage] = leaf
            leaf.vantage = vantage
            leaf.mu = mu
            leaf.inner = _Node(inner)
            leaf.outer = _Node(outer)
            leaf.bucket = None
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
        found = []
        # Far children wait as (node, parent vantage distance, parent mu,
        # is inner); the prune test runs at pop time against the tightened
        # bound.
        far = []
        node = self._root
        try:
            while node is not None:
                bucket = node.bucket
                if bucket is None:
                    vantage = node.vantage
                    dv = dist(pts[vantage], x)
                    if node.live and dv <= bound:
                        found.append((vantage, dv))
                        if dv < best:
                            best = dv
                            bound = best * widen
                    mu = node.mu
                    # The near child can never be pruned (dv <= mu <= mu + bound,
                    # or dv > mu >= mu - bound), so descend into it at once.
                    if dv <= mu:
                        far.append((node.outer, dv, mu, False))
                        node = node.inner
                    else:
                        far.append((node.inner, dv, mu, True))
                        node = node.outer
                    continue
                for pid in bucket:
                    d = dist(pts[pid], x)
                    if d <= bound:
                        found.append((pid, d))
                        if d < best:
                            best = d
                            bound = best * widen
                node = None
                while far:
                    child, dv, mu, inner = far.pop()
                    if inner and dv > (mu + bound) * (1.0 + _PRUNE_SLACK):
                        continue
                    if not inner and dv < (mu - bound) * (1.0 - _PRUNE_SLACK):
                        continue
                    node = child
                    break
        except self._mismatch as exc:
            raise _dimension_error(exc) from None
        # bound is now best * (1 + tol) for the exact minimum best, the same
        # threshold linear_tie_set applies (best * 1.0 == best at tol 0).
        return sorted([pid for pid, d in found if d <= bound])


# The one place an index kind name maps to a backend class.
INDEXES = {"linear": LinearScanIndex, "vptree": VpTreeIndex}
INDEX_KINDS = tuple(INDEXES)
