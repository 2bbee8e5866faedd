"""Exact nearest-set search with two interchangeable backends.

Both backends answer the same question: the ordered list of positions in
the current point sequence whose distance to the query is within
``tie_tolerance`` (relative) of the exact minimum.  ``LinearScanIndex``
is the reference; ``VpTreeIndex`` prunes with the triangle inequality
and must return the identical position set for any operation sequence.
Each backend is also the learner's exemplar store: ``insert(point,
output)`` keeps the output with its point and ``output(position)`` reads
it back.

The tree answers a query in a single descent.  It keeps every live point
within ``best * (1 + tie_tolerance)`` of the closest distance seen so far,
prunes against that shrinking band, and at the end drops the candidates
outside the band of the exact minimum.  It keeps the live internal ids in
one ascending list; a point's position is the rank of its id there.  Each
rebuild renumbers the live ids to ``0..n-1`` in the same order and drops
the removed points, so the tree's storage follows the live count, not the
number of points ever inserted.

Candidate distances are always evaluated as ``distance(stored, query)``
in both backends, so tie comparisons at tolerance 0 are bit-exact.  Under
``euclidean_distance`` both call ``math.dist`` itself and turn its
ValueError into DimensionMismatchError at their own boundary.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .errors import ConfigError, DimensionMismatchError, EmptyModelError, PositionOutOfRangeError
from .metrics import MetricDescriptor, euclidean_distance

_DEFAULT_LEAF_CAPACITY = 16

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
    threshold = dmin if tie_tolerance == 0.0 else dmin * (1.0 + tie_tolerance)
    return [i for i, d in enumerate(ds) if d <= threshold]


def _check_position(position: int, n: int) -> None:
    if not 0 <= position < n:
        raise PositionOutOfRangeError(f"position {position} not in [0, {n})")


class LinearScanIndex:
    """Brute-force backend; the oracle the tree is checked against."""

    kind = "linear"

    def __init__(self, metric: MetricDescriptor, points=()):
        self._distance, self._mismatch = _resolve(metric)
        self._points = list(points)
        self._outputs = [None] * len(self._points)

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
    """Tree node; ``bucket`` is a list of point ids at leaves, else None."""

    __slots__ = ("vantage", "mu", "inner", "outer", "bucket")

    def __init__(self, bucket):
        self.vantage = -1
        self.mu = 0.0
        self.inner = None
        self.outer = None
        self.bucket = bucket


class VpTreeIndex:
    """Vantage-point tree over an arbitrary metric (Yianilos, SODA 1993).

    Inserts descend by the stored split radii, so the partition invariant
    (inner holds exactly the points with d(vantage, p) <= mu) survives
    mutation.  Removal tombstones; the tree is rebuilt from live points
    whenever tombstones exceed half the live count.

    Points get increasing internal ids and ``_ids`` lists the live ones in
    ascending order.  Removal keeps the relative order, so a point's
    position is the rank of its id in ``_ids``.  A rebuild renumbers the
    live ids to ``0..n-1``, order preserved, and drops the dead entries;
    positions, vantage picks and tie orders are unchanged by it.
    """

    kind = "vptree"

    def __init__(self, metric: MetricDescriptor, points=(), leaf_capacity: int = _DEFAULT_LEAF_CAPACITY):
        if leaf_capacity < 1:
            raise ConfigError(f"leaf capacity must be at least 1, got {leaf_capacity}")
        self._distance, self._mismatch = _resolve(metric)
        self._capacity = leaf_capacity
        self._points: list = []       # by internal id, compacted at rebuild
        self._outputs: list = []      # by internal id, compacted at rebuild
        self._alive: list[bool] = []  # by internal id
        self._ids: list[int] = []     # live ids, ascending
        self._root: _Node | None = None
        self._dead = 0
        for p in points:
            self.insert(p)

    def __len__(self) -> int:
        return len(self._ids)

    def output(self, position: int):
        ids = self._ids
        _check_position(position, len(ids))
        return self._outputs[ids[position]]

    # -- maintenance ---------------------------------------------------

    def insert(self, point, output=None) -> None:
        # Descend before storing anything, so a metric that raises on the
        # way down leaves the index as it was.
        node = self._root
        dist = self._distance
        pts = self._points
        try:
            while node is not None and node.bucket is None:
                node = node.inner if dist(pts[node.vantage], point) <= node.mu else node.outer
            pid = len(pts)
            pts.append(point)
            self._outputs.append(output)
            self._alive.append(True)
            self._ids.append(pid)
            if node is None:
                self._root = _Node([pid])
                return
            node.bucket.append(pid)
            if len(node.bucket) > self._capacity:
                self._split(node)
        except self._mismatch as exc:
            raise _dimension_error(exc) from None

    def remove(self, position: int) -> None:
        _check_position(position, len(self._ids))
        self._alive[self._ids.pop(position)] = False
        self._dead += 1
        if self._dead * 2 > len(self._ids):
            try:
                self._rebuild()
            except self._mismatch as exc:
                raise _dimension_error(exc) from None

    def _rebuild(self) -> None:
        ids = self._ids
        pts = self._points
        outputs = self._outputs
        self._points = [pts[i] for i in ids]
        self._outputs = [outputs[i] for i in ids]
        n = len(ids)
        self._alive = [True] * n
        self._ids = list(range(n))
        self._dead = 0
        if not n:
            self._root = None
            return
        root = _Node(list(range(n)))
        self._root = root
        if n > self._capacity:
            self._split(root)

    def _split(self, node: _Node) -> None:
        # Iteratively split oversized leaves; a leaf whose points all sit
        # at one distance from the vantage cannot make progress and is
        # kept oversized.
        dist = self._distance
        pts = self._points
        stack = [node]
        while stack:
            leaf = stack.pop()
            bucket = leaf.bucket
            if len(bucket) <= self._capacity:
                continue
            vantage = bucket[len(bucket) // 2]
            rest = bucket[: len(bucket) // 2] + bucket[len(bucket) // 2 + 1:]
            vp = pts[vantage]
            pairs = sorted((dist(vp, pts[i]), i) for i in rest)
            mu = pairs[(len(pairs) - 1) // 2][0]
            inner = [i for d, i in pairs if d <= mu]
            outer = [i for d, i in pairs if d > mu]
            if not outer:
                continue
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
        if not self._ids:
            raise EmptyModelError("nearest-set query against an empty index")
        dist = self._distance
        pts = self._points
        alive = self._alive
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
                    if alive[vantage] and dv <= bound:
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
                    if alive[pid]:
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
        ids = self._ids
        positions = [bisect_left(ids, pid) for pid, d in found if d <= bound]
        positions.sort()
        return positions


# The one place an index kind name maps to a backend class.
INDEXES = {"linear": LinearScanIndex, "vptree": VpTreeIndex}
INDEX_KINDS = tuple(INDEXES)
