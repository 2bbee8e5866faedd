"""Exact nearest-set search with two interchangeable backends.

Both backends answer the same question: the ordered list of positions in
the current point sequence whose distance to the query is within
``tie_tolerance`` (relative) of the exact minimum.  ``LinearScanIndex``
is the reference; ``VpTreeIndex`` prunes with the triangle inequality
and must return the identical position set for any operation sequence.

The tree answers a query in a single descent.  It keeps every live point
within ``best * (1 + tie_tolerance)`` of the closest distance seen so far,
prunes against that shrinking band, and at the end drops the candidates
outside the band of the exact minimum.  It keeps the live internal ids in
one ascending list; a point's position is the rank of its id there.  Each
rebuild renumbers the live ids to ``0..n-1`` in the same order and drops
the removed points, so the tree's storage follows the live count, not the
number of points ever inserted.

Candidate distances are always evaluated as ``distance(stored, query)``
in both backends, so tie comparisons at tolerance 0 are bit-exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .errors import EmptyModelError, PositionOutOfRangeError
from .metrics import MetricDescriptor

_DEFAULT_LEAF_CAPACITY = 16

# Relative slack applied to pruning bounds only (never to the tie test
# itself): computed distances can violate the triangle inequality by a
# few ulps, and a pruned subtree cannot be recovered later.
_PRUNE_SLACK = 1e-9


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


class LinearScanIndex:
    """Brute-force backend; the oracle the tree is checked against."""

    kind = "linear"

    def __init__(self, metric: MetricDescriptor, points=()):
        self._distance = metric.distance
        self._points = list(points)

    def __len__(self) -> int:
        return len(self._points)

    def insert(self, point) -> None:
        self._points.append(point)

    def remove(self, position: int) -> None:
        if not 0 <= position < len(self._points):
            raise PositionOutOfRangeError(
                f"position {position} not in [0, {len(self._points)})"
            )
        del self._points[position]

    def query_nearest_set(self, x, tie_tolerance: float = 0.0) -> list[int]:
        return linear_tie_set(self._points, x, self._distance, tie_tolerance)


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
            raise ValueError("leaf capacity must be at least 1")
        self._distance = metric.distance
        self._capacity = leaf_capacity
        self._points: list = []       # by internal id, compacted at rebuild
        self._alive: list[bool] = []  # by internal id
        self._ids: list[int] = []     # live ids, ascending
        self._root: _Node | None = None
        self._dead = 0
        for p in points:
            self.insert(p)

    def __len__(self) -> int:
        return len(self._ids)

    # -- maintenance ---------------------------------------------------

    def insert(self, point) -> None:
        pid = len(self._points)
        self._points.append(point)
        self._alive.append(True)
        self._ids.append(pid)
        if self._root is None:
            self._root = _Node([pid])
            return
        node = self._root
        dist = self._distance
        pts = self._points
        while node.bucket is None:
            node = node.inner if dist(pts[node.vantage], point) <= node.mu else node.outer
        node.bucket.append(pid)
        if len(node.bucket) > self._capacity:
            self._split(node)

    def remove(self, position: int) -> None:
        n = len(self._ids)
        if not 0 <= position < n:
            raise PositionOutOfRangeError(f"position {position} not in [0, {n})")
        self._alive[self._ids.pop(position)] = False
        self._dead += 1
        if self._dead * 2 > len(self._ids):
            self._rebuild()

    def _rebuild(self) -> None:
        pts = self._points
        self._points = [pts[i] for i in self._ids]
        n = len(self._points)
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
        # Entries: (node, parent vantage distance, parent mu, side); the
        # prune test runs at pop time against the tightened bound.
        stack = [(self._root, 0.0, 0.0, 0)]
        while stack:
            node, dv, mu, side = stack.pop()
            if side == 1 and dv > (mu + bound) * (1.0 + _PRUNE_SLACK):
                continue
            if side == 2 and dv < (mu - bound) * (1.0 - _PRUNE_SLACK):
                continue
            bucket = node.bucket
            if bucket is not None:
                for pid in bucket:
                    if alive[pid]:
                        d = dist(pts[pid], x)
                        if d <= bound:
                            found.append((pid, d))
                            if d < best:
                                best = d
                                bound = best * widen
                continue
            vantage = node.vantage
            dv = dist(pts[vantage], x)
            if alive[vantage] and dv <= bound:
                found.append((vantage, dv))
                if dv < best:
                    best = dv
                    bound = best * widen
            mu = node.mu
            # Far child first so the near child pops first and shrinks best.
            if dv <= mu:
                stack.append((node.outer, dv, mu, 2))
                stack.append((node.inner, dv, mu, 1))
            else:
                stack.append((node.inner, dv, mu, 1))
                stack.append((node.outer, dv, mu, 2))
        # bound is now best * (1 + tol) for the exact minimum best, the same
        # threshold linear_tie_set applies (best * 1.0 == best at tol 0).
        ids = self._ids
        positions = [bisect_left(ids, pid) for pid, d in found if d <= bound]
        positions.sort()
        return positions


# The one place an index kind name maps to a backend class.
INDEXES = {"linear": LinearScanIndex, "vptree": VpTreeIndex}
INDEX_KINDS = tuple(INDEXES)
