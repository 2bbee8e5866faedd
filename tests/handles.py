"""Test-side view of an index's handles.

A handle names one stored exemplar until the next removal.  The tests that
remove "the k-th live exemplar", or compare the stored outputs of two
backends, list the live handles in insertion order here.  Listing them
never calls the metric, so tests that count distance calls are unaffected.
"""

from protostream.index import VpTreeIndex


def live_handles(idx) -> list[int]:
    """The live handles of ``idx``, ascending, which is insertion order."""
    if isinstance(idx, VpTreeIndex):
        # An id is live exactly when it has a node.
        return [h for h, node in enumerate(idx._node) if node is not None]
    return list(range(len(idx)))


def stored_outputs(idx) -> list:
    """The outputs of the live exemplars of ``idx``, in insertion order."""
    return [idx.output(h) for h in live_handles(idx)]


def nearest_outputs(idx, x, tie_tolerance: float = 0.0) -> list:
    """The outputs of the nearest set of ``x``, in the order its handles ascend."""
    return [idx.output(h) for h in idx.query_nearest_set(x, tie_tolerance)]
