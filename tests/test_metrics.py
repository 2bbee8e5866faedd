"""Distance functions and target functions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protostream.errors import DimensionMismatchError
from protostream.metrics import (
    METRICS,
    TARGETS,
    chebyshev_distance,
    discrete_distance,
    euclidean_distance,
    hamming_distance,
)

coords = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5)


def test_euclidean_three_four_five():
    assert euclidean_distance((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_euclidean_zero_on_equal_points():
    assert euclidean_distance((1.5, -2.0, 7.0), (1.5, -2.0, 7.0)) == 0.0


def test_euclidean_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        euclidean_distance((1.0,), (1.0, 2.0))


def test_chebyshev_picks_largest_axis():
    assert chebyshev_distance((0.0, 0.0), (3.0, -4.0)) == 4.0
    assert chebyshev_distance((1.0,), (1.0,)) == 0.0


def test_chebyshev_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        chebyshev_distance((1.0, 2.0, 3.0), (1.0, 2.0))


def test_hamming_counts_differing_positions():
    assert hamming_distance((1, 0, 1, 1), (1, 1, 1, 0)) == 2.0
    assert hamming_distance("abc", "abd") == 1.0
    assert hamming_distance((), ()) == 0.0


def test_hamming_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        hamming_distance((1, 0), (1, 0, 1))


def test_discrete_is_zero_one():
    assert discrete_distance("x", "x") == 0.0
    assert discrete_distance("x", "y") == 1.0
    assert discrete_distance(3.0, 3) == 0.0


def test_absolute_difference_on_scalars():
    d = METRICS["absolute_difference"].distance
    assert d(3.0, -1.5) == 4.5
    assert d(2.0, 2.0) == 0.0


def test_registry_names_match_descriptors():
    for name, descriptor in METRICS.items():
        assert descriptor.name == name


@given(a=coords, b=coords)
@settings(max_examples=200, deadline=None)
def test_euclidean_symmetry(a, b):
    if len(a) != len(b):
        b = (a + b)[: len(a)]
    pa, pb = tuple(a), tuple(b)
    assert euclidean_distance(pa, pb) == euclidean_distance(pb, pa)


@given(a=coords, b=coords, c=coords)
@settings(max_examples=200, deadline=None)
def test_euclidean_triangle_inequality(a, b, c):
    n = min(len(a), len(b), len(c))
    pa, pb, pc = tuple(a[:n]), tuple(b[:n]), tuple(c[:n])
    lhs = euclidean_distance(pa, pc)
    rhs = euclidean_distance(pa, pb) + euclidean_distance(pb, pc)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-9


@given(a=coords, b=coords, c=coords)
@settings(max_examples=200, deadline=None)
def test_chebyshev_triangle_inequality(a, b, c):
    n = min(len(a), len(b), len(c))
    pa, pb, pc = tuple(a[:n]), tuple(b[:n]), tuple(c[:n])
    lhs = chebyshev_distance(pa, pc)
    rhs = chebyshev_distance(pa, pb) + chebyshev_distance(pb, pc)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-9


def test_sine_target_known_values():
    target = TARGETS["sine_1d"]
    assert target.evaluate((0.0,)) == 0.0
    assert target.evaluate((math.pi / 2.0,)) == 1.0
    assert abs(target.evaluate((math.pi,))) < 1e-15
    assert target.output_metric == "absolute_difference"
    (lo, hi), = target.domain
    assert lo == 0.0 and hi == 2.0 * math.pi


def test_step_target_threshold():
    target = TARGETS["step_1d"]
    assert target.evaluate((0.0,)) == 0.0
    assert target.evaluate((0.49,)) == 0.0
    assert target.evaluate((0.5,)) == 1.0
    assert target.evaluate((1.0,)) == 1.0


def test_quantized_labeler_cells():
    target = TARGETS["quantized_labeler"]
    assert target.output_metric == "discrete"
    labels = {target.evaluate((x / 100.0,)) for x in range(100)}
    assert labels == set(range(8))
    # right edge clamps into the last cell
    assert target.evaluate((1.0,)) == 7


def test_targets_registry_names_match():
    for name, target in TARGETS.items():
        assert target.name == name
