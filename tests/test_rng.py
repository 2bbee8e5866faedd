"""Deterministic generator: reference vectors, draw accounting, sampling."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protostream.errors import ConfigError, EmptyCandidatesError
from protostream.rng import (
    _GAMMA,
    _LANES,
    _MASK,
    _mix,
    RandomStream,
    learner_stream_index,
    points_stream_index,
    sample_uniform,
)

# Reference C implementation outputs for state 0 (first three draws).
MIX_VECTOR = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Frozen once from this implementation; any change here is a breaking change
# to every recorded trace.
SEED42_U64 = (
    6332618229526065668,
    17630415256238047317,
    8971565426155258802,
    1242533817266198696,
)
SEED42_UNIT = (
    0.34329192209867343,
    0.9557467261317436,
    0.48634953628166855,
    0.06735789320333596,
)
SEED42_SAMPLES = ("c", "a", "c", "c", "c", "a", "c", "c")
# SHA-256 of the first 10,000 next_u64 of RandomStream(42, 0), each as 8
# little-endian bytes, taken from the one-draw-at-a-time generator.
SEED42_U64_SHA256 = "7c11bd9051e7b822acac0b6815da965c38be6caf11efdc6b71a7db1bc71d9b82"


def test_mixer_matches_reference_vector():
    for i, expected in enumerate(MIX_VECTOR, start=1):
        assert _mix((i * _GAMMA) & _MASK) == expected


def test_seed42_u64_sequence_is_pinned():
    rng = RandomStream(42, 0)
    assert tuple(rng.next_u64() for _ in range(4)) == SEED42_U64


def test_seed42_unit_sequence_is_pinned():
    rng = RandomStream(42, 0)
    assert tuple(rng.next_unit() for _ in range(4)) == SEED42_UNIT


def test_same_seed_same_stream_reproduces():
    a = RandomStream(9, 3)
    b = RandomStream(9, 3)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_substreams_diverge():
    a = RandomStream(9, 0)
    b = RandomStream(9, 1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_stream_index_helpers():
    assert learner_stream_index(0) == 0
    assert points_stream_index(0) == 1
    assert learner_stream_index(3) == 6
    assert points_stream_index(3) == 7
    pairs = [(learner_stream_index(k), points_stream_index(k)) for k in range(20)]
    flat = [i for pair in pairs for i in pair]
    assert len(set(flat)) == len(flat)


def test_next_unit_range_and_resolution():
    rng = RandomStream(1, 0)
    values = [rng.next_unit() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # 53-bit mantissa: every value times 2**53 is an integer
    assert all(float(int(v * 2.0**53)) == v * 2.0**53 for v in values)


def test_next_below_covers_all_residues():
    rng = RandomStream(5, 0)
    seen = {rng.next_below(7) for _ in range(500)}
    assert seen == set(range(7))


def test_next_below_rejects_nonpositive():
    rng = RandomStream(0, 0)
    with pytest.raises(ConfigError):
        rng.next_below(0)


def test_next_below_rejects_bounds_above_two_to_the_64():
    # No 64-bit draw lies below 2**64 // m * m = 0, so the loop would never end.
    rng = RandomStream(0, 0)
    assert 0 <= rng.next_below(2**64) < 2**64
    before = rng.state
    with pytest.raises(ConfigError, match="2\\*\\*64"):
        rng.next_below(2**64 + 1)
    assert rng.state == before


def test_next_units_equal_as_many_next_unit_calls():
    # From mid-block, across the next block boundary.
    rng, ref = RandomStream(8, 3), RandomStream(8, 3)
    for _ in range(100):
        rng.next_u64()
        ref.next_u64()
    assert rng.next_units(300) == [ref.next_unit() for _ in range(300)]
    assert rng.state == ref.state
    assert rng.next_units(0) == []
    assert rng.state == ref.state


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        RandomStream(-1, 0)
    with pytest.raises(ConfigError):
        RandomStream(0, -2)


@given(m=st.integers(min_value=1, max_value=2**40), salt=st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_next_below_always_in_range(m, salt):
    rng = RandomStream(salt, 2)
    assert 0 <= rng.next_below(m) < m


def test_sample_uniform_singleton_consumes_one_draw():
    rng = RandomStream(11, 0)
    before = rng.state
    assert sample_uniform(["only"], rng) == "only"
    after = rng.state
    assert after != before
    # exactly one advance: replaying one draw from the same start matches
    replay = RandomStream(11, 0)
    replay.next_u64()
    assert replay.state == after


def test_sample_uniform_empty_rejected():
    with pytest.raises(EmptyCandidatesError):
        sample_uniform([], RandomStream(0, 0))


def test_sample_uniform_seed42_sequence_is_pinned():
    rng = RandomStream(42, 0)
    got = tuple(sample_uniform(["a", "b", "c"], rng) for _ in range(8))
    assert got == SEED42_SAMPLES


def test_sample_uniform_three_candidates_near_uniform():
    rng = RandomStream(7, 0)
    counts = {"a": 0, "b": 0, "c": 0}
    trials = 100_000
    for _ in range(trials):
        counts[sample_uniform(("a", "b", "c"), rng)] += 1
    for name in counts:
        assert abs(counts[name] / trials - 1.0 / 3.0) <= 0.01


def test_state_property_tracks_advances():
    rng = RandomStream(3, 1)
    s0 = rng.state
    rng.next_u64()
    s1 = rng.state
    assert s0 != s1
    assert 0 <= s1 <= _MASK


def test_seed42_first_10000_u64_digest_is_pinned():
    rng = RandomStream(42, 0)
    digest = hashlib.sha256()
    for _ in range(10_000):
        digest.update(rng.next_u64().to_bytes(8, "little"))
    assert digest.hexdigest() == SEED42_U64_SHA256


_CALLS = st.one_of(st.just(("u64", None)), st.just(("unit", None)),
                   st.tuples(st.just("below"), st.integers(1, 2**64)))


@given(seed=st.integers(0, _MASK), stream=st.integers(0, 10_000),
       calls=st.lists(_CALLS, min_size=1, max_size=12), skip=st.integers(0, _LANES))
@settings(max_examples=60, deadline=None)
def test_block_draws_match_the_scalar_reference(seed, stream, calls, skip):
    # Reference: draw k of the stream is _mix(s0 + k * GAMMA), one at a time.
    s0 = _mix((seed + (stream + 1) * _GAMMA) & _MASK)
    k = 0

    def ref_u64():
        nonlocal k
        k += 1
        return _mix((s0 + k * _GAMMA) & _MASK)

    rng = RandomStream(seed, stream)
    assert rng.state == s0
    for _ in range(skip):
        assert rng.next_u64() == ref_u64()
    # The calls repeat until the draws have crossed two block boundaries.
    i = 0
    while k <= skip + 2 * _LANES:
        kind, m = calls[i % len(calls)]
        i += 1
        if kind == "u64":
            assert rng.next_u64() == ref_u64()
        elif kind == "unit":
            assert rng.next_unit() == (ref_u64() >> 11) * 2.0**-53
        else:
            limit = ((1 << 64) // m) * m
            u = ref_u64()
            while u >= limit:
                u = ref_u64()
            assert rng.next_below(m) == u % m
        assert rng.state == (s0 + k * _GAMMA) & _MASK
