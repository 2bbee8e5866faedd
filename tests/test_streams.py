"""Input streams: uniform draws, shuffled lattices, reflected walks."""

import hashlib
import math
import tracemalloc

import pytest

from protostream.errors import ConfigError, EmptyStreamError
from protostream.streams import (
    MAX_GRID_POINTS, GridSweep, IidUniform, RandomWalk, generate_stream,
)

UNIT = ((0.0, 1.0),)

# asymptotic 1% critical value for the one-sample KS statistic
KS_COEFF = 1.6276


def _ks_statistic(values):
    data = sorted(values)
    n = len(data)
    d = 0.0
    for i, u in enumerate(data, start=1):
        d = max(d, i / n - u, u - (i - 1) / n)
    return d


def test_iid_uniform_stays_in_bounds():
    gen = IidUniform(((2.0, 3.0), (-1.0, 0.0)), seed=4)
    for x, y in generate_stream(gen, 500):
        assert 2.0 <= x < 3.0
        assert -1.0 <= y < 0.0


def test_iid_uniform_passes_ks_at_one_percent():
    gen = IidUniform(UNIT, seed=0)
    n = 10_000
    values = [p[0] for p in generate_stream(gen, n)]
    assert _ks_statistic(values) < KS_COEFF / math.sqrt(n)


def test_iid_uniform_same_seed_reproduces():
    a = generate_stream(IidUniform(UNIT, seed=8), 100)
    b = generate_stream(IidUniform(UNIT, seed=8), 100)
    assert list(a) == list(b)


def test_iid_uniform_streams_diverge():
    a = generate_stream(IidUniform(UNIT, seed=8, stream=1), 50)
    b = generate_stream(IidUniform(UNIT, seed=8, stream=3), 50)
    assert list(a) != list(b)


def test_grid_sweep_resolution_four_is_permutation():
    gen = GridSweep(4, UNIT, seed=42)
    points = generate_stream(gen, 4)
    values = sorted(p[0] for p in points)
    assert values == [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]


def test_grid_sweep_two_dimensional_lattice():
    gen = GridSweep(3, ((0.0, 1.0), (0.0, 2.0)), seed=5)
    points = generate_stream(gen, 9)
    assert len(set(points)) == 9
    xs = {p[0] for p in points}
    ys = {p[1] for p in points}
    assert xs == {0.0, 0.5, 1.0}
    assert ys == {0.0, 1.0, 2.0}


def test_grid_sweep_resolution_one_is_lower_corner():
    gen = GridSweep(1, ((3.0, 4.0),), seed=0)
    assert list(generate_stream(gen, 1)) == [(3.0,)]


def test_grid_sweep_shuffle_depends_on_seed():
    a = generate_stream(GridSweep(16, UNIT, seed=1), 16)
    b = generate_stream(GridSweep(16, UNIT, seed=2), 16)
    assert sorted(a) == sorted(b)
    assert list(a) != list(b)


def test_grid_sweep_rejects_requests_beyond_lattice():
    gen = GridSweep(4, UNIT, seed=0)
    with pytest.raises(ConfigError):
        generate_stream(gen, 5)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_sweep_refuses_large_lattices_before_allocating():
    assert GridSweep(MAX_GRID_POINTS, UNIT, seed=0).size == MAX_GRID_POINTS
    assert GridSweep(1000, ((0.0, 1.0), (0.0, 1.0)), seed=0).size == MAX_GRID_POINTS
    for resolution, bounds in [(MAX_GRID_POINTS + 1, UNIT), (10**8, UNIT), (2**64, UNIT),
                               (1001, ((0.0, 1.0), (0.0, 1.0))), (101, UNIT * 3)]:
        def build():
            with pytest.raises(ConfigError, match="more than"):
                GridSweep(resolution, bounds, seed=0)
        assert _peak_bytes(build) < 100_000
    # A request longer than the lattice is refused before the lattice exists.
    gen = GridSweep(1000, ((0.0, 1.0), (0.0, 1.0)), seed=0)

    def overlong():
        with pytest.raises(ConfigError, match="cannot emit"):
            generate_stream(gen, MAX_GRID_POINTS + 1)
    assert _peak_bytes(overlong) < 100_000


# SHA-256 of repr(points), taken before the lattice size limit existed:
# the backward Fisher-Yates shuffle's draws are part of the contract.
GRID_DIGESTS = [
    (GridSweep(256, UNIT, seed=3, stream=1), 200,
     "9851440157a5dcbbf78d833a5723552231140abb34ac16ff067f6ccae76e4462"),
    (GridSweep(7, ((0.0, 1.0), (-2.0, 2.0)), seed=9, stream=5), 49,
     "57685fe8b79f90500448f7c4dadb2938fe5ef728b6395b5301508bb75fd7466c"),
]


@pytest.mark.parametrize("gen,length,digest", GRID_DIGESTS, ids=["1d", "2d"])
def test_grid_sweep_draw_order_is_pinned(gen, length, digest):
    points = generate_stream(gen, length)
    assert hashlib.sha256(repr(points).encode()).hexdigest() == digest


def test_random_walk_stays_in_bounds_and_moves_gently():
    scale = 0.07
    gen = RandomWalk(scale, UNIT, seed=6)
    points = list(generate_stream(gen, 2000))
    assert points[0] == (0.5,)
    for prev, cur in zip(points, points[1:]):
        assert 0.0 <= cur[0] <= 1.0
        assert abs(cur[0] - prev[0]) <= scale + 1e-12


def test_random_walk_same_seed_reproduces():
    a = generate_stream(RandomWalk(0.1, UNIT, seed=9), 200)
    b = generate_stream(RandomWalk(0.1, UNIT, seed=9), 200)
    assert list(a) == list(b)


def test_generate_stream_rejects_nonpositive_length():
    with pytest.raises(EmptyStreamError):
        generate_stream(IidUniform(UNIT, seed=0), 0)


BOX = ((0.0, 1.0), (-2.0, 3.0))

# SHA-256 of repr(list of points): the 1000 points each generator drew
# when streams were still built as lists, so laziness kept every draw.
LAZY_DIGESTS = [
    (IidUniform(BOX, seed=11, stream=2),
     "2b5056c13ae3d3c95cdc46f3f09ed7eeb266f95342d8fb26fd218091fa74e746"),
    (RandomWalk(0.1, BOX, seed=11, stream=2),
     "effa50bf31c3059a84e4d7ae136b109c1a3017614e471ec87e610fee09ebeacd"),
]


@pytest.mark.parametrize("gen,digest", LAZY_DIGESTS, ids=["iid", "walk"])
def test_lazy_stream_has_length_replays_and_keeps_draws(gen, digest):
    view = generate_stream(gen, 1000)
    assert len(view) == 1000
    first = list(view)
    assert len(first) == 1000
    assert list(view) == first
    assert hashlib.sha256(repr(first).encode()).hexdigest() == digest


def test_lazy_stream_draws_on_demand():
    view = generate_stream(IidUniform(UNIT, seed=0), 10**12)
    points = iter(view)
    head = [next(points) for _ in range(3)]
    assert head == list(generate_stream(IidUniform(UNIT, seed=0), 3))


def test_bounds_must_be_ordered():
    with pytest.raises(ConfigError):
        IidUniform(((1.0, 1.0),), seed=0)
    with pytest.raises(ConfigError):
        GridSweep(4, ((2.0, 1.0),), seed=0)
    with pytest.raises(ConfigError):
        RandomWalk(0.1, (), seed=0)


@pytest.mark.parametrize("seed,stream", [(-1, 1), (0, -1)])
def test_negative_seed_or_stream_rejected_at_construction(seed, stream):
    # A lazy stream would otherwise fail only once a run iterates it.
    for make in (lambda: IidUniform(UNIT, seed, stream),
                 lambda: GridSweep(4, UNIT, seed, stream),
                 lambda: RandomWalk(0.1, UNIT, seed, stream)):
        with pytest.raises(ConfigError):
            make()
