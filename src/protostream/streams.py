"""Synthetic input-point streams.

All generators are deterministic in (seed, stream): IidUniform and
RandomWalk produce distinct points with probability 1, GridSweep by
construction (it emits a seeded permutation of a finite lattice, refuses
requests longer than the lattice and lattices of more than
``MAX_GRID_POINTS`` points).

Every generator has a ``size``, the most points it can emit (``math.inf``
for IidUniform and RandomWalk, the lattice size for GridSweep), and a
``points(length)`` iterator, empty for a ``length`` below 1.
``generate_stream`` checks the length against the size once
(``check_length``) and returns a ``StreamView``: an iteration draws its
points as it goes, and every iteration replays the same points from
``(seed, stream)``.  IidUniform draws ahead by at
most ``_CHUNK`` (256) points, whose coordinates it computes at once, and
chains the chunks' zips in C, so no Python frame runs between two points
of a chunk; RandomWalk draws each point when the iteration reaches it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import add, mul

from .errors import ConfigError
from .rng import RandomStream

Bounds = tuple[tuple[float, float], ...]


def _check_source(generator) -> None:
    # Checked at construction: a lazy stream opens its RandomStream only
    # when first iterated, which is after a run has opened its trace file.
    if generator.seed < 0 or generator.stream < 0:
        raise ConfigError(f"stream seed and index must be nonnegative, got "
                          f"seed {generator.seed}, stream {generator.stream}")
    bounds = generator.bounds
    if not bounds:
        raise ConfigError("stream bounds must cover at least one dimension")
    for lo, hi in bounds:
        # A finite width keeps every generated coordinate, and every
        # distance between two of them, finite.
        if not (lo < hi and math.isfinite(lo) and math.isfinite(hi - lo)):
            raise ConfigError(f"stream bounds need finite lo < hi with a finite "
                              f"width, got ({lo}, {hi})")


# The points an IidUniform draws at once.
_CHUNK = 256


@dataclass(frozen=True)
class IidUniform:
    """Independent uniform draws from a box.

    Coordinate ``j`` of point ``i`` is ``lo_j + u * (hi_j - lo_j)`` for the
    stream's unit draw number ``i * d + j``, in ``d`` dimensions.
    """

    bounds: Bounds
    seed: int
    stream: int = 1
    size = math.inf

    def __post_init__(self) -> None:
        _check_source(self)

    def points(self, length: int) -> Iterator[tuple]:
        units = RandomStream(self.seed, self.stream).next_units
        boxes = [(lo, hi - lo) for lo, hi in self.bounds]
        d = len(boxes)

        def chunk(n: int):
            u = units(n * d)
            # Column j holds coordinate j of the chunk's points.
            return zip(*[map(add, repeat(lo), map(mul, u[j::d], repeat(width)))
                         for j, (lo, width) in enumerate(boxes)])

        # The chunks' zips, chained in C: no Python frame resumes per point.
        full, rest = divmod(max(length, 0), _CHUNK)
        sizes = chain(repeat(_CHUNK, full), [rest] if rest else [])
        return chain.from_iterable(map(chunk, sizes))


# The most lattice points a GridSweep may hold: its whole lattice is built
# and shuffled at once (in 1-D at this size: ~110 MB peak RSS and ~1.5 s,
# CPython 3.11).
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class GridSweep:
    """A seeded permutation of an evenly spaced lattice.

    The lattice has ``resolution ** len(bounds)`` points, at most
    ``MAX_GRID_POINTS`` (one million); a larger one is refused with
    ConfigError at construction, before anything is allocated.
    """

    resolution: int
    bounds: Bounds
    seed: int
    stream: int = 1

    def __post_init__(self) -> None:
        _check_source(self)
        if self.resolution < 1:
            raise ConfigError(f"grid resolution must be >= 1, got {self.resolution}")
        if self.size > MAX_GRID_POINTS:
            raise ConfigError(f"grid of resolution {self.resolution} in {len(self.bounds)} "
                              f"dimension(s) holds {self.size} points, more than "
                              f"the {MAX_GRID_POINTS} allowed")
        # The last lattice coordinate, lo + (resolution - 1) * step, can
        # round past the largest float even when the width is finite.
        n = self.resolution - 1
        if n and not all(math.isfinite(n * ((hi - lo) / n)) for lo, hi in self.bounds):
            raise ConfigError(f"grid over {self.bounds} at resolution "
                              f"{self.resolution} overflows")

    @property
    def size(self) -> int:
        """The number of lattice points."""
        return self.resolution ** len(self.bounds)

    def points(self, length: int) -> Iterator[tuple]:
        axes = []
        for lo, hi in self.bounds:
            if self.resolution == 1:
                axes.append([lo])
            else:
                step = (hi - lo) / (self.resolution - 1)
                axes.append([lo + i * step for i in range(self.resolution)])
        lattice = list(product(*axes))
        rng = RandomStream(self.seed, self.stream)
        # Fisher-Yates; full shuffle regardless of requested prefix length.
        for i in range(len(lattice) - 1, 0, -1):
            j = rng.next_below(i + 1)
            lattice[i], lattice[j] = lattice[j], lattice[i]
        del lattice[max(length, 0):]
        yield from lattice


def _reflect(v: float, lo: float, hi: float) -> float:
    # Triangle-wave fold into [lo, hi].
    width = hi - lo
    t = (v - lo) % (2.0 * width)
    return lo + (width - abs(t - width))


@dataclass(frozen=True)
class RandomWalk:
    """Uniform-increment walk reflected at the box walls."""

    step_scale: float
    bounds: Bounds
    seed: int
    stream: int = 1
    size = math.inf

    def __post_init__(self) -> None:
        _check_source(self)
        if not 0.0 < self.step_scale < math.inf:
            raise ConfigError(f"walk step scale must be finite and positive, "
                              f"got {self.step_scale}")
        # Reflection works on offsets of up to twice the width plus a step,
        # so the box and the step must leave that much room in a float.
        reach = max(max(abs(lo), abs(hi)) for lo, hi in self.bounds)
        if not math.isfinite(4.0 * (reach + self.step_scale)):
            raise ConfigError(f"walk bounds {self.bounds} and step scale "
                              f"{self.step_scale} overflow the reflection")

    def points(self, length: int) -> Iterator[tuple]:
        if length < 1:
            return
        rng = RandomStream(self.seed, self.stream)
        pos = [0.5 * (lo + hi) for lo, hi in self.bounds]
        yield tuple(pos)
        for _ in range(length - 1):
            for i, (lo, hi) in enumerate(self.bounds):
                delta = (2.0 * rng.next_unit() - 1.0) * self.step_scale
                pos[i] = _reflect(pos[i] + delta, lo, hi)
            yield tuple(pos)


@dataclass(frozen=True)
class StreamView:
    """The first ``length`` points of a generator, drawn on demand.

    ``len()`` is the length; each iteration calls ``generator.points``
    afresh and so replays the same points.  ``list()`` materialises them.
    """

    generator: IidUniform | GridSweep | RandomWalk
    length: int

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple]:
        return self.generator.points(self.length)


STREAM_KINDS = ("iid", "grid", "walk")


def check_length(generator, length: int) -> None:
    """Refuse, with ConfigError, a length below 1 or above ``generator.size``."""
    if length < 1:
        raise ConfigError(f"stream length must be >= 1, got {length}")
    if length > generator.size:
        # Only a GridSweep has a finite size.
        raise ConfigError(f"grid sweep holds {generator.size} distinct points, "
                          f"cannot emit {length}")


def generate_stream(generator, length: int) -> StreamView:
    """The first ``length`` points of ``generator``, after ``check_length``."""
    check_length(generator, length)
    return StreamView(generator, length)
