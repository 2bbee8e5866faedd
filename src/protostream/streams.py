"""Synthetic input-point streams.

All generators are deterministic in (seed, stream): IidUniform and
RandomWalk produce distinct points with probability 1, GridSweep by
construction (it emits a seeded permutation of a finite lattice and
refuses requests longer than the lattice).

``generate_stream`` returns a sized iterable of points.  For IidUniform
and RandomWalk it is a ``StreamView``: each point is drawn only when an
iteration reaches it, so a run holds one point at a time, and every
iteration replays the same points from ``(seed, stream)``.  GridSweep
returns a list, because its whole lattice is shuffled up front anyway.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ConfigError, EmptyStreamError
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


@dataclass(frozen=True)
class IidUniform:
    """Independent uniform draws from a box."""

    bounds: Bounds
    seed: int
    stream: int = 1

    def __post_init__(self) -> None:
        _check_source(self)

    def generate(self, length: int) -> "StreamView":
        return StreamView(self, length)

    def points(self, length: int) -> Iterator[tuple]:
        unit = RandomStream(self.seed, self.stream).next_unit
        boxes = [(lo, hi - lo) for lo, hi in self.bounds]
        for _ in range(length):
            yield tuple([lo + unit() * width for lo, width in boxes])


@dataclass(frozen=True)
class GridSweep:
    """A seeded permutation of an evenly spaced lattice."""

    resolution: int
    bounds: Bounds
    seed: int
    stream: int = 1

    def __post_init__(self) -> None:
        _check_source(self)
        if self.resolution < 1:
            raise ConfigError(f"grid resolution must be >= 1, got {self.resolution}")
        # The last lattice coordinate, lo + (resolution - 1) * step, can
        # round past the largest float even when the width is finite.
        n = self.resolution - 1
        if n and not all(math.isfinite(n * ((hi - lo) / n)) for lo, hi in self.bounds):
            raise ConfigError(f"grid over {self.bounds} at resolution "
                              f"{self.resolution} overflows")

    def generate(self, length: int) -> list[tuple]:
        axes = []
        for lo, hi in self.bounds:
            if self.resolution == 1:
                axes.append([lo])
            else:
                step = (hi - lo) / (self.resolution - 1)
                axes.append([lo + i * step for i in range(self.resolution)])
        lattice = list(itertools.product(*axes))
        if length > len(lattice):
            raise ConfigError(
                f"grid sweep holds {len(lattice)} distinct points, cannot emit {length}"
            )
        rng = RandomStream(self.seed, self.stream)
        # Fisher-Yates; full shuffle regardless of requested prefix length.
        for i in range(len(lattice) - 1, 0, -1):
            j = rng.next_below(i + 1)
            lattice[i], lattice[j] = lattice[j], lattice[i]
        return lattice[:length]


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

    def generate(self, length: int) -> "StreamView":
        return StreamView(self, length)

    def points(self, length: int) -> Iterator[tuple]:
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

    generator: IidUniform | RandomWalk
    length: int

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple]:
        return self.generator.points(self.length)


STREAM_KINDS = ("iid", "grid", "walk")


def generate_stream(generator, length: int) -> StreamView | list[tuple]:
    """``length`` points, at least 1, as a sized, re-iterable collection.

    A lazy ``StreamView`` for IidUniform and RandomWalk, a list for
    GridSweep; a grid that cannot emit ``length`` points raises here.
    """
    if length < 1:
        raise EmptyStreamError(f"stream length must be >= 1, got {length}")
    return generator.generate(length)
