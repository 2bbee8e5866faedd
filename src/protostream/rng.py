"""Seedable 64-bit PRNG with numbered substreams.

The generator is SplitMix64: the state advances by the golden-gamma
constant and every output is the finalizer mix of the new state.  All
arithmetic is modulo 2**64 on plain Python ints, so a (seed, stream)
pair produces the identical byte-level sequence on every platform.

Substream derivation: the initial state of stream ``k`` for master seed
``s`` is ``mix(s + (k + 1) * GAMMA)``.  Distinct stream indices give
statistically independent sequences; the convention used by runs is

* stream ``2 * run_index``      -- coin flips inside the update rule
* stream ``2 * run_index + 1``  -- synthetic input-point generation

so parallel runs of a sweep never share randomness.

Block generation: a stream computes its outputs ``_LANES`` (256) at a
time, in one pass of big-int operations over a single wide int.  Each
output has its own 128-bit lane, low 64 bits the value, high 64 bits
zero.  A 64-bit value times a 64-bit constant fits in 128 bits, so no
carry crosses into the next lane, and one lane mask after each xor-shift
and each multiply does what ``& _MASK`` does for one value.  The lanes
are read out of the int's native-order bytes as 64-bit words.  A stream
keeps the wide int of its current block's states (~4 KB) and its draws
(~11 KB), and computes its first block on its first draw, so a stream that
never draws costs nothing.  Every later block's states are the previous
block's plus ``_LANES * GAMMA`` in every lane: one addition and one lane
mask, where the first block needs a broadcast multiply.  The sequence,
the draw-count contract and ``state`` are those of computing one output
at a time with ``_mix``, which the tests keep as the reference.

A coin ``next_unit() < p`` is the integer comparison
``next_u64() < unit_bound(p)`` on the same single draw.
"""

from __future__ import annotations

import math
import sys

from .errors import ConfigError, EmptyCandidatesError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_UNIT = 2.0 ** -53

# Lane k of a block, counting from the low end, holds the state of draw
# _LANES - k, so that ``list.pop`` hands the draws out in order.  The lane
# tables are built from bytes: a sum of shifted terms would cost ~1 ms at
# import.
_LANES = 256
_LANE_BYTES = 16
_LANE_ONES = int.from_bytes((b"\x01" + bytes(_LANE_BYTES - 1)) * _LANES, "little")
_LANE_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
_LANE_STEPS = int.from_bytes(b"".join(
    (((_LANES - k) * _GAMMA) & _MASK).to_bytes(_LANE_BYTES, "little")
    for k in range(_LANES)), "little")
# What every lane's state advances by from one block to the next.
_LANE_ADVANCE = _LANE_ONES * ((_LANES * _GAMMA) & _MASK)
# The low 64-bit word of every lane, lane 0 first, among a block's native-
# order words: on a big-endian machine the words come high lane first and
# high half first.
_LANE_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def _mix(z: int) -> int:
    """SplitMix64 finalizer (David Stafford's mix13 variant)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def learner_stream_index(run_index: int) -> int:
    """Stream index carrying the update rule's coin flips for one run."""
    return 2 * run_index


def points_stream_index(run_index: int) -> int:
    """Stream index carrying the input-point generator for one run."""
    return 2 * run_index + 1


class RandomStream:
    """One reproducible 64-bit random sequence.

    Draw-count contract (relied on by the replay guarantees):

    * ``next_u64``   -- exactly one draw.
    * ``next_unit``  -- exactly one draw (top 53 bits over 2**53).
    * ``next_units`` -- ``n`` draws for ``n`` units, each one ``next_u64``
      call, equal to ``n`` calls of ``next_unit``.
    * ``next_below`` -- one draw, plus one more per rejection; a draw is
      rejected only when it lands in the final partial block of size
      ``2**64 % m``, so for small ``m`` the non-rejecting case is all
      but certain and consumes exactly one draw.  An ``m`` outside
      [1, 2**64] raises ConfigError and draws nothing.
    """

    __slots__ = ("_end", "_lanes", "_block")

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise ConfigError(f"seed and stream index must be nonnegative integers, "
                              f"got seed {seed}, stream {stream}")
        # The state after the last draw of the current block, the block's
        # states in their lanes (None before the first block), and the
        # block's draws not yet handed out, last draw first.
        self._end = _mix((seed + (stream + 1) * _GAMMA) & _MASK)
        self._lanes = None
        self._block = []

    @property
    def state(self) -> int:
        """Current internal state; equal states replay equal futures."""
        return (self._end - len(self._block) * _GAMMA) & _MASK

    def next_u64(self) -> int:
        block = self._block
        if not block:
            block = self._refill()
        return block.pop()

    def _refill(self) -> list:
        """Compute the next ``_LANES`` draws into ``self._block``."""
        z = self._lanes
        if z is None:
            z = self._end * _LANE_ONES + _LANE_STEPS
        else:
            # A state plus the advance fits in 65 bits: no carry crosses
            # into the next lane.
            z += _LANE_ADVANCE
        self._lanes = z = z & _LANE_MASK
        self._end = (self._end + _LANES * _GAMMA) & _MASK
        z = (((z ^ (z >> 30)) & _LANE_MASK) * _MIX1) & _LANE_MASK
        z = (((z ^ (z >> 27)) & _LANE_MASK) * _MIX2) & _LANE_MASK
        # Bits shifted in from the next lane land in the high half, which
        # the read-out skips.
        z ^= z >> 31
        words = memoryview(z.to_bytes(_LANES * _LANE_BYTES, sys.byteorder)).cast("Q")
        self._block = block = words[_LANE_WORDS].tolist()
        return block

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _UNIT

    def next_units(self, n: int) -> list:
        """``n`` floats of ``next_unit``, in one comprehension."""
        next_u64 = self.next_u64
        return [(next_u64() >> 11) * _UNIT for _ in range(n)]

    def next_below(self, m: int) -> int:
        """Uniform integer in [0, m) via rejection; no modulo bias."""
        if not 0 < m <= 1 << 64:
            # Above 2**64 no 64-bit draw could be accepted.
            raise ConfigError(f"upper bound must lie in [1, 2**64], got {m}")
        # Accept u < limit where limit is the largest multiple of m <= 2**64.
        limit = ((1 << 64) // m) * m
        u = self.next_u64()
        while u >= limit:
            u = self.next_u64()
        return u % m


def unit_bound(p: float) -> int:
    """The integer ``T`` for which ``next_u64() < T`` exactly when ``next_unit() < p``.

    ``next_unit()`` is ``(u >> 11) * 2**-53``, an exact multiple of 2**-53,
    so it is below ``p`` exactly when ``u >> 11`` is below ``ceil(p * 2**53)``
    (scaling by a power of two is exact).  0 for NaN and for ``p <= 0``,
    which no draw passes; ``2**64`` above 1, which every draw passes.
    """
    if not p > 0.0:
        return 0
    if p > 1.0:
        return 1 << 64
    return math.ceil(p * 2.0 ** 53) << 11


def sample_uniform(candidates, rng: RandomStream):
    """Uniformly random element of a nonempty ordered collection.

    Always consumes at least one draw, including for a single candidate,
    so the draw count depends only on the collection size and the stream
    state, never on the contents.  A single candidate takes exactly the
    one draw ``next_below(1)`` would, since its first draw always passes.
    """
    n = len(candidates)
    if n == 1:
        rng.next_u64()
        return candidates[0]
    if n == 0:
        raise EmptyCandidatesError("cannot sample from an empty candidate list")
    return candidates[rng.next_below(n)]
