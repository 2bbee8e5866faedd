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
"""

from __future__ import annotations

from .errors import ConfigError, EmptyCandidatesError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_UNIT = 2.0 ** -53


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
    * ``next_below`` -- one draw, plus one more per rejection; a draw is
      rejected only when it lands in the final partial block of size
      ``2**64 % m``, so for small ``m`` the non-rejecting case is all
      but certain and consumes exactly one draw.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise ConfigError(f"seed and stream index must be nonnegative integers, "
                              f"got seed {seed}, stream {stream}")
        self._state = _mix((seed + (stream + 1) * _GAMMA) & _MASK)

    @property
    def state(self) -> int:
        """Current internal state; equal states replay equal futures."""
        return self._state

    def next_u64(self) -> int:
        self._state = s = (self._state + _GAMMA) & _MASK
        z = ((s ^ (s >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _UNIT

    def next_below(self, m: int) -> int:
        """Uniform integer in [0, m) via rejection; no modulo bias."""
        if m <= 0:
            raise ConfigError(f"upper bound must be positive, got {m}")
        # Accept u < limit where limit is the largest multiple of m <= 2**64.
        limit = ((1 << 64) // m) * m
        u = self.next_u64()
        while u >= limit:
            u = self.next_u64()
        return u % m


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
