"""Seeded 64-bit RNG (splitmix64) with a fixed draw discipline.

Every random decision in the toolkit comes from a SeededRng so that a test
is a pure function of its seed.  The same splitmix64 finalizer also derives
per-test and per-subsystem seeds, which makes any single test in a suite
addressable from (suite seed, test index) alone.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """The (index+1)-th output of a splitmix64 stream seeded with ``seed``.

    Used to derive per-test seeds from the suite seed and independent
    sub-streams (explorer, simulated network) from a test seed.
    """
    if index < 0:
        raise ValueError("derive_seed index must be non-negative")
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


class SeededRng:
    """splitmix64 stream.  Every method consumes a fixed number of draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """One draw: a uniform 64-bit unsigned integer."""
        # _mix64, inlined: this is the hottest call of a run.
        z = self._state = (self._state + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) from exactly one draw."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], one draw."""
        if hi < lo:
            raise ValueError("randint() requires lo <= hi")
        return lo + ((self.next_u64() * (hi - lo + 1)) >> 64)

    def payload(self, length: int) -> bytes:
        """Random byte string; ceil(length/8) draws."""
        draws = [self.next_u64().to_bytes(8, "little") for _ in range((length + 7) // 8)]
        return b"".join(draws)[:length]

    def fork(self) -> "SeededRng":
        """Independent child stream; consumes one draw from this stream."""
        return SeededRng(self.next_u64())


def maybe(rng: SeededRng, probability: float) -> bool:
    """True with the given probability; always consumes exactly one draw.

    Exact at the endpoints: maybe(rng, 0) is always False and
    maybe(rng, 1) is always True.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be within [0, 1]")
    threshold = int(probability * (1 << 64))
    return rng.next_u64() < threshold
