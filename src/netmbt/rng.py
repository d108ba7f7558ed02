"""Seeded 64-bit RNG (splitmix64) with a fixed draw discipline.

Every random decision in the toolkit comes from a SeededRng so that a test
is a pure function of its seed.  The same splitmix64 finalizer also derives
per-test and per-subsystem seeds, which makes any single test in a suite
addressable from (suite seed, test index) alone.

splitmix64's state is a counter: draw k of a stream seeded with s is
``mix(s + k * GOLDEN)``, a pure function of k.  So SeededRng computes its
draws in batches (SIMD within a register, on one Python int) and serves
them from a buffer.  A batch of n draws puts the n states into 128-bit
lanes of one int, the stream's last draw of the batch in the lowest lane.
The lanes are twice the width of a draw, so no 64x64-bit product carries
into the next lane; before and after every product the int is masked to
the low 64 bits of each lane, which drops what a shift moved in from the
lane above.  The lanes' low halves are read back with an explicit
little-endian struct layout (never the host's byte order), which yields
them in reverse stream order, ready for ``list.pop``.  The first batch of
a stream is small (``_FIRST_LANES``), because most streams of a short test
take only a few draws; later batches take ``_LANES``.
"""

from __future__ import annotations

import struct

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FIRST_LANES = 8
_LANES = 32


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


def _batch(n: int) -> tuple:
    """Constants of an n-draw batch: the lane mask, the state broadcast to
    every lane, each lane's counter offset (lane j holds draw n - j), the
    little-endian decoder of the lanes' low halves, the state step, and
    the byte length of the packed int."""
    lanes = range(n)
    return (
        sum(_MASK64 << (128 * j) for j in lanes),
        sum(1 << (128 * j) for j in lanes),
        sum((((n - j) * _GOLDEN) & _MASK64) << (128 * j) for j in lanes),
        struct.Struct("<" + "Q8x" * n).unpack,
        (n * _GOLDEN) & _MASK64,
        16 * n,
    )


_FIRST_BATCH = _batch(_FIRST_LANES)
_BATCH = _batch(_LANES)


class SeededRng:
    """splitmix64 stream.  Every method consumes a fixed number of draws,
    and every draw goes through ``next_u64`` or ``skip``.

    ``_state`` is the splitmix64 state after the last *computed* draw,
    which is ahead of the last draw served while ``_buf`` holds any.
    ``_buf`` is None until the first batch, which is the small one.  A
    subclass that serves other draws (a recorded draw tape, say) overrides
    ``next_u64`` and ``skip``.
    """

    __slots__ = ("_state", "_buf")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._buf: list[int] | None = None

    def _fill(self) -> int:
        """Compute the next batch of draws; return the first, buffer the rest."""
        lanes, ones, offsets, unpack, step, nbytes = _FIRST_BATCH if self._buf is None else _BATCH
        state = self._state
        z = (state * ones + offsets) & lanes
        z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
        z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
        # The last shift's spill stays in each lane's high half, which the
        # decoder skips.
        self._buf = buf = list(unpack((z ^ (z >> 31)).to_bytes(nbytes, "little")))
        self._state = (state + step) & _MASK64
        return buf.pop()

    def next_u64(self) -> int:
        """One draw: a uniform 64-bit unsigned integer."""
        buf = self._buf
        if buf:
            return buf.pop()
        return self._fill()

    def skip(self, n: int) -> None:
        """Consume ``n >= 0`` draws without computing them: drop them from
        the buffer, and step the counter past any beyond it."""
        buf = self._buf
        if buf is not None:
            held = len(buf)
            if n <= held:
                del buf[held - n:]  # the buffer serves its last item first
                return
            buf.clear()
            n -= held
        self._state = (self._state + n * _GOLDEN) & _MASK64

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
