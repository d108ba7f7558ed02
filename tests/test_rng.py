"""Seeded RNG: splitmix64 correctness, draw discipline, maybe() bounds."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmbt.rng import SeededRng, derive_seed, maybe

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_stream(seed: int, n: int) -> list[int]:
    """Independent splitmix64 implementation (Vigna's reference constants)."""
    out = []
    state = seed & MASK

    def mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    for _ in range(n):
        state = (state + GOLDEN) & MASK
        out.append(mix(state))
    return out


class ReferenceRng:
    """One splitmix64 draw at a time, and every SeededRng method built on
    its draws as documented."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        draw = reference_stream(self.state, 1)[0]
        self.state = (self.state + GOLDEN) & MASK
        return draw

    def below(self, n: int) -> int:
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def payload(self, length: int) -> bytes:
        draws = [self.next_u64() for _ in range((length + 7) // 8)]
        return b"".join(d.to_bytes(8, "little") for d in draws)[:length]

    def maybe(self, probability: float) -> bool:
        return self.next_u64() < int(probability * 2**64)

    def skip(self, n: int) -> None:
        for _ in range(n):
            self.next_u64()

    def fork(self) -> "ReferenceRng":
        return ReferenceRng(self.next_u64())


# (method, arguments) of one call; payloads up to 40 draws long
_CALLS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("below"), st.integers(1, 2**70)),
    st.integers(-(2**63), 2**63).flatmap(
        lambda lo: st.tuples(st.just("randint"), st.just(lo), st.integers(lo, lo + 2**64))),
    st.tuples(st.just("payload"), st.integers(0, 320)),
    st.tuples(st.just("skip"), st.integers(0, 80)),
    st.tuples(st.just("maybe"), st.floats(0.0, 1.0)),
    st.tuples(st.just("fork")),
)


class TestBatchBoundaries:
    """SeededRng computes its draws in batches; whatever the calls, and
    wherever a batch ends, each stream equals the one-draw-at-a-time
    reference."""

    @given(seed=st.sampled_from([0, MASK]) | st.integers(0, MASK),
           calls=st.lists(st.tuples(st.integers(0, 7), _CALLS), max_size=120))
    @example(seed=0, calls=[(0, ("randint", 0, 1)), (0, ("maybe", 0.5))] * 50)
    @example(seed=MASK, calls=[(0, ("payload", 64)), (0, ("fork",)), (1, ("below", 3))] * 40)
    @settings(max_examples=300, deadline=None)
    def test_random_interleavings_equal_the_reference(self, seed, calls):
        streams = [(SeededRng(seed), ReferenceRng(seed))]
        for pick, (name, *args) in calls:
            ours, ref = streams[pick % len(streams)]
            if name == "fork":
                streams.append((ours.fork(), ref.fork()))
            elif name == "maybe":
                assert maybe(ours, *args) == ref.maybe(*args)
            else:
                assert getattr(ours, name)(*args) == getattr(ref, name)(*args)
        # Every stream then runs on past three more batch ends.
        for ours, ref in streams:
            assert [ours.next_u64() for _ in range(100)] == [ref.next_u64() for _ in range(100)]


class TestSkip:
    """skip(n) leaves a stream where n next_u64 calls would, from any place
    in the buffer.  ``held`` is what the buffer holds before the skip: the
    first batch computes 8 draws, later ones 32."""

    @pytest.mark.parametrize("before, held, n", [
        pytest.param(1, 7, 3, id="within-a-batch"),
        pytest.param(5, 3, 10, id="from-the-first-batch-into-a-32-lane-batch"),
        pytest.param(9, 31, 100, id="longer-than-the-buffer"),
        pytest.param(0, None, 45, id="before-the-first-draw"),
        pytest.param(4, 4, 0, id="zero"),
    ])
    def test_equals_that_many_draws_of_the_reference(self, before, held, n):
        ours, ref = SeededRng(42), ReferenceRng(42)
        assert [ours.next_u64() for _ in range(before)] == [ref.next_u64() for _ in range(before)]
        assert (ours._buf if ours._buf is None else len(ours._buf)) == held
        ours.skip(n)
        ref.skip(n)
        assert [ours.next_u64() for _ in range(80)] == [ref.next_u64() for _ in range(80)]

    def test_zero_leaves_the_buffer_as_it_was(self):
        rng = SeededRng(8)
        rng.next_u64()
        buf = list(rng._buf)
        rng.skip(0)
        assert rng._buf == buf


class TestSplitmix64:
    def test_published_vector_seed_zero(self):
        # First outputs of splitmix64(0) from the reference implementation.
        rng = SeededRng(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    @pytest.mark.parametrize("seed", [1, 42, 2**64 - 1, 0xDEADBEEF])
    def test_matches_reference(self, seed):
        rng = SeededRng(seed)
        assert [rng.next_u64() for _ in range(64)] == reference_stream(seed, 64)

    def test_same_seed_same_stream(self):
        a, b = SeededRng(7), SeededRng(7)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_derive_seed_is_stream_output(self):
        assert [derive_seed(99, i) for i in range(8)] == reference_stream(99, 8)

    def test_derive_seed_no_collisions(self):
        seeds = {derive_seed(7, i) for i in range(10_000)}
        assert len(seeds) == 10_000


class TestBoundedDraws:
    def test_below_range(self):
        rng = SeededRng(3)
        values = [rng.below(10) for _ in range(1000)]
        assert all(0 <= v < 10 for v in values)
        assert set(values) == set(range(10))

    def test_below_one_is_always_zero(self):
        rng = SeededRng(3)
        assert all(rng.below(1) == 0 for _ in range(50))

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SeededRng(0).below(0)

    def test_randint_inclusive(self):
        rng = SeededRng(5)
        values = [rng.randint(1, 64) for _ in range(5000)]
        assert min(values) == 1 and max(values) == 64

    def test_payload_length_and_determinism(self):
        assert len(SeededRng(9).payload(13)) == 13
        assert SeededRng(9).payload(13) == SeededRng(9).payload(13)

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 16, 63, 64])
    def test_payload_and_randint_are_their_draws(self, length):
        # payload: the little-endian bytes of ceil(length/8) draws, cut to
        # length; randint(lo, hi): lo + below(hi - lo + 1) on one draw.
        rng = SeededRng(21)
        draws = reference_stream(21, (length + 7) // 8 + 1)
        assert rng.payload(length) == b"".join(d.to_bytes(8, "little") for d in draws[:-1])[:length]
        assert rng.randint(-3, length) == -3 + ((draws[-1] * (length + 4)) >> 64)
        assert rng.next_u64() == reference_stream(21, len(draws) + 1)[-1]

    def test_one_draw_per_below(self):
        # below() must consume exactly one u64 draw
        a, b = SeededRng(11), SeededRng(11)
        a.below(12345)
        b.next_u64()
        assert a.next_u64() == b.next_u64()


class TestMaybe:
    def test_zero_is_always_false(self):
        rng = SeededRng(1)
        assert not any(maybe(rng, 0.0) for _ in range(1000))

    def test_one_is_always_true(self):
        rng = SeededRng(1)
        assert all(maybe(rng, 1.0) for _ in range(1000))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            maybe(SeededRng(0), 1.5)
        with pytest.raises(ValueError):
            maybe(SeededRng(0), -0.1)

    def test_binomial_bound_at_half(self):
        # 10,000 draws at p=0.5: the true count must stay within [4700, 5300]
        # (a six-sigma window around the binomial mean of 5000).
        rng = SeededRng(12345)
        count = sum(1 for _ in range(10_000) if maybe(rng, 0.5))
        assert 4700 <= count <= 5300

    def test_replay_stable(self):
        a, b = SeededRng(77), SeededRng(77)
        assert [maybe(a, 0.3) for _ in range(200)] == [maybe(b, 0.3) for _ in range(200)]
