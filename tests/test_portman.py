"""Port pool: least-recently-released leasing, cooldown recycling,
exhaustion."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pool_sets
from netmbt.errors import PoolExhaustedError
from netmbt.portman import COOLDOWN_TESTS, PortPool


class TestLeasing:
    def test_pigeonhole_exhaustion(self):
        pool = PortPool(20000, 20003)
        assert [pool.acquire() for _ in range(4)] == [20000, 20001, 20002, 20003]
        with pytest.raises(PoolExhaustedError):
            pool.acquire()

    def test_release_requires_lease(self):
        pool = PortPool(20000, 20001)
        with pytest.raises(ValueError):
            pool.release(20000)

    def test_cooldown_then_reuse(self):
        assert COOLDOWN_TESTS == 2
        pool = PortPool(20000, 20000)
        port = pool.acquire()
        pool.release(port)
        pool.next_test()
        with pytest.raises(PoolExhaustedError):
            pool.acquire()  # still cooling
        pool.next_test()
        assert pool.acquire() == port  # same port recycled

    def test_least_recently_released_first(self):
        pool = PortPool(20000, 20003)
        a, b = pool.acquire(), pool.acquire()
        pool.release(b)
        pool.release(a)
        pool.next_test()
        pool.next_test()  # both releases have rested their two tests
        # ports never leased come first, lowest first, then the oldest release
        assert [pool.acquire() for _ in range(4)] == [20002, 20003, b, a]
        pool.release(a)
        pool.release(20002)
        pool.release(b)
        pool.next_test()
        pool.next_test()
        assert [pool.acquire() for _ in range(3)] == [a, 20002, b]

    def test_no_double_lease_without_release_and_cooldown(self):
        pool = PortPool(20000, 20005)
        seen = set()
        for _ in range(6):
            port = pool.acquire()
            assert port not in seen
            seen.add(port)

    def test_suite_sized_churn_stays_bounded(self):
        # one lease per test, released at test end: a tiny range suffices
        pool = PortPool(20000, 20009)
        for _ in range(10_000):
            port = pool.acquire()
            pool.release(port)
            pool.next_test()
            assert len(pool_sets(pool).leased) == 0

    def test_churn_leases_every_port_alike(self):
        # a lowest-free pool would lease 2 of the 10 ports, 5,000 times each
        pool = PortPool(20000, 20009)
        leases = Counter()
        for _ in range(10_000):
            port = pool.acquire()
            leases[port] += 1
            pool.release(port)
            pool.next_test()
        assert leases == {port: 1000 for port in range(20000, 20010)}


class TestPartitionInvariant:
    @given(ops=st.lists(st.integers(0, 2), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_free_leased_cooldown_partition_range(self, ops):
        lo, hi = 30000, 30007
        pool = PortPool(lo, hi)
        full = set(range(lo, hi + 1))
        for op in ops:
            if op == 0:
                try:
                    pool.acquire()
                except PoolExhaustedError:
                    pass
            elif op == 1 and pool_sets(pool).leased:
                pool.release(min(pool_sets(pool).leased))
            else:
                pool.next_test()
            free, leased, cooling, _ = pool_sets(pool)
            assert free | leased | cooling == full
            assert not free & leased
            assert not free & cooling
            assert not leased & cooling


class TestRetire:
    def test_a_retired_port_is_never_leased_again(self):
        pool = PortPool(20000, 20002)
        busy = pool.acquire()
        pool.retire(busy)
        sets = pool_sets(pool)
        assert busy not in sets.leased | sets.free | sets.cooling
        assert sets.retired == {busy}
        ports = set()
        for _ in range(10):  # one lease per test: each of the two ports is due as it is needed
            port = pool.acquire()
            ports.add(port)
            pool.release(port)
            pool.next_test()
        assert ports == {20001, 20002}
        with pytest.raises(ValueError):
            pool.release(busy)
        with pytest.raises(ValueError):
            pool.retire(busy)

    def test_exhaustion_names_the_retired_ports(self):
        pool = PortPool(20000, 20001)
        pool.retire(pool.acquire())
        pool.acquire()
        with pytest.raises(PoolExhaustedError, match=r"\[20000, 20001\] "
                           r"\(1 in use by another process\); widen --port-range"):
            pool.acquire()

    @given(ops=st.lists(st.integers(0, 3), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_free_leased_cooling_retired_partition_range(self, ops):
        lo, hi = 30000, 30007
        pool = PortPool(lo, hi)
        full = set(range(lo, hi + 1))
        for op in ops:
            if op == 0:
                try:
                    pool.acquire()
                except PoolExhaustedError:
                    pass
            elif op in (1, 2) and pool_sets(pool).leased:
                (pool.release if op == 1 else pool.retire)(min(pool_sets(pool).leased))
            else:
                pool.next_test()
            sets = list(pool_sets(pool))
            assert set().union(*sets) == full
            assert sum(map(len, sets)) == len(full)


class ReferencePortPool:
    """The pool before the lease counter: a set of every free port, built
    over the whole range up front.  acquire() picks the lowest port never
    leased, and when every port has been leased, the free port whose
    release came first.  A retired port leaves the pool for good."""

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        self._free_set = set(range(lo, hi + 1))
        self._released: dict[int, int] = {}  # port -> sequence number of its last release
        self._releases = 0
        self._leased: set[int] = set()
        self._cooldown: dict[int, int] = {}
        self._retired: set[int] = set()
        self._test_index = 0

    def acquire(self) -> int:
        self._expire()
        if not self._free_set:
            raise PoolExhaustedError("exhausted")
        port = min(self._free_set, key=lambda p: (p in self._released, self._released.get(p, p)))
        self._free_set.remove(port)
        self._leased.add(port)
        return port

    def release(self, port: int) -> None:
        if port not in self._leased:
            raise ValueError(f"port {port} is not leased")
        self._leased.remove(port)
        self._cooldown[port] = self._test_index + COOLDOWN_TESTS
        self._released[port] = self._releases
        self._releases += 1
        self._expire()

    def retire(self, port: int) -> None:
        if port not in self._leased:
            raise ValueError(f"port {port} is not leased")
        self._leased.remove(port)
        self._retired.add(port)

    def next_test(self) -> None:
        self._test_index += 1
        self._expire()

    def _expire(self) -> None:
        due = [p for p, when in self._cooldown.items() if when <= self._test_index]
        for port in due:
            del self._cooldown[port]
            self._free_set.add(port)


def _outcome(call):
    try:
        return call()
    except (PoolExhaustedError, ValueError) as exc:
        return type(exc)


# Ops: 0 acquire, 1 release, 2 retire, 3 next test.  Acquire-weighted and
# long, so that most examples lease every port and then take ports from the
# release queue (about 270 of 300, a median of 4 queue pops each).
_OPS = st.lists(st.tuples(st.sampled_from((0, 0, 0, 1, 1, 3, 3, 2)), st.integers(0, 9)),
                min_size=30, max_size=100)


class TestAgainstReference:
    @given(size=st.integers(1, 9), ops=_OPS)
    @settings(max_examples=300, deadline=None)
    def test_same_ports_sets_and_exhaustion_as_the_full_set_pool(self, size, ops):
        lo = 40000
        pool = PortPool(lo, lo + size - 1)
        ref = ReferencePortPool(lo, lo + size - 1)
        for op, pick in ops:
            if op == 0:
                assert _outcome(pool.acquire) == _outcome(ref.acquire)
            elif op in (1, 2):
                # release or retire a leased port, or, now and then, one that is not
                name = "release" if op == 1 else "retire"
                leased = sorted(ref._leased)
                port = leased[pick % len(leased)] if leased and pick else lo + pick
                assert _outcome(lambda: getattr(pool, name)(port)) == _outcome(
                    lambda: getattr(ref, name)(port))
            else:
                pool.next_test()
                ref.next_test()
            sets = pool_sets(pool)
            assert sets.leased == ref._leased
            assert sets.free == ref._free_set
            assert sets.cooling == set(ref._cooldown)
            assert sets.retired == ref._retired
