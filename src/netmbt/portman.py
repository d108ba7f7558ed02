"""Listen-port pool with per-test cooldown recycling.

Rapid connection-heavy suites exhaust ephemeral ports; leasing listen ports
from a fixed range keeps the footprint bounded and deterministic.  A counter
hands out the ports never leased; a released port waits in one release
queue until its cooldown, counted in tests, not wall-clock time, is over.
The real backend (realnet.RealBackend) is the only lessee: a bind leases,
the end-of-test cleanup releases.  The simulator numbers its own ports.
A sharded suite gives each shard its own pool over a disjoint sub-range
of --port-range (explorer.plan_shards), so no two processes lease a port.

A port that another process holds is retired: it leaves the pool for the
rest of the suite, and the next lease takes another port.

Recycling is least recently released first, so a suite spreads its leases
over the whole range instead of alternating between its lowest ports: on
real sockets each lease of a port leaves closed connections to it in
TIME_WAIT, and a port with many of them binds and listens more slowly.
"""

from __future__ import annotations

from collections import deque

from .errors import PoolExhaustedError

COOLDOWN_TESTS = 2  # the tests a released port rests before its next lease


class PortPool:
    """Ports never leased are handed out first, by a counter over [lo, hi];
    after that acquire() takes the port released longest ago, once its
    cooldown of COOLDOWN_TESTS tests is over.  ``_released`` queues released
    ports in release order, which is also the order they come due: every
    release adds the same cooldown to a test index that never decreases."""

    def __init__(self, lo: int, hi: int):
        if not (0 < lo <= hi <= 65535):
            raise ValueError(f"invalid port range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._next = lo  # the lowest port never leased
        self._released: deque[tuple[int, int]] = deque()  # (usable from test, port)
        self._leased: set[int] = set()
        self._retired: set[int] = set()  # held by another process; never leased again
        self._test_index = 0

    def acquire(self) -> int:
        if self._next <= self.hi:
            port = self._next
            self._next += 1
        elif self._released and self._released[0][0] <= self._test_index:
            port = self._released.popleft()[1]
        else:
            busy = f" ({len(self._retired)} in use by another process)" if self._retired else ""
            raise PoolExhaustedError(
                f"no free listen port in [{self.lo}, {self.hi}]{busy}; widen --port-range "
                f"(a released port rests for {COOLDOWN_TESTS} tests)"
            )
        self._leased.add(port)
        return port

    def release(self, port: int) -> None:
        if port not in self._leased:
            raise ValueError(f"port {port} is not leased")
        self._leased.remove(port)
        self._released.append((self._test_index + COOLDOWN_TESTS, port))

    def retire(self, port: int) -> None:
        """Take a leased port out of the pool for good: it could not be bound."""
        if port not in self._leased:
            raise ValueError(f"port {port} is not leased")
        self._leased.remove(port)
        self._retired.add(port)

    def next_test(self) -> None:
        """Advance the test counter; called once per finished test."""
        self._test_index += 1
