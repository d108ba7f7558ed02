"""Listen-port pool with per-test cooldown recycling.

Rapid connection-heavy suites exhaust ephemeral ports; leasing listen ports
from a fixed range and parking released ports in a short cooldown keeps the
footprint bounded and deterministic.  Cooldown is measured in tests, not
wall-clock time.
"""

from __future__ import annotations

import heapq

from .errors import PoolExhaustedError


class PortPool:
    """Ports never leased are handed out by a counter over [lo, hi];
    released ports come back, after their cooldown, through a heap.  Every
    recycled port was leased, so it lies below the counter, and acquire()
    always takes the lowest free port."""

    def __init__(self, lo: int, hi: int, cooldown_tests: int = 2):
        if not (0 < lo <= hi <= 65535):
            raise ValueError(f"invalid port range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.cooldown_tests = cooldown_tests
        self._next = lo  # the lowest port never leased
        self._recycled: list[int] = []  # heap of free ports below _next
        self._leased: set[int] = set()
        self._cooldown: dict[int, int] = {}  # port -> test index when usable again
        self._test_index = 0

    def acquire(self) -> int:
        self._expire()
        if self._recycled:
            port = heapq.heappop(self._recycled)
        elif self._next <= self.hi:
            port = self._next
            self._next += 1
        else:
            raise PoolExhaustedError(
                f"no free listen port in [{self.lo}, {self.hi}]; "
                "widen --port-range or lower the test rate"
            )
        self._leased.add(port)
        return port

    def release(self, port: int) -> None:
        if port not in self._leased:
            raise ValueError(f"port {port} is not leased")
        self._leased.remove(port)
        self._cooldown[port] = self._test_index + self.cooldown_tests

    def next_test(self) -> None:
        """Advance the test counter; called once per finished test."""
        self._test_index += 1
        self._expire()

    def _expire(self) -> None:
        due = [p for p, when in self._cooldown.items() if when <= self._test_index]
        for port in due:
            del self._cooldown[port]
            heapq.heappush(self._recycled, port)

    # introspection, used by invariant tests
    @property
    def leased(self) -> frozenset[int]:
        return frozenset(self._leased)

    @property
    def free(self) -> frozenset[int]:
        return frozenset(self._recycled).union(range(self._next, self.hi + 1))

    @property
    def cooling(self) -> frozenset[int]:
        return frozenset(self._cooldown)
