"""Deterministic in-memory implementation of the socket adapter.

Bytes move through explicit latency cohorts driven by a step clock (one
tick per fired transition), so every outcome - read contents, readiness
sets, end-of-stream timing - is a pure function of the test seed and the
adapter call sequence.  An optional fault plan corrupts one thing per test
to probe oracle sensitivity: the drop and duplicate faults act at delivery,
phantom readiness acts at readiness.

Close semantics mirror loopback TCP deterministically:

* graceful close (nothing unread at the closer): the peer drains remaining
  data and then sees end-of-stream; the peer's first write is swallowed
  (accepted, then lost) and subsequent writes fail with PeerClosedError -
  the classic write/write-EPIPE pattern.
* abortive close (unread data at the closer): both directions are poisoned
  immediately; pending data is discarded and the peer's reads and writes
  fail with PeerClosedError - the reset pattern.

The two ends share their flows and never refer to each other; each fact
about a direction is stored once, on its flow (see SimFlow).  Every close
marks its outgoing flow ``eof_signaled`` and ``writer_closed``, and resets
the pair only while the peer is still open and unread data waits, so a
second close resets nothing.  The swallow is derived: a write on a flow
that is not poisoned, once the peer has closed, is lost and poisons the
flow.  A peer's shutdownOutput alone swallows nothing.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import NamedTuple

from .adapter import (
    ACCEPT,
    EMPTY,
    EOF,
    READ,
    WRITE,
    ConnChannel,
    NetworkBackend,
    ReadResult,
    ServerChannel,
)
from .errors import AdapterError, ErrorKind, WatchdogTimeout
from .rng import SeededRng


class LatencyModel(NamedTuple):
    """Per-write delivery delay: one value drawn uniformly from ``choices``.

    With ``split`` enabled a write may be torn into two cohorts one step
    apart, which is what produces partial reads downstream.
    """

    choices: tuple[int, ...]
    split: bool

    def draw(self, rng: SeededRng) -> int:
        return self.choices[rng.below(len(self.choices))]


# The latency presets a run names (``--latency``), in their listed order.
LATENCIES = {
    "zero": LatencyModel(choices=(0,), split=False),
    "default": LatencyModel(choices=(0, 1, 2), split=True),
}


class FaultKind(enum.Enum):
    DUPLICATE_BYTES = "duplicate-bytes"
    DROP_BYTES = "drop-bytes"
    PHANTOM_READINESS = "phantom-readiness"


# A fault plan is one FaultKind per test, armed once the clock reaches this step.
FAULT_TRIGGER_STEP = 3


class SimFlow:
    """One direction of a connection."""

    __slots__ = ("cohorts", "delivered", "eof_signaled", "poisoned",
                 "writer_closed", "written", "read_count", "lost", "dropped",
                 "duplicated")

    def __init__(self):
        self.cohorts: deque[tuple[int, bytes]] = deque()  # (available_step, data)
        self.delivered = bytearray()
        self.eof_signaled = False   # the writer shut its output or closed
        self.poisoned = False       # reset: reads and writes fail
        self.writer_closed = False  # the writer closed
        self.written = 0
        self.read_count = 0
        self.lost = 0          # bytes destroyed by closes (swallow/reset)
        self.dropped = 0       # bytes removed by the drop fault
        self.duplicated = 0    # extra bytes added by the duplicate fault

    @property
    def in_flight(self) -> int:
        return sum(len(data) for _, data in self.cohorts)


class SimConn(ConnChannel):
    __slots__ = ("rx", "tx")

    def __init__(self, role: str, connection_id: int, rx: SimFlow, tx: SimFlow):
        super().__init__(role, connection_id)
        self.rx = rx
        self.tx = tx


class SimServer(ServerChannel):
    __slots__ = ("backlog",)

    def __init__(self):
        super().__init__()
        self.backlog: deque[tuple[SimConn, int]] = deque()  # (server side, due step)


class SimBackend(NetworkBackend):
    """Adapter implementation backed by the simulated network state.  A
    tick before ``_due`` only moves the clock."""

    is_sim = True

    def __init__(self, rng: SeededRng, latency: LatencyModel, fault: FaultKind | None = None):
        super().__init__()
        self.rng = rng
        self.latency = latency
        self.clock = 0
        self.fault = fault
        self.fault_events: list[str] = []
        # In connection order: the order that decides which cohort a drop or
        # duplicate fault hits.
        self._flows: list[SimFlow] = []
        # The earliest step at which a cohort in flight is due (inf: none):
        # a write lowers it, a tick that reaches it delivers and recomputes it.
        self._due = float("inf")
        self._ephemeral = 49151  # the last port bound

    # -- time ----------------------------------------------------------------

    def advance(self) -> None:
        self.clock += 1
        clock = self.clock
        if clock < self._due:
            return
        due = float("inf")
        for flow in self._flows:
            # _deliver pops due cohorts from the front only: skip the call
            # when the first one is not due.
            cohorts = flow.cohorts
            if cohorts and cohorts[0][0] <= clock:
                self._deliver(flow)
            if cohorts and cohorts[0][0] < due:
                due = cohorts[0][0]
        self._due = due

    def _deliver(self, flow: SimFlow) -> None:
        # Skip the fault checks (a call and an enum lookup each) with no fault.
        faulty = self.fault is not None
        while flow.cohorts and flow.cohorts[0][0] <= self.clock:
            _, data = flow.cohorts.popleft()
            if faulty and self._fault_armed(FaultKind.DROP_BYTES):
                self._fire_fault(f"dropped cohort of {len(data)} bytes")
                flow.dropped += len(data)
                continue
            flow.delivered.extend(data)
            if faulty and self._fault_armed(FaultKind.DUPLICATE_BYTES):
                self._fire_fault(f"duplicated cohort of {len(data)} bytes")
                flow.delivered.extend(data)
                flow.duplicated += len(data)

    def _fault_armed(self, kind: FaultKind) -> bool:
        return (
            self.fault is kind
            and not self.fault_events
            and self.clock >= FAULT_TRIGGER_STEP
        )

    def _fire_fault(self, event: str) -> None:
        self.fault_events.append(f"step {self.clock}: {event}")

    # -- transport hooks -------------------------------------------------------

    def _do_open_server(self) -> SimServer:
        return SimServer()

    def _do_bind(self, server: SimServer) -> int:
        self._ephemeral += 1
        return self._ephemeral

    def _do_close_server(self, server: SimServer) -> None:
        # Queued-but-unaccepted connections get reset, as the OS would.
        for conn, _ in server.backlog:
            self._poison_pair(conn)
        server.backlog.clear()

    def _do_accept(self, server: SimServer, blocking: bool) -> SimConn | None:
        if blocking:
            if not server.backlog:
                raise WatchdogTimeout(
                    "blocking accept with no pending connection can never complete"
                )
            while server.backlog[0][1] > self.clock:
                self.advance()
        if server.backlog and server.backlog[0][1] <= self.clock:
            conn, _ = server.backlog.popleft()
            return conn
        return None

    def _do_connect(self, port: int) -> SimConn:
        # The listener on a port is the server bound to it that is not closed,
        # which covers both close_server and the end-of-test cleanup.
        listener = next((s for s in self._opened_servers
                         if s.local_port == port and not s.closed), None)
        if listener is None:
            raise AdapterError(ErrorKind.CONNECTION_REFUSED, f"no listener on port {port}")
        up = SimFlow()    # client -> server
        down = SimFlow()  # server -> client
        self._flows.extend((up, down))
        conn_id = next(self._conn_ids)
        client = SimConn("client", conn_id, rx=down, tx=up)
        server_side = SimConn("server", conn_id, rx=up, tx=down)
        delay = self.latency.draw(self.rng)
        listener.backlog.append((server_side, self.clock + delay))
        return client

    def _do_read(self, conn: SimConn, capacity: int, blocking: bool) -> ReadResult:
        flow = conn.rx
        while True:
            if flow.poisoned:
                raise AdapterError(ErrorKind.PEER_CLOSED, "connection reset by peer")
            if flow.delivered:
                take = min(capacity, len(flow.delivered))
                data = bytes(flow.delivered[:take])
                del flow.delivered[:take]
                flow.read_count += take
                return tuple.__new__(ReadResult, (data, False))
            if flow.eof_signaled and not flow.cohorts:
                return EOF
            if not blocking:
                return EMPTY
            if flow.cohorts:
                self.advance()  # waiting: let time pass until delivery
                continue
            raise WatchdogTimeout("blocking read with no data in flight can never complete")

    def _do_write(self, conn: SimConn, payload: bytes, blocking: bool) -> int:
        flow = conn.tx
        if flow.poisoned:
            raise AdapterError(ErrorKind.PEER_CLOSED, "broken pipe")
        if conn.rx.writer_closed:
            # The peer closed: this write is accepted and lost; the reset
            # surfaces on the next one.
            flow.poisoned = True
            flow.written += len(payload)
            flow.lost += len(payload)
            return len(payload)
        delay = self.latency.draw(self.rng)
        split_at = self.rng.below(len(payload) + 1)
        flow.written += len(payload)
        start = self.clock + delay
        if self.latency.split and 0 < split_at < len(payload):
            flow.cohorts.append((start, payload[:split_at]))
            flow.cohorts.append((start + 1, payload[split_at:]))
        else:
            flow.cohorts.append((start, payload))
        self._deliver(flow)  # zero-latency cohorts are readable immediately
        if flow.cohorts and flow.cohorts[0][0] < self._due:
            self._due = flow.cohorts[0][0]
        return len(payload)

    def _do_shutdown_output(self, conn: SimConn) -> None:
        conn.tx.eof_signaled = True

    def _do_close_conn(self, conn: SimConn) -> None:
        rx, tx = conn.rx, conn.tx
        tx.eof_signaled = tx.writer_closed = True
        if not rx.writer_closed and (rx.delivered or rx.cohorts):
            self._poison_pair(conn)

    def _poison_pair(self, conn: SimConn) -> None:
        """Reset ``conn``'s connection: both directions unusable, data lost."""
        for flow in (conn.rx, conn.tx):
            flow.lost += len(flow.delivered) + flow.in_flight
            flow.delivered.clear()
            flow.cohorts.clear()
            flow.poisoned = True

    def _raw_readiness(self, channel, interest: int) -> int:
        if isinstance(channel, SimServer):
            if channel.backlog and channel.backlog[0][1] <= self.clock:
                return ACCEPT
            return 0
        flow = channel.rx
        if not flow.poisoned and (
            flow.delivered or (flow.eof_signaled and not flow.cohorts)
        ):
            return READ | WRITE
        # select_now asks for live keys in selector order: the first eligible takes it
        if (self.fault is not None and interest & READ and not channel.input_shut
                and self._fault_armed(FaultKind.PHANTOM_READINESS)):
            self._fire_fault(f"phantom READ readiness on connection {channel.connection_id}")
            return READ | WRITE
        return WRITE

    # -- introspection for invariant checks ------------------------------------

    def flow_stats(self) -> list[dict]:
        return [
            {
                "written": f.written,
                "read": f.read_count,
                "delivered_unread": len(f.delivered),
                "in_flight": f.in_flight,
                "lost": f.lost,
                "dropped": f.dropped,
                "duplicated": f.duplicated,
            }
            for f in self._flows
        ]
