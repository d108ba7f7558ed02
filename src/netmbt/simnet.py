"""Deterministic in-memory implementation of the socket adapter.

Bytes move through explicit latency cohorts driven by a step clock (one
tick per fired transition), so every outcome - read contents, readiness
sets, end-of-stream timing - is a pure function of the test seed and the
adapter call sequence.  An optional fault plan corrupts delivery in one
controlled way per test to probe oracle sensitivity.

Close semantics mirror loopback TCP deterministically:

* graceful close (nothing unread at the closer): the peer drains remaining
  data and then sees end-of-stream; the peer's first write is swallowed
  (accepted, then lost) and subsequent writes fail with PeerClosedError -
  the classic write/write-EPIPE pattern.
* abortive close (unread data at the closer): both directions are poisoned
  immediately; pending data is discarded and the peer's reads and writes
  fail with PeerClosedError - the reset pattern.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .adapter import (
    ACCEPT,
    EOF,
    READ,
    WRITE,
    ConnChannel,
    NetworkBackend,
    ReadResult,
    Selector,
    SelectorKey,
    ServerChannel,
    bytes_result,
)
from .errors import AdapterError, BackendError, ErrorKind, WatchdogTimeout
from .rng import SeededRng


@dataclass(frozen=True)
class LatencyModel:
    """Per-write delivery delay: one value drawn uniformly from ``choices``.

    With ``split`` enabled a write may be torn into two cohorts one step
    apart, which is what produces partial reads downstream.
    """

    choices: tuple[int, ...] = (0, 1, 2)
    split: bool = True

    @staticmethod
    def default() -> "LatencyModel":
        return LatencyModel()

    @staticmethod
    def zero() -> "LatencyModel":
        return LatencyModel(choices=(0,), split=False)

    def draw(self, rng: SeededRng) -> int:
        return self.choices[rng.below(len(self.choices))]


class FaultKind(enum.Enum):
    DUPLICATE_BYTES = "duplicate-bytes"
    DROP_BYTES = "drop-bytes"
    PHANTOM_READINESS = "phantom-readiness"


@dataclass(frozen=True)
class FaultSpec:
    """One fault per test, armed once the clock reaches ``trigger_step``."""

    kind: FaultKind
    trigger_step: int = 3


class SimFlow:
    """One direction of a connection."""

    __slots__ = ("cohorts", "delivered", "eof_signaled", "poisoned",
                 "swallow_pending", "written", "read_count", "lost",
                 "dropped", "duplicated")

    def __init__(self):
        self.cohorts: deque[tuple[int, bytes]] = deque()  # (available_step, data)
        self.delivered = bytearray()
        self.eof_signaled = False
        self.poisoned = False
        self.swallow_pending = False
        self.written = 0
        self.read_count = 0
        self.lost = 0          # bytes destroyed by closes (swallow/reset)
        self.dropped = 0       # bytes removed by the drop fault
        self.duplicated = 0    # extra bytes added by the duplicate fault

    @property
    def in_flight(self) -> int:
        return sum(len(data) for _, data in self.cohorts)

    def discard_pending(self) -> None:
        self.lost += len(self.delivered) + self.in_flight
        self.delivered.clear()
        self.cohorts.clear()


class SimConn(ConnChannel):
    __slots__ = ("rx", "tx", "peer")

    def __init__(self, role: str, connection_id: int, rx: SimFlow, tx: SimFlow):
        super().__init__(role, connection_id)
        self.rx = rx
        self.tx = tx
        self.peer: "SimConn | None" = None


class SimServer(ServerChannel):
    __slots__ = ("port", "backlog")

    def __init__(self):
        super().__init__()
        self.port: int | None = None
        self.backlog: deque[tuple[SimConn, int]] = deque()  # (server side, due step)


class SimBackend(NetworkBackend):
    """Adapter implementation backed by the simulated network state."""

    is_sim = True

    def __init__(
        self,
        rng: SeededRng,
        latency: LatencyModel | None = None,
        fault: FaultSpec | None = None,
    ):
        super().__init__()
        self.rng = rng
        self.latency = latency or LatencyModel.default()
        self.clock = 0
        self.fault = fault
        self.fault_fired = False
        self.fault_events: list[str] = []
        self._listeners: dict[int, SimServer] = {}
        self._flows: list[SimFlow] = []
        self._ephemeral = 49152

    # -- time ----------------------------------------------------------------

    def advance(self) -> None:
        self.clock += 1
        for flow in self._flows:
            if flow.cohorts:
                self._deliver(flow)

    def _deliver(self, flow: SimFlow) -> None:
        while flow.cohorts and flow.cohorts[0][0] <= self.clock:
            _, data = flow.cohorts.popleft()
            if self._fault_armed(FaultKind.DROP_BYTES):
                self._fire_fault(f"dropped cohort of {len(data)} bytes")
                flow.dropped += len(data)
                continue
            flow.delivered.extend(data)
            if self._fault_armed(FaultKind.DUPLICATE_BYTES):
                self._fire_fault(f"duplicated cohort of {len(data)} bytes")
                flow.delivered.extend(data)
                flow.duplicated += len(data)

    def _fault_armed(self, kind: FaultKind) -> bool:
        return (
            self.fault is not None
            and self.fault.kind is kind
            and not self.fault_fired
            and self.clock >= self.fault.trigger_step
        )

    def _fire_fault(self, event: str) -> None:
        self.fault_fired = True
        self.fault_events.append(f"step {self.clock}: {event}")

    # -- transport hooks -------------------------------------------------------

    def _do_open_server(self) -> SimServer:
        return SimServer()

    def _do_bind(self, server: SimServer, port: int) -> int:
        if port == 0:
            while self._ephemeral in self._listeners:
                self._ephemeral += 1
            port = self._ephemeral
            self._ephemeral += 1
        elif port in self._listeners:
            raise BackendError(f"simulated port {port} already in use")
        server.port = port
        self._listeners[port] = server
        return port

    def _do_close_server(self, server: SimServer) -> None:
        self._listeners.pop(server.port, None)
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
            conn, _ = server.backlog.popleft()
            return conn
        if server.backlog and server.backlog[0][1] <= self.clock:
            conn, _ = server.backlog.popleft()
            return conn
        return None

    def _do_connect(self, host: str, port: int) -> SimConn:
        listener = self._listeners.get(port)
        if listener is None or listener.closed:
            raise AdapterError(ErrorKind.CONNECTION_REFUSED, f"no listener on port {port}")
        up = SimFlow()    # client -> server
        down = SimFlow()  # server -> client
        self._flows.extend((up, down))
        conn_id = next(self._conn_ids)
        client = SimConn("client", conn_id, rx=down, tx=up)
        server_side = SimConn("server", conn_id, rx=up, tx=down)
        client.peer = server_side
        server_side.peer = client
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
                return bytes_result(data)
            if flow.eof_signaled and not flow.cohorts:
                return EOF
            if not blocking:
                return bytes_result(b"")
            if flow.cohorts:
                self.advance()  # waiting: let time pass until delivery
                continue
            raise WatchdogTimeout("blocking read with no data in flight can never complete")

    def _do_write(self, conn: SimConn, payload: bytes, blocking: bool) -> int:
        flow = conn.tx
        if flow.poisoned:
            raise AdapterError(ErrorKind.PEER_CLOSED, "broken pipe")
        if flow.swallow_pending:
            # Peer closed gracefully: this write is accepted and lost; the
            # reset surfaces on the next one.
            flow.swallow_pending = False
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
        return len(payload)

    def _do_shutdown_input(self, conn: SimConn) -> None:
        pass  # local-only effect; the adapter guard blocks subsequent reads

    def _do_shutdown_output(self, conn: SimConn) -> None:
        conn.tx.eof_signaled = True

    def _do_close_conn(self, conn: SimConn) -> None:
        peer = conn.peer
        if peer is None or peer.closed:
            return
        unread = len(conn.rx.delivered) + conn.rx.in_flight
        if unread > 0:
            self._poison_pair(conn.peer)
        else:
            conn.tx.eof_signaled = True
            conn.rx.swallow_pending = True

    def _poison_pair(self, peer: SimConn) -> None:
        """Reset as seen from ``peer``: both directions unusable, data lost."""
        peer.rx.discard_pending()
        peer.rx.poisoned = True
        peer.tx.discard_pending()
        peer.tx.poisoned = True

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
        return WRITE

    def _post_select(self, selector: Selector, ready_keys: set[SelectorKey]) -> None:
        if not self._fault_armed(FaultKind.PHANTOM_READINESS):
            return
        for key in selector.keys:
            if key.cancelled or key.channel.closed:
                continue
            if not (key.interest & READ):
                continue
            ch = key.channel
            if not isinstance(ch, SimConn) or ch.input_shut:
                continue
            if key.ready & READ:
                continue
            key.ready |= READ
            ready_keys.add(key)
            self._fire_fault(f"phantom READ readiness on connection {ch.connection_id}")
            return

    def _force_close_conn(self, conn: SimConn) -> None:
        pass

    def _force_close_server(self, server: SimServer) -> None:
        self._listeners.pop(server.port, None)

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
