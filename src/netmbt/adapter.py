"""Abstract surface of the socket API under test.

Channels, selectors and read results are plain state-carrying handles; the
behavior lives in a NetworkBackend (real OS sockets or the in-memory
simulator).  The (state, operation) legality table is enforced here, in one
place, so both backends classify misuse identically; subclasses implement
only the transport.

Blocking operations honor a per-call watchdog budget: instead of hanging, a
call that cannot complete raises WatchdogTimeout, which the explorer turns
into a Fail("watchdog ...") verdict.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import AdapterError, ErrorKind


class Interest(enum.IntFlag):
    ACCEPT = 1
    READ = 2
    WRITE = 4


# The same bits as plain ints.  Selector keys hold their interest and ready
# sets as ints, so readiness arithmetic on the hot path skips enum calls.
ACCEPT, READ, WRITE = 1, 2, 4


class ReadKind(enum.Enum):
    BYTES = "bytes"
    END_OF_STREAM = "eof"


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a read: either a (possibly empty) byte chunk or end of
    stream.  End of stream is a distinct variant, not a sentinel count."""

    kind: ReadKind
    data: bytes = b""

    @property
    def count(self) -> int:
        return len(self.data)

    @property
    def is_eof(self) -> bool:
        return self.kind is ReadKind.END_OF_STREAM


EOF = ReadResult(ReadKind.END_OF_STREAM)


def bytes_result(data: bytes) -> ReadResult:
    return ReadResult(ReadKind.BYTES, data)


class ServerChannel:
    """Listening endpoint handle.  state: open-unbound -> bound -> closed."""

    __slots__ = ("blocking", "bound", "closed", "local_port", "keys")

    def __init__(self):
        self.blocking = True
        self.bound = False
        self.closed = False
        self.local_port: int | None = None  # retained after close for inspection
        self.keys: list[SelectorKey] = []


class ConnChannel:
    """Established connection handle.

    ``role`` is "client" for the connecting side and "server" for the
    accepted side; both ends of one connection share ``connection_id``.
    """

    __slots__ = ("blocking", "closed", "input_shut", "output_shut", "role",
                 "connection_id", "keys")

    def __init__(self, role: str, connection_id: int):
        self.blocking = True
        self.closed = False
        self.input_shut = False
        self.output_shut = False
        self.role = role
        self.connection_id = connection_id
        self.keys: list[SelectorKey] = []


class SelectorKey:
    __slots__ = ("channel", "interest", "ready", "cancelled")

    def __init__(self, channel, interest: int):
        self.channel = channel
        self.interest = interest  # int mask of ACCEPT/READ/WRITE
        self.ready = 0
        self.cancelled = False


class Selector:
    __slots__ = ("keys",)

    def __init__(self):
        self.keys: list[SelectorKey] = []


class NetworkBackend:
    """Shared legality table; transport is delegated to _do_* hooks."""

    is_sim = False

    def __init__(self):
        self._opened_servers: list[ServerChannel] = []
        self._opened_conns: list[ConnChannel] = []
        self._conn_ids = itertools.count(1)

    # -- server channels ---------------------------------------------------

    def open_server(self) -> ServerChannel:
        server = self._do_open_server()
        self._opened_servers.append(server)
        return server

    def bind(self, server: ServerChannel, port: int = 0) -> int:
        if server.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "bind on closed server")
        if server.bound:
            raise AdapterError(ErrorKind.ALREADY_BOUND, "server is already bound")
        bound_port = self._do_bind(server, port)
        server.bound = True
        server.local_port = bound_port
        return bound_port

    def get_local_port(self, server: ServerChannel) -> int:
        if server.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "getLocalPort on closed server")
        if not server.bound:
            raise AdapterError(ErrorKind.NOT_YET_BOUND, "server not bound")
        return server.local_port

    def close_server(self, server: ServerChannel) -> None:
        if server.closed:
            return  # idempotent
        self._do_close_server(server)
        server.closed = True
        self._cancel_keys(server)

    def accept(self, server: ServerChannel) -> ConnChannel | None:
        if server.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "accept on closed server")
        if not server.bound:
            raise AdapterError(ErrorKind.NOT_YET_BOUND, "accept before bind")
        conn = self._do_accept(server, server.blocking)
        if conn is not None:
            self._opened_conns.append(conn)
        return conn

    # -- connections -------------------------------------------------------

    def connect(self, port: int, host: str = "127.0.0.1") -> ConnChannel:
        conn = self._do_connect(host, port)
        self._opened_conns.append(conn)
        return conn

    def configure_blocking(self, channel, blocking: bool) -> None:
        if channel.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "configureBlocking on closed channel")
        if blocking and any(not k.cancelled for k in channel.keys):
            raise AdapterError(
                ErrorKind.ILLEGAL_BLOCKING_MODE,
                "registered channels cannot switch to blocking mode",
            )
        channel.blocking = blocking

    def read(self, conn: ConnChannel, capacity: int) -> ReadResult:
        if capacity < 0:
            raise ValueError("read capacity must be non-negative")
        if conn.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "read on closed channel")
        if conn.input_shut:
            raise AdapterError(ErrorKind.INPUT_SHUTDOWN, "read after shutdownInput")
        if capacity == 0:
            return bytes_result(b"")
        return self._do_read(conn, capacity, conn.blocking)

    def write(self, conn: ConnChannel, payload: bytes) -> int:
        if conn.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "write on closed channel")
        if conn.output_shut:
            raise AdapterError(ErrorKind.OUTPUT_SHUTDOWN, "write after shutdownOutput")
        if not payload:
            return 0
        return self._do_write(conn, payload, conn.blocking)

    def shutdown_input(self, conn: ConnChannel) -> None:
        if conn.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "shutdownInput on closed channel")
        if conn.input_shut:
            return  # idempotent
        self._do_shutdown_input(conn)
        conn.input_shut = True

    def shutdown_output(self, conn: ConnChannel) -> None:
        if conn.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "shutdownOutput on closed channel")
        if conn.output_shut:
            return  # idempotent
        self._do_shutdown_output(conn)
        conn.output_shut = True

    def close_conn(self, conn: ConnChannel) -> None:
        if conn.closed:
            return  # idempotent
        self._do_close_conn(conn)
        conn.closed = True
        conn.input_shut = True
        conn.output_shut = True
        self._cancel_keys(conn)

    # -- selectors -----------------------------------------------------------

    def open_selector(self) -> Selector:
        return Selector()

    def register(self, selector: Selector, channel, interest: Interest | int) -> SelectorKey:
        if channel.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "register of a closed channel")
        if channel.blocking:
            raise AdapterError(ErrorKind.ILLEGAL_BLOCKING_MODE, "register of a blocking channel")
        if isinstance(channel, ServerChannel):
            if interest & ~Interest.ACCEPT:
                raise ValueError("server channels support only ACCEPT interest")
        else:
            if interest & Interest.ACCEPT:
                raise ValueError("connection channels do not support ACCEPT interest")
        if not interest:
            raise ValueError("empty interest set")
        key = SelectorKey(channel, int(interest))
        selector.keys.append(key)
        channel.keys.append(key)
        return key

    def deregister(self, selector: Selector, key: SelectorKey) -> None:
        key.cancelled = True
        if key in selector.keys:
            selector.keys.remove(key)

    def select_now(self, selector: Selector) -> set[SelectorKey]:
        """Non-waiting readiness query over the selector's live keys.

        Readiness is computed through adapter semantics: a channel whose own
        input is shut is never READ-ready, one whose output is shut is never
        WRITE-ready, and cancelled keys vanish from the result.
        """
        ready_keys: set[SelectorKey] = set()
        for key in selector.keys:
            ch = key.channel
            if key.cancelled or ch.closed:
                continue
            ready = self._raw_readiness(ch, key.interest) & key.interest
            if isinstance(ch, ConnChannel):
                if ch.input_shut:
                    ready &= ~READ
                if ch.output_shut:
                    ready &= ~WRITE
            key.ready = ready
            if ready:
                ready_keys.add(key)
        self._post_select(selector, ready_keys)
        return ready_keys

    # -- lifecycle -----------------------------------------------------------

    def advance(self) -> None:
        """One logical time step; a no-op for the real backend."""

    def settle(self) -> None:
        """Let in-flight effects land (used by the conformance script)."""

    def force_close_all(self) -> None:
        """End-of-test cleanup: close every channel opened during the test
        without modeling semantic side effects."""
        for conn in self._opened_conns:
            if not conn.closed:
                self._force_close_conn(conn)
                conn.closed = True
        for server in self._opened_servers:
            if not server.closed:
                self._force_close_server(server)
                server.closed = True

    def _cancel_keys(self, channel) -> None:
        for key in channel.keys:
            key.cancelled = True

    def _post_select(self, selector: Selector, ready_keys: set[SelectorKey]) -> None:
        """Hook for fault injection; default does nothing."""

    # -- transport hooks -----------------------------------------------------

    def _do_open_server(self) -> ServerChannel:
        raise NotImplementedError

    def _do_bind(self, server: ServerChannel, port: int) -> int:
        raise NotImplementedError

    def _do_close_server(self, server: ServerChannel) -> None:
        raise NotImplementedError

    def _do_accept(self, server: ServerChannel, blocking: bool) -> ConnChannel | None:
        raise NotImplementedError

    def _do_connect(self, host: str, port: int) -> ConnChannel:
        raise NotImplementedError

    def _do_read(self, conn: ConnChannel, capacity: int, blocking: bool) -> ReadResult:
        raise NotImplementedError

    def _do_write(self, conn: ConnChannel, payload: bytes, blocking: bool) -> int:
        raise NotImplementedError

    def _do_shutdown_input(self, conn: ConnChannel) -> None:
        raise NotImplementedError

    def _do_shutdown_output(self, conn: ConnChannel) -> None:
        raise NotImplementedError

    def _do_close_conn(self, conn: ConnChannel) -> None:
        raise NotImplementedError

    def _raw_readiness(self, channel, interest: int) -> int:
        """Ready bits of ``channel`` as an int mask, before adapter rules."""
        raise NotImplementedError

    def _force_close_conn(self, conn: ConnChannel) -> None:
        raise NotImplementedError

    def _force_close_server(self, server: ServerChannel) -> None:
        raise NotImplementedError
