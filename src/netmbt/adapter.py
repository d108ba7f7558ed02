"""Abstract surface of the socket API under test.

Channels, selectors and read results are plain state-carrying handles; the
behavior lives in a NetworkBackend (real OS sockets or the in-memory
simulator).  The (state, operation) legality table is enforced here, in one
place, so both backends classify misuse identically; subclasses implement
only the transport.  At the end of a test the base marks every channel the
test opened closed; a backend that holds OS resources frees them first.

Blocking operations honor a per-call watchdog budget: instead of hanging, a
call that cannot complete raises WatchdogTimeout, which the explorer turns
into a Fail("watchdog ...") verdict.

References point one way (backend -> channels, selector -> keys -> channel),
so a test's objects are freed by reference counting.  A channel only counts
its keys (``registered``).  deregister cancels a key and unlists it at
once, so a listed key is never cancelled; it is live while its channel
is open.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import AdapterError, ErrorKind


# Selector interest bits.  Keys hold their interest and ready sets as plain
# int masks, so readiness arithmetic on the hot path makes no enum calls.
ACCEPT, READ, WRITE = 1, 2, 4


class ReadResult(NamedTuple):
    """Outcome of a read: either a (possibly empty) byte chunk or end of
    stream.  End of stream is a distinct flag, not a sentinel count."""

    data: bytes = b""
    is_eof: bool = False

    @property
    def count(self) -> int:
        return len(self.data)


# Shared; hot paths build the others as tuple.__new__(ReadResult, (data, False)).
EMPTY = ReadResult()
EOF = ReadResult(is_eof=True)


class ServerChannel:
    """Listening endpoint handle.  state: open-unbound -> bound -> closed."""

    __slots__ = ("blocking", "closed", "local_port", "registered")

    def __init__(self):
        self.blocking = True
        self.closed = False
        self.local_port: int | None = None  # set by bind; retained after close
        self.registered = 0  # keys not yet deregistered


class ConnChannel:
    """Established connection handle.

    ``role`` is "client" for the connecting side and "server" for the
    accepted side; both ends of one connection share ``connection_id``.
    """

    __slots__ = ("blocking", "closed", "input_shut", "output_shut", "role",
                 "connection_id", "registered")

    def __init__(self, role: str, connection_id: int):
        self.blocking = True
        self.closed = False
        self.input_shut = False
        self.output_shut = False
        self.role = role
        self.connection_id = connection_id
        self.registered = 0  # keys not yet deregistered


class SelectorKey:
    __slots__ = ("channel", "interest", "ready", "cancelled")

    def __init__(self, channel, interest: int):
        self.channel = channel
        self.interest = interest  # int mask of ACCEPT/READ/WRITE
        self.ready = 0
        self.cancelled = False  # deregistered (and so no longer listed)


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

    def bind(self, server: ServerChannel) -> int:
        if server.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "bind on closed server")
        if server.local_port is not None:
            raise AdapterError(ErrorKind.ALREADY_BOUND, "server is already bound")
        server.local_port = self._do_bind(server)
        return server.local_port

    def get_local_port(self, server: ServerChannel) -> int:
        if server.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "getLocalPort on closed server")
        if server.local_port is None:
            raise AdapterError(ErrorKind.NOT_YET_BOUND, "server not bound")
        return server.local_port

    def close_server(self, server: ServerChannel) -> None:
        if server.closed:
            return  # idempotent
        self._do_close_server(server)
        server.closed = True

    def accept(self, server: ServerChannel) -> ConnChannel | None:
        if server.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "accept on closed server")
        if server.local_port is None:
            raise AdapterError(ErrorKind.NOT_YET_BOUND, "accept before bind")
        conn = self._do_accept(server, server.blocking)
        if conn is not None:
            self._opened_conns.append(conn)
        return conn

    # -- connections -------------------------------------------------------

    def connect(self, port: int) -> ConnChannel:
        conn = self._do_connect(port)
        self._opened_conns.append(conn)
        return conn

    def configure_blocking(self, channel, blocking: bool) -> None:
        if channel.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "configureBlocking on closed channel")
        if blocking and channel.registered:
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
            return EMPTY
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

    # -- selectors -----------------------------------------------------------

    def open_selector(self) -> Selector:
        return Selector()

    def register(self, selector: Selector, channel, interest: int) -> SelectorKey:
        if channel.closed:
            raise AdapterError(ErrorKind.CLOSED_CHANNEL, "register of a closed channel")
        if channel.blocking:
            raise AdapterError(ErrorKind.ILLEGAL_BLOCKING_MODE, "register of a blocking channel")
        if isinstance(channel, ServerChannel):
            if interest & ~ACCEPT:
                raise ValueError("server channels support only ACCEPT interest")
        else:
            if interest & ACCEPT:
                raise ValueError("connection channels do not support ACCEPT interest")
        if not interest:
            raise ValueError("empty interest set")
        for key in selector.keys:
            if key.channel is channel:
                key.interest = interest  # java.nio: the one key, new interest
                return key
        key = SelectorKey(channel, interest)
        selector.keys.append(key)
        channel.registered += 1
        return key

    def deregister(self, selector: Selector, key: SelectorKey) -> None:
        if key.cancelled:
            return  # idempotent
        if key not in selector.keys:
            raise ValueError("the key belongs to another selector")
        key.cancelled = True
        key.channel.registered -= 1
        selector.keys.remove(key)

    def select_now(self, selector: Selector) -> set[SelectorKey]:
        """Non-waiting readiness query over the selector's live keys.

        Readiness is computed through adapter semantics: a channel whose own
        input is shut is never READ-ready, one whose output is shut is never
        WRITE-ready, and keys that are not live vanish from the result.
        """
        ready_keys: set[SelectorKey] = set()
        for key in selector.keys:
            ch = key.channel
            if ch.closed:
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
        return ready_keys

    # -- lifecycle -----------------------------------------------------------

    def advance(self) -> None:
        """One logical time step; a no-op for the real backend."""

    def force_close_all(self) -> None:
        """End-of-test cleanup: mark every channel the test opened closed, with
        no modeled side effect.  A backend holding OS resources frees them first."""
        for channel in (*self._opened_conns, *self._opened_servers):
            channel.closed = True

    # -- transport hooks -----------------------------------------------------

    def _do_open_server(self) -> ServerChannel:
        raise NotImplementedError

    def _do_bind(self, server: ServerChannel) -> int:
        raise NotImplementedError

    def _do_close_server(self, server: ServerChannel) -> None:
        raise NotImplementedError

    def _do_accept(self, server: ServerChannel, blocking: bool) -> ConnChannel | None:
        raise NotImplementedError

    def _do_connect(self, port: int) -> ConnChannel:
        raise NotImplementedError

    def _do_read(self, conn: ConnChannel, capacity: int, blocking: bool) -> ReadResult:
        raise NotImplementedError

    def _do_write(self, conn: ConnChannel, payload: bytes, blocking: bool) -> int:
        raise NotImplementedError

    def _do_shutdown_output(self, conn: ConnChannel) -> None:
        raise NotImplementedError

    def _do_close_conn(self, conn: ConnChannel) -> None:
        raise NotImplementedError

    def _raw_readiness(self, channel, interest: int) -> int:
        """Ready bits of ``channel`` as an int mask, before adapter rules."""
        raise NotImplementedError
