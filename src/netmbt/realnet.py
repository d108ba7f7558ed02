"""Real OS-socket implementation of the adapter (loopback TCP only).

Blocking calls run under a socket timeout equal to the watchdog budget,
WATCHDOG_SECONDS, so an orchestration deadlock (e.g. a blocking accept with
no client) surfaces as WatchdogTimeout instead of hanging the
single-threaded explorer.

EPIPE, ECONNRESET, ECONNABORTED and ENOTCONN are classified as PEER_CLOSED.
ENOTCONN is what shutdown(SHUT_WR) raises on loopback after a reset that
recv has already reported as ECONNRESET.  Everything else about the
legality table is enforced by the shared adapter base, so misuse never
reaches a raw socket in an ambiguous state.  shutdownInput is a local
adapter-level effect only (no SHUT_RD syscall), which keeps close
semantics deterministic across platforms.

The model's own closes are graceful (FIN), as the API under test makes
them.  A connection still open when its test ends is reset instead: the
end-of-test cleanup sets SO_LINGER to (on, 0 s) before it closes, so the
kernel sends one RST and keeps no TIME_WAIT socket for the 4-tuple.
Without it each such connection would hold a TIME_WAIT socket on the
listen port for 60 s, and a port with many of them binds more slowly.

A bind leases a port from its shard's PortPool; one that another process
holds is retired and the next is leased, so only the pool's exhaustion
error ends a suite.  A bound server's ``local_port`` is its lease, which
the end-of-test cleanup releases after it closes the test's sockets; a
bind that fails otherwise releases its port at once.
"""

from __future__ import annotations

import errno
import select
import socket
import struct

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
from .errors import AdapterError, BackendError, ErrorKind, WatchdogTimeout
from .portman import PortPool

_HOST = "127.0.0.1"
WATCHDOG_SECONDS = 5.0  # the budget of one blocking call; read at each call
_RESET_ERRNOS = {errno.EPIPE, errno.ECONNRESET, errno.ECONNABORTED, errno.ENOTCONN}
# struct linger {l_onoff = 1, l_linger = 0}: close() resets the connection
_ABORT_LINGER = struct.pack("ii", 1, 0)


def _peer_closed(exc: OSError) -> AdapterError:
    return AdapterError(ErrorKind.PEER_CLOSED, f"{exc.strerror or exc}")


def _listen_socket() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    return sock


def _set_timeout(sock: socket.socket, timeout: float) -> None:
    """settimeout() is a syscall, gettimeout() is not.  Every call sets its
    socket's mode on entry, so the mode left between calls does not matter."""
    if sock.gettimeout() != timeout:
        sock.settimeout(timeout)


class RealServer(ServerChannel):
    __slots__ = ("sock",)

    def __init__(self, sock: socket.socket):
        super().__init__()
        self.sock = sock


class RealConn(ConnChannel):
    __slots__ = ("sock",)

    def __init__(self, role: str, connection_id: int, sock: socket.socket):
        super().__init__(role, connection_id)
        self.sock = sock


class RealBackend(NetworkBackend):
    def __init__(self, pool: PortPool):
        super().__init__()
        self.pool = pool
        # client local address -> connection id, so the accepted side can be
        # paired with the connecting side for per-connection accounting
        self._pending_ids: dict[tuple[str, int], int] = {}
        self._cleaned_up = False  # force_close_all runs once

    @staticmethod
    def probe() -> None:
        """Raise BackendError if loopback TCP is unavailable."""
        try:
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                s.bind((_HOST, 0))
            finally:
                s.close()
        except OSError as exc:
            raise BackendError(f"loopback TCP unavailable: {exc}") from exc

    # -- transport hooks -----------------------------------------------------

    def _do_open_server(self) -> RealServer:
        return RealServer(_listen_socket())

    def _do_bind(self, server: RealServer) -> int:
        while True:
            port = self.pool.acquire()
            sock = server.sock
            try:
                sock.bind((_HOST, port))
                sock.listen(128)
                return port
            except OSError as exc:
                # Where bind succeeded and listen failed, the socket keeps
                # the port, so the channel gets a fresh socket: it stays
                # unbound and can bind another port.
                sock.close()
                server.sock = _listen_socket()
                if exc.errno != errno.EADDRINUSE:
                    self.pool.release(port)
                    raise BackendError(f"cannot bind/listen on port {port}: {exc}") from exc
            self.pool.retire(port)  # another process holds it

    def _do_close_server(self, server: RealServer) -> None:
        server.sock.close()

    def _do_accept(self, server: RealServer, blocking: bool) -> RealConn | None:
        sock = server.sock
        _set_timeout(sock, WATCHDOG_SECONDS if blocking else 0.0)
        try:
            raw, peer = sock.accept()
        except socket.timeout as exc:
            raise WatchdogTimeout("blocking accept exceeded the watchdog budget") from exc
        except BlockingIOError:  # non-blocking: PEP 475 retries EINTR, a timeout EAGAIN
            return None
        conn_id = self._pending_ids.pop(peer, None)
        if conn_id is None:
            conn_id = next(self._conn_ids)
        return RealConn("server", conn_id, raw)

    def _do_connect(self, port: int) -> RealConn:
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.settimeout(WATCHDOG_SECONDS)
        try:
            raw.connect((_HOST, port))
        except ConnectionRefusedError as exc:
            raw.close()
            raise AdapterError(ErrorKind.CONNECTION_REFUSED, str(exc)) from exc
        except socket.timeout as exc:
            raw.close()
            raise WatchdogTimeout("connect exceeded the watchdog budget") from exc
        conn_id = next(self._conn_ids)
        self._pending_ids[raw.getsockname()] = conn_id
        return RealConn("client", conn_id, raw)

    def _do_read(self, conn: RealConn, capacity: int, blocking: bool) -> ReadResult:
        sock = conn.sock
        _set_timeout(sock, WATCHDOG_SECONDS if blocking else 0.0)
        try:
            data = sock.recv(capacity)
        except socket.timeout as exc:
            raise WatchdogTimeout("blocking read exceeded the watchdog budget") from exc
        except BlockingIOError:  # non-blocking: PEP 475 retries EINTR, a timeout EAGAIN
            return EMPTY
        except OSError as exc:
            if exc.errno in _RESET_ERRNOS:
                raise _peer_closed(exc) from exc
            raise
        return tuple.__new__(ReadResult, (data, False)) if data else EOF

    def _do_write(self, conn: RealConn, payload: bytes, blocking: bool) -> int:
        sock = conn.sock
        try:
            if blocking:
                _set_timeout(sock, WATCHDOG_SECONDS)
                sock.sendall(payload)
                return len(payload)
            _set_timeout(sock, 0.0)
            try:
                return sock.send(payload)
            except BlockingIOError:  # non-blocking: PEP 475 retries EINTR, a timeout EAGAIN
                return 0
        except socket.timeout as exc:
            raise WatchdogTimeout("blocking write exceeded the watchdog budget") from exc
        except OSError as exc:
            if exc.errno in _RESET_ERRNOS:
                raise _peer_closed(exc) from exc
            raise

    def _do_shutdown_output(self, conn: RealConn) -> None:
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError as exc:
            if exc.errno in _RESET_ERRNOS:
                raise _peer_closed(exc) from exc
            raise

    def _do_close_conn(self, conn: RealConn) -> None:
        conn.sock.close()

    def _raw_readiness(self, channel, interest: int) -> int:
        # register lets a server ask only for ACCEPT and a connection never
        # for it, so a readable socket is ready for what it asked of the two.
        fd = channel.sock
        want_read = interest & (ACCEPT | READ)
        try:
            readable, writable, _ = select.select(
                [fd] if want_read else [], [fd] if interest & WRITE else [], [], 0)
        except (OSError, ValueError):
            return 0
        return (want_read if readable else 0) | (WRITE if writable else 0)

    def force_close_all(self) -> None:
        """Reset the open connections, close the open server sockets and
        release the bound servers' ports; then mark closed and tick the pool.
        A second call does nothing."""
        if self._cleaned_up:
            return
        self._cleaned_up = True
        for conn in self._opened_conns:
            if not conn.closed:
                self._force_close_conn(conn)
        for server in self._opened_servers:
            if not server.closed:
                server.sock.close()
            if server.local_port is not None:
                self.pool.release(server.local_port)
        super().force_close_all()
        self.pool.next_test()

    def _force_close_conn(self, conn: RealConn) -> None:
        sock = conn.sock
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT_LINGER)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
