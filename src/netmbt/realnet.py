"""Real OS-socket implementation of the adapter (loopback TCP only).

Blocking calls run under a socket timeout equal to the watchdog budget, so
an orchestration deadlock (e.g. a blocking accept with no client) surfaces
as WatchdogTimeout instead of hanging the single-threaded explorer.

EPIPE / ECONNRESET / ECONNABORTED are classified as PEER_CLOSED; everything
else about the legality table is enforced by the shared adapter base, so
misuse never reaches a raw socket in an ambiguous state.  shutdownInput is
a local adapter-level effect only (no SHUT_RD syscall), which keeps close
semantics deterministic across platforms.
"""

from __future__ import annotations

import errno
import select
import socket
import time

from .adapter import (
    ACCEPT,
    EOF,
    READ,
    WRITE,
    ConnChannel,
    NetworkBackend,
    ReadResult,
    ServerChannel,
    bytes_result,
)
from .errors import AdapterError, BackendError, ErrorKind, WatchdogTimeout

_HOST = "127.0.0.1"
_RESET_ERRNOS = {errno.EPIPE, errno.ECONNRESET, errno.ECONNABORTED, errno.ENOTCONN}


def _peer_closed(exc: OSError) -> AdapterError:
    return AdapterError(ErrorKind.PEER_CLOSED, f"{exc.strerror or exc}")


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
    def __init__(self, watchdog_seconds: float = 5.0):
        super().__init__()
        self.watchdog_seconds = watchdog_seconds
        # client local address -> connection id, so the accepted side can be
        # paired with the connecting side for per-connection accounting
        self._pending_ids: dict[tuple[str, int], int] = {}

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

    def settle(self) -> None:
        time.sleep(0.05)

    # -- transport hooks -----------------------------------------------------

    def _do_open_server(self) -> RealServer:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        return RealServer(sock)

    def _do_bind(self, server: RealServer, port: int) -> int:
        try:
            server.sock.bind((_HOST, port))
            server.sock.listen(128)
        except OSError as exc:
            raise BackendError(f"cannot bind/listen on port {port}: {exc}") from exc
        return server.sock.getsockname()[1]

    def _do_close_server(self, server: RealServer) -> None:
        server.sock.close()

    def _do_accept(self, server: RealServer, blocking: bool) -> RealConn | None:
        sock = server.sock
        if blocking:
            sock.settimeout(self.watchdog_seconds)
            try:
                raw, peer = sock.accept()
            except socket.timeout as exc:
                raise WatchdogTimeout("blocking accept exceeded the watchdog budget") from exc
        else:
            sock.setblocking(False)
            try:
                raw, peer = sock.accept()
            except (BlockingIOError, InterruptedError):
                return None
        raw.setblocking(True)
        conn_id = self._pending_ids.pop(peer, None)
        if conn_id is None:
            conn_id = next(self._conn_ids)
        return RealConn("server", conn_id, raw)

    def _do_connect(self, host: str, port: int) -> RealConn:
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        raw.settimeout(self.watchdog_seconds)
        try:
            raw.connect((host, port))
        except ConnectionRefusedError as exc:
            raw.close()
            raise AdapterError(ErrorKind.CONNECTION_REFUSED, str(exc)) from exc
        except socket.timeout as exc:
            raw.close()
            raise WatchdogTimeout("connect exceeded the watchdog budget") from exc
        raw.setblocking(True)
        conn_id = next(self._conn_ids)
        self._pending_ids[raw.getsockname()] = conn_id
        return RealConn("client", conn_id, raw)

    def _do_read(self, conn: RealConn, capacity: int, blocking: bool) -> ReadResult:
        sock = conn.sock
        if blocking:
            sock.settimeout(self.watchdog_seconds)
        else:
            sock.setblocking(False)
        try:
            data = sock.recv(capacity)
        except socket.timeout as exc:
            raise WatchdogTimeout("blocking read exceeded the watchdog budget") from exc
        except (BlockingIOError, InterruptedError):
            if blocking:
                raise
            return bytes_result(b"")
        except OSError as exc:
            if exc.errno in _RESET_ERRNOS:
                raise _peer_closed(exc) from exc
            raise
        return EOF if data == b"" else bytes_result(data)

    def _do_write(self, conn: RealConn, payload: bytes, blocking: bool) -> int:
        sock = conn.sock
        try:
            if blocking:
                sock.settimeout(self.watchdog_seconds)
                sock.sendall(payload)
                return len(payload)
            sock.setblocking(False)
            try:
                return sock.send(payload)
            except (BlockingIOError, InterruptedError):
                return 0
        except socket.timeout as exc:
            raise WatchdogTimeout("blocking write exceeded the watchdog budget") from exc
        except OSError as exc:
            if exc.errno in _RESET_ERRNOS:
                raise _peer_closed(exc) from exc
            raise

    def _do_shutdown_input(self, conn: RealConn) -> None:
        pass  # adapter-level flag only; no SHUT_RD syscall (see module docstring)

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
        ready = 0
        fd = channel.sock
        want_read = bool(interest & (ACCEPT | READ))
        want_write = bool(interest & WRITE)
        try:
            readable, writable, _ = select.select(
                [fd] if want_read else [],
                [fd] if want_write else [],
                [],
                0,
            )
        except (OSError, ValueError):
            return ready
        if readable:
            ready |= ACCEPT if isinstance(channel, ServerChannel) else READ
        if writable:
            ready |= WRITE
        return ready

    def _force_close_conn(self, conn: RealConn) -> None:
        try:
            conn.sock.close()
        except OSError:
            pass

    def _force_close_server(self, server: RealServer) -> None:
        try:
            server.sock.close()
        except OSError:
            pass
