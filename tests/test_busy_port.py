"""A listen port that another process holds: the real backend retires it
from the suite's pool and binds the next port.  Only a range with no
bindable port ends the suite, with exit 2 and one ``error:`` line.  Every
other port a test leases is back in the pool when the test ends."""

from __future__ import annotations

import errno
import socket

import pytest

from conftest import pool_sets, run_cli
from netmbt.errors import BackendError
from netmbt.portman import PortPool
from netmbt.realnet import RealBackend

pytestmark = pytest.mark.usefixtures("short_watchdog")

_HOST = "127.0.0.1"


def _listener(port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.bind((_HOST, port))
        sock.listen(1)
    except OSError:
        sock.close()
        raise
    return sock


@pytest.fixture
def held_port():
    """A port that another socket listens on for the whole test."""
    for port in range(23100, 23400, 10):
        try:
            holder = _listener(port)
        except OSError:
            continue
        with holder:
            yield port
        return
    pytest.skip("no free port to hold in 23100-23399")


def _run(port_range: str, *extra: str):
    return run_cli("run", "--model", "server-main", "--backend", "real", "--seed", "7",
                   "--tests", "20", "--port-range", port_range, *extra)


def test_a_held_port_is_retired_and_the_suite_passes(held_port, tmp_path):
    p = held_port
    busy, free = tmp_path / "busy.trace", tmp_path / "free.trace"
    proc = _run(f"{p}:{p + 4}", "--trace-out", str(busy))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "result: 20 passed, 0 failed" in proc.stdout
    # No trace byte depends on which port a test got.
    assert _run(f"{p + 5}:{p + 9}", "--trace-out", str(free)).returncode == 0
    assert busy.read_bytes() == free.read_bytes()


def test_a_range_with_no_bindable_port_exits_two_with_one_line(held_port):
    p = held_port
    proc = _run(f"{p}:{p}")
    assert proc.returncode == 2
    assert proc.stderr == (f"error: no free listen port in [{p}, {p}] "
                           "(1 in use by another process); widen --port-range "
                           "(a released port rests for 2 tests)\n")


class _BindThenRaceSocket(socket.socket):
    """Binds, then lets ``rival`` (bound to the same port with SO_REUSEADDR)
    listen first, so that this socket's listen() fails."""

    rival: socket.socket

    def bind(self, address):
        super().bind(address)
        self.rival.listen(1)


def test_a_socket_that_bound_but_could_not_listen_is_replaced(held_port):
    # The pool's range sits next to the held port, where the fixture found
    # free ports.
    port = held_port + 1
    pool = PortPool(port, port + 3)
    net = RealBackend(pool)
    server = net.open_server()
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as rival:
        rival.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        rival.bind((_HOST, port))  # the first lease
        racing = _BindThenRaceSocket(socket.AF_INET, socket.SOCK_STREAM)
        racing.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        racing.rival = rival
        server.sock.close()
        server.sock = racing
        # The port is retired, the socket that holds it is closed and
        # replaced, and the channel binds the next lease.
        assert net.bind(server) == port + 1 == server.sock.getsockname()[1]
        assert racing.fileno() == -1 and server.sock is not racing
        sets = pool_sets(pool)
        assert sets.retired == {port} and sets.leased == {port + 1}
        client = net.connect(server.local_port)
        assert net.accept(server) is not None
        net.close_conn(client)
    net.force_close_all()
    assert pool_sets(pool).leased == frozenset() and pool_sets(pool).cooling == {port + 1}


def test_a_server_closed_by_the_model_keeps_its_port_until_the_test_ends():
    pool = PortPool(23400, 23409)
    net = RealBackend(pool)
    server = net.open_server()
    port = net.bind(server)
    net.close_server(server)
    assert pool_sets(pool).leased == {port}
    net.force_close_all()
    assert pool_sets(pool).leased == frozenset() and pool_sets(pool).cooling == {port}


class _CannotListenSocket(socket.socket):
    """Binds, then fails to listen with an error other than EADDRINUSE."""

    bound: list

    def bind(self, address):
        super().bind(address)
        self.bound.append(address[1])

    def listen(self, backlog=0):
        raise OSError(errno.EINVAL, "listen refused")


def test_a_bind_that_cannot_listen_leaves_nothing_leased():
    pool = PortPool(23410, 23419)
    net = RealBackend(pool)
    server = net.open_server()
    failing = _CannotListenSocket(socket.AF_INET, socket.SOCK_STREAM)
    failing.bound = []
    server.sock.close()
    server.sock = failing
    with pytest.raises(BackendError, match="cannot bind/listen"):
        net.bind(server)
    [port] = failing.bound
    assert failing.fileno() == -1 and server.local_port is None
    assert pool_sets(pool).leased == frozenset() and pool_sets(pool).cooling == {port}
    net.force_close_all()
    assert pool_sets(pool).leased == frozenset() and pool_sets(pool).cooling == {port}
