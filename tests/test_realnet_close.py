"""How the real backend closes: the model's closes stay graceful, the
end-of-test cleanup resets what is still open, so no TIME_WAIT socket is
left for a connection the test only tears down."""

from __future__ import annotations

import errno
import os
import socket
import time

import pytest

from conftest import settle
from netmbt.portman import PortPool
from netmbt.realnet import RealBackend, RealConn

_PROC_TCP = "/proc/net/tcp"
_TIME_WAIT = "06"

pytestmark = pytest.mark.usefixtures("short_watchdog")
needs_proc_tcp = pytest.mark.skipif(not os.path.exists(_PROC_TCP),
                                    reason="needs Linux /proc/net/tcp")


def _hex_addr(addr: tuple[str, int]) -> str:
    """An IPv4 (host, port) as /proc/net/tcp writes it: the address as a
    native-endian 32-bit word, the port big-endian, both in hex."""
    host = int.from_bytes(socket.inet_aton(addr[0]), "little")
    return f"{host:08X}:{addr[1]:04X}"


def _time_wait_rows(a: tuple[str, int], b: tuple[str, int]) -> list[str]:
    """TIME_WAIT rows of the 4-tuple (a, b), in either direction."""
    ends = {(_hex_addr(a), _hex_addr(b)), (_hex_addr(b), _hex_addr(a))}
    with open(_PROC_TCP, encoding="ascii") as fh:
        rows = fh.read().splitlines()[1:]
    return [row for row in rows
            if (f := row.split())[3] == _TIME_WAIT and (f[1], f[2]) in ends]


def _session():
    net = RealBackend(PortPool(20000, 29999))
    srv = net.open_server()
    port = net.bind(srv)
    cli = net.connect(port)
    settle(net)
    sc = net.accept(srv)
    net.write(cli, b"ping")
    settle(net)
    assert net.read(sc, 8).data == b"ping"
    return net, cli, sc, (cli.sock.getsockname(), cli.sock.getpeername())


def _wait_for_time_wait(four_tuple, seconds: float = 2.0) -> list[str]:
    deadline = time.monotonic() + seconds
    while not (rows := _time_wait_rows(*four_tuple)) and time.monotonic() < deadline:
        time.sleep(0.01)
    return rows


@needs_proc_tcp
def test_end_of_test_close_leaves_no_time_wait():
    net, _, _, four_tuple = _session()
    net.force_close_all()
    settle(net)
    assert _time_wait_rows(*four_tuple) == []


@needs_proc_tcp
def test_model_close_stays_graceful():
    # the peer reads EOF, not a reset, and the side that closed first ends
    # in TIME_WAIT, which is also what shows the row check above can fail
    net, cli, sc, four_tuple = _session()
    net.close_conn(cli)
    settle(net)
    assert net.read(sc, 8).is_eof
    net.close_conn(sc)
    assert _wait_for_time_wait(four_tuple)
    net.force_close_all()


def test_a_failed_setsockopt_still_closes_the_socket():
    class Sock:
        closed = False

        def setsockopt(self, *args):
            raise OSError(errno.EBADF, "Bad file descriptor")

        def close(self):
            self.closed = True

    sock = Sock()
    RealBackend(PortPool(20000, 20000))._force_close_conn(RealConn("client", 1, sock))
    assert sock.closed
