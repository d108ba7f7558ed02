"""One legality table, two backends: the shared (state, operation) contract.

Every case runs on the simulated network at zero latency and on real
loopback sockets, and asserts one fixed outcome on each, so the two
backends agree because both are right, not only with each other.  This
module is the one home for sim-vs-real agreement; the acceptance suite
runs it in a child process.
"""

from __future__ import annotations

import pytest

from conftest import pool_sets, settle
from netmbt import realnet
from netmbt.adapter import ACCEPT, READ, WRITE
from netmbt.errors import AdapterError, ErrorKind, WatchdogTimeout
from netmbt.portman import PortPool
from netmbt.realnet import RealBackend
from netmbt.rng import SeededRng
from netmbt.simnet import LATENCIES, SimBackend


pytestmark = pytest.mark.usefixtures("short_watchdog")


def backend_of(kind: str):
    if kind == "sim":
        return SimBackend(SeededRng(1), LATENCIES["zero"])
    return RealBackend(PortPool(20000, 29999))


@pytest.fixture(params=["sim", "real"])
def net(request):
    backend = backend_of(request.param)
    yield backend
    backend.force_close_all()


def kind_of(excinfo) -> ErrorKind:
    return excinfo.value.kind


def make_session(net):
    srv = net.open_server()
    port = net.bind(srv)
    cli = net.connect(port)
    settle(net)
    sc = net.accept(srv)
    return srv, port, cli, sc


# One minimal misuse per ErrorKind: each builds its channel state and
# returns the one call that must raise that kind.

def _bind_twice(net):
    srv = net.open_server()
    net.bind(srv)
    return lambda: net.bind(srv)


def _local_port_before_bind(net):
    srv = net.open_server()
    return lambda: net.get_local_port(srv)


def _bind_closed_server(net):
    srv = net.open_server()
    net.close_server(srv)
    return lambda: net.bind(srv)


def _connect_without_listener(net):
    srv = net.open_server()
    port = net.bind(srv)
    net.close_server(srv)
    return lambda: net.connect(port)


def _read_after_shutdown_input(net):
    sc = make_session(net)[3]
    net.shutdown_input(sc)
    net.shutdown_input(sc)  # idempotent
    return lambda: net.read(sc, 8)


def _write_after_shutdown_output(net):
    sc = make_session(net)[3]
    net.shutdown_output(sc)
    net.shutdown_output(sc)  # idempotent
    return lambda: net.write(sc, b"x")


def _register_blocking_channel(net):
    sc = make_session(net)[3]
    sel = net.open_selector()
    return lambda: net.register(sel, sc, READ)


def _read_after_peer_reset(net):
    # the peer closes with unread data, which resets the connection
    _, _, cli, sc = make_session(net)
    net.write(sc, b"data")
    settle(net)
    net.close_conn(cli)
    settle(net)
    return lambda: net.read(sc, 8)


MISUSE = {
    ErrorKind.ALREADY_BOUND: _bind_twice,
    ErrorKind.NOT_YET_BOUND: _local_port_before_bind,
    ErrorKind.CLOSED_CHANNEL: _bind_closed_server,
    ErrorKind.CONNECTION_REFUSED: _connect_without_listener,
    ErrorKind.INPUT_SHUTDOWN: _read_after_shutdown_input,
    ErrorKind.OUTPUT_SHUTDOWN: _write_after_shutdown_output,
    ErrorKind.ILLEGAL_BLOCKING_MODE: _register_blocking_channel,
    ErrorKind.PEER_CLOSED: _read_after_peer_reset,
}


def test_misuse_table_covers_every_error_kind():
    assert set(MISUSE) == set(ErrorKind)


@pytest.mark.parametrize("kind", MISUSE, ids=lambda kind: kind.name)
def test_misuse_raises_its_kind(net, kind):
    misuse = MISUSE[kind](net)
    with pytest.raises(AdapterError) as e:
        misuse()
    assert kind_of(e) is kind


class TestServerLifecycle:
    def test_bind_zero_picks_port_and_get_local_port_agrees(self, net):
        srv = net.open_server()
        port = net.bind(srv)
        assert port > 0
        assert net.get_local_port(srv) == port

    def test_ops_before_bind(self, net):
        srv = net.open_server()
        with pytest.raises(AdapterError) as e:
            net.get_local_port(srv)
        assert kind_of(e) is ErrorKind.NOT_YET_BOUND
        with pytest.raises(AdapterError) as e:
            net.accept(srv)
        assert kind_of(e) is ErrorKind.NOT_YET_BOUND

    def test_everything_fails_after_close(self, net):
        srv = net.open_server()
        net.bind(srv)
        net.close_server(srv)
        for op in (lambda: net.accept(srv),
                   lambda: net.bind(srv),
                   lambda: net.get_local_port(srv),
                   lambda: net.configure_blocking(srv, False)):
            with pytest.raises(AdapterError) as e:
                op()
            assert kind_of(e) is ErrorKind.CLOSED_CHANNEL
        net.close_server(srv)  # idempotent

    def test_local_port_field_retained_after_close(self, net):
        srv = net.open_server()
        port = net.bind(srv)
        net.close_server(srv)
        assert srv.local_port == port  # the handle keeps it for inspection

    def test_connect_reaches_only_the_open_server_on_its_port(self, net):
        first, second = net.open_server(), net.open_server()
        first_port, second_port = net.bind(first), net.bind(second)
        net.close_server(first)
        with pytest.raises(AdapterError) as e:
            net.connect(first_port)
        assert kind_of(e) is ErrorKind.CONNECTION_REFUSED
        cli = net.connect(second_port)
        settle(net)
        assert net.accept(second).connection_id == cli.connection_id


class TestAcceptAndModes:
    def test_queued_connection_accepted_blocking(self, net):
        srv = net.open_server()
        port = net.bind(srv)
        cli = net.connect(port)
        settle(net)
        conn = net.accept(srv)
        assert conn is not None
        assert conn.connection_id == cli.connection_id

    def test_non_blocking_accept_empty_returns_none(self, net):
        srv = net.open_server()
        net.bind(srv)
        net.configure_blocking(srv, False)
        assert net.accept(srv) is None

    def test_fifo_accept_order(self, net):
        srv = net.open_server()
        port = net.bind(srv)
        a = net.connect(port)
        b = net.connect(port)
        settle(net)
        first = net.accept(srv)
        second = net.accept(srv)
        assert first.connection_id == a.connection_id
        assert second.connection_id == b.connection_id
        net.write(a, b"A")  # the first client's bytes reach the first accepted end
        settle(net)
        assert net.read(first, 4).data == b"A"

    def test_toggle_twice_restores_mode(self, net):
        srv = net.open_server()
        net.bind(srv)
        assert srv.blocking
        net.configure_blocking(srv, False)
        net.configure_blocking(srv, True)
        assert srv.blocking


class TestReadWrite:
    def test_roundtrip(self, net):
        _, _, cli, sc = make_session(net)
        assert net.write(cli, b"hello") == 5
        settle(net)
        result = net.read(sc, 10)
        assert not result.is_eof and result.data == b"hello"

    def test_capacity_zero_returns_empty_bytes(self, net):
        _, _, cli, sc = make_session(net)
        net.write(cli, b"xyz")
        settle(net)
        assert net.read(sc, 0).data == b""
        assert net.read(sc, 10).data == b"xyz"  # nothing was consumed

    def test_capacity_limits_read(self, net):
        _, _, cli, sc = make_session(net)
        net.write(cli, b"abcdef")
        settle(net)
        assert net.read(sc, 4).data == b"abcd"
        assert net.read(sc, 4).data == b"ef"

    def test_non_blocking_read_empty(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        result = net.read(sc, 16)
        assert not result.is_eof and result.count == 0

    def test_empty_write_returns_zero(self, net):
        _, _, cli, _ = make_session(net)
        assert net.write(cli, b"") == 0


class TestHalfClose:
    def test_half_closure_independence(self, net):
        # shutting input does not stop own writes; shutting output does not
        # stop own reads of already-sent peer data
        _, _, cli, sc = make_session(net)
        net.shutdown_input(sc)
        assert net.write(sc, b"out") == 3
        settle(net)
        assert net.read(cli, 8).data == b"out"
        assert net.write(cli, b"in") == 2  # accepted while sc's input is shut
        settle(net)
        net.shutdown_output(cli)
        net.shutdown_output(sc)
        # cli reads what sc sent before sc shut its output: nothing more, EOF
        assert net.read(cli, 8).is_eof

    def test_eof_after_peer_shutdown_output(self, net):
        _, _, cli, sc = make_session(net)
        net.write(cli, b"tail")
        settle(net)
        net.shutdown_output(cli)
        assert net.read(sc, 8).data == b"tail"
        assert net.read(sc, 8).is_eof
        assert net.read(sc, 8).is_eof  # sticky

    def test_both_halves_shut_channel_still_open(self, net):
        _, _, cli, sc = make_session(net)
        net.shutdown_input(sc)
        net.shutdown_output(sc)
        assert not sc.closed

    def test_shutdown_after_close_is_closed_channel(self, net):
        _, _, cli, sc = make_session(net)
        net.close_conn(sc)
        for op in (lambda: net.shutdown_input(sc), lambda: net.shutdown_output(sc),
                   lambda: net.read(sc, 4), lambda: net.write(sc, b"x")):
            with pytest.raises(AdapterError) as e:
                op()
            assert kind_of(e) is ErrorKind.CLOSED_CHANNEL
        with pytest.raises(AdapterError) as e:
            net.configure_blocking(sc, False)
        assert kind_of(e) is ErrorKind.CLOSED_CHANNEL
        net.close_conn(sc)  # idempotent


class TestPeerClosure:
    def test_reset_after_abortive_close(self, net):
        # peer closes with unread data -> both directions fail with PEER_CLOSED
        _, _, cli, sc = make_session(net)
        net.write(sc, b"data")
        settle(net)
        net.close_conn(cli)
        settle(net)
        with pytest.raises(AdapterError) as e:
            net.read(sc, 8)
        assert kind_of(e) is ErrorKind.PEER_CLOSED
        with pytest.raises(AdapterError) as e:
            net.write(sc, b"x")
        assert kind_of(e) is ErrorKind.PEER_CLOSED

    def test_graceful_close_swallows_one_write(self, net):
        _, _, cli, sc = make_session(net)
        net.close_conn(cli)
        settle(net)
        assert net.read(sc, 8).is_eof
        assert net.write(sc, b"hi") == 2  # accepted into the void
        settle(net)
        with pytest.raises(AdapterError) as e:
            net.write(sc, b"again")
        assert kind_of(e) is ErrorKind.PEER_CLOSED

    def test_writes_after_peer_shutdown_output_are_delivered(self, net):
        # a half-close is no close: nothing is swallowed, nothing resets
        _, _, cli, sc = make_session(net)
        net.shutdown_output(cli)
        settle(net)
        assert net.read(sc, 8).is_eof
        assert net.write(sc, b"one") == 3
        assert net.write(sc, b"two") == 3
        settle(net)
        assert net.read(cli, 16).data == b"onetwo"


class TestSelectors:
    def test_empty_selector_empty_readiness(self, net):
        sel = net.open_selector()
        assert net.select_now(sel) == set()

    def test_registered_channel_cannot_go_blocking(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        net.register(sel, sc, READ)
        with pytest.raises(AdapterError) as e:
            net.configure_blocking(sc, True)
        assert kind_of(e) is ErrorKind.ILLEGAL_BLOCKING_MODE

    def test_accept_readiness_tracks_backlog(self, net):
        srv = net.open_server()
        port = net.bind(srv)
        net.configure_blocking(srv, False)
        sel = net.open_selector()
        key = net.register(sel, srv, ACCEPT)
        assert key not in net.select_now(sel)
        net.connect(port)
        settle(net)
        assert key in net.select_now(sel)
        assert net.accept(srv) is not None
        assert key not in net.select_now(sel)

    def test_read_readiness_soundness(self, net):
        # READ reported implies an immediate non-blocking read yields data or
        # EOF; exact on sim, error-freedom on real
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        key = net.register(sel, sc, READ | WRITE)
        net.select_now(sel)
        assert key.ready == WRITE  # idle: writable, not readable
        net.write(cli, b"ping")
        settle(net)
        net.select_now(sel)
        assert key.ready & READ
        result = net.read(sc, 16)
        assert result.is_eof or result.count >= 1

    def test_input_shut_suppresses_read_readiness(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        key = net.register(sel, sc, READ)
        net.write(cli, b"late")
        settle(net)
        net.shutdown_input(sc)
        assert key not in net.select_now(sel)

    def test_deregister_and_close_cancel_keys(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        key = net.register(sel, sc, WRITE)
        assert key in net.select_now(sel)
        net.deregister(sel, key)
        assert key not in net.select_now(sel)
        net.configure_blocking(sc, True)  # no live key forbids blocking mode now
        net.configure_blocking(sc, False)
        key2 = net.register(sel, sc, WRITE)
        net.close_conn(sc)
        assert key2.cancelled or key2 not in net.select_now(sel)

    def test_blocking_mode_waits_for_every_key(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel_a, sel_b = net.open_selector(), net.open_selector()
        key_a = net.register(sel_a, sc, READ)
        key_b = net.register(sel_b, sc, WRITE)
        for _ in range(2):  # a second deregister of the same key counts once
            net.deregister(sel_a, key_a)
            with pytest.raises(AdapterError) as e:
                net.configure_blocking(sc, True)  # key_b is still live
            assert kind_of(e) is ErrorKind.ILLEGAL_BLOCKING_MODE
        assert key_b in net.select_now(sel_b)
        net.deregister(sel_b, key_b)
        net.configure_blocking(sc, True)
        assert sc.blocking

    def test_deregister_refuses_another_selectors_key(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel_a, sel_b = net.open_selector(), net.open_selector()
        key = net.register(sel_a, sc, WRITE)
        with pytest.raises(ValueError):
            net.deregister(sel_b, key)
        # nothing changed: the key is still live in its own selector
        assert not key.cancelled and sel_a.keys == [key] and sc.registered == 1
        assert key in net.select_now(sel_a)
        with pytest.raises(AdapterError) as e:
            net.configure_blocking(sc, True)
        assert kind_of(e) is ErrorKind.ILLEGAL_BLOCKING_MODE

    def test_register_twice_returns_the_live_key(self, net):
        # java.nio: the existing key comes back with the new interest set
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        key = net.register(sel, sc, READ)
        assert net.register(sel, sc, WRITE) is key
        assert key.interest == WRITE and sel.keys == [key] and sc.registered == 1
        net.deregister(sel, key)
        net.configure_blocking(sc, True)  # that one key was the only one
        assert sc.blocking

    def test_register_closed_channel(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        net.close_conn(sc)
        sel = net.open_selector()
        with pytest.raises(AdapterError) as e:
            net.register(sel, sc, READ)
        assert kind_of(e) is ErrorKind.CLOSED_CHANNEL

    def test_interest_type_pairing_enforced(self, net):
        srv = net.open_server()
        net.bind(srv)
        net.configure_blocking(srv, False)
        sel = net.open_selector()
        with pytest.raises(ValueError):
            net.register(sel, srv, READ)


class TestWatchdog:
    def test_blocking_accept_with_no_client(self, net):
        srv = net.open_server()
        net.bind(srv)
        with pytest.raises(WatchdogTimeout):
            net.accept(srv)

    def test_blocking_read_with_no_data_in_flight(self, net):
        _, _, cli, sc = make_session(net)
        with pytest.raises(WatchdogTimeout):
            net.read(sc, 8)


@pytest.mark.parametrize("kind", ["sim", "real"])
def test_end_of_test_cleanup_closes_what_the_test_left_open(kind):
    # force_close_all runs once per test: the real pool releases each lease once
    net = backend_of(kind)
    srv, port, cli, sc = make_session(net)
    unbound = net.open_server()
    net.close_conn(cli)  # closed by the model before the end
    net.force_close_all()
    assert all(ch.closed for ch in (srv, unbound, cli, sc))
    if net.is_sim:
        with pytest.raises(AdapterError) as e:
            net.connect(port)
        assert kind_of(e) is ErrorKind.CONNECTION_REFUSED
    else:
        assert srv.sock.fileno() == -1 and sc.sock.fileno() == -1
        sets = pool_sets(net.pool)
        assert port in sets.cooling and not sets.leased


@pytest.mark.parametrize("kind", ["sim", "real"])
def test_second_end_of_test_cleanup_does_nothing(kind):
    net = backend_of(kind)
    srv, port, cli, sc = make_session(net)
    net.force_close_all()
    if not net.is_sim:
        before = pool_sets(net.pool)
    net.force_close_all()
    assert all(ch.closed for ch in (srv, cli, sc))
    if not net.is_sim:
        # no second release and no second pool tick, which would end the
        # port's two-test cooldown
        assert pool_sets(net.pool) == before
        assert before.cooling == {port} and not before.leased


def test_real_read_takes_each_calls_mode_on_one_connection(monkeypatch):
    """A read sets its socket's timeout only when the socket does not have
    it already; switching modes on one connection must still take effect
    every time, in both directions."""
    monkeypatch.setattr(realnet, "WATCHDOG_SECONDS", 0.2)
    net = RealBackend(PortPool(20000, 29999))
    try:
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        assert net.read(sc, 16) == (b"", False)  # idle, non-blocking: empty
        net.configure_blocking(sc, True)
        with pytest.raises(WatchdogTimeout):  # idle, blocking: waits out the budget
            net.read(sc, 16)
        net.write(cli, b"ping")
        assert net.read(sc, 16) == (b"ping", False)  # blocking, data sent: the data
        net.configure_blocking(sc, False)
        assert net.read(sc, 16) == (b"", False)  # non-blocking again: empty
    finally:
        net.force_close_all()
