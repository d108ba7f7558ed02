"""One legality table, two backends: the shared (state, operation) contract.

Everything here must hold identically for the simulated network at zero
latency and for real loopback sockets; the scripted conformance suite in
test_conformance.py additionally compares the two side by side.
"""

from __future__ import annotations

import pytest

from netmbt.adapter import Interest
from netmbt.errors import AdapterError, ErrorKind, WatchdogTimeout
from netmbt.realnet import RealBackend
from netmbt.rng import SeededRng
from netmbt.simnet import LatencyModel, SimBackend


@pytest.fixture(params=["sim", "real"])
def net(request):
    if request.param == "sim":
        backend = SimBackend(SeededRng(1), LatencyModel.zero())
    else:
        backend = RealBackend(watchdog_seconds=2.0)
    yield backend
    backend.force_close_all()


def kind_of(excinfo) -> ErrorKind:
    return excinfo.value.kind


def make_session(net):
    srv = net.open_server()
    port = net.bind(srv, 0)
    cli = net.connect(port)
    net.settle()
    sc = net.accept(srv)
    return srv, port, cli, sc


class TestServerLifecycle:
    def test_bind_zero_picks_port_and_get_local_port_agrees(self, net):
        srv = net.open_server()
        port = net.bind(srv, 0)
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

    def test_double_bind(self, net):
        srv = net.open_server()
        port = net.bind(srv, 0)
        with pytest.raises(AdapterError) as e:
            net.bind(srv, port)
        assert kind_of(e) is ErrorKind.ALREADY_BOUND

    def test_everything_fails_after_close(self, net):
        srv = net.open_server()
        net.bind(srv, 0)
        net.close_server(srv)
        for op in (lambda: net.accept(srv),
                   lambda: net.bind(srv, 0),
                   lambda: net.get_local_port(srv),
                   lambda: net.configure_blocking(srv, False)):
            with pytest.raises(AdapterError) as e:
                op()
            assert kind_of(e) is ErrorKind.CLOSED_CHANNEL
        net.close_server(srv)  # idempotent

    def test_local_port_field_retained_after_close(self, net):
        srv = net.open_server()
        port = net.bind(srv, 0)
        net.close_server(srv)
        assert srv.local_port == port  # the handle keeps it for inspection

    def test_connect_refused_without_listener(self, net):
        srv = net.open_server()
        port = net.bind(srv, 0)
        net.close_server(srv)
        with pytest.raises(AdapterError) as e:
            net.connect(port)
        assert kind_of(e) is ErrorKind.CONNECTION_REFUSED


class TestAcceptAndModes:
    def test_queued_connection_accepted_blocking(self, net):
        srv = net.open_server()
        port = net.bind(srv, 0)
        cli = net.connect(port)
        net.settle()
        conn = net.accept(srv)
        assert conn is not None
        assert conn.connection_id == cli.connection_id

    def test_non_blocking_accept_empty_returns_none(self, net):
        srv = net.open_server()
        net.bind(srv, 0)
        net.configure_blocking(srv, False)
        assert net.accept(srv) is None

    def test_fifo_accept_order(self, net):
        srv = net.open_server()
        port = net.bind(srv, 0)
        a = net.connect(port)
        b = net.connect(port)
        net.settle()
        first = net.accept(srv)
        second = net.accept(srv)
        assert first.connection_id == a.connection_id
        assert second.connection_id == b.connection_id

    def test_toggle_twice_restores_mode(self, net):
        srv = net.open_server()
        net.bind(srv, 0)
        assert srv.blocking
        net.configure_blocking(srv, False)
        net.configure_blocking(srv, True)
        assert srv.blocking


class TestReadWrite:
    def test_roundtrip(self, net):
        _, _, cli, sc = make_session(net)
        assert net.write(cli, b"hello") == 5
        net.settle()
        result = net.read(sc, 10)
        assert not result.is_eof and result.data == b"hello"

    def test_capacity_zero_returns_empty_bytes(self, net):
        _, _, cli, sc = make_session(net)
        net.write(cli, b"xyz")
        net.settle()
        assert net.read(sc, 0).data == b""
        assert net.read(sc, 10).data == b"xyz"  # nothing was consumed

    def test_capacity_limits_read(self, net):
        _, _, cli, sc = make_session(net)
        net.write(cli, b"abcdef")
        net.settle()
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
    def test_read_after_own_shutdown_input(self, net):
        _, _, cli, sc = make_session(net)
        net.shutdown_input(sc)
        with pytest.raises(AdapterError) as e:
            net.read(sc, 8)
        assert kind_of(e) is ErrorKind.INPUT_SHUTDOWN
        net.shutdown_input(sc)  # idempotent

    def test_write_after_own_shutdown_output(self, net):
        _, _, cli, sc = make_session(net)
        net.shutdown_output(sc)
        with pytest.raises(AdapterError) as e:
            net.write(sc, b"x")
        assert kind_of(e) is ErrorKind.OUTPUT_SHUTDOWN
        net.shutdown_output(sc)  # idempotent

    def test_half_closure_independence(self, net):
        # shutting input does not stop own writes; shutting output does not
        # stop own reads of already-sent peer data
        _, _, cli, sc = make_session(net)
        net.shutdown_input(sc)
        assert net.write(sc, b"out") == 3
        net.settle()
        assert net.read(cli, 8).data == b"out"
        net.write(cli, b"in")
        net.settle()
        net.shutdown_output(cli)
        net.shutdown_output(sc)
        # cli reads what sc sent before sc shut its output: nothing more, EOF
        assert net.read(cli, 8).is_eof

    def test_eof_after_peer_shutdown_output(self, net):
        _, _, cli, sc = make_session(net)
        net.write(cli, b"tail")
        net.settle()
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
        net.close_conn(sc)  # idempotent


class TestPeerClosure:
    def test_reset_after_abortive_close(self, net):
        # peer closes with unread data -> both directions fail with PEER_CLOSED
        _, _, cli, sc = make_session(net)
        net.write(sc, b"data")
        net.settle()
        net.close_conn(cli)
        net.settle()
        with pytest.raises(AdapterError) as e:
            net.read(sc, 8)
        assert kind_of(e) is ErrorKind.PEER_CLOSED
        with pytest.raises(AdapterError) as e:
            net.write(sc, b"x")
        assert kind_of(e) is ErrorKind.PEER_CLOSED

    def test_graceful_close_swallows_one_write(self, net):
        _, _, cli, sc = make_session(net)
        net.close_conn(cli)
        net.settle()
        assert net.read(sc, 8).is_eof
        assert net.write(sc, b"hi") == 2  # accepted into the void
        net.settle()
        with pytest.raises(AdapterError) as e:
            net.write(sc, b"again")
        assert kind_of(e) is ErrorKind.PEER_CLOSED


class TestSelectors:
    def test_empty_selector_empty_readiness(self, net):
        sel = net.open_selector()
        assert net.select_now(sel) == set()

    def test_register_requires_non_blocking(self, net):
        _, _, cli, sc = make_session(net)
        sel = net.open_selector()
        with pytest.raises(AdapterError) as e:
            net.register(sel, sc, Interest.READ)
        assert kind_of(e) is ErrorKind.ILLEGAL_BLOCKING_MODE

    def test_registered_channel_cannot_go_blocking(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        net.register(sel, sc, Interest.READ)
        with pytest.raises(AdapterError) as e:
            net.configure_blocking(sc, True)
        assert kind_of(e) is ErrorKind.ILLEGAL_BLOCKING_MODE

    def test_accept_readiness_tracks_backlog(self, net):
        srv = net.open_server()
        port = net.bind(srv, 0)
        net.configure_blocking(srv, False)
        sel = net.open_selector()
        key = net.register(sel, srv, Interest.ACCEPT)
        assert key not in net.select_now(sel)
        net.connect(port)
        net.settle()
        assert key in net.select_now(sel)
        net.accept(srv)
        assert key not in net.select_now(sel)

    def test_read_readiness_soundness(self, net):
        # READ reported implies an immediate non-blocking read yields data or
        # EOF; exact on sim, error-freedom on real
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        key = net.register(sel, sc, Interest.READ | Interest.WRITE)
        net.select_now(sel)
        assert not key.ready & Interest.READ
        net.write(cli, b"ping")
        net.settle()
        net.select_now(sel)
        assert key.ready & Interest.READ
        result = net.read(sc, 16)
        assert result.is_eof or result.count >= 1

    def test_input_shut_suppresses_read_readiness(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        key = net.register(sel, sc, Interest.READ)
        net.write(cli, b"late")
        net.settle()
        net.shutdown_input(sc)
        assert key not in net.select_now(sel)

    def test_deregister_and_close_cancel_keys(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        sel = net.open_selector()
        key = net.register(sel, sc, Interest.WRITE)
        assert key in net.select_now(sel)
        net.deregister(sel, key)
        assert key not in net.select_now(sel)
        key2 = net.register(sel, sc, Interest.WRITE)
        net.close_conn(sc)
        assert key2.cancelled or key2 not in net.select_now(sel)

    def test_register_closed_channel(self, net):
        _, _, cli, sc = make_session(net)
        net.configure_blocking(sc, False)
        net.close_conn(sc)
        sel = net.open_selector()
        with pytest.raises(AdapterError) as e:
            net.register(sel, sc, Interest.READ)
        assert kind_of(e) is ErrorKind.CLOSED_CHANNEL

    def test_interest_type_pairing_enforced(self, net):
        srv = net.open_server()
        net.bind(srv, 0)
        net.configure_blocking(srv, False)
        sel = net.open_selector()
        with pytest.raises(ValueError):
            net.register(sel, srv, Interest.READ)


class TestWatchdog:
    def test_blocking_accept_with_no_client(self, net):
        srv = net.open_server()
        net.bind(srv, 0)
        with pytest.raises(WatchdogTimeout):
            net.accept(srv)

    def test_blocking_read_with_no_data_in_flight(self, net):
        _, _, cli, sc = make_session(net)
        with pytest.raises(WatchdogTimeout):
            net.read(sc, 8)


def test_real_read_takes_each_calls_mode_on_one_connection():
    """A read sets its socket's timeout only when the socket does not have
    it already; switching modes on one connection must still take effect
    every time, in both directions."""
    net = RealBackend(watchdog_seconds=0.2)
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
