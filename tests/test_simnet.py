"""Simulated-network specifics: latency cohorts, conservation, determinism,
fault injection."""

from __future__ import annotations

from functools import partial

import pytest

from netmbt import simnet
from netmbt.adapter import ACCEPT, READ, WRITE
from netmbt.errors import AdapterError, ErrorKind
from netmbt.explorer import SuiteConfig, port_pool, run_single_test
from netmbt.models import MODEL_REGISTRY
from netmbt.rng import SeededRng, derive_seed
from netmbt.simnet import LATENCIES, FaultKind, LatencyModel, SimBackend
from netmbt.trace import serialize_trace


def session(net):
    srv = net.open_server()
    port = net.bind(srv)
    cli = net.connect(port)
    sc = net.accept(srv)
    net.configure_blocking(sc, False)
    net.configure_blocking(cli, False)
    return srv, cli, sc


class TestLatency:
    def test_fixed_latency_two_steps(self):
        # Write 5 bytes at latency 2: invisible after one advance, fully
        # delivered after two.
        net = SimBackend(SeededRng(0), LatencyModel(choices=(2,), split=False))
        _, cli, sc = session(net)
        net.write(cli, b"12345")
        assert net.read(sc, 10).count == 0
        net.advance()
        assert net.read(sc, 10).count == 0
        net.advance()
        assert net.read(sc, 10).data == b"12345"

    def test_zero_latency_immediate_without_advance(self):
        net = SimBackend(SeededRng(0), LATENCIES["zero"])
        _, cli, sc = session(net)
        net.write(cli, b"now")
        assert net.read(sc, 10).data == b"now"

    def test_split_cohort_read_sequence_sums(self):
        # Seed 2 is known to split an 8-byte write into 5 + 3 at latency 0.
        net = SimBackend(SeededRng(2), LatencyModel(choices=(0,), split=True))
        _, cli, sc = session(net)
        net.write(cli, b"ABCDEFGH")
        first = net.read(sc, 16)
        assert first.data == b"ABCDE"
        net.advance()
        second = net.read(sc, 16)
        assert second.data == b"FGH"
        assert first.count + second.count == 8

    def test_fifo_across_interleaved_latencies(self):
        # A slow write must not be overtaken by a fast one.
        net = SimBackend(SeededRng(0), LatencyModel(choices=(2,), split=False))
        _, cli, sc = session(net)
        net.write(cli, b"first")
        net.latency = LatencyModel(choices=(0,), split=False)
        net.write(cli, b"second")
        collected = b""
        for _ in range(5):
            net.advance()
            collected += net.read(sc, 64).data
        assert collected == b"firstsecond"

    def test_blocking_read_advances_until_delivery(self):
        net = SimBackend(SeededRng(0), LatencyModel(choices=(2,), split=False))
        _, cli, sc = session(net)
        net.configure_blocking(sc, True)
        net.write(cli, b"later")
        assert net.read(sc, 10).data == b"later"

    def test_fixed_seed_identical_cohorts(self):
        def run():
            net = SimBackend(SeededRng(77), LATENCIES["default"])
            _, cli, sc = session(net)
            out = []
            for i in range(10):
                net.write(cli, bytes([i]) * (i + 1))
                net.advance()
                out.append(net.read(sc, 64).data)
            return out

        assert run() == run()

    def test_read_key_absent_until_delivery(self):
        # bytes in flight are not readable, so the flow must not be READ-ready
        net = SimBackend(SeededRng(0), LatencyModel(choices=(2,), split=False))
        _, cli, sc = session(net)
        sel = net.open_selector()
        key = net.register(sel, sc, READ)
        net.write(cli, b"soon")
        net.select_now(sel)
        assert not key.ready & READ
        net.advance()
        net.advance()
        net.select_now(sel)
        assert key.ready & READ

    def test_connect_latency_delays_acceptability(self):
        # With latency pinned to 2 the queued connection is not acceptable
        # (nor ACCEPT-ready) until the clock advances twice.
        net = SimBackend(SeededRng(0), LatencyModel(choices=(2,), split=False))
        srv = net.open_server()
        port = net.bind(srv)
        net.configure_blocking(srv, False)
        sel = net.open_selector()
        key = net.register(sel, srv, ACCEPT)
        net.connect(port)
        assert net.accept(srv) is None
        assert key not in net.select_now(sel)
        net.advance()
        net.advance()
        assert key in net.select_now(sel)
        assert net.accept(srv) is not None


class TestConservation:
    def test_random_operation_sequences_conserve_bytes(self):
        # For every flow: written + duplicated = read + delivered + in-flight
        # + lost + dropped; without faults or closes, lost and dropped are 0.
        driver_rng = SeededRng(31415)
        for round_ in range(500):
            net = SimBackend(SeededRng(driver_rng.next_u64()), LATENCIES["default"])
            _, cli, sc = session(net)
            chans = [cli, sc]
            for _ in range(30):
                op = driver_rng.below(4)
                ch = chans[driver_rng.below(2)]
                try:
                    if op == 0:
                        net.write(ch, bytes(driver_rng.below(256) for _ in range(driver_rng.randint(1, 32))))
                    elif op == 1:
                        net.read(ch, driver_rng.randint(1, 32))
                    elif op == 2:
                        net.advance()
                    else:
                        net.shutdown_output(ch)
                except AdapterError:
                    pass
                for stats in net.flow_stats():
                    assert stats["written"] + stats["duplicated"] == (
                        stats["read"] + stats["delivered_unread"] + stats["in_flight"]
                        + stats["lost"] + stats["dropped"]
                    )
                    assert stats["lost"] == 0 and stats["dropped"] == 0

    def test_fifo_content_is_prefix_of_written(self):
        rng = SeededRng(999)
        net = SimBackend(SeededRng(5), LATENCIES["default"])
        _, cli, sc = session(net)
        written = b""
        read_back = b""
        for _ in range(200):
            if rng.below(2):
                chunk = rng.payload(rng.randint(1, 16))
                net.write(cli, chunk)
                written += chunk
            else:
                net.advance()
                read_back += net.read(sc, rng.randint(1, 16)).data
        assert read_back == written[: len(read_back)]


class TestDeterminism:
    def test_identical_seed_and_calls_identical_results(self):
        def run():
            net = SimBackend(SeededRng(4242), LATENCIES["default"])
            srv, cli, sc = session(net)
            sel = net.open_selector()
            key = net.register(sel, sc, READ | WRITE)
            log = []
            for i in range(40):
                net.write(cli, bytes([i % 251]) * ((i % 7) + 1))
                net.advance()
                ready = net.select_now(sel)
                log.append((key in ready, key.ready))
                log.append(net.read(sc, 8).data)
            return log

        assert run() == run()


class TestFaults:
    @pytest.fixture(autouse=True)
    def armed_from_step_0(self, monkeypatch):
        monkeypatch.setattr(simnet, "FAULT_TRIGGER_STEP", 0)

    def test_duplicate_bytes_breaks_accounting(self):
        net = SimBackend(SeededRng(1), LATENCIES["zero"], FaultKind.DUPLICATE_BYTES)
        _, cli, sc = session(net)
        net.write(cli, b"12345")
        net.advance()
        result = net.read(sc, 64)
        assert result.data == b"1234512345"  # more than was ever written
        assert net.fault_events
        assert any("duplicated" in e for e in net.fault_events)

    def test_drop_bytes_is_silent_underdelivery(self):
        net = SimBackend(SeededRng(1), LatencyModel(choices=(1,), split=False),
                         FaultKind.DROP_BYTES)
        _, cli, sc = session(net)
        net.write(cli, b"12345")
        net.advance()
        assert net.read(sc, 64).count == 0  # vanished without a trace
        stats = net.flow_stats()
        assert any(s["dropped"] == 5 for s in stats)

    def test_phantom_readiness_reports_read_on_empty_flow(self):
        net = SimBackend(SeededRng(1), LATENCIES["zero"], FaultKind.PHANTOM_READINESS)
        _, cli, sc = session(net)
        sel = net.open_selector()
        key = net.register(sel, sc, READ)
        ready = net.select_now(sel)
        assert key in ready and key.ready & READ
        assert net.read(sc, 16).count == 0  # the lie the oracle catches
        # one-shot: the next select is honest again
        assert key not in net.select_now(sel)

    def test_phantom_readiness_picks_the_first_eligible_key(self):
        # eligible: live, READ interest, input open, not READ-ready
        net = SimBackend(SeededRng(1), LATENCIES["zero"], FaultKind.PHANTOM_READINESS)
        (_, a, b), (_, c, d), (_, e, _), (_, f, _), (_, g, _) = (
            session(net) for _ in range(5))
        sel = net.open_selector()
        keys = [net.register(sel, a, WRITE)]
        keys += [net.register(sel, ch, READ) for ch in (b, c, d, e, f, g)]
        net.shutdown_input(b)
        net.write(d, b"data")  # delivered to c at zero latency
        net.deregister(sel, keys[3])
        net.close_conn(e)
        ready = net.select_now(sel)
        assert [k.ready for k in keys] == [WRITE, 0, READ, 0, 0, READ, 0]
        assert ready == {keys[0], keys[2], keys[5]}
        assert len(net.fault_events) == 1
        assert net.fault_events[0].endswith(f"connection {f.connection_id}")
        # one-shot: the next select is honest again
        assert net.select_now(sel) == {keys[0], keys[2]}
        assert len(net.fault_events) == 1

    def test_fault_fires_exactly_once(self):
        net = SimBackend(SeededRng(1), LATENCIES["zero"], FaultKind.DUPLICATE_BYTES)
        _, cli, sc = session(net)
        net.write(cli, b"aa")
        net.advance()
        net.write(cli, b"bb")
        net.advance()
        assert net.read(sc, 64).data == b"aaaabb"
        assert len(net.fault_events) == 1


def advance_over_every_flow(self):
    """SimBackend.advance as a walk over every flow of the test."""
    self.clock += 1
    for flow in self._flows:
        if flow.cohorts:
            self._deliver(flow)


def suite(root, kind=None, trigger=0, latency="default"):
    """The traces, diagnostics and flow stats of 120 tests of ``root``, with
    a ``kind`` fault armed from step ``trigger``."""
    config = SuiteConfig(seed=19, latency=latency, fault=kind)
    pool = port_pool(config)
    kept = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "FAULT_TRIGGER_STEP", trigger)
        for i in range(120):
            r = run_single_test(MODEL_REGISTRY[root], config, derive_seed(19, i), i, pool)
            kept.append((serialize_trace(r.trace), r.diagnostics, r.flow_stats))
    assert kind is None or any(diagnostics for _, diagnostics, _ in kept)
    return kept


def reset_with_a_cohort_in_flight():
    """A server close resets a queued connection whose client has written,
    which empties a flow with a cohort in flight; a later connection's
    cohorts are then delivered, and the drop fault hits the first of them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "FAULT_TRIGGER_STEP", 0)
        net = SimBackend(SeededRng(1), LatencyModel(choices=(2,), split=False),
                         FaultKind.DROP_BYTES)
        srv = net.open_server()
        cli = net.connect(net.bind(srv))
        net.write(cli, b"lost")
        net.close_server(srv)
        assert net.flow_stats()[0]["lost"] == 4  # the cohort in flight
        net.advance()
        _, cli_b, sc_b = session(net)
        net.write(sc_b, b"ccc")
        net.write(cli_b, b"bb")
        reads = []
        for _ in range(3):
            net.advance()
            reads.append((net.read(sc_b, 8), net.read(cli_b, 8)))
        return net.clock, reads, net.fault_events, net.flow_stats()


class TestIdleFlows:
    def test_fault_hits_the_first_due_flow_in_connection_order(self, monkeypatch):
        # The later connection writes first; the drop still hits the earlier
        # connection's cohort, as a walk over every flow in order would.
        monkeypatch.setattr(simnet, "FAULT_TRIGGER_STEP", 0)
        net = SimBackend(SeededRng(1), LatencyModel(choices=(1,), split=False),
                         FaultKind.DROP_BYTES)
        _, cli_a, sc_a = session(net)
        _, cli_b, sc_b = session(net)
        net.write(cli_b, b"bbb")
        net.write(sc_a, b"aaaaa")  # the earlier connection's second flow
        net.write(cli_a, b"aa")    # the earlier connection's first flow
        net.advance()
        assert net.fault_events == [f"step {net.clock}: dropped cohort of 2 bytes"]
        assert net.read(sc_a, 64).count == 0
        assert net.read(cli_a, 64).data == b"aaaaa"
        assert net.read(sc_b, 64).data == b"bbb"

    def test_advance_does_not_visit_idle_flows(self, monkeypatch):
        net = SimBackend(SeededRng(1), LatencyModel(choices=(2,), split=False))
        for _ in range(3):
            session(net)
        _, cli, sc = session(net)
        delivered = []
        deliver = SimBackend._deliver
        monkeypatch.setattr(SimBackend, "_deliver",
                            lambda self, flow: (delivered.append(flow), deliver(self, flow)))
        net.write(cli, b"x")
        delivered.clear()  # the write's own call, for zero-latency cohorts
        assert net._due == net.clock + 2
        net.advance()
        assert delivered == []
        net.advance()
        assert delivered == [cli.tx] and net._due == float("inf")
        assert net.read(sc, 8).data == b"x"

    @pytest.mark.parametrize("scenario", [
        pytest.param(partial(suite, "server-main", FaultKind.DROP_BYTES, 3),
                     id="FaultKind.DROP_BYTES-3"),
        pytest.param(partial(suite, "server-main", FaultKind.DUPLICATE_BYTES, 3),
                     id="FaultKind.DUPLICATE_BYTES-3"),
        pytest.param(partial(suite, "server-main", FaultKind.DUPLICATE_BYTES, 11),
                     id="FaultKind.DUPLICATE_BYTES-11"),
        pytest.param(partial(suite, "server-main"), id="None-0"),
        # Its blocking accept ticks the clock from inside an action.
        pytest.param(partial(suite, "minimalist"), id="minimalist"),
        # The write itself delivers each cohort.
        pytest.param(partial(suite, "server-main", latency="zero"), id="latency-zero"),
        pytest.param(reset_with_a_cohort_in_flight, id="reset-with-a-cohort-in-flight"),
    ])
    def test_tests_equal_those_of_a_walk_over_every_flow(self, monkeypatch, scenario):
        kept = scenario()
        monkeypatch.setattr(SimBackend, "advance", advance_over_every_flow)
        assert scenario() == kept


class TestAbortiveVsGraceful:
    def test_listener_close_resets_queued_connections(self):
        net = SimBackend(SeededRng(0), LATENCIES["zero"])
        srv = net.open_server()
        port = net.bind(srv)
        cli = net.connect(port)
        net.close_server(srv)
        with pytest.raises(AdapterError) as e:
            net.read(cli, 8)
        assert e.value.kind is ErrorKind.PEER_CLOSED

    def test_graceful_close_delivers_pending_then_eof(self):
        net = SimBackend(SeededRng(0), LatencyModel(choices=(1,), split=False))
        _, cli, sc = session(net)
        net.write(cli, b"pending")
        net.close_conn(cli)  # nothing unread at cli: graceful
        net.advance()
        assert net.read(sc, 64).data == b"pending"
        assert net.read(sc, 64).is_eof

    def test_second_close_with_unread_data_resets_nothing(self):
        net = SimBackend(SeededRng(0), LATENCIES["zero"])
        _, cli, sc = session(net)
        net.write(cli, b"unread")
        net.close_conn(cli)  # nothing unread at cli: graceful
        net.close_conn(sc)  # unread data, but the peer closed first
        up, down = net.flow_stats()
        assert up["delivered_unread"] == 6 and up["lost"] == 0
        assert down["lost"] == 0
