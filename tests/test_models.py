"""Model behavior: handshake orchestration, oracle checks, fault detection."""

from __future__ import annotations

import pytest

from netmbt.adapter import ConnChannel
from netmbt.efsm import StepKind, enabled_transitions, fire_transition, instantiate
from netmbt.errors import ErrorKind
from netmbt.explorer import RunEnv, SuiteConfig, _PortLease, run_single_test, run_suite
from netmbt.models import MODEL_REGISTRY, OracleLedger
from netmbt.portman import PortPool
from netmbt.rng import SeededRng, derive_seed
from netmbt.simnet import FaultKind, FaultSpec, LatencyModel, SimBackend

MINIMALIST = MODEL_REGISTRY["minimalist"]
SERVER_MAIN = MODEL_REGISTRY["server-main"]
WORKER = MODEL_REGISTRY["worker"]
CLIENT = MODEL_REGISTRY["client"]
MISORDERED = MODEL_REGISTRY["minimalist-misordered"]


def make_env(net, p_close=0.1):
    pool = PortPool(20000, 20999)
    return RunEnv(net=net, ledger=OracleLedger(), ports=_PortLease(pool), p_close=p_close)


class ManualRun:
    """Drive specific transitions by label instead of random scheduling."""

    def __init__(self, net, p_close=0.1, seed=0):
        self.env = make_env(net, p_close)
        self.rng = SeededRng(seed)
        self.instances = []
        self._next_id = 1

    def launch(self, spec, args):
        inst = instantiate(spec, self._next_id, dict(args), self.ctx)
        self._next_id += 1
        self.instances.append(inst)
        return inst

    def ctx(self, inst):
        from netmbt.efsm import ActionContext

        return ActionContext(inst, self.rng, self.env, self.launch)

    def fire(self, inst, label):
        options = {t.label: t for t in enabled_transitions(inst)}
        assert label in options, f"{label} not enabled in {inst.current}: {sorted(options)}"
        return fire_transition(inst, options[label], self.ctx(inst))


class TestMinimalist:
    def test_session_then_close_passes_and_accounts(self):
        net = SimBackend(SeededRng(1), LatencyModel.zero())
        run = ManualRun(net)
        server = run.launch(MINIMALIST, {})
        out = run.fire(server, "session")
        assert out.kind is StepKind.COMPLETED
        assert [i.spec.name for i in run.instances] == ["minimalist", "client", "worker"]
        client, worker = run.instances[1], run.instances[2]
        # traffic both ways, then verify the ledger saw it
        run.fire(worker, "write")
        net.advance()
        run.fire(client, "read")
        run.fire(client, "write")
        net.advance()
        run.fire(worker, "read")
        out = run.fire(server, "close")
        assert out.kind is StepKind.COMPLETED and server.current == "closed"
        assert not server.alive
        (entry,) = run.env.ledger.entries.values()
        assert entry["server"].wrote > 0 or entry["client"].wrote > 0
        assert entry["server"].read <= entry["client"].wrote
        assert entry["client"].read <= entry["server"].wrote

    def test_zero_sessions_immediate_close_empty_ledger(self):
        net = SimBackend(SeededRng(1), LatencyModel.zero())
        run = ManualRun(net)
        server = run.launch(MINIMALIST, {})
        out = run.fire(server, "close")
        assert out.kind is StepKind.COMPLETED
        assert run.env.ledger.entries == {}

    def test_misordered_variant_deadlocks_on_sim(self):
        pool = PortPool(20000, 20999)
        cfg = SuiteConfig(seed=5, num_tests=1)
        result = run_single_test(MISORDERED, cfg, derive_seed(5, 0), 0, pool)
        assert not result.passed
        assert "watchdog" in result.trace.message

    def test_ordered_variant_never_deadlocks(self):
        rep = run_suite(MINIMALIST, SuiteConfig(seed=5, num_tests=300), MODEL_REGISTRY)
        assert rep.failed == 0


class TestServerMain:
    def test_accept_branches_null_then_connected(self):
        # Latency pinned to 1 step: the first non-blocking accept after the
        # client launch must miss, a later one succeeds.
        net = SimBackend(SeededRng(3), LatencyModel(choices=(1,), split=False))
        run = ManualRun(net)
        server = run.launch(SERVER_MAIN, {})
        run.fire(server, "configureSelector")
        run.fire(server, "startAccepting")
        out = run.fire(server, "acceptTry")
        assert out.outcome_tag == "nullResult" and server.current == "accepting"
        net.advance()
        out = run.fire(server, "acceptTry")
        assert out.outcome_tag == "connected" and server.current == "connected"

    def test_hand_off_launches_worker_then_client(self):
        net = SimBackend(SeededRng(3), LatencyModel.zero())
        run = ManualRun(net)
        server = run.launch(SERVER_MAIN, {})
        run.fire(server, "configureSelector")
        run.fire(server, "startAccepting")
        run.fire(server, "acceptTry")
        assert server.current == "connected"
        before = len(run.instances)
        run.fire(server, "handOff")
        assert [i.spec.name for i in run.instances[before:]] == ["worker", "client"]
        assert server.current == "accepting"

    def test_expected_exception_probes_stay_put(self):
        net = SimBackend(SeededRng(3), LatencyModel.zero())
        run = ManualRun(net)
        server = run.launch(SERVER_MAIN, {})
        out = run.fire(server, "bindAgain")
        assert out.kind is StepKind.COMPLETED
        assert out.raised_error is ErrorKind.ALREADY_BOUND
        assert server.current == "bound"
        run.fire(server, "configureSelector")
        out = run.fire(server, "toggleBlockingConfigured")
        assert out.raised_error is ErrorKind.ILLEGAL_BLOCKING_MODE
        assert server.current == "selectorConfigured"

    def test_closed_state_probes_reach_err(self):
        net = SimBackend(SeededRng(3), LatencyModel.zero())
        run = ManualRun(net)
        server = run.launch(SERVER_MAIN, {})
        run.fire(server, "closeFromBound")
        out = run.fire(server, "acceptAfterClose")
        assert out.raised_error is ErrorKind.CLOSED_CHANNEL
        assert server.current == "err"
        assert not server.alive


class TestWorker:
    def make_worker(self, net):
        run = ManualRun(net)
        srv = net.open_server()
        port = net.bind(srv, 0)
        cli = net.connect(port)
        sc = net.accept(srv)
        worker = run.launch(WORKER, {"conn": sc})
        return run, worker, cli, sc

    def test_read_within_ledger_passes(self):
        net = SimBackend(SeededRng(4), LatencyModel.zero())
        run, worker, cli, _ = self.make_worker(net)
        run.env.ledger.record_write(cli, 99, 5)
        net.write(cli, b"abcde")
        out = run.fire(worker, "read")
        assert out.kind is StepKind.COMPLETED

    def test_read_beyond_ledger_is_violation(self):
        net = SimBackend(SeededRng(4), LatencyModel.zero())
        run, worker, cli, _ = self.make_worker(net)
        net.write(cli, b"abcde")  # delivered but never recorded by a client model
        out = run.fire(worker, "read")
        assert out.kind is StepKind.VIOLATION
        assert "oracle" in out.message

    def test_half_close_probe_edges(self):
        net = SimBackend(SeededRng(4), LatencyModel.zero())
        run, worker, _, _ = self.make_worker(net)
        run.fire(worker, "shutdownInput")
        assert worker.current == "inShut"
        out = run.fire(worker, "readAfterInShut")
        assert out.raised_error is ErrorKind.INPUT_SHUTDOWN
        assert worker.current == "inShut"
        run.fire(worker, "shutdownOutputInShut")
        assert worker.current == "bothShut"
        out = run.fire(worker, "writeBothShut")
        assert out.raised_error is ErrorKind.OUTPUT_SHUTDOWN
        out = run.fire(worker, "closeBothShut")
        assert worker.current == "closed" and not worker.alive

    def test_peer_reset_moves_to_peer_gone(self):
        net = SimBackend(SeededRng(4), LatencyModel.zero())
        run, worker, cli, _ = self.make_worker(net)
        run.fire(worker, "write")  # unread data at the client
        net.close_conn(cli)  # abortive
        out = run.fire(worker, "read")
        assert out.kind is StepKind.COMPLETED
        assert out.raised_error is ErrorKind.PEER_CLOSED
        assert worker.current == "peerGone"
        # probes in peerGone keep failing with mapped kinds, never violations
        out = run.fire(worker, "writePeerGone")
        assert out.kind is StepKind.COMPLETED
        out = run.fire(worker, "readPeerGone")
        assert out.kind is StepKind.COMPLETED


class TestClient:
    def test_forced_close_probability_one(self):
        net = SimBackend(SeededRng(6), LatencyModel.zero())
        run = ManualRun(net, p_close=1.0)
        srv = net.open_server()
        port = net.bind(srv, 0)
        client = run.launch(CLIENT, {"port": port})
        out = run.fire(client, "mayClose")
        assert out.outcome_tag == "closed"
        assert client.current == "closed" and not client.alive

    def test_stay_probability_zero(self):
        net = SimBackend(SeededRng(6), LatencyModel.zero())
        run = ManualRun(net, p_close=0.0)
        srv = net.open_server()
        port = net.bind(srv, 0)
        client = run.launch(CLIENT, {"port": port})
        for _ in range(10):
            assert run.fire(client, "mayClose").outcome_tag == "stay"

    def test_eof_after_server_close_and_drain(self):
        net = SimBackend(SeededRng(6), LatencyModel.zero())
        run = ManualRun(net)
        srv = net.open_server()
        port = net.bind(srv, 0)
        client = run.launch(CLIENT, {"port": port})
        sc = net.accept(srv)
        worker = run.launch(WORKER, {"conn": sc})
        run.fire(worker, "write")
        run.fire(worker, "close")  # graceful: client read everything pending? no - drain first
        run.fire(client, "read")  # drains the payload (or part of it)
        for _ in range(30):
            out = run.fire(client, "read")
            assert out.kind is StepKind.COMPLETED
            if out.raised_error is not None:
                pytest.fail("unexpected classified error")
            if client.current != "active":
                break
        entry = run.env.ledger.entries[sc.connection_id]
        # the worker's close recorded its output as shut before any EOF
        assert entry["server"].output_shut

    def test_refused_connect_is_violation(self):
        net = SimBackend(SeededRng(6), LatencyModel.zero())
        run = ManualRun(net)
        from netmbt.errors import PropertyViolation

        with pytest.raises(PropertyViolation, match="constructor"):
            run.launch(CLIENT, {"port": 19999})


class TestOracleLedger:
    def setup_method(self):
        self.ledger = OracleLedger()
        self.client = ConnChannel("client", 7)
        self.server = ConnChannel("server", 7)

    def test_write_is_available_to_the_peer_only(self):
        self.ledger.record_write(self.client, 1, 5)
        assert self.ledger.available_to(self.server, 2) == 5
        assert self.ledger.available_to(self.client, 1) == 0
        self.ledger.record_read(self.server, 2, 3)
        assert self.ledger.available_to(self.server, 2) == 2
        entry = self.ledger.entries[7]
        assert (entry["client"].wrote, entry["client"].read) == (5, 0)
        assert (entry["server"].wrote, entry["server"].read) == (0, 3)

    def test_peer_output_shut_is_symmetric(self):
        ledger = self.ledger
        assert not ledger.peer_output_shut(self.server, 2)
        assert not ledger.peer_output_shut(self.client, 1)
        ledger.record_output_shut(self.client, 1)
        assert ledger.peer_output_shut(self.server, 2)
        assert not ledger.peer_output_shut(self.client, 1)
        ledger.record_output_shut(self.server, 2)
        assert ledger.peer_output_shut(self.client, 1)
        ledger.record_eof(self.server, 2)
        entry = ledger.entries[7]
        assert entry["server"].saw_eof and not entry["client"].saw_eof

    def test_every_call_adds_one_touch(self):
        ledger = self.ledger
        calls = [
            (ledger.record_write, self.client, (4,)),
            (ledger.record_read, self.server, (1,)),
            (ledger.record_output_shut, self.client, ()),
            (ledger.record_eof, self.server, ()),
            (ledger.available_to, self.server, ()),
            (ledger.peer_output_shut, self.client, ()),
        ]
        for instance_id, (method, conn, extra) in enumerate(calls, start=1):
            before = set(ledger.touches)
            method(conn, instance_id, *extra)
            assert ledger.touches - before == {(7, conn.role, instance_id)}
            assert len(ledger.touches) == len(before) + 1


class TestOracleProperties:
    def test_no_faults_no_violations_1000_tests(self):
        rep = run_suite(SERVER_MAIN, SuiteConfig(seed=123, num_tests=1000), MODEL_REGISTRY)
        assert rep.failed == 0, rep.failures[:3]

    def test_eof_implies_peer_shut_and_full_delivery(self):
        # Fault-free: a side that saw end-of-stream has read exactly what the
        # peer wrote, and the peer really shut its output.
        pool = PortPool(20000, 29999)
        cfg = SuiteConfig(seed=321, num_tests=300)
        eof_seen = 0
        for i in range(cfg.num_tests):
            result = run_single_test(SERVER_MAIN, cfg, derive_seed(cfg.seed, i), i, pool)
            pool.next_test()
            assert result.passed
            for entry in result.ledger.entries.values():
                if entry["server"].saw_eof:
                    eof_seen += 1
                    assert entry["client"].output_shut
                    assert entry["server"].read == entry["client"].wrote
                if entry["client"].saw_eof:
                    eof_seen += 1
                    assert entry["server"].output_shut
                    assert entry["client"].read == entry["server"].wrote
        assert eof_seen > 0  # the property was actually exercised

    def test_ledger_locality_one_instance_per_side(self):
        pool = PortPool(20000, 29999)
        cfg = SuiteConfig(seed=555, num_tests=200)
        for i in range(cfg.num_tests):
            result = run_single_test(SERVER_MAIN, cfg, derive_seed(cfg.seed, i), i, pool)
            pool.next_test()
            owners: dict[tuple[int, str], set[int]] = {}
            for conn_id, side, instance_id in result.ledger.touches:
                owners.setdefault((conn_id, side), set()).add(instance_id)
            for (conn_id, side), ids in owners.items():
                assert len(ids) == 1, f"connection {conn_id} {side} touched by {ids}"


class TestFaultDetection:
    def test_duplicate_bytes_detected_within_1000_tests(self):
        cfg = SuiteConfig(seed=9, num_tests=1000,
                          fault=FaultSpec(FaultKind.DUPLICATE_BYTES),
                          abort_on_first_failure=True)
        rep = run_suite(SERVER_MAIN, cfg, MODEL_REGISTRY)
        assert rep.failed >= 1
        assert "oracle" in rep.failures[0].message

    def test_phantom_readiness_detected_within_1000_tests(self):
        cfg = SuiteConfig(seed=9, num_tests=1000,
                          fault=FaultSpec(FaultKind.PHANTOM_READINESS),
                          abort_on_first_failure=True)
        rep = run_suite(SERVER_MAIN, cfg, MODEL_REGISTRY)
        assert rep.failed >= 1
        assert "oracle" in rep.failures[0].message

    def test_drop_bytes_not_detected(self):
        cfg = SuiteConfig(seed=9, num_tests=1000,
                          fault=FaultSpec(FaultKind.DROP_BYTES))
        rep = run_suite(SERVER_MAIN, cfg, MODEL_REGISTRY)
        assert rep.failed == 0
