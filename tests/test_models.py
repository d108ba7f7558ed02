"""Model behavior: handshake orchestration, oracle checks, fault detection."""

from __future__ import annotations

import pytest

from netmbt import explorer, models
from netmbt.adapter import ConnChannel, NetworkBackend
from netmbt.efsm import enabled_transitions, fire_transition
from netmbt.errors import ErrorKind
from netmbt.explorer import SuiteConfig, _TestRun, port_pool, run_single_test, run_suite
from netmbt.models import MODEL_REGISTRY, OracleLedger
from netmbt.rng import SeededRng, derive_seed
from netmbt.simnet import LATENCIES, FaultKind, LatencyModel, SimBackend

MINIMALIST = MODEL_REGISTRY["minimalist"]
SERVER_MAIN = MODEL_REGISTRY["server-main"]
WORKER = MODEL_REGISTRY["worker"]
CLIENT = MODEL_REGISTRY["client"]
MISORDERED = MODEL_REGISTRY["minimalist-misordered"]


class RecordingLedger(OracleLedger):
    """An OracleLedger that also notes which instance touched which side of
    which connection, for the locality check.  ``firing`` is the id of the
    instance whose action is running, set by whoever drives the ledger."""

    def __init__(self):
        super().__init__()
        self.touches: set[tuple[int, str, int]] = set()  # (conn id, side, instance id)
        self.firing: int | None = None


def _recording(method):
    def recorded(self, conn, *args):
        self.touches.add((conn.connection_id, conn.role, self.firing))
        return method(self, conn, *args)
    return recorded


LEDGER_CALLS = ("record_write", "record_read", "record_output_shut", "record_eof",
                "available_to", "peer_output_shut")
for _call in LEDGER_CALLS:
    setattr(RecordingLedger, _call, _recording(getattr(OracleLedger, _call)))


class ManualRun(_TestRun):
    """Drive specific transitions by label instead of random scheduling."""

    def __init__(self, net, seed=0):
        super().__init__(net, SeededRng(seed))

    def fire(self, inst, label):
        options = {t.label: t for t in enabled_transitions(inst)}
        assert label in options, f"{label} not enabled in {inst.current}: {sorted(options)}"
        return fire_transition(inst, options[label], self)


class TestMinimalist:
    def test_session_then_close_passes_and_accounts(self):
        net = SimBackend(SeededRng(1), LATENCIES["zero"])
        run = ManualRun(net)
        server = run.launch(MINIMALIST, {})
        out = run.fire(server, "session")
        assert out == ("-", None)
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
        assert out == ("-", None) and server.current == "closed"
        assert enabled_transitions(server) == ()
        (entry,) = run.ledger.entries.values()
        assert entry["server"].wrote > 0 or entry["client"].wrote > 0
        assert entry["server"].read <= entry["client"].wrote
        assert entry["client"].read <= entry["server"].wrote

    def test_zero_sessions_immediate_close_empty_ledger(self):
        net = SimBackend(SeededRng(1), LATENCIES["zero"])
        run = ManualRun(net)
        server = run.launch(MINIMALIST, {})
        out = run.fire(server, "close")
        assert out == ("-", None)
        assert run.ledger.entries == {}

    def test_misordered_variant_deadlocks_on_sim(self):
        cfg = SuiteConfig(seed=5, num_tests=1)
        result = run_single_test(MISORDERED, cfg, derive_seed(5, 0), 0, None)
        assert not result.passed
        assert "watchdog" in result.trace.message
        last = result.trace.steps[-1]
        assert (last.label, last.outcome, last.state) == ("session", "-", "bound")

    def test_ordered_variant_never_deadlocks(self):
        rep = run_suite(MINIMALIST, SuiteConfig(seed=5, num_tests=300))
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
        assert out == ("nullResult", None) and server.current == "accepting"
        net.advance()
        out = run.fire(server, "acceptTry")
        assert out == ("connected", None) and server.current == "connected"

    def test_hand_off_launches_worker_then_client(self):
        net = SimBackend(SeededRng(3), LATENCIES["zero"])
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
        net = SimBackend(SeededRng(3), LATENCIES["zero"])
        run = ManualRun(net)
        server = run.launch(SERVER_MAIN, {})
        out = run.fire(server, "bindAgain")
        assert out == (ErrorKind.ALREADY_BOUND.value, None)
        assert server.current == "bound"
        run.fire(server, "configureSelector")
        out = run.fire(server, "toggleBlockingConfigured")
        assert out == (ErrorKind.ILLEGAL_BLOCKING_MODE.value, None)
        assert server.current == "selectorConfigured"

    def test_closed_state_probes_reach_err(self):
        net = SimBackend(SeededRng(3), LATENCIES["zero"])
        run = ManualRun(net)
        server = run.launch(SERVER_MAIN, {})
        run.fire(server, "closeFromBound")
        out = run.fire(server, "acceptAfterClose")
        assert out == (ErrorKind.CLOSED_CHANNEL.value, None)
        assert server.current == "err"
        assert enabled_transitions(server) == ()


class TestWorker:
    def make_worker(self, net):
        run = ManualRun(net)
        srv = net.open_server()
        port = net.bind(srv)
        cli = net.connect(port)
        sc = net.accept(srv)
        worker = run.launch(WORKER, {"conn": sc})
        return run, worker, cli, sc

    def test_read_within_ledger_passes(self):
        net = SimBackend(SeededRng(4), LATENCIES["zero"])
        run, worker, cli, _ = self.make_worker(net)
        run.ledger.record_write(cli, 5)
        net.write(cli, b"abcde")
        out = run.fire(worker, "read")
        assert out == ("-", None)

    def test_read_beyond_ledger_is_violation(self):
        net = SimBackend(SeededRng(4), LATENCIES["zero"])
        run, worker, cli, _ = self.make_worker(net)
        net.write(cli, b"abcde")  # delivered but never recorded by a client model
        out = run.fire(worker, "read")
        outcome, violation = out
        assert outcome == "-" and "oracle" in violation

    def test_half_close_probe_edges(self):
        net = SimBackend(SeededRng(4), LATENCIES["zero"])
        run, worker, _, _ = self.make_worker(net)
        run.fire(worker, "shutdownInput")
        assert worker.current == "inShut"
        out = run.fire(worker, "readAfterInShut")
        assert out == (ErrorKind.INPUT_SHUTDOWN.value, None)
        assert worker.current == "inShut"
        run.fire(worker, "shutdownOutputInShut")
        assert worker.current == "bothShut"
        out = run.fire(worker, "writeBothShut")
        assert out == (ErrorKind.OUTPUT_SHUTDOWN.value, None)
        out = run.fire(worker, "closeBothShut")
        assert worker.current == "closed" and enabled_transitions(worker) == ()

    def test_peer_reset_moves_to_peer_gone(self):
        net = SimBackend(SeededRng(4), LATENCIES["zero"])
        run, worker, cli, _ = self.make_worker(net)
        run.fire(worker, "write")  # unread data at the client
        net.close_conn(cli)  # abortive
        out = run.fire(worker, "read")
        assert out == (ErrorKind.PEER_CLOSED.value, None)
        assert worker.current == "peerGone"
        # probes in peerGone keep failing with mapped kinds, never violations
        out = run.fire(worker, "writePeerGone")
        assert out[1] is None
        out = run.fire(worker, "readPeerGone")
        assert out[1] is None


    @pytest.mark.parametrize("peer", ["data-pending", "peer-reset"])
    def test_selector_check_in_in_shut_never_reads(self, peer):
        # select_now clears READ for an input-shut channel, so the check has
        # no outcome of its own: no PeerClosedError, no read
        net = SimBackend(SeededRng(4), LATENCIES["zero"])
        run, worker, cli, sc = self.make_worker(net)
        if peer == "data-pending":
            run.ledger.record_write(cli, 5)
            net.write(cli, b"abcde")
        else:
            run.fire(worker, "write")  # unread data at the client
            net.close_conn(cli)  # abortive
        run.fire(worker, "shutdownInput")
        for _ in range(3):
            assert run.fire(worker, "checkSelectorInShut") == ("-", None)
            assert worker.current == "inShut"
        assert run.ledger.entries[sc.connection_id]["server"].read == 0


class TestClient:
    def test_forced_close_probability_one(self, monkeypatch):
        monkeypatch.setattr(models, "CLOSE_PROBABILITY", 1.0)
        net = SimBackend(SeededRng(6), LATENCIES["zero"])
        run = ManualRun(net)
        srv = net.open_server()
        port = net.bind(srv)
        client = run.launch(CLIENT, {"port": port})
        out = run.fire(client, "mayClose")
        assert out == ("closed", None)
        assert client.current == "closed" and enabled_transitions(client) == ()

    def test_stay_probability_zero(self, monkeypatch):
        monkeypatch.setattr(models, "CLOSE_PROBABILITY", 0.0)
        net = SimBackend(SeededRng(6), LATENCIES["zero"])
        run = ManualRun(net)
        srv = net.open_server()
        port = net.bind(srv)
        client = run.launch(CLIENT, {"port": port})
        for _ in range(10):
            assert run.fire(client, "mayClose") == ("stay", None)

    def test_eof_after_server_close_and_drain(self):
        net = SimBackend(SeededRng(6), LATENCIES["zero"])
        run = ManualRun(net)
        srv = net.open_server()
        port = net.bind(srv)
        client = run.launch(CLIENT, {"port": port})
        sc = net.accept(srv)
        worker = run.launch(WORKER, {"conn": sc})
        run.fire(worker, "write")
        run.fire(worker, "close")  # graceful: client read everything pending? no - drain first
        run.fire(client, "read")  # drains the payload (or part of it)
        for _ in range(30):
            out = run.fire(client, "read")
            if out != ("-", None):
                pytest.fail(f"unexpected step result {out}")
            if client.current != "active":
                break
        entry = run.ledger.entries[sc.connection_id]
        # the worker's close recorded its output as shut before any EOF
        assert entry["server"].output_shut

    def test_refused_connect_is_violation(self):
        net = SimBackend(SeededRng(6), LATENCIES["zero"])
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
        self.ledger.record_write(self.client, 5)
        assert self.ledger.available_to(self.server) == 5
        assert self.ledger.available_to(self.client) == 0
        self.ledger.record_read(self.server, 3)
        assert self.ledger.available_to(self.server) == 2
        entry = self.ledger.entries[7]
        assert (entry["client"].wrote, entry["client"].read) == (5, 0)
        assert (entry["server"].wrote, entry["server"].read) == (0, 3)

    def test_peer_output_shut_is_symmetric(self):
        ledger = self.ledger
        assert not ledger.peer_output_shut(self.server)
        assert not ledger.peer_output_shut(self.client)
        ledger.record_output_shut(self.client)
        assert ledger.peer_output_shut(self.server)
        assert not ledger.peer_output_shut(self.client)
        ledger.record_output_shut(self.server)
        assert ledger.peer_output_shut(self.client)
        ledger.record_eof(self.server)
        entry = ledger.entries[7]
        assert entry["server"].saw_eof and not entry["client"].saw_eof

    def test_every_call_adds_one_touch(self):
        ledger = RecordingLedger()
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
            ledger.firing = instance_id
            method(conn, *extra)
            assert ledger.touches - before == {(7, conn.role, instance_id)}
            assert len(ledger.touches) == len(before) + 1


class TestOracleProperties:
    def test_no_faults_no_violations_1000_tests(self):
        rep = run_suite(SERVER_MAIN, SuiteConfig(seed=123, num_tests=1000))
        assert rep.failed == 0, [f.trace.message for f in rep.failures[:3]]

    def test_eof_implies_peer_shut_and_full_delivery(self):
        # Fault-free: a side that saw end-of-stream has read exactly what the
        # peer wrote, and the peer really shut its output.
        cfg = SuiteConfig(seed=321, num_tests=300)
        eof_seen = 0
        for i in range(cfg.num_tests):
            result = run_single_test(SERVER_MAIN, cfg, derive_seed(cfg.seed, i), i, None)
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

    def test_ledger_locality_one_instance_per_side(self, monkeypatch):
        fire = explorer.fire_transition

        def firing(inst, transition, env):  # tells the ledger who is firing
            env.ledger.firing = inst.id
            try:
                return fire(inst, transition, env)
            finally:
                env.ledger.firing = None

        monkeypatch.setattr(explorer, "OracleLedger", RecordingLedger)
        monkeypatch.setattr(explorer, "fire_transition", firing)
        cfg = SuiteConfig(seed=555, num_tests=200)
        touched = 0
        for i in range(cfg.num_tests):
            result = run_single_test(SERVER_MAIN, cfg, derive_seed(cfg.seed, i), i, None)
            owners: dict[tuple[int, str], set[int]] = {}
            for conn_id, side, instance_id in result.ledger.touches:
                owners.setdefault((conn_id, side), set()).add(instance_id)
            for (conn_id, side), ids in owners.items():
                assert len(ids) == 1, f"connection {conn_id} {side} touched by {ids}"
                assert None not in ids  # every touch came from a firing action
            touched += len(result.ledger.touches)
        assert touched > 0  # the check was actually exercised


class TestPositionalPayloads:
    """A payload's bytes are models.payload_at at the writer's offset: the
    bytes that side had written on its connection before (its ledger
    ``wrote``).  A content oracle can check any read against them."""

    def test_each_side_writes_one_stream(self):
        cycle = models._CYCLE
        stream = b"".join(models.payload_at(3, "client", k, 1) for k in range(2 * cycle))
        assert models.payload_at(3, "client", 10, models.MAX_CHUNK) == stream[10:74]
        assert stream[:cycle] == stream[cycle:] and len(set(stream[:cycle])) == cycle
        assert models.payload_at(3, "server", 0, 64) != models.payload_at(3, "client", 0, 64)
        assert models.payload_at(4, "client", 0, 64) != models.payload_at(3, "client", 0, 64)

    @pytest.mark.parametrize("root, backend, tests", [
        ("server-main", "sim", 200), ("minimalist", "sim", 200), ("server-main", "real", 30),
    ])
    def test_every_written_payload_is_positional(self, monkeypatch, root, backend, tests):
        write = NetworkBackend.write
        offsets: dict[tuple[int, str], int] = {}
        written_payloads = []

        def positional_write(net, conn, payload):
            side = (conn.connection_id, conn.role)
            count = write(net, conn, payload)  # a probe's write raises here
            offset = offsets.get(side, 0)
            assert payload == models.payload_at(*side, offset, len(payload))
            offsets[side] = offset + count
            written_payloads.append(payload)
            return count

        monkeypatch.setattr(NetworkBackend, "write", positional_write)
        config = SuiteConfig(seed=17, num_tests=tests, backend=backend)
        pool = port_pool(config)
        for i in range(tests):
            offsets.clear()
            result = run_single_test(MODEL_REGISTRY[root], config, derive_seed(17, i), i, pool)
            assert result.passed, result.trace.message
            for (conn_id, role), offset in offsets.items():
                assert result.ledger.entries[conn_id][role].wrote == offset
        assert len(written_payloads) > tests


class TestFaultDetection:
    def test_duplicate_bytes_detected_within_1000_tests(self):
        cfg = SuiteConfig(seed=9, num_tests=1000,
                          fault=FaultKind.DUPLICATE_BYTES,
                          abort_on_first_failure=True)
        rep = run_suite(SERVER_MAIN, cfg)
        assert rep.failed >= 1
        assert "oracle" in rep.failures[0].trace.message

    def test_phantom_readiness_detected_within_1000_tests(self):
        cfg = SuiteConfig(seed=9, num_tests=1000,
                          fault=FaultKind.PHANTOM_READINESS,
                          abort_on_first_failure=True)
        rep = run_suite(SERVER_MAIN, cfg)
        assert rep.failed >= 1
        assert "oracle" in rep.failures[0].trace.message

    def test_drop_bytes_not_detected(self):
        cfg = SuiteConfig(seed=9, num_tests=1000,
                          fault=FaultKind.DROP_BYTES)
        rep = run_suite(SERVER_MAIN, cfg)
        assert rep.failed == 0


# One line per model (name, initial state, states | constructor), then one
# per transition in declaration order (source>target, label, weight, action,
# sorted exception overrides, outcome branches).
# The trace digests never fire some of these edges, and never run
# minimalist-misordered at all, so this is what guards an edit to the models.
PINNED_MODELS = """\
minimalist bound bound closed | _bind_ctor
  bound>bound session 3.0 _session - -
  bound>closed close 1.0 _close_server - -
server-main bound bound selectorConfigured closed accepting connected err | _bind_ctor
  bound>selectorConfigured configureSelector 1.0 _configure_selector - -
  bound>bound toggleBlockingBound 1.0 _sm_toggle_free - -
  bound>bound checkSelectorBound 1.0 _sm_check_selector - -
  bound>bound getLocalPortBound 1.0 _sm_get_port - -
  bound>bound bindAgain 1.0 _sm_bind_again AlreadyBoundError:bound -
  bound>closed closeFromBound 0.3 _close_server - -
  selectorConfigured>accepting startAccepting 2.0 _sm_start_accepting - -
  selectorConfigured>selectorConfigured toggleBlockingConfigured 1.0 _sm_toggle_registered IllegalBlockingModeError:selectorConfigured -
  selectorConfigured>selectorConfigured checkSelectorConfigured 1.0 _sm_check_selector - -
  selectorConfigured>selectorConfigured getLocalPortConfigured 1.0 _sm_get_port - -
  selectorConfigured>closed closeFromConfigured 0.3 _close_server - -
  accepting>accepting acceptTry 3.0 _sm_accept_try - nullResult:accepting,connected:connected
  accepting>accepting toggleBlockingAccepting 1.0 _sm_toggle_registered IllegalBlockingModeError:accepting -
  accepting>accepting checkSelectorAccepting 1.0 _sm_check_selector - -
  accepting>accepting getLocalPortAccepting 1.0 _sm_get_port - -
  accepting>closed closeFromAccepting 0.3 _close_server - -
  connected>accepting handOff 3.0 _sm_hand_off - -
  connected>connected toggleBlockingConnected 1.0 _sm_toggle_registered IllegalBlockingModeError:connected -
  connected>connected checkSelectorConnected 1.0 _sm_check_selector - -
  connected>connected getLocalPortConnected 1.0 _sm_get_port - -
  connected>closed closeFromConnected 0.3 _close_server - -
  closed>err acceptAfterClose 1.0 _sm_accept_closed ClosedChannelError:err -
  closed>err getLocalPortAfterClose 1.0 _sm_port_closed ClosedChannelError:err -
worker connected connected peerGone inShut outShut closed bothShut | _watch_conn
  connected>connected read 2.0 _checked_read PeerClosedError:peerGone -
  connected>connected write 2.0 _checked_write PeerClosedError:peerGone -
  connected>connected checkSelector 2.0 _poll_then_read PeerClosedError:peerGone -
  connected>inShut shutdownInput 0.5 _w_shut_in - -
  connected>outShut shutdownOutput 0.5 _w_shut_out PeerClosedError:peerGone -
  connected>closed close 0.5 _close_conn - -
  inShut>inShut readAfterInShut 1.0 _read_probe InputShutdownError:inShut -
  inShut>inShut writeInShut 2.0 _checked_write PeerClosedError:peerGone -
  inShut>inShut checkSelectorInShut 1.0 _poll_then_read - -
  inShut>bothShut shutdownOutputInShut 0.5 _w_shut_out PeerClosedError:peerGone -
  inShut>closed closeInShut 0.5 _close_conn - -
  outShut>outShut writeAfterOutShut 1.0 _write_probe OutputShutdownError:outShut -
  outShut>outShut readOutShut 2.0 _checked_read PeerClosedError:peerGone -
  outShut>outShut checkSelectorOutShut 1.0 _poll_then_read PeerClosedError:peerGone -
  outShut>bothShut shutdownInputOutShut 0.5 _w_shut_in - -
  outShut>closed closeOutShut 0.5 _close_conn - -
  bothShut>bothShut readBothShut 1.0 _read_probe InputShutdownError:bothShut -
  bothShut>bothShut writeBothShut 1.0 _write_probe OutputShutdownError:bothShut -
  bothShut>bothShut checkSelectorBothShut 1.0 _poll_then_read - -
  bothShut>closed closeBothShut 1.0 _close_conn - -
  peerGone>peerGone readPeerGone 1.0 _checked_read InputShutdownError:peerGone,PeerClosedError:peerGone -
  peerGone>peerGone writePeerGone 1.0 _checked_write OutputShutdownError:peerGone,PeerClosedError:peerGone -
  peerGone>peerGone checkSelectorPeerGone 1.0 _poll_then_read PeerClosedError:peerGone -
  peerGone>closed closePeerGone 0.5 _close_conn - -
client active active closed reset | _client_ctor
  active>active read 1.0 _checked_read PeerClosedError:reset -
  active>active write 0.5 _checked_write PeerClosedError:reset -
  active>active checkSelector 1.0 _poll_then_read PeerClosedError:reset -
  active>active mayClose 1.0 _c_may_close - stay:active,closed:closed
minimalist-misordered bound bound closed | _bind_ctor
  bound>bound session 1.0 _session_misordered - -
  bound>closed close 0.1 _close_server - -
"""


def _pairs(mapping) -> str:
    if mapping is None:
        return "-"
    return ",".join(f"{getattr(k, 'value', k)}:{v}" for k, v in mapping.items()) or "-"


def _by_kind(overrides) -> dict:
    return dict(sorted(overrides.items(), key=lambda kv: kv[0].value))


def _describe(spec) -> list[str]:
    lines = [f"{spec.name} {spec.initial} {' '.join(spec.states)} | "
             f"{spec.constructor.__qualname__}"]
    for t in spec.transitions:
        lines.append(
            f"  {t.source}>{t.target} {t.label} {t.weight} {t.action.__qualname__} "
            f"{_pairs(_by_kind(t.exception_overrides))} {_pairs(t.outcome_branches)}"
        )
    return lines


def test_bundled_models_are_pinned():
    described = [line for spec in MODEL_REGISTRY.values() for line in _describe(spec)]
    assert described == PINNED_MODELS.splitlines()
