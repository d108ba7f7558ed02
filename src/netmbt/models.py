"""Bundled test models for the socket API, plus the per-connection oracle.

Four models cooperate: a minimalist server that drives whole sessions with
blocking accept, a detailed server main model using a selector and
non-blocking accept, a server-side worker per accepted connection, and a
client per session.  Clients and workers are launched as child instances;
paired progress comes from interleaved scheduling, not threads.

The oracle is byte accounting local to each connection: a side may read at
most what the other side has written so far (under-reads are
indistinguishable from latency and therefore tolerated), and end-of-stream
is only legal once the peer's output is shut.  A deliberately mis-ordered
minimalist variant (blocking accept before the client launch) is included
to demonstrate watchdog-detected deadlock.

Every model is declared the one way Modbat declares one: a tuple of edge
rows ``(source, target, label, action, weight, expected kinds[, outcome
branches])`` in declaration order, whose first source is the initial state.
One rule gives every exception override: an expected error leads to the
row's target, except PeerClosedError, which leads to the model's peer-gone
state (``peerGone`` in the worker, ``reset`` in the client).  A probe is a
named action whose call must fail; it raises PropertyViolation when the
call succeeds.  The adapter's (state, operation) legality table is the
authority for which calls must fail where.
"""

from __future__ import annotations

from .adapter import ACCEPT, READ, WRITE, ConnChannel, ReadResult
from .efsm import ModelSpec, Transition, define_model
from .errors import ErrorKind, PropertyViolation
from .rng import maybe

E = ErrorKind

# Payload and read-capacity sizes are draws on [1, MAX_CHUNK].
MAX_CHUNK = 64


class SideRecord:
    """One side's traffic on one connection, as the oracle accounts it."""

    __slots__ = ("wrote", "read", "output_shut", "saw_eof")
    __hash__ = None  # mutable: equal by value, so unhashable

    def __init__(self):
        self.wrote = 0
        self.read = 0
        self.output_shut = False
        self.saw_eof = False

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.wrote, self.read, self.output_shut, self.saw_eof) == (
            other.wrote, other.read, other.output_shut, other.saw_eof)


_PEER_ROLE = {"client": "server", "server": "client"}


class OracleLedger:
    """Model-side view of every connection's byte traffic.

    Keyed by the backend-assigned connection id; each entry maps a role
    ("client", "server") to that side's SideRecord.  Every method acts for
    the holder of ``conn``: it updates that side's record and reads the
    peer's.
    """

    __slots__ = ("entries",)
    __hash__ = None  # mutable: equal by value, so unhashable

    def __init__(self):
        self.entries: dict[int, dict[str, SideRecord]] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def _entry(self, conn: ConnChannel) -> dict[str, SideRecord]:
        entry = self.entries.get(conn.connection_id)
        if entry is None:
            entry = {"client": SideRecord(), "server": SideRecord()}
            self.entries[conn.connection_id] = entry
        return entry

    def record_write(self, conn: ConnChannel, count: int) -> None:
        self._entry(conn)[conn.role].wrote += count

    def record_read(self, conn: ConnChannel, count: int) -> None:
        self._entry(conn)[conn.role].read += count

    def record_output_shut(self, conn: ConnChannel) -> None:
        self._entry(conn)[conn.role].output_shut = True

    def record_eof(self, conn: ConnChannel) -> None:
        self._entry(conn)[conn.role].saw_eof = True

    def available_to(self, conn: ConnChannel) -> int:
        """Bytes the holder of ``conn`` may still legally read."""
        e = self._entry(conn)
        return e[_PEER_ROLE[conn.role]].wrote - e[conn.role].read

    def peer_output_shut(self, conn: ConnChannel) -> bool:
        return self._entry(conn)[_PEER_ROLE[conn.role]].output_shut


# ---------------------------------------------------------------------------
# Connection action bodies, shared by the worker and client models
# ---------------------------------------------------------------------------


def _account_read(ledger: OracleLedger, conn: ConnChannel, result: ReadResult) -> None:
    """The latency-tolerant byte-accounting oracle for one read result."""
    if result.is_eof:
        if not ledger.peer_output_shut(conn):
            raise PropertyViolation(
                f"oracle: end-of-stream on connection {conn.connection_id} "
                "but the peer never shut its output"
            )
        ledger.record_eof(conn)
        return
    count, available = len(result.data), ledger.available_to(conn)
    if count > available:
        raise PropertyViolation(
            f"oracle: read {count} bytes on connection {conn.connection_id} "
            f"but only {available} unread bytes were ever written"
        )
    ledger.record_read(conn, count)


def _checked_read(inst, env) -> None:
    conn = inst.vars["conn"]
    _account_read(env.ledger, conn, env.net.read(conn, env.rng.randint(1, MAX_CHUNK)))


def _checked_write(inst, env) -> None:
    conn = inst.vars["conn"]
    payload = env.rng.payload(env.rng.randint(1, MAX_CHUNK))
    written = env.net.write(conn, payload)
    if not 0 <= written <= len(payload):
        raise PropertyViolation(
            f"oracle: write returned {written} for a {len(payload)}-byte payload"
        )
    env.ledger.record_write(conn, written)


def _poll_then_read(inst, env) -> None:
    """Selector check plus readiness soundness: a READ-ready channel must
    immediately yield data or end-of-stream (exact on the simulated backend,
    error-freedom only on real sockets, where timing may interleave)."""
    net, v = env.net, inst.vars
    conn = v["conn"]
    ready = net.select_now(v["sel"])
    key = v["key"]
    if key not in ready or not (key.ready & READ):
        return
    result = net.read(conn, env.rng.randint(1, MAX_CHUNK))
    if net.is_sim and not result.is_eof and not result.data:
        raise PropertyViolation(
            f"oracle: selector reported READ on connection {conn.connection_id} "
            "but the channel had no data"
        )
    _account_read(env.ledger, conn, result)


def _close_conn(inst, env) -> None:
    env.net.close_conn(inst.vars["conn"])
    env.ledger.record_output_shut(inst.vars["conn"])


# ---------------------------------------------------------------------------
# Declaring a model
# ---------------------------------------------------------------------------

_P, _I, _O = E.PEER_CLOSED, E.INPUT_SHUTDOWN, E.OUTPUT_SHUTDOWN


def _declare(name: str, constructor, rows, peer_gone: str | None = None,
             states: list[str] | None = None) -> ModelSpec:
    """define_model() of edge rows under the expected-error rule (see the
    module docstring), in which PeerClosedError leads to ``peer_gone``."""
    transitions = [
        Transition(source, target, label, action, weight,
                   {kind: peer_gone if kind is _P else target for kind in kinds}, *branches)
        for source, target, label, action, weight, kinds, *branches in rows
    ]
    return define_model(name, rows[0][0], transitions, constructor, states=states)


# ---------------------------------------------------------------------------
# Worker model (server-side connection)
# ---------------------------------------------------------------------------


def _watch_conn(inst, env) -> None:
    """Make ``conn`` non-blocking and watch it for READ and WRITE."""
    net, v = env.net, inst.vars
    net.configure_blocking(v["conn"], False)
    v["sel"] = sel = net.open_selector()
    v["key"] = net.register(sel, v["conn"], READ | WRITE)


def _w_shut_in(inst, env):
    env.net.shutdown_input(inst.vars["conn"])


def _w_shut_out(inst, env):
    env.net.shutdown_output(inst.vars["conn"])
    env.ledger.record_output_shut(inst.vars["conn"])


def _read_probe(inst, env) -> None:
    env.net.read(inst.vars["conn"], 8)
    raise PropertyViolation("oracle: read succeeded after shutdownInput")


def _write_probe(inst, env) -> None:
    env.net.write(inst.vars["conn"], b"x")
    raise PropertyViolation("oracle: write succeeded after shutdownOutput")


# Reads, writes and selector checks in every live state; half-closes and
# close move between states; a read after shutdownInput and a write after
# shutdownOutput are probes.
WORKER = _declare("worker", _watch_conn, (
    # connected: everything is legal; traffic dominates, closes are rare
    ("connected", "connected", "read", _checked_read, 2.0, (_P,)),
    ("connected", "connected", "write", _checked_write, 2.0, (_P,)),
    ("connected", "connected", "checkSelector", _poll_then_read, 2.0, (_P,)),
    ("connected", "inShut", "shutdownInput", _w_shut_in, 0.5, ()),
    ("connected", "outShut", "shutdownOutput", _w_shut_out, 0.5, (_P,)),
    ("connected", "closed", "close", _close_conn, 0.5, ()),
    # input shut: reads must fail, writes still flow
    ("inShut", "inShut", "readAfterInShut", _read_probe, 1.0, (_I,)),
    ("inShut", "inShut", "writeInShut", _checked_write, 2.0, (_P,)),
    ("inShut", "inShut", "checkSelectorInShut", _poll_then_read, 1.0, ()),
    ("inShut", "bothShut", "shutdownOutputInShut", _w_shut_out, 0.5, (_P,)),
    ("inShut", "closed", "closeInShut", _close_conn, 0.5, ()),
    # output shut: writes must fail, reads still drain
    ("outShut", "outShut", "writeAfterOutShut", _write_probe, 1.0, (_O,)),
    ("outShut", "outShut", "readOutShut", _checked_read, 2.0, (_P,)),
    ("outShut", "outShut", "checkSelectorOutShut", _poll_then_read, 1.0, (_P,)),
    ("outShut", "bothShut", "shutdownInputOutShut", _w_shut_in, 0.5, ()),
    ("outShut", "closed", "closeOutShut", _close_conn, 0.5, ()),
    # both halves shut: only probes and close remain
    ("bothShut", "bothShut", "readBothShut", _read_probe, 1.0, (_I,)),
    ("bothShut", "bothShut", "writeBothShut", _write_probe, 1.0, (_O,)),
    ("bothShut", "bothShut", "checkSelectorBothShut", _poll_then_read, 1.0, ()),
    ("bothShut", "closed", "closeBothShut", _close_conn, 1.0, ()),
    # peer gone: the other endpoint reset or vanished; the channel may
    # additionally be half-shut on our own side, so those errors are
    # expected here as well
    ("peerGone", "peerGone", "readPeerGone", _checked_read, 1.0, (_P, _I)),
    ("peerGone", "peerGone", "writePeerGone", _checked_write, 1.0, (_P, _O)),
    ("peerGone", "peerGone", "checkSelectorPeerGone", _poll_then_read, 1.0, (_P,)),
    ("peerGone", "closed", "closePeerGone", _close_conn, 0.5, ()),
), peer_gone="peerGone")


# ---------------------------------------------------------------------------
# Client model
# ---------------------------------------------------------------------------


CLOSE_PROBABILITY = 0.1  # the client's chance to close at each mayClose


def _client_ctor(inst, env) -> None:
    inst.vars["conn"] = env.net.connect(inst.vars["port"])
    _watch_conn(inst, env)


def _c_may_close(inst, env) -> str:
    """Non-deterministic model choice: close this session or keep going."""
    if maybe(env.rng, CLOSE_PROBABILITY):
        _close_conn(inst, env)
        return "closed"
    return "stay"


# Connects in the constructor, then mostly reads, occasionally writes, and
# closes by a seeded coin flip.  A reset from the peer ends the model in a
# terminal state.
CLIENT = _declare("client", _client_ctor, (
    ("active", "active", "read", _checked_read, 1.0, (_P,)),
    ("active", "active", "write", _checked_write, 0.5, (_P,)),
    ("active", "active", "checkSelector", _poll_then_read, 1.0, (_P,)),
    ("active", "active", "mayClose", _c_may_close, 1.0, (),
     {"stay": "active", "closed": "closed"}),
), peer_gone="reset", states=["active", "closed", "reset"])


# ---------------------------------------------------------------------------
# Minimalist server model (and its deliberately broken variant)
# ---------------------------------------------------------------------------


def _bind_ctor(inst, env) -> None:
    server = env.net.open_server()
    port = env.net.bind(server)
    inst.vars.update(server=server, port=port)


def _session(inst, env) -> None:
    # Order is the whole point: the client's constructor connects, which
    # queues the connection, so the blocking accept below must succeed.
    env.launch(CLIENT, {"port": inst.vars["port"]})
    conn = env.net.accept(inst.vars["server"])
    if conn is None:
        raise PropertyViolation("oracle: blocking accept returned no connection")
    env.launch(WORKER, {"conn": conn})


def _session_misordered(inst, env) -> None:
    # Blocking accept before any client exists: a deadlock, converted into a
    # failure by the watchdog.
    conn = env.net.accept(inst.vars["server"])
    if conn is None:
        raise PropertyViolation("oracle: blocking accept returned no connection")
    env.launch(CLIENT, {"port": inst.vars["port"]})
    env.launch(WORKER, {"conn": conn})


def _close_server(inst, env) -> None:
    env.net.close_server(inst.vars["server"])


MINIMALIST = _declare("minimalist", _bind_ctor, (
    ("bound", "bound", "session", _session, 3.0, ()),
    ("bound", "closed", "close", _close_server, 1.0, ()),
))

MINIMALIST_MISORDERED = _declare("minimalist-misordered", _bind_ctor, (
    ("bound", "bound", "session", _session_misordered, 1.0, ()),
    ("bound", "closed", "close", _close_server, 0.1, ()),
))


# ---------------------------------------------------------------------------
# Detailed server main model (selector + non-blocking accept)
# ---------------------------------------------------------------------------


def _configure_selector(inst, env) -> None:
    net, v = env.net, inst.vars
    net.configure_blocking(v["server"], False)
    v["sel"] = sel = net.open_selector()
    v["key"] = net.register(sel, v["server"], ACCEPT)


def _sm_toggle_free(inst, env) -> None:
    # Before selector registration the mode may flip freely.
    server = inst.vars["server"]
    env.net.configure_blocking(server, not server.blocking)


def _sm_toggle_registered(inst, env) -> None:
    # Registered channels must refuse a switch to blocking mode.
    env.net.configure_blocking(inst.vars["server"], True)
    raise PropertyViolation("oracle: configureBlocking(true) succeeded on a registered channel")


def _sm_check_selector(inst, env) -> None:
    sel = inst.vars.get("sel")
    if sel is not None:
        env.net.select_now(sel)


def _sm_get_port(inst, env) -> None:
    if env.net.get_local_port(inst.vars["server"]) != inst.vars["port"]:
        raise PropertyViolation("oracle: bound port changed")


def _sm_bind_again(inst, env) -> None:
    env.net.bind(inst.vars["server"])
    raise PropertyViolation("oracle: second bind succeeded")


def _sm_start_accepting(inst, env) -> None:
    # A client for the upcoming accept; its constructor connects now, the
    # connection becomes acceptable after simulated network latency.
    env.launch(CLIENT, {"port": inst.vars["port"]})


def _sm_accept_try(inst, env) -> str:
    conn = env.net.accept(inst.vars["server"])
    if conn is None:
        return "nullResult"
    inst.vars["pending"] = conn
    return "connected"


def _sm_hand_off(inst, env) -> None:
    conn = inst.vars.pop("pending")
    env.launch(WORKER, {"conn": conn})
    env.launch(CLIENT, {"port": inst.vars["port"]})


def _sm_accept_closed(inst, env) -> None:
    env.net.accept(inst.vars["server"])
    raise PropertyViolation("oracle: accept succeeded on a closed server")


def _sm_port_closed(inst, env) -> None:
    env.net.get_local_port(inst.vars["server"])
    raise PropertyViolation("oracle: getLocalPort succeeded on a closed server")


# bound -> selectorConfigured -> accepting <-> connected, and close edges to a
# terminal region.  Every live state has toggleBlocking, checkSelector and
# getLocalPort self-loops; probes on the closed channel land in "err".
_BLOCKING = (E.ILLEGAL_BLOCKING_MODE,)
SERVER_MAIN = _declare("server-main", _bind_ctor, (
    ("bound", "selectorConfigured", "configureSelector", _configure_selector, 1.0, ()),
    ("bound", "bound", "toggleBlockingBound", _sm_toggle_free, 1.0, ()),
    ("bound", "bound", "checkSelectorBound", _sm_check_selector, 1.0, ()),
    ("bound", "bound", "getLocalPortBound", _sm_get_port, 1.0, ()),
    ("bound", "bound", "bindAgain", _sm_bind_again, 1.0, (E.ALREADY_BOUND,)),
    ("bound", "closed", "closeFromBound", _close_server, 0.3, ()),
    ("selectorConfigured", "accepting", "startAccepting", _sm_start_accepting, 2.0, ()),
    ("selectorConfigured", "selectorConfigured", "toggleBlockingConfigured",
     _sm_toggle_registered, 1.0, _BLOCKING),
    ("selectorConfigured", "selectorConfigured", "checkSelectorConfigured",
     _sm_check_selector, 1.0, ()),
    ("selectorConfigured", "selectorConfigured", "getLocalPortConfigured",
     _sm_get_port, 1.0, ()),
    ("selectorConfigured", "closed", "closeFromConfigured", _close_server, 0.3, ()),
    ("accepting", "accepting", "acceptTry", _sm_accept_try, 3.0, (),
     {"nullResult": "accepting", "connected": "connected"}),
    ("accepting", "accepting", "toggleBlockingAccepting", _sm_toggle_registered, 1.0, _BLOCKING),
    ("accepting", "accepting", "checkSelectorAccepting", _sm_check_selector, 1.0, ()),
    ("accepting", "accepting", "getLocalPortAccepting", _sm_get_port, 1.0, ()),
    ("accepting", "closed", "closeFromAccepting", _close_server, 0.3, ()),
    ("connected", "accepting", "handOff", _sm_hand_off, 3.0, ()),
    ("connected", "connected", "toggleBlockingConnected", _sm_toggle_registered, 1.0, _BLOCKING),
    ("connected", "connected", "checkSelectorConnected", _sm_check_selector, 1.0, ()),
    ("connected", "connected", "getLocalPortConnected", _sm_get_port, 1.0, ()),
    ("connected", "closed", "closeFromConnected", _close_server, 0.3, ()),
    ("closed", "err", "acceptAfterClose", _sm_accept_closed, 1.0, (E.CLOSED_CHANNEL,)),
    ("closed", "err", "getLocalPortAfterClose", _sm_port_closed, 1.0, (E.CLOSED_CHANNEL,)),
))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

MODEL_REGISTRY: dict[str, ModelSpec] = {
    "minimalist": MINIMALIST,
    "server-main": SERVER_MAIN,
    "worker": WORKER,
    "client": CLIENT,
    "minimalist-misordered": MINIMALIST_MISORDERED,
}

# Roots are self-contained; worker and client need a live channel/port and
# exist standalone only for DOT export.
ROOT_MODELS = ("minimalist", "server-main", "minimalist-misordered")
