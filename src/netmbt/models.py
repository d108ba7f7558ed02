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

Each state carries a fixed set of self-transitions (traffic and probes) and
expected-exception edges; the adapter's (state, operation) legality table is
the authority for which calls must fail where.
"""

from __future__ import annotations

from .adapter import READ, ConnChannel, Interest, ReadResult
from .efsm import Action, ActionContext, ModelSpec, Transition, define_model
from .errors import ErrorKind

E = ErrorKind

# Payload and read-capacity sizes are draws on [1, MAX_CHUNK].
MAX_CHUNK = 64


class SideRecord:
    """One side's traffic on one connection, as the oracle accounts it."""

    __slots__ = ("wrote", "read", "output_shut", "saw_eof")

    def __init__(self):
        self.wrote = 0
        self.read = 0
        self.output_shut = False
        self.saw_eof = False


_PEER_ROLE = {"client": "server", "server": "client"}


class OracleLedger:
    """Model-side view of every connection's byte traffic.

    Keyed by the backend-assigned connection id; each entry maps a role
    ("client", "server") to that side's SideRecord.  ``touches`` records
    which instance touched which entry, feeding the locality invariant check.
    """

    __slots__ = ("entries", "touches")

    def __init__(self):
        self.entries: dict[int, dict[str, SideRecord]] = {}
        self.touches: set[tuple[int, str, int]] = set()  # (conn id, side, instance id)

    def _entry(self, conn: ConnChannel, instance_id: int) -> dict[str, SideRecord]:
        entry = self.entries.get(conn.connection_id)
        if entry is None:
            entry = {"client": SideRecord(), "server": SideRecord()}
            self.entries[conn.connection_id] = entry
        self.touches.add((conn.connection_id, conn.role, instance_id))
        return entry

    def record_write(self, conn: ConnChannel, instance_id: int, count: int) -> None:
        self._entry(conn, instance_id)[conn.role].wrote += count

    def record_read(self, conn: ConnChannel, instance_id: int, count: int) -> None:
        self._entry(conn, instance_id)[conn.role].read += count

    def record_output_shut(self, conn: ConnChannel, instance_id: int) -> None:
        self._entry(conn, instance_id)[conn.role].output_shut = True

    def record_eof(self, conn: ConnChannel, instance_id: int) -> None:
        self._entry(conn, instance_id)[conn.role].saw_eof = True

    def available_to(self, conn: ConnChannel, instance_id: int) -> int:
        """Bytes the holder of ``conn`` may still legally read."""
        e = self._entry(conn, instance_id)
        return e[_PEER_ROLE[conn.role]].wrote - e[conn.role].read

    def peer_output_shut(self, conn: ConnChannel, instance_id: int) -> bool:
        return self._entry(conn, instance_id)[_PEER_ROLE[conn.role]].output_shut


# ---------------------------------------------------------------------------
# Connection action bodies, shared by the worker and client models
# ---------------------------------------------------------------------------


def _account_read(ctx: ActionContext, conn: ConnChannel, result: ReadResult) -> None:
    """The latency-tolerant byte-accounting oracle for one read result."""
    ledger = ctx.env.ledger
    if result.is_eof:
        ctx.require(
            ledger.peer_output_shut(conn, ctx.instance.id),
            f"oracle: end-of-stream on connection {conn.connection_id} "
            "but the peer never shut its output",
        )
        ledger.record_eof(conn, ctx.instance.id)
        return
    available = ledger.available_to(conn, ctx.instance.id)
    ctx.require(
        result.count <= available,
        f"oracle: read {result.count} bytes on connection {conn.connection_id} "
        f"but only {available} unread bytes were ever written",
    )
    ledger.record_read(conn, ctx.instance.id, result.count)


def _checked_read(ctx: ActionContext) -> None:
    conn = ctx.vars["conn"]
    _account_read(ctx, conn, ctx.env.net.read(conn, ctx.rng.randint(1, MAX_CHUNK)))


def _checked_write(ctx: ActionContext) -> None:
    conn = ctx.vars["conn"]
    payload = ctx.rng.payload(ctx.rng.randint(1, MAX_CHUNK))
    written = ctx.env.net.write(conn, payload)
    ctx.require(
        0 <= written <= len(payload),
        f"oracle: write returned {written} for a {len(payload)}-byte payload",
    )
    ctx.env.ledger.record_write(conn, ctx.instance.id, written)


def _poll_then_read(ctx: ActionContext) -> None:
    """Selector check plus readiness soundness: a READ-ready channel must
    immediately yield data or end-of-stream (exact on the simulated backend,
    error-freedom only on real sockets, where timing may interleave)."""
    net = ctx.env.net
    conn = ctx.vars["conn"]
    ready = net.select_now(ctx.vars["sel"])
    key = ctx.vars["key"]
    if key not in ready or not (key.ready & READ):
        return
    result = net.read(conn, ctx.rng.randint(1, MAX_CHUNK))
    if net.is_sim and not result.is_eof:
        ctx.require(
            result.count >= 1,
            f"oracle: selector reported READ on connection {conn.connection_id} "
            "but the channel had no data",
        )
    _account_read(ctx, conn, result)


def _close_conn(ctx: ActionContext) -> None:
    ctx.env.net.close_conn(ctx.vars["conn"])
    ctx.env.ledger.record_output_shut(ctx.vars["conn"], ctx.instance.id)


def _expect_failure(op, message: str):
    """Action body for the red probe edges: the call must raise."""

    def run(ctx: ActionContext) -> None:
        op(ctx)
        ctx.require(False, message)

    return Action(run)


# ---------------------------------------------------------------------------
# Worker model (server-side connection)
# ---------------------------------------------------------------------------


def _watch_conn(ctx: ActionContext) -> None:
    """Make ``conn`` non-blocking and watch it for READ and WRITE."""
    net = ctx.env.net
    conn = ctx.vars["conn"]
    net.configure_blocking(conn, False)
    sel = net.open_selector()
    ctx.vars["sel"] = sel
    ctx.vars["key"] = net.register(sel, conn, Interest.READ | Interest.WRITE)


def _w_shut_in(ctx):
    ctx.env.net.shutdown_input(ctx.vars["conn"])


def _w_shut_out(ctx):
    ctx.env.net.shutdown_output(ctx.vars["conn"])
    ctx.env.ledger.record_output_shut(ctx.vars["conn"], ctx.instance.id)


def worker_model() -> ModelSpec:
    """Server-side connection model: reads, writes and selector checks in
    every live state; half-closes and close move between states; operations
    that must fail after a (partial) close are expected-exception probes."""
    peer_gone = {E.PEER_CLOSED: "peerGone"}

    def t(source, target, label, fn, weight=1.0, overrides=None):
        return Transition(source, target, label, Action(fn), weight=weight,
                          exception_overrides=dict(overrides or {}))

    transitions = [
        # connected: everything is legal; traffic dominates, closes are rare
        t("connected", "connected", "read", _checked_read, weight=2.0, overrides=peer_gone),
        t("connected", "connected", "write", _checked_write, weight=2.0, overrides=peer_gone),
        t("connected", "connected", "checkSelector", _poll_then_read, weight=2.0,
          overrides=peer_gone),
        t("connected", "inShut", "shutdownInput", _w_shut_in, weight=0.5),
        t("connected", "outShut", "shutdownOutput", _w_shut_out, weight=0.5,
          overrides=peer_gone),
        t("connected", "closed", "close", _close_conn, weight=0.5),
        # input shut: reads must fail, writes still flow
        Transition(
            "inShut", "inShut", "readAfterInShut",
            _expect_failure(lambda c: c.env.net.read(c.vars["conn"], 8),
                            "oracle: read succeeded after shutdownInput"),
            exception_overrides={E.INPUT_SHUTDOWN: "inShut"},
        ),
        t("inShut", "inShut", "writeInShut", _checked_write, weight=2.0, overrides=peer_gone),
        t("inShut", "inShut", "checkSelectorInShut", _poll_then_read, overrides=peer_gone),
        t("inShut", "bothShut", "shutdownOutputInShut", _w_shut_out, weight=0.5,
          overrides=peer_gone),
        t("inShut", "closed", "closeInShut", _close_conn, weight=0.5),
        # output shut: writes must fail, reads still drain
        Transition(
            "outShut", "outShut", "writeAfterOutShut",
            _expect_failure(lambda c: c.env.net.write(c.vars["conn"], b"x"),
                            "oracle: write succeeded after shutdownOutput"),
            exception_overrides={E.OUTPUT_SHUTDOWN: "outShut"},
        ),
        t("outShut", "outShut", "readOutShut", _checked_read, weight=2.0, overrides=peer_gone),
        t("outShut", "outShut", "checkSelectorOutShut", _poll_then_read, overrides=peer_gone),
        t("outShut", "bothShut", "shutdownInputOutShut", _w_shut_in, weight=0.5),
        t("outShut", "closed", "closeOutShut", _close_conn, weight=0.5),
        # both halves shut: only probes and close remain
        Transition(
            "bothShut", "bothShut", "readBothShut",
            _expect_failure(lambda c: c.env.net.read(c.vars["conn"], 8),
                            "oracle: read succeeded after shutdownInput"),
            exception_overrides={E.INPUT_SHUTDOWN: "bothShut"},
        ),
        Transition(
            "bothShut", "bothShut", "writeBothShut",
            _expect_failure(lambda c: c.env.net.write(c.vars["conn"], b"x"),
                            "oracle: write succeeded after shutdownOutput"),
            exception_overrides={E.OUTPUT_SHUTDOWN: "bothShut"},
        ),
        t("bothShut", "bothShut", "checkSelectorBothShut", _poll_then_read),
        t("bothShut", "closed", "closeBothShut", _close_conn),
        # peer gone: the other endpoint reset or vanished; the channel may
        # additionally be half-shut on our own side, so those errors are
        # expected here as well
        t("peerGone", "peerGone", "readPeerGone", _checked_read,
          overrides={E.PEER_CLOSED: "peerGone", E.INPUT_SHUTDOWN: "peerGone"}),
        t("peerGone", "peerGone", "writePeerGone", _checked_write,
          overrides={E.PEER_CLOSED: "peerGone", E.OUTPUT_SHUTDOWN: "peerGone"}),
        t("peerGone", "peerGone", "checkSelectorPeerGone", _poll_then_read,
          overrides=peer_gone),
        t("peerGone", "closed", "closePeerGone", _close_conn, weight=0.5),
    ]
    return define_model("worker", "connected", transitions, Action(_watch_conn))


# ---------------------------------------------------------------------------
# Client model
# ---------------------------------------------------------------------------


def _client_ctor(ctx: ActionContext) -> None:
    ctx.vars["conn"] = ctx.env.net.connect(ctx.vars["port"])
    _watch_conn(ctx)


def _c_may_close(ctx) -> str:
    """Non-deterministic model choice: close this session or keep going."""
    if ctx.maybe(ctx.env.p_close):
        _close_conn(ctx)
        return "closed"
    return "stay"


def client_model() -> ModelSpec:
    """Client connection: connects in the constructor, then mostly reads,
    occasionally writes, and closes by a seeded coin flip.  A reset from the
    peer ends the model in a terminal state."""
    to_reset = {E.PEER_CLOSED: "reset"}
    transitions = [
        Transition("active", "active", "read", Action(_checked_read),
                   exception_overrides=to_reset),
        Transition("active", "active", "write", Action(_checked_write), weight=0.5,
                   exception_overrides=to_reset),
        Transition("active", "active", "checkSelector", Action(_poll_then_read),
                   exception_overrides=to_reset),
        Transition("active", "active", "mayClose",
                   Action(_c_may_close, frozenset({"stay", "closed"})),
                   outcome_branches={"stay": "active", "closed": "closed"}),
    ]
    return define_model("client", "active", transitions, Action(_client_ctor),
                        states=["active", "closed", "reset"])


# ---------------------------------------------------------------------------
# Minimalist server model (and its deliberately broken variant)
# ---------------------------------------------------------------------------


def _bind_ctor(ctx: ActionContext) -> None:
    net = ctx.env.net
    server = net.open_server()
    port = ctx.env.ports.acquire()
    net.bind(server, port)
    ctx.vars["server"] = server
    ctx.vars["port"] = port
    ctx.vars["blocking"] = True


def _session(ctx: ActionContext) -> None:
    # Order is the whole point: the client's constructor connects, which
    # queues the connection, so the blocking accept below must succeed.
    net = ctx.env.net
    ctx.launch(CLIENT, {"port": ctx.vars["port"]})
    conn = net.accept(ctx.vars["server"])
    ctx.require(conn is not None, "oracle: blocking accept returned no connection")
    ctx.launch(WORKER, {"conn": conn})


def _session_misordered(ctx: ActionContext) -> None:
    # Blocking accept before any client exists: a deadlock, converted into a
    # failure by the watchdog.
    net = ctx.env.net
    conn = net.accept(ctx.vars["server"])
    ctx.require(conn is not None, "oracle: blocking accept returned no connection")
    ctx.launch(CLIENT, {"port": ctx.vars["port"]})
    ctx.launch(WORKER, {"conn": conn})


def _close_server(ctx: ActionContext) -> None:
    ctx.env.net.close_server(ctx.vars["server"])


def minimalist_model() -> ModelSpec:
    transitions = [
        Transition("bound", "bound", "session", Action(_session), weight=3.0),
        Transition("bound", "closed", "close", Action(_close_server)),
    ]
    return define_model("minimalist", "bound", transitions, Action(_bind_ctor))


def minimalist_misordered_model() -> ModelSpec:
    transitions = [
        Transition("bound", "bound", "session", Action(_session_misordered)),
        Transition("bound", "closed", "close", Action(_close_server), weight=0.1),
    ]
    return define_model("minimalist-misordered", "bound", transitions, Action(_bind_ctor))


# ---------------------------------------------------------------------------
# Detailed server main model (selector + non-blocking accept)
# ---------------------------------------------------------------------------


def _configure_selector(ctx: ActionContext) -> None:
    net = ctx.env.net
    server = ctx.vars["server"]
    net.configure_blocking(server, False)
    ctx.vars["blocking"] = False
    sel = net.open_selector()
    ctx.vars["sel"] = sel
    ctx.vars["key"] = net.register(sel, server, Interest.ACCEPT)


def _sm_toggle_free(ctx: ActionContext) -> None:
    # Before selector registration the mode may flip freely.
    net = ctx.env.net
    target = not ctx.vars["blocking"]
    net.configure_blocking(ctx.vars["server"], target)
    ctx.vars["blocking"] = target


def _sm_toggle_registered(ctx: ActionContext) -> None:
    # Registered channels must refuse a switch to blocking mode.
    ctx.env.net.configure_blocking(ctx.vars["server"], True)
    ctx.require(False, "oracle: configureBlocking(true) succeeded on a registered channel")


def _sm_check_selector(ctx: ActionContext) -> None:
    sel = ctx.vars.get("sel")
    if sel is not None:
        ctx.env.net.select_now(sel)


def _sm_get_port(ctx: ActionContext) -> None:
    port = ctx.env.net.get_local_port(ctx.vars["server"])
    ctx.require(port == ctx.vars["port"], "oracle: bound port changed")


def _sm_bind_again(ctx: ActionContext) -> None:
    ctx.env.net.bind(ctx.vars["server"], ctx.vars["port"])
    ctx.require(False, "oracle: second bind succeeded")


def _sm_start_accepting(ctx: ActionContext) -> None:
    # A client for the upcoming accept; its constructor connects now, the
    # connection becomes acceptable after simulated network latency.
    ctx.launch(CLIENT, {"port": ctx.vars["port"]})


def _sm_accept_try(ctx: ActionContext) -> str:
    conn = ctx.env.net.accept(ctx.vars["server"])
    if conn is None:
        return "nullResult"
    ctx.vars["pending"] = conn
    ctx.vars["accepted"] = ctx.vars.get("accepted", 0) + 1
    return "connected"


def _sm_hand_off(ctx: ActionContext) -> None:
    conn = ctx.vars.pop("pending")
    ctx.launch(WORKER, {"conn": conn})
    ctx.launch(CLIENT, {"port": ctx.vars["port"]})


def _sm_accept_closed(ctx: ActionContext) -> None:
    ctx.env.net.accept(ctx.vars["server"])
    ctx.require(False, "oracle: accept succeeded on a closed server")


def _sm_port_closed(ctx: ActionContext) -> None:
    ctx.env.net.get_local_port(ctx.vars["server"])
    ctx.require(False, "oracle: getLocalPort succeeded on a closed server")


def server_main_model() -> ModelSpec:
    """Selector-based server main model.

    bound -> selectorConfigured -> accepting <-> connected, with close edges
    to a terminal region.  Every live state carries toggleBlocking,
    checkSelector and getLocalPort self-transitions; expected-exception
    probes loop back to the same state, and probes on the closed channel
    land in "err".
    """

    def self_probes(state, suffix, toggle_fn, toggle_override):
        return [
            Transition(state, state, f"toggleBlocking{suffix}", Action(toggle_fn),
                       exception_overrides=toggle_override),
            Transition(state, state, f"checkSelector{suffix}", Action(_sm_check_selector)),
            Transition(state, state, f"getLocalPort{suffix}", Action(_sm_get_port)),
        ]

    transitions = [
        Transition("bound", "selectorConfigured", "configureSelector",
                   Action(_configure_selector)),
        *self_probes("bound", "Bound", _sm_toggle_free, {}),
        Transition("bound", "bound", "bindAgain", Action(_sm_bind_again),
                   exception_overrides={E.ALREADY_BOUND: "bound"}),
        Transition("bound", "closed", "closeFromBound", Action(_close_server),
                   weight=0.3),
        Transition("selectorConfigured", "accepting", "startAccepting",
                   Action(_sm_start_accepting), weight=2.0),
        *self_probes("selectorConfigured", "Configured", _sm_toggle_registered,
                     {E.ILLEGAL_BLOCKING_MODE: "selectorConfigured"}),
        Transition("selectorConfigured", "closed", "closeFromConfigured",
                   Action(_close_server), weight=0.3),
        Transition("accepting", "accepting", "acceptTry",
                   Action(_sm_accept_try, frozenset({"nullResult", "connected"})),
                   weight=3.0,
                   outcome_branches={"nullResult": "accepting", "connected": "connected"}),
        *self_probes("accepting", "Accepting", _sm_toggle_registered,
                     {E.ILLEGAL_BLOCKING_MODE: "accepting"}),
        Transition("accepting", "closed", "closeFromAccepting", Action(_close_server),
                   weight=0.3),
        Transition("connected", "accepting", "handOff", Action(_sm_hand_off), weight=3.0),
        *self_probes("connected", "Connected", _sm_toggle_registered,
                     {E.ILLEGAL_BLOCKING_MODE: "connected"}),
        Transition("connected", "closed", "closeFromConnected", Action(_close_server),
                   weight=0.3),
        Transition("closed", "err", "acceptAfterClose", Action(_sm_accept_closed),
                   exception_overrides={E.CLOSED_CHANNEL: "err"}),
        Transition("closed", "err", "getLocalPortAfterClose", Action(_sm_port_closed),
                   exception_overrides={E.CLOSED_CHANNEL: "err"}),
    ]
    return define_model("server-main", "bound", transitions, Action(_bind_ctor))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

WORKER = worker_model()
CLIENT = client_model()
MINIMALIST = minimalist_model()
MINIMALIST_MISORDERED = minimalist_misordered_model()
SERVER_MAIN = server_main_model()

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

CORE_MODELS = ("minimalist", "server-main", "worker", "client")
