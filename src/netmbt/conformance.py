"""Scripted behavioral comparison between the simulated and real backends.

One ordered list of probes runs against each backend (simulated at zero
latency, real over loopback); every probe's outcome is normalized to a
string and compared position by position.  The script exercises every
classified ErrorKind plus the data-path behaviors the models rely on:
partial reads by capacity, half-close independence, end-of-stream delivery,
FIFO accept order, graceful-close and reset patterns.

Probes deliberately avoid OS-ambiguous corners (platform-dependent reset
residue, data races) - each group starts from a known channel state and
calls settle() before observing cross-endpoint effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .adapter import Interest, NetworkBackend, ReadResult
from .errors import AdapterError
from .realnet import RealBackend
from .rng import SeededRng
from .simnet import LatencyModel, SimBackend

Probe = tuple[str, Callable[[NetworkBackend, dict], object]]


def _normalize(value: object) -> str:
    if isinstance(value, ReadResult):
        return "eof" if value.is_eof else f"bytes:{value.data.hex()}"
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, str):
        return value
    return f"obj:{type(value).__name__}"


def _run_probe(probe: Probe, net: NetworkBackend, env: dict) -> str:
    _, fn = probe
    try:
        return _normalize(fn(net, env))
    except AdapterError as exc:
        return f"error:{exc.kind.value}"
    except Exception as exc:  # anything else is itself a divergence signal
        return f"unexpected:{type(exc).__name__}"


def build_probes() -> list[Probe]:
    probes: list[Probe] = []

    def probe(description: str):
        def register(fn):
            probes.append((description, fn))
            return fn
        return register

    # -- server lifecycle ---------------------------------------------------

    @probe("openServer")
    def _(net, env):
        env["srv"] = net.open_server()
        return "ok"

    @probe("getLocalPort before bind")
    def _(net, env):
        return net.get_local_port(env["srv"])

    @probe("accept before bind")
    def _(net, env):
        return net.accept(env["srv"])

    @probe("bind to an ephemeral port")
    def _(net, env):
        env["port"] = net.bind(env["srv"], 0)
        return "port" if env["port"] > 0 else "no-port"

    @probe("getLocalPort equals the bound port")
    def _(net, env):
        return net.get_local_port(env["srv"]) == env["port"]

    @probe("bind again")
    def _(net, env):
        return net.bind(env["srv"], env["port"])

    @probe("configure server non-blocking")
    def _(net, env):
        net.configure_blocking(env["srv"], False)
        return "ok"

    @probe("register server for ACCEPT")
    def _(net, env):
        env["sel"] = net.open_selector()
        env["ksrv"] = net.register(env["sel"], env["srv"], Interest.ACCEPT)
        return "ok"

    @probe("selectNow with no pending connection")
    def _(net, env):
        ready = net.select_now(env["sel"])
        return "ready" if env["ksrv"] in ready else "not-ready"

    @probe("connect to the bound port")
    def _(net, env):
        env["cli"] = net.connect(env["port"])
        return "ok"

    @probe("selectNow with a queued connection")
    def _(net, env):
        net.settle()
        ready = net.select_now(env["sel"])
        return "ready" if env["ksrv"] in ready else "not-ready"

    @probe("non-blocking accept takes the queued connection")
    def _(net, env):
        conn = net.accept(env["srv"])
        env["srvconn"] = conn
        return "none" if conn is None else "ok"

    @probe("selectNow after the backlog drained")
    def _(net, env):
        ready = net.select_now(env["sel"])
        return "ready" if env["ksrv"] in ready else "not-ready"

    @probe("non-blocking accept on an empty backlog")
    def _(net, env):
        return net.accept(env["srv"])

    # -- blocking-mode rules --------------------------------------------------

    @probe("register a blocking connection")
    def _(net, env):
        env["sel2"] = net.open_selector()
        return net.register(env["sel2"], env["srvconn"], Interest.READ)

    @probe("configure both connections non-blocking")
    def _(net, env):
        net.configure_blocking(env["srvconn"], False)
        net.configure_blocking(env["cli"], False)
        return "ok"

    @probe("register connection for READ and WRITE")
    def _(net, env):
        env["kconn"] = net.register(env["sel2"], env["srvconn"], Interest.READ | Interest.WRITE)
        return "ok"

    @probe("selectNow: idle connection is writable, not readable")
    def _(net, env):
        net.select_now(env["sel2"])
        key = env["kconn"]
        readable = bool(key.ready & Interest.READ)
        writable = bool(key.ready & Interest.WRITE)
        return f"read={readable} write={writable}"

    @probe("configureBlocking(true) while registered")
    def _(net, env):
        net.configure_blocking(env["srvconn"], True)
        return "ok"

    # -- data path ---------------------------------------------------------

    @probe("client writes 3 bytes")
    def _(net, env):
        return net.write(env["cli"], b"abc")

    @probe("selectNow: data pending means READ-ready")
    def _(net, env):
        net.settle()
        net.select_now(env["sel2"])
        return "ready" if env["kconn"].ready & Interest.READ else "not-ready"

    @probe("read with capacity 0")
    def _(net, env):
        return net.read(env["srvconn"], 0)

    @probe("read with capacity 2 returns a prefix")
    def _(net, env):
        return net.read(env["srvconn"], 2)

    @probe("read drains the rest")
    def _(net, env):
        return net.read(env["srvconn"], 16)

    @probe("non-blocking read on an empty channel")
    def _(net, env):
        return net.read(env["srvconn"], 16)

    # -- half-close --------------------------------------------------------

    @probe("shutdownInput on the server connection")
    def _(net, env):
        net.shutdown_input(env["srvconn"])
        return "ok"

    @probe("read after shutdownInput")
    def _(net, env):
        return net.read(env["srvconn"], 8)

    @probe("shutdownInput is idempotent")
    def _(net, env):
        net.shutdown_input(env["srvconn"])
        return "ok"

    @probe("client data lands while the server input is shut")
    def _(net, env):
        count = net.write(env["cli"], b"zz")
        net.settle()
        return count

    @probe("selectNow: READ suppressed after own shutdownInput")
    def _(net, env):
        net.select_now(env["sel2"])
        return "ready" if env["kconn"].ready & Interest.READ else "not-ready"

    @probe("write still flows with input shut")
    def _(net, env):
        return net.write(env["srvconn"], b"xyz")

    @probe("client reads the server's bytes")
    def _(net, env):
        net.settle()
        return net.read(env["cli"], 16)

    @probe("shutdownOutput on the server connection")
    def _(net, env):
        net.shutdown_output(env["srvconn"])
        return "ok"

    @probe("write after shutdownOutput")
    def _(net, env):
        return net.write(env["srvconn"], b"more")

    @probe("shutdownOutput is idempotent")
    def _(net, env):
        net.shutdown_output(env["srvconn"])
        return "ok"

    @probe("client drains to end-of-stream")
    def _(net, env):
        net.settle()
        return net.read(env["cli"], 16)

    @probe("end-of-stream is sticky")
    def _(net, env):
        return net.read(env["cli"], 16)

    # -- closing a connection ------------------------------------------------

    @probe("close the server connection")
    def _(net, env):
        net.close_conn(env["srvconn"])
        return "ok"

    @probe("read on a closed connection")
    def _(net, env):
        return net.read(env["srvconn"], 8)

    @probe("write on a closed connection")
    def _(net, env):
        return net.write(env["srvconn"], b"x")

    @probe("shutdownInput on a closed connection")
    def _(net, env):
        net.shutdown_input(env["srvconn"])
        return "ok"

    @probe("shutdownOutput on a closed connection")
    def _(net, env):
        net.shutdown_output(env["srvconn"])
        return "ok"

    @probe("configureBlocking on a closed connection")
    def _(net, env):
        net.configure_blocking(env["srvconn"], False)
        return "ok"

    @probe("close is idempotent")
    def _(net, env):
        net.close_conn(env["srvconn"])
        return "ok"

    # -- reset pattern: close with unread data --------------------------------

    @probe("fresh session for the reset probes")
    def _(net, env):
        env["cli2"] = net.connect(env["port"])
        net.settle()
        env["sc2"] = net.accept(env["srv"])
        return "none" if env["sc2"] is None else "ok"

    @probe("server writes to the second client")
    def _(net, env):
        return net.write(env["sc2"], b"data")

    @probe("client closes with unread data (reset)")
    def _(net, env):
        net.settle()
        net.close_conn(env["cli2"])
        net.settle()
        return "ok"

    @probe("read after the peer reset")
    def _(net, env):
        return net.read(env["sc2"], 8)

    @probe("write after the peer reset")
    def _(net, env):
        return net.write(env["sc2"], b"x")

    # -- graceful close: swallow one write, fail the next ----------------------

    @probe("fresh session for the graceful-close probes")
    def _(net, env):
        env["cli3"] = net.connect(env["port"])
        net.settle()
        env["sc3"] = net.accept(env["srv"])
        return "none" if env["sc3"] is None else "ok"

    @probe("client closes gracefully")
    def _(net, env):
        net.close_conn(env["cli3"])
        net.settle()
        return "ok"

    @probe("server reads end-of-stream after graceful close")
    def _(net, env):
        return net.read(env["sc3"], 8)

    @probe("first write after graceful close is accepted")
    def _(net, env):
        return net.write(env["sc3"], b"hi")

    @probe("second write after graceful close fails")
    def _(net, env):
        net.settle()
        return net.write(env["sc3"], b"again")

    # -- blocking ops and FIFO accept order ------------------------------------

    @probe("queue two clients")
    def _(net, env):
        env["c_a"] = net.connect(env["port"])
        env["c_b"] = net.connect(env["port"])
        net.settle()
        return "ok"

    @probe("deregister the server key")
    def _(net, env):
        net.deregister(env["sel"], env["ksrv"])
        ready = net.select_now(env["sel"])
        return "ready" if env["ksrv"] in ready else "gone"

    @probe("configure server blocking again")
    def _(net, env):
        net.configure_blocking(env["srv"], True)
        return "ok"

    @probe("blocking accept returns the first client")
    def _(net, env):
        env["a_a"] = net.accept(env["srv"])
        return "none" if env["a_a"] is None else "ok"

    @probe("accepted connection pairs FIFO with the first connect")
    def _(net, env):
        net.write(env["c_a"], b"A")
        net.settle()
        return net.read(env["a_a"], 4)

    @probe("blocking accept returns the second client")
    def _(net, env):
        env["a_b"] = net.accept(env["srv"])
        return "none" if env["a_b"] is None else "ok"

    @probe("blocking read returns delivered data")
    def _(net, env):
        net.write(env["c_b"], b"B")
        net.settle()
        return net.read(env["a_b"], 4)

    # -- closing the server ----------------------------------------------------

    @probe("close the server")
    def _(net, env):
        net.close_server(env["srv"])
        return "ok"

    @probe("accept after closeServer")
    def _(net, env):
        return net.accept(env["srv"])

    @probe("bind after closeServer")
    def _(net, env):
        return net.bind(env["srv"], env["port"])

    @probe("getLocalPort after closeServer")
    def _(net, env):
        return net.get_local_port(env["srv"])

    @probe("configureBlocking after closeServer")
    def _(net, env):
        return net.configure_blocking(env["srv"], False)

    @probe("closeServer is idempotent")
    def _(net, env):
        net.close_server(env["srv"])
        return "ok"

    @probe("connect to the closed port")
    def _(net, env):
        return net.connect(env["port"])

    return probes


@dataclass
class ProbeResult:
    description: str
    sim_outcome: str
    real_outcome: str

    @property
    def match(self) -> bool:
        return self.sim_outcome == self.real_outcome


@dataclass
class ConformanceReport:
    results: list[ProbeResult]

    @property
    def divergences(self) -> list[ProbeResult]:
        return [r for r in self.results if not r.match]

    @property
    def probe_count(self) -> int:
        return len(self.results)


def run_conformance() -> ConformanceReport:
    """Run the full script on both backends and compare outcome by outcome."""
    probes = build_probes()
    sim = SimBackend(SeededRng(0), LatencyModel.zero())
    real = RealBackend()
    sim_env: dict = {}
    real_env: dict = {}
    results = []
    try:
        for probe in probes:
            sim_out = _run_probe(probe, sim, sim_env)
            real_out = _run_probe(probe, real, real_env)
            results.append(ProbeResult(probe[0], sim_out, real_out))
    finally:
        sim.force_close_all()
        real.force_close_all()
    return ConformanceReport(results)
