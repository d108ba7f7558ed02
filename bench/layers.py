"""Per-layer spans for netmbt, recorded from outside the package.

Run as a script, this module is a drop-in replacement for
``python -m netmbt``: it wraps the functions and methods on the run path,
runs the real CLI, and on exit writes every span it recorded next to a
small JSON summary.  Nothing under ``src/`` changes.

    python3 bench/layers.py SPANS_PREFIX run --model server-main --tests 100

writes ``SPANS_PREFIX.json`` (names, counters, import time) and
``SPANS_PREFIX.bin`` (four int64 columns per span: name index, start ns,
end ns, parent span index or -1).

Where the wrappers go matters.  ``explorer`` imports the ``efsm`` functions
by name, and ``cli`` imports ``run_suite``, ``parse_traces``, ``replay`` and
``serialize_trace`` by name, so those are patched in the namespaces that
call them; patching ``efsm.*`` alone would record nothing.  Methods are
patched on their classes (``SeededRng``, ``OracleLedger``,
``NetworkBackend``, ``SimBackend``, ``RealBackend``, ``PortPool``), which
every instance and subclass picks up.  A wrapper only times and counts: it
passes arguments and results through untouched, so no rng draw moves.
"""

from __future__ import annotations

import array
import json
import sys
import time

_clock = time.perf_counter_ns

# Each entry: (span name, owner attribute path, attribute).  Owners are
# resolved after netmbt is imported.
_FUNCTIONS = [
    ("explorer.pick_next", "explorer", "pick_next"),
    ("explorer.enabled_transitions", "explorer", "enabled_transitions"),
    ("efsm.fire_transition", "explorer", "fire_transition"),
    ("efsm.instantiate", "explorer", "instantiate"),
    ("explorer.run_single_test", "explorer", "run_single_test"),
    ("explorer.serialize_trace", "explorer", "serialize_trace"),
    ("explorer.serialize_trace", "cli", "serialize_trace"),
    ("explorer.parse_traces", "explorer", "parse_traces"),
    ("explorer.parse_traces", "cli", "parse_traces"),
    ("explorer.replay", "explorer", "replay"),
    ("explorer.replay", "cli", "replay"),
    ("explorer.run_suite", "cli", "run_suite"),
]

_METHODS = [
    ("rng", "rng.SeededRng", ("next_u64", "below", "randint", "payload", "fork")),
    ("models.ledger", "models.OracleLedger", (
        "record_write", "record_read", "record_output_shut", "record_eof",
        "available_to", "peer_output_shut",
    )),
    ("adapter", "adapter.NetworkBackend", (
        "open_server", "bind", "get_local_port", "close_server", "accept",
        "connect", "configure_blocking", "read", "write", "shutdown_input",
        "shutdown_output", "close_conn", "open_selector", "register",
        "deregister", "select_now", "force_close_all",
    )),
    ("simnet", "simnet.SimBackend", ("advance", "flow_stats")),
    # The realnet transport hooks are where the socket syscalls happen.
    ("realnet", "realnet.RealBackend", (
        "_do_accept", "_do_connect", "_do_read", "_do_write", "_do_close_conn",
        "_raw_readiness",
    )),
    ("portman", "portman.PortPool", ("__init__", "acquire", "release", "next_test")),
]


class Recorder:
    """Spans in memory: four parallel int64 columns plus an open-span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = [array.array("q") for _ in range(4)]  # name, start, end, parent
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        col_name, col_start, col_end, col_parent = self.cols
        stack = self.stack
        raised_key = name + ".raised"

        def traced(*args, **kwargs):
            idx = len(col_start)
            col_name.append(nid)
            col_parent.append(stack[-1] if stack else -1)
            col_end.append(0)
            stack.append(idx)
            col_start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                col_end[idx] = _clock()
                stack.pop()
                self.count(raised_key)
                raise
            col_end[idx] = _clock()
            stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def dump(self, prefix: str, extra: dict) -> None:
        with open(prefix + ".bin", "wb") as fh:
            for col in self.cols:
                col.tofile(fh)
        summary = {"names": self.names, "spans": len(self.cols[0]),
                   "counters": self.counters, **extra}
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


def _resolve(modules: dict, path: str):
    module, _, attr = path.partition(".")
    obj = modules[module]
    return getattr(obj, attr) if attr else obj


def install(rec: Recorder) -> None:
    """Patch netmbt's run path; counters ride on the results where needed."""
    import netmbt.adapter
    import netmbt.cli
    import netmbt.explorer
    import netmbt.models
    import netmbt.portman
    import netmbt.realnet
    import netmbt.rng
    import netmbt.simnet

    modules = {
        "adapter": netmbt.adapter, "cli": netmbt.cli, "explorer": netmbt.explorer,
        "models": netmbt.models, "portman": netmbt.portman,
        "realnet": netmbt.realnet, "rng": netmbt.rng, "simnet": netmbt.simnet,
    }

    def pairs(args, result):
        rec.count("explorer.enabled_pairs", len(result))

    def serialized(args, result):
        rec.count("explorer.serialize_trace.bytes", len(result.encode("utf-8")))

    def parsed(args, result):
        rec.count("explorer.parse_traces.bytes", len(args[0].encode("utf-8")))
        rec.count("explorer.parse_traces.traces", len(result))

    def flows(args, result):
        rec.count("simnet.flows", len(result))
        rec.count("simnet.written", sum(f["written"] for f in result))
        rec.count("simnet.read", sum(f["read"] for f in result))

    def real_read(args, result):
        _, _, _, blocking = args
        if not blocking and not result.is_eof and result.count == 0:
            rec.count("realnet.empty_reads")

    hooks = {
        "explorer.enabled_transitions": pairs,
        "explorer.serialize_trace": serialized,
        "explorer.parse_traces": parsed,
        "simnet.flow_stats": flows,
        "realnet.do_read": real_read,
    }

    shared: dict[tuple[str, int], object] = {}
    for name, owner_path, attr in _FUNCTIONS:
        owner = _resolve(modules, owner_path)
        fn = getattr(owner, attr)
        key = (name, id(fn))
        if key not in shared:  # one wrapper per function, however many namespaces
            shared[key] = rec.wrap(name, fn, hooks.get(name))
        setattr(owner, attr, shared[key])
    for layer, owner_path, attrs in _METHODS:
        cls = _resolve(modules, owner_path)
        for attr in attrs:
            name = f"{layer}.{attr.strip('_')}"
            setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], hooks.get(name)))


def main(argv: list[str]) -> int:
    started = _clock()
    prefix, cli_args = argv[0], argv[1:]
    import netmbt.cli

    imported = _clock()
    rec = Recorder()
    install(rec)
    code = 2
    try:
        code = netmbt.cli.main(cli_args)
    finally:
        rec.dump(prefix, {"import_ns": imported - started, "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
