"""Command-line entry point.

Commands: run (execute a suite), replay (re-execute recorded traces, one
backend per file), export-dot (print a model graph), list-models; run and
replay build their SuiteConfig once, from the same shared flags.  Exit codes:
0 all tests passed / replays matched and passed; 1 a test failed (traces
written); 2 a configuration, backend or trace-file error, printed as one
``error:`` line, or a replay divergence (in practice, wrong flags); 141
(128 + SIGPIPE), with no message, when stdout was closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys

from .efsm import ModelSpec
from .errors import BackendError, ConfigError, DivergenceError
from .explorer import SuiteConfig, export_dot, format_report, port_pool, replay, run_suite
from .models import MODEL_REGISTRY, ROOT_MODELS
from .simnet import LATENCIES, FaultKind
from .trace import BACKENDS, parse_traces, serialize_trace

DEFAULT_FAILURE_TRACE_PATH = "netmbt-failures.trace"
_DEFAULTS = SuiteConfig._field_defaults


def _port_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")


def _seed_u64(text: str) -> int:
    try:
        value = int(text, 0)
        if 0 <= value < 1 << 64:
            return value
    except ValueError:  # not an integer literal: 08, 0x, abc
        pass
    raise argparse.ArgumentTypeError(f"seed must be a 64-bit unsigned integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmbt",
        description="Model-based testing of a TCP socket API against real or simulated networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that shape every test; replay must be given the recorded run's values.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--max-steps", type=int, default=_DEFAULTS["max_steps_per_test"])
    shared.add_argument("--port-range", type=_port_range, default=_DEFAULTS["port_range"],
                        metavar="LO:HI",
                        help="listen ports of a real run; a sim run only validates it")
    shared.add_argument("--fault", choices=sorted(["none", *(k.value for k in FaultKind)]),
                        default="none")
    shared.add_argument("--latency", choices=list(LATENCIES), default=_DEFAULTS["latency"])

    run = sub.add_parser("run", parents=[shared], help="derive and execute a test suite")
    run.add_argument("--model", required=True, help="root model name (see list-models)")
    run.add_argument("--backend", choices=BACKENDS, default=_DEFAULTS["backend"])
    run.add_argument("--seed", type=_seed_u64, default=None,
                     help="suite seed; chosen at random (and printed) when omitted")
    run.add_argument("--tests", type=int, default=_DEFAULTS["num_tests"])
    run.add_argument("--trace-out", help="write all traces to this file")
    run.add_argument("--abort-on-failure", action="store_true")

    rep = sub.add_parser("replay", parents=[shared],
                         help="re-execute recorded traces and verify each step")
    rep.add_argument("--replay", required=True, metavar="PATH", dest="replay_path",
                     help="trace file produced by run")
    rep.add_argument("--model", default=None,
                     help="root model; default: inferred from the trace")

    dot = sub.add_parser("export-dot", help="print a model as a Graphviz digraph")
    dot.add_argument("--model", required=True)

    sub.add_parser("list-models", help="list registered model names")
    return parser


def _model(name: str, root: bool = True) -> ModelSpec:
    """The registered model ``name``; with ``root``, one that runs standalone."""
    spec = MODEL_REGISTRY.get(name)
    if spec is None:
        raise ConfigError(f"unknown model {name!r}; see list-models")
    if root and name not in ROOT_MODELS:
        raise ConfigError(
            f"model {name!r} needs a live connection/port argument and cannot "
            "run standalone; runnable roots: " + ", ".join(ROOT_MODELS)
        )
    return spec


def _config(args, seed: int, backend: str, **fields) -> SuiteConfig:
    """The run settings of a command: the shared flags, plus ``fields``."""
    return SuiteConfig(
        seed=seed,
        max_steps_per_test=args.max_steps,
        backend=backend,
        port_range=args.port_range,
        latency=args.latency,
        fault=None if args.fault == "none" else FaultKind(args.fault),
        **fields,
    )


def _cmd_run(args) -> int:
    spec = _model(args.model)
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "little")
    config = _config(args, seed, args.backend, num_tests=args.tests,
                     abort_on_first_failure=args.abort_on_failure, trace_path=args.trace_out)
    config.validate()  # a configuration error leaves stdout empty
    print(f"seed {seed}")
    report = run_suite(spec, config)
    print(format_report(report, args.model))
    if report.failed and config.trace_path is None:
        with open(DEFAULT_FAILURE_TRACE_PATH, "w", encoding="utf-8") as fh:
            for failure in report.failures:
                fh.write(serialize_trace(failure.trace))
        print(f"failing traces written to {DEFAULT_FAILURE_TRACE_PATH}")
    return 0 if report.all_passed else 1


def _cmd_replay(args) -> int:
    with open(args.replay_path, encoding="utf-8") as fh:
        traces = parse_traces(fh.read())
    if not traces:
        raise ConfigError("no traces in file")
    backends = sorted({t.backend for t in traces})
    if len(backends) > 1:
        raise ConfigError(f"trace file mixes backends {' and '.join(backends)}")
    roots = sorted({t.steps[0].model for t in traces if t.steps})
    if len(roots) > 1:
        raise ConfigError(f"trace file mixes root models {' and '.join(roots)}")
    if args.model is None and not roots:
        raise ConfigError("cannot infer the root model: no trace has a record; pass --model")
    spec = _model(roots[0] if args.model is None else args.model)
    if roots and spec.name != roots[0]:
        raise ConfigError(f"--model {spec.name} contradicts the trace file's root model {roots[0]}")
    config = _config(args, 0, backends[0])  # each replay runs from its recorded seed
    pool = port_pool(config)  # validated and probed once for every trace, as in run
    if config.backend == "real":  # after validation: a configuration error leaves stdout empty
        print("note: real-backend replay is best-effort; latency may change outcomes")
    any_failed = False
    for trace in traces:
        try:
            result = replay(trace, spec, config, pool)
        except DivergenceError as exc:
            print(f"replay test {trace.test_index}: DIVERGED at step {exc.step_index}")
            print(f"  expected: {exc.expected}")
            print(f"  actual:   {exc.actual}")
            return 2
        verdict = result.trace.verdict
        detail = f" step {result.trace.failing_step_index}" if verdict == "FAIL" else ""
        print(f"replay test {trace.test_index}: MATCH verdict={verdict}{detail}")
        any_failed |= verdict == "FAIL"
    return 1 if any_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code = _cmd_run(args)
        elif args.command == "replay":
            code = _cmd_replay(args)
        else:
            code = 0
            if args.command == "export-dot":
                sys.stdout.write(export_dot(_model(args.model, root=False)))
            else:  # list-models
                print("\n".join(MODEL_REGISTRY))
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
    except BrokenPipeError:
        # Nothing reads stdout (``netmbt run ... | head -1``): exit quietly, as
        # SIGPIPE would, with stdout on the null device for the exit flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13
    except (ConfigError, BackendError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
