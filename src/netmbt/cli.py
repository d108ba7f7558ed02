"""Command-line entry point.

Commands: run (execute a suite), replay (re-execute recorded traces),
export-dot (print a model graph), list-models.  Exit codes: 0 all tests
passed / replays matched and passed; 1 at least one test failed (traces
written); 2 configuration or backend error (including replay divergence,
which in practice means the flags do not match the recorded run).
"""

from __future__ import annotations

import argparse
import secrets
import sys

from .errors import BackendError, ConfigError, DivergenceError
from .explorer import (
    SuiteConfig,
    format_report,
    parse_traces,
    port_pool,
    replay,
    run_suite,
    serialize_trace,
    export_dot,
)
from .models import MODEL_REGISTRY, ROOT_MODELS
from .simnet import FaultKind, FaultSpec

_FAULTS = {
    "none": None,
    "duplicate-bytes": FaultKind.DUPLICATE_BYTES,
    "drop-bytes": FaultKind.DROP_BYTES,
    "phantom-readiness": FaultKind.PHANTOM_READINESS,
}

DEFAULT_FAILURE_TRACE_PATH = "netmbt-failures.trace"


def _port_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")


def _seed_u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmbt",
        description="Model-based testing of a TCP socket API against real or simulated networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that shape every test; replay must be given the recorded run's values.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--max-steps", type=int, default=100)
    shared.add_argument("--port-range", type=_port_range, default=(20000, 29999),
                        metavar="LO:HI")
    shared.add_argument("--fault", choices=sorted(_FAULTS), default="none")
    shared.add_argument("--latency", choices=["zero", "default"], default="default")
    shared.add_argument("--p-close", type=float, default=0.1,
                        help="client's per-opportunity close probability")

    run = sub.add_parser("run", parents=[shared], help="derive and execute a test suite")
    run.add_argument("--model", required=True, help="root model name (see list-models)")
    run.add_argument("--backend", choices=["sim", "real"], default="sim")
    run.add_argument("--seed", type=_seed_u64, default=None,
                     help="suite seed; chosen at random (and printed) when omitted")
    run.add_argument("--tests", type=int, default=100)
    run.add_argument("--trace-out", default=None, help="write all traces to this file")
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


def _cmd_run(args) -> int:
    spec = MODEL_REGISTRY.get(args.model)
    if spec is None:
        print(f"unknown model {args.model!r}; see list-models", file=sys.stderr)
        return 2
    if args.model not in ROOT_MODELS:
        print(
            f"model {args.model!r} needs a live connection/port argument and cannot "
            "run standalone; runnable roots: " + ", ".join(ROOT_MODELS),
            file=sys.stderr,
        )
        return 2
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    print(f"seed {seed}")
    fault_kind = _FAULTS[args.fault]
    config = SuiteConfig(
        seed=seed,
        num_tests=args.tests,
        max_steps_per_test=args.max_steps,
        backend=args.backend,
        abort_on_first_failure=args.abort_on_failure,
        trace_path=args.trace_out,
        port_range=args.port_range,
        latency=args.latency,
        fault=FaultSpec(fault_kind) if fault_kind else None,
        p_close=args.p_close,
    )
    report = run_suite(spec, config, MODEL_REGISTRY)
    print(format_report(report, args.model))
    if report.failed and config.trace_path is None:
        with open(DEFAULT_FAILURE_TRACE_PATH, "w", encoding="utf-8") as fh:
            for trace in report.failing_traces:
                fh.write(serialize_trace(trace))
        print(f"failing traces written to {DEFAULT_FAILURE_TRACE_PATH}")
    return 0 if report.all_passed else 1


def _cmd_replay(args) -> int:
    with open(args.replay_path, encoding="utf-8") as fh:
        traces = parse_traces(fh.read())
    if not traces:
        print("no traces in file", file=sys.stderr)
        return 2
    model_name = args.model
    if model_name is None:
        if not traces[0].steps:
            print("cannot infer the root model from an empty trace; pass --model",
                  file=sys.stderr)
            return 2
        model_name = traces[0].steps[0].model
    spec = MODEL_REGISTRY.get(model_name)
    if spec is None:
        print(f"unknown model {model_name!r}", file=sys.stderr)
        return 2
    fault_kind = _FAULTS[args.fault]
    any_real = any(t.backend == "real" for t in traces)
    if any_real:
        print("note: real-backend replay is best-effort; latency may change outcomes")
    any_failed = False
    pool = None
    for trace in traces:
        config = SuiteConfig(
            seed=0,  # replay runs straight from the recorded per-test seed
            num_tests=1,
            max_steps_per_test=args.max_steps,
            backend=trace.backend,
            port_range=args.port_range,
            latency=args.latency,
            fault=FaultSpec(fault_kind) if fault_kind else None,
            p_close=args.p_close,
        )
        if pool is None:
            # One pool and one loopback probe serve every trace, as in `run`.
            pool = port_pool(config, probe=any_real)
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
        pool.next_test()
    return 1 if any_failed else 0


def _cmd_export_dot(args) -> int:
    spec = MODEL_REGISTRY.get(args.model)
    if spec is None:
        print(f"unknown model {args.model!r}; see list-models", file=sys.stderr)
        return 2
    sys.stdout.write(export_dot(spec))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "export-dot":
            return _cmd_export_dot(args)
        if args.command == "list-models":
            for name in MODEL_REGISTRY:
                print(name)
            return 0
    except (ConfigError, BackendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable command")


if __name__ == "__main__":
    raise SystemExit(main())
