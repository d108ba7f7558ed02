"""Test derivation: seeded exploration, trace recording, replay, reporting.

A suite runs numTests independent tests.  Test i is seeded by a splitmix64
derivation of (suite seed, i), uses a fresh backend, ledger and leased
ports, and interleaves all live model instances by picking one enabled
(instance, transition) pair at a time, weight-proportionally, with exactly
one rng draw per pick.  Everything observable ends up in a line-oriented
trace that can be replayed step-for-step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .efsm import (
    ActionContext,
    ModelInstance,
    ModelSpec,
    StepKind,
    Transition,
    enabled_transitions,
    fire_transition,
    instantiate,
)
from .errors import (
    ConfigError,
    DivergenceError,
    PropertyViolation,
    WatchdogTimeout,
)
from .models import OracleLedger
from .portman import PortPool
from .realnet import RealBackend
from .rng import SeededRng, derive_seed
from .simnet import FaultSpec, LatencyModel, SimBackend

_U64 = 1 << 64
INIT_LABEL = "<init>"
TRACE_HEADER = "netmbt-trace v1"


@dataclass
class SuiteConfig:
    seed: int
    num_tests: int = 100
    max_steps_per_test: int = 100
    backend: str = "sim"  # "sim" | "real"
    abort_on_first_failure: bool = False
    trace_path: str | None = None
    port_range: tuple[int, int] = (20000, 29999)
    watchdog_seconds: float = 5.0
    latency: str = "default"  # "default" | "zero" (sim only)
    fault: FaultSpec | None = None
    p_close: float = 0.1

    def validate(self) -> None:
        if not 0 <= self.seed < _U64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.num_tests < 1:
            raise ConfigError("tests must be >= 1")
        if self.max_steps_per_test < 1:
            raise ConfigError("max steps per test must be >= 1")
        if self.backend not in ("sim", "real"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        lo, hi = self.port_range
        if not (0 < lo <= hi <= 65535):
            raise ConfigError(f"invalid port range {lo}:{hi}")
        if self.latency not in ("default", "zero"):
            raise ConfigError(f"unknown latency model {self.latency!r}")
        if self.fault is not None and self.backend != "sim":
            raise ConfigError("fault injection requires the sim backend")
        if not 0.0 <= self.p_close <= 1.0:
            raise ConfigError("p-close must be within [0, 1]")
        if self.watchdog_seconds <= 0:
            raise ConfigError("watchdog budget must be positive")


class StepRecord(NamedTuple):
    index: int
    instance_id: int
    model: str
    label: str
    outcome: str  # outcome tag, ErrorKind value, or "-"
    state: str

    def line(self) -> str:
        return f"{self.index} {self.instance_id} {self.model} {self.label} {self.outcome} {self.state}"


@dataclass
class Trace:
    test_seed: int
    test_index: int
    backend: str
    steps: list[StepRecord]
    verdict: str = "PASS"  # "PASS" | "FAIL"
    message: str = ""

    @property
    def failing_step_index(self) -> int | None:
        if self.verdict == "PASS" or not self.steps:
            return None
        return self.steps[-1].index


@dataclass
class TestResult:
    trace: Trace
    ledger: OracleLedger
    fired: int
    diagnostics: list[str] = field(default_factory=list)
    flow_stats: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.trace.verdict == "PASS"


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def serialize_trace(trace: Trace) -> str:
    lines = [
        f"{TRACE_HEADER} seed={trace.test_seed} test={trace.test_index} backend={trace.backend}"
    ]
    lines.extend(r.line() for r in trace.steps)
    if trace.verdict == "PASS":
        lines.append("verdict PASS")
    else:
        message = " ".join(trace.message.split())
        lines.append(f"verdict FAIL {message}" if message else "verdict FAIL")
    return "\n".join(lines) + "\n"


def parse_traces(text: str) -> list[Trace]:
    traces: list[Trace] = []
    current: Trace | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith(TRACE_HEADER):
            fields = dict(part.split("=", 1) for part in line.split()[2:])
            current = Trace(
                test_seed=int(fields["seed"]),
                test_index=int(fields["test"]),
                backend=fields["backend"],
                steps=[],
            )
            traces.append(current)
        elif line.startswith("verdict "):
            if current is None:
                raise ValueError(f"line {lineno}: verdict before trace header")
            parts = line.split(" ", 2)
            current.verdict = parts[1]
            current.message = parts[2] if len(parts) > 2 else ""
            current = None
        else:
            if current is None:
                raise ValueError(f"line {lineno}: step before trace header")
            parts = line.split(" ", 5)
            if len(parts) != 6:
                raise ValueError(f"line {lineno}: malformed step record: {line!r}")
            current.steps.append(
                StepRecord(int(parts[0]), int(parts[1]), parts[2], parts[3], parts[4], parts[5])
            )
    return traces


# ---------------------------------------------------------------------------
# Single-test execution
# ---------------------------------------------------------------------------


@dataclass
class RunEnv:
    """Services handed to model actions via ActionContext.env."""

    net: object
    ledger: OracleLedger
    ports: "_PortLease"
    p_close: float


class _PortLease:
    """Per-test view of the suite's port pool; releases everything at test end."""

    def __init__(self, pool: PortPool):
        self._pool = pool
        self._leased: list[int] = []

    def acquire(self) -> int:
        port = self._pool.acquire()
        self._leased.append(port)
        return port

    def release_all(self) -> None:
        for port in self._leased:
            self._pool.release(port)
        self._leased.clear()


def _make_backend(config: SuiteConfig, test_seed: int):
    if config.backend == "sim":
        latency = LatencyModel.zero() if config.latency == "zero" else LatencyModel.default()
        return SimBackend(SeededRng(derive_seed(test_seed, 1)), latency, config.fault)
    return RealBackend(watchdog_seconds=config.watchdog_seconds)


class _TestRun:
    def __init__(self, env: RunEnv, rng: SeededRng):
        self.env = env
        self.rng = rng
        self.instances: list[ModelInstance] = []
        self.records: list[StepRecord] = []
        self.fired = 0
        self._next_id = 1

    def launch(self, spec: ModelSpec, args: dict) -> ModelInstance:
        """Instantiate a model (constructor runs now) and schedule it."""
        instance_id = self._next_id
        self._next_id += 1
        inst = instantiate(spec, instance_id, args, self._make_ctx)
        self.instances.append(inst)
        outcome = inst.ctor_error.value if inst.ctor_error else "-"
        self.records.append(
            StepRecord(len(self.records), inst.id, spec.name, INIT_LABEL, outcome, inst.current)
        )
        return inst

    def _make_ctx(self, inst: ModelInstance) -> ActionContext:
        return ActionContext(inst, self.rng, self.env, self.launch)


def pick_next(
    instances: Iterable[ModelInstance], rng: SeededRng
) -> tuple[ModelInstance, Transition] | None:
    """Weight-proportional choice over all enabled (instance, transition)
    pairs; exactly one rng draw when any pair is enabled, none otherwise."""
    pairs: list[tuple[ModelInstance, Transition]] = []
    total = 0.0
    for inst in instances:
        if not inst.alive:
            continue
        for t in enabled_transitions(inst):
            pairs.append((inst, t))
            total += t.weight
    if not pairs:
        return None
    point = (rng.next_u64() / _U64) * total
    acc = 0.0
    for pair in pairs:
        acc += pair[1].weight
        if point < acc:
            return pair
    return pairs[-1]


def run_single_test(
    root_spec: ModelSpec,
    config: SuiteConfig,
    test_seed: int,
    test_index: int,
    pool: PortPool,
) -> TestResult:
    """One test, reproducible from (root model, config, test_seed) alone."""
    backend = _make_backend(config, test_seed)
    ledger = OracleLedger()
    lease = _PortLease(pool)
    env = RunEnv(net=backend, ledger=ledger, ports=lease, p_close=config.p_close)
    run = _TestRun(env, SeededRng(derive_seed(test_seed, 0)))
    verdict, message = "PASS", ""
    try:
        run.launch(root_spec, {})
        while run.fired < config.max_steps_per_test:
            pick = pick_next(run.instances, run.rng)
            if pick is None:
                break
            inst, transition = pick
            ctx = run._make_ctx(inst)
            try:
                outcome = fire_transition(inst, transition, ctx)
            except WatchdogTimeout as exc:
                verdict = "FAIL"
                message = f"watchdog: {inst.spec.name}.{transition.label}: {exc}"
                break
            run.fired += 1
            backend.advance()
            if outcome.raised_error is not None:
                out_field = outcome.raised_error.value
            else:
                out_field = outcome.outcome_tag or "-"
            run.records.append(
                StepRecord(
                    len(run.records), inst.id, inst.spec.name,
                    transition.label, out_field, inst.current,
                )
            )
            if outcome.kind is StepKind.VIOLATION:
                verdict = "FAIL"
                message = outcome.message or "property violation"
                break
    except PropertyViolation as exc:
        verdict, message = "FAIL", str(exc)
    except WatchdogTimeout as exc:
        verdict, message = "FAIL", f"watchdog: {exc}"
    finally:
        lease.release_all()
        backend.force_close_all()
    trace = Trace(test_seed, test_index, config.backend, run.records, verdict, message)
    diagnostics = list(getattr(backend, "fault_events", ()))
    flow_stats = backend.flow_stats() if isinstance(backend, SimBackend) else []
    return TestResult(trace, ledger, run.fired, diagnostics, flow_stats)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@dataclass
class ModelCoverage:
    states_visited: set[str] = field(default_factory=set)
    transitions_fired: set[str] = field(default_factory=set)
    states_total: int | None = None
    transitions_total: int | None = None

    def merge_step(self, record: StepRecord) -> None:
        self.states_visited.add(record.state)
        if record.label != INIT_LABEL:
            self.transitions_fired.add(record.label)


@dataclass
class FailureInfo:
    test_index: int
    test_seed: int
    failing_step: int | None
    message: str
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class SuiteReport:
    config: SuiteConfig
    tests_run: int
    passed: int
    failed: int
    failures: list[FailureInfo]
    coverage: dict[str, ModelCoverage]
    failing_traces: list[Trace]
    elapsed_seconds: float

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def coverage_from_traces(
    traces: Iterable[Trace], spec_index: Mapping[str, ModelSpec] | None = None
) -> dict[str, ModelCoverage]:
    """Coverage is a pure function of recorded traces; totals come from the
    spec index when the model is known there."""
    coverage: dict[str, ModelCoverage] = {}
    for trace in traces:
        for record in trace.steps:
            cov = coverage.setdefault(record.model, ModelCoverage())
            cov.merge_step(record)
    _set_totals(coverage, spec_index or {})
    return coverage


def _set_totals(coverage: dict[str, ModelCoverage], spec_index: Mapping[str, ModelSpec]) -> None:
    for name, cov in coverage.items():
        spec = spec_index.get(name)
        if spec is not None:
            cov.states_total = len(spec.states)
            cov.transitions_total = len(spec.transitions)


def run_suite(
    root_spec: ModelSpec,
    config: SuiteConfig,
    spec_index: Mapping[str, ModelSpec] | None = None,
) -> SuiteReport:
    """Run the whole suite; traces stream to config.trace_path when set."""
    config.validate()
    if config.backend == "real":
        RealBackend.probe()
    pool = PortPool(config.port_range[0], config.port_range[1])
    coverage: dict[str, ModelCoverage] = {}
    failures: list[FailureInfo] = []
    failing_traces: list[Trace] = []
    passed = failed = tests_run = 0
    started = time.perf_counter()
    writer = open(config.trace_path, "w", encoding="utf-8") if config.trace_path else None
    try:
        for i in range(config.num_tests):
            test_seed = derive_seed(config.seed, i)
            result = run_single_test(root_spec, config, test_seed, i, pool)
            pool.next_test()
            tests_run += 1
            trace = result.trace
            if writer:
                writer.write(serialize_trace(trace))
            for record in trace.steps:
                coverage.setdefault(record.model, ModelCoverage()).merge_step(record)
            if result.passed:
                passed += 1
            else:
                failed += 1
                failures.append(
                    FailureInfo(i, test_seed, trace.failing_step_index,
                                trace.message, result.diagnostics)
                )
                failing_traces.append(trace)
                if config.abort_on_first_failure:
                    break
    finally:
        if writer:
            writer.close()
    _set_totals(coverage, {root_spec.name: root_spec, **(spec_index or {})})
    return SuiteReport(
        config=config,
        tests_run=tests_run,
        passed=passed,
        failed=failed,
        failures=failures,
        coverage=coverage,
        failing_traces=failing_traces,
        elapsed_seconds=time.perf_counter() - started,
    )


def format_report(report: SuiteReport, root_name: str) -> str:
    cfg = report.config
    lines = [
        f"model {root_name} backend {cfg.backend} tests {report.tests_run} "
        f"max-steps {cfg.max_steps_per_test}",
        f"result: {report.passed} passed, {report.failed} failed "
        f"({report.elapsed_seconds:.2f}s)",
    ]
    for name in sorted(report.coverage):
        cov = report.coverage[name]
        st = f"{len(cov.states_visited)}/{cov.states_total}" if cov.states_total else str(len(cov.states_visited))
        tr = f"{len(cov.transitions_fired)}/{cov.transitions_total}" if cov.transitions_total else str(len(cov.transitions_fired))
        lines.append(f"coverage {name} states {st} transitions {tr}")
    if report.failures:
        lines.append("failures:")
        for f in report.failures[:20]:
            step = "-" if f.failing_step is None else str(f.failing_step)
            lines.append(f"  test {f.test_index} seed {f.test_seed} step {step}: {f.message}")
            for note in f.diagnostics:
                lines.append(f"    fault {note}")
        if len(report.failures) > 20:
            lines.append(f"  ... {len(report.failures) - 20} more")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(trace: Trace, root_spec: ModelSpec, config: SuiteConfig) -> TestResult:
    """Re-execute a recorded test from its seed and verify every step.

    Raises DivergenceError at the first mismatching step record (or at the
    verdict when the steps match but the outcome does not).  Replay against
    the real backend is best-effort: latency may legitimately change
    outcomes there.
    """
    config.validate()
    if config.backend == "real":
        RealBackend.probe()
    pool = PortPool(config.port_range[0], config.port_range[1])
    rerun = run_single_test(root_spec, config, trace.test_seed, trace.test_index, pool)
    recorded = trace.steps
    replayed = rerun.trace.steps
    for i in range(max(len(recorded), len(replayed))):
        expected = recorded[i].line() if i < len(recorded) else "<missing>"
        actual = replayed[i].line() if i < len(replayed) else "<missing>"
        if expected != actual:
            raise DivergenceError(i, expected, actual)
    if (trace.verdict, " ".join(trace.message.split())) != (
        rerun.trace.verdict, " ".join(rerun.trace.message.split())
    ):
        raise DivergenceError(
            len(recorded),
            f"verdict {trace.verdict} {trace.message}".strip(),
            f"verdict {rerun.trace.verdict} {rerun.trace.message}".strip(),
        )
    return rerun


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def _quote(token: str) -> str:
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(spec: ModelSpec) -> str:
    """Graphviz view of a model: solid edges for plain transitions, dashed
    edges for non-deterministic outcome branches, red edges for expected
    exceptions.  Output order follows declaration order."""
    lines = [f"digraph {_quote(spec.name)} {{", "  rankdir=LR;"]
    for state in spec.states:
        lines.append(f"  {_quote(state)};")
    for t in spec.transitions:
        if t.outcome_branches:
            for tag, target in t.outcome_branches.items():
                lines.append(
                    f"  {_quote(t.source)} -> {_quote(target)} "
                    f"[label={_quote(t.label + '/' + tag)}, style=dashed];"
                )
        else:
            lines.append(
                f"  {_quote(t.source)} -> {_quote(t.target)} [label={_quote(t.label)}];"
            )
        for kind, target in t.exception_overrides.items():
            lines.append(
                f"  {_quote(t.source)} -> {_quote(target)} "
                f"[label={_quote(t.label + '/' + kind.value)}, color=red];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
