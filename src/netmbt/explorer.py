"""Test derivation: seeded exploration, trace recording, replay, reporting.

A suite runs numTests independent tests.  Test i is seeded by a splitmix64
derivation of (suite seed, i), uses a fresh backend and ledger, and
interleaves all live model instances by picking one enabled (instance,
transition) pair at a time, weight-proportionally, with exactly one rng
draw per pick.  Everything observable ends up in a trace (see trace.py)
that can be replayed step-for-step.

Tests share nothing, so a suite is a merge of shards: contiguous index
ranges, each run by ``run_chunk`` with its own port pool.  A real suite
runs one shard per usable CPU (``plan_shards``), the first in this
process and the others in forked workers, and ``merge_chunks`` joins
their traces, counts, coverage keys and failures in index order: the
output is the bytes of a one-process run.  A sim suite is one shard.

A run's results (Trace, TestResult, ModelCoverage, SuiteReport) are
NamedTuples that their one producer builds whole; a count they already
hold, such as a suite's failed tests, is a property, not a field.
Coverage totals come from the registered models (models.MODEL_REGISTRY).
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right
from itertools import accumulate, chain, repeat, zip_longest
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple

from .efsm import (
    INIT_LABEL,
    ModelInstance,
    ModelSpec,
    Transition,
    enabled_transitions,
    failure_message,
    fire_transition,
    instantiate,
)
from .errors import BackendError, ConfigError, DivergenceError, PropertyViolation
from .models import MODEL_REGISTRY, OracleLedger
from .portman import COOLDOWN_TESTS, PortPool
from .rng import SeededRng, derive_seed
from .simnet import LATENCIES, FaultKind, SimBackend
from .trace import BACKENDS, StepRecord, Trace, serialize_trace, verdict_line
from .trace import parse_traces  # unused here: bench/layers.py patches explorer.parse_traces


class SuiteConfig(NamedTuple):
    seed: int
    num_tests: int = 100
    max_steps_per_test: int = 100
    backend: str = "sim"  # one of BACKENDS
    abort_on_first_failure: bool = False
    trace_path: str | None = None
    port_range: tuple[int, int] = (20000, 29999)
    latency: str = "default"  # a key of simnet.LATENCIES; any other needs sim
    fault: FaultKind | None = None

    def validate(self) -> None:
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.num_tests < 1:
            raise ConfigError("tests must be >= 1")
        if self.max_steps_per_test < 1:
            raise ConfigError("max steps per test must be >= 1")
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        lo, hi = self.port_range
        if not (0 < lo <= hi <= 65535):
            raise ConfigError(f"invalid port range {lo}:{hi}")
        if self.latency not in LATENCIES:
            raise ConfigError(f"unknown latency model {self.latency!r}")
        if self.fault is not None and not isinstance(self.fault, FaultKind):
            raise ConfigError(f"fault must be a FaultKind, not {self.fault!r}")
        if self.fault is not None and self.backend != "sim":
            raise ConfigError("fault injection requires the sim backend")
        if self.latency != self._field_defaults["latency"] and self.backend != "sim":
            raise ConfigError("a latency model requires the sim backend")
        if self.trace_path == "":
            raise ConfigError("trace-out must name a file")


class TestResult(NamedTuple):
    trace: Trace
    ledger: OracleLedger
    diagnostics: list[str]  # the sim's fault events; [] on real
    flow_stats: list[dict]  # the sim's per-flow counters; [] on real

    @property
    def passed(self) -> bool:
        return self.trace.verdict == "PASS"


# ---------------------------------------------------------------------------
# Single-test execution
# ---------------------------------------------------------------------------


def _make_backend(config: SuiteConfig, test_seed: int, pool: PortPool | None):
    if config.backend == "sim":
        return SimBackend(SeededRng(derive_seed(test_seed, 1)), LATENCIES[config.latency],
                          config.fault)
    from .realnet import RealBackend  # sockets load only for a real run

    return RealBackend(pool)


class _TestRun:
    """One test in progress, and the ``env`` its actions are called with:
    the network backend, the oracle ledger, the rng, the live instances,
    their enabled table and the step records.  No instance refers to it:
    a test forms no cycle."""

    __slots__ = ("net", "ledger", "rng", "instances", "table", "records")

    def __init__(self, net, rng: SeededRng):
        self.net = net
        self.ledger = OracleLedger()
        self.rng = rng
        self.instances: list[ModelInstance] = []
        self.table = EnabledTable(())
        self.records: list[StepRecord] = []

    def launch(self, spec: ModelSpec, args: Mapping) -> ModelInstance:
        """Instantiate a model (its constructor runs now), schedule it and
        record its ``<init>`` step.  Ids number instances from 1 in launch order."""
        instances = self.instances
        inst = instantiate(spec, len(instances) + 1, args, self)
        if inst.id <= len(instances):  # its constructor launched a model, which took its id
            child = instances[inst.id - 1].spec.name
            raise PropertyViolation(f"constructor of {spec.name} may not launch {child}")
        instances.append(inst)
        self.table.add(inst)
        self.records.append(tuple.__new__(
            StepRecord, (inst.id, spec.name, INIT_LABEL, "-", inst.current)))
        return inst


class EnabledTable:
    """The enabled (instance, transition) pairs of a test, ready for picking.

    ``pairs`` lists every instance's pairs in the given order (none when it
    is dead), ``weights`` their weights and ``accs`` their running sums from
    one left-to-right float accumulation; ``sizes`` holds each instance's pair count.
    """

    __slots__ = ("pairs", "weights", "accs", "sizes")

    def __init__(self, instances: Iterable[ModelInstance]):
        self.pairs, self.weights, self.accs, self.sizes = [], [], [], []
        for inst in instances:
            self.add(inst)

    def add(self, launched: ModelInstance) -> None:
        """Append a launched instance's pairs; their sums continue from the
        last one, as a full accumulation would compute them."""
        weights = launched.spec.weights[launched.current]
        self.sizes.append(len(weights))
        if weights:
            # A module global, so a wrapper on explorer.enabled_transitions sees
            # every enumeration; its result is spec.outgoing[state], in that order.
            self.pairs += zip(repeat(launched), enabled_transitions(launched))
            self.weights += weights
            accs = self.accs
            if accs:
                accs[-1:] = accumulate(weights, initial=accs[-1])
            else:
                accs += accumulate(weights)

    def refresh(self, instances: list[ModelInstance], fired: ModelInstance) -> None:
        """Re-enumerate ``fired`` after it changed state, and add the
        instances appended since the last enumeration; the others kept their
        state.  An instance's place in ``instances`` is its id - 1 (see
        _TestRun.launch).  When ``fired``'s weights are those it had, every
        sum stands; otherwise the sums before its pairs are kept, and the rest
        continue from the last kept one."""
        sizes = self.sizes
        for launched in instances[len(sizes):]:
            self.add(launched)
        k = fired.id - 1
        start = sum(sizes[:k]) if k else 0  # the root, which refreshes most, starts at 0
        end = start + sizes[k]
        group = fired.spec.weights[fired.current]
        self.pairs[start:end] = zip(repeat(fired), enabled_transitions(fired)) if group else ()
        weights = self.weights
        if weights[start:end] == [*group]:
            return
        weights[start:end] = group
        sizes[k] = len(group)
        accs = self.accs
        if start:
            accs[start - 1:] = accumulate(weights[start:], initial=accs[start - 1])
        else:
            accs[:] = accumulate(weights)


def pick_next(table: EnabledTable, rng: SeededRng) -> tuple[ModelInstance, Transition] | None:
    """Weight-proportional choice over the enabled (instance, transition)
    pairs of ``table``; exactly one rng draw when any pair is enabled, none
    otherwise.  The pick is the first pair whose cumulative weight exceeds
    the drawn point, falling back to the last pair.
    """
    pairs = table.pairs
    if not pairs:
        return None
    accs = table.accs
    # u * 2.0**-64 is u / 2**64 bit for bit, as scaling by 2**-64 is exact.
    # The search stops short of the last sum: a point at or above the one
    # before it takes the last pair.
    return pairs[bisect_right(accs, rng.next_u64() * 2.0 ** -64 * accs[-1], 0, len(accs) - 1)]


def run_single_test(
    root_spec: ModelSpec,
    config: SuiteConfig,
    test_seed: int,
    test_index: int,
    pool: PortPool | None,
) -> TestResult:
    """One test, reproducible from (root model, config, test_seed) alone.
    ``pool`` is port_pool(config): the listen ports of a real run."""
    backend = _make_backend(config, test_seed, pool)
    run = _TestRun(backend, SeededRng(derive_seed(test_seed, 0)))
    instances, table, records, rng = run.instances, run.table, run.records, run.rng
    append, advance, new = records.append, backend.advance, tuple.__new__
    verdict, message = "PASS", ""
    try:
        run.launch(root_spec, {})
        for _ in range(config.max_steps_per_test):
            pick = pick_next(table, rng)
            if pick is None:
                break
            inst, transition = pick
            state = inst.current
            outcome, violation = fire_transition(inst, transition, run)
            append(new(StepRecord, (inst.id, inst.spec.name, transition.label, outcome,
                                    inst.current)))
            if inst.current != state:  # launch() already added any new instance
                table.refresh(instances, inst)
            advance()
            if violation is not None:
                verdict, message = "FAIL", violation
                break
    except Exception as exc:
        # Raised outside an action (by the root constructor, say): this test
        # fails and the suite goes on, unless it is a BackendError.
        verdict, message = "FAIL", failure_message(exc, "")
    finally:
        backend.force_close_all()
    trace = Trace(test_seed, test_index, config.backend, records, verdict, message)
    if not backend.is_sim:
        return TestResult(trace, run.ledger, [], [])
    return TestResult(trace, run.ledger, list(backend.fault_events), backend.flow_stats())


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


class ModelCoverage(NamedTuple):
    states_visited: set[str]
    transitions_fired: set[str]
    states_total: int | None  # None for a model that is neither registered nor the root
    transitions_total: int | None


class SuiteReport(NamedTuple):
    config: SuiteConfig
    passed: int
    failures: list[TestResult]
    coverage: dict[str, ModelCoverage]
    elapsed_seconds: float

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def tests_run(self) -> int:
        return self.passed + self.failed

    @property
    def all_passed(self) -> bool:
        return not self.failures


# A StepRecord's (model, label, state): its coverage key.
_COVERAGE_KEY = itemgetter(1, 2, 4)


def _coverage(keys: set, spec_index: Mapping[str, ModelSpec]) -> dict[str, ModelCoverage]:
    """Per-model coverage from the coverage keys of any number of traces;
    totals come from the spec index when the model is known there."""
    visited: dict[str, tuple[set[str], set[str]]] = {}  # model -> (states, labels)
    for model, label, state in keys:
        states, labels = visited.setdefault(model, (set(), set()))
        states.add(state)
        if label != INIT_LABEL:
            labels.add(label)
    coverage: dict[str, ModelCoverage] = {}
    for name, (states, labels) in visited.items():
        spec = spec_index.get(name)
        totals = (None, None) if spec is None else (len(spec.states), len(spec.transitions))
        coverage[name] = ModelCoverage(states, labels, *totals)
    return coverage


def port_pool(config: SuiteConfig, ports: tuple[int, int] | None = None) -> PortPool | None:
    """Validate ``config``; for a run on real sockets, probe loopback TCP and
    build the listen-port pool its tests lease from, over ``ports`` (by
    default the whole ``config.port_range``).  The sim numbers its own
    ports, so a sim run gets None."""
    config.validate()
    if config.backend != "real":
        return None
    from .realnet import RealBackend

    RealBackend.probe()
    return PortPool(*(ports or config.port_range))


class Shard(NamedTuple):
    tests: range  # contiguous test indices
    ports: tuple[int, int]  # the listen ports its pool leases from, lo and hi


def plan_shards(config: SuiteConfig, cpus: int) -> list[Shard]:
    """Split a suite into J contiguous shards of tests, each with a disjoint,
    contiguous sub-range of ``config.port_range``; together they cover both
    exactly.  J = min(cpus, tests, ports // (cooldown + 1)) on real sockets,
    so every sub-range can serve a test while its last ports cool down, and
    1 on sim (not sharded yet).  ``cpus`` is _usable_cpus() in a run, which
    is 1 where the platform lacks sched_getaffinity; every platform that has
    it can fork."""
    lo, hi = config.port_range
    size, n = hi - lo + 1, config.num_tests
    jobs = 1
    if config.backend == "real":
        jobs = max(1, min(cpus, n, size // (COOLDOWN_TESTS + 1)))
    return [Shard(range(k * n // jobs, (k + 1) * n // jobs),
                  (lo + k * size // jobs, lo + (k + 1) * size // jobs - 1))
            for k in range(jobs)]


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class ChunkResult(NamedTuple):
    """What a shard's tests add to their suite, in index order."""

    text: str  # the serialized traces a worker ships; "" when streamed or not written
    passed: int
    keys: set[tuple[str, str, str]]  # coverage keys
    failures: list[TestResult]
    error: Exception | None  # what ended the shard early: a BackendError, in practice


def run_chunk(
    root_spec: ModelSpec,
    config: SuiteConfig,
    tests: range,
    pool: PortPool | None,
    write: Callable[[str], object] | None = None,
) -> ChunkResult:
    """Run the tests of one shard in index order, passing each serialized
    trace to ``write`` (when a trace file is written).  Under
    abort-on-failure it stops at its first failing test; an exception that
    escapes a test (a BackendError) ends it and is returned, not raised."""
    keys: set[tuple[str, str, str]] = set()
    failures: list[TestResult] = []
    passed = 0
    try:
        for i in tests:
            result = run_single_test(root_spec, config, derive_seed(config.seed, i), i, pool)
            trace = result.trace
            if write:
                write(serialize_trace(trace))
            keys.update(map(_COVERAGE_KEY, trace.steps))
            if result.passed:
                passed += 1
            else:
                failures.append(result)
                if config.abort_on_first_failure:
                    break
    except Exception as exc:
        return ChunkResult("", passed, keys, failures, exc)
    return ChunkResult("", passed, keys, failures, None)


def merge_chunks(
    chunks: Iterable[ChunkResult],
    write: Callable[[str], object] | None,
    abort_on_first_failure: bool,
) -> tuple[int, set[tuple[str, str, str]], list[TestResult]]:
    """Combine shard results in index order: (passed, coverage keys,
    failures).  A shard's traces go to ``write`` before its error is raised,
    so the file holds every test below the one that raised; under
    abort-on-failure the first shard with a failure is the last one taken,
    and it stopped at its own first failure."""
    passed = 0
    keys: set[tuple[str, str, str]] = set()
    failures: list[TestResult] = []
    for chunk in chunks:
        if write and chunk.text:
            write(chunk.text)
        if chunk.error is not None:
            raise chunk.error
        passed += chunk.passed
        keys |= chunk.keys
        failures += chunk.failures
        if abort_on_first_failure and chunk.failures:
            break
    return passed, keys, failures


def _fork_chunk(root_spec: ModelSpec, config: SuiteConfig, shard: Shard) -> tuple[int, int]:
    """Fork a worker that runs ``shard`` with its own pool and writes its
    pickled ChunkResult to a pipe; returns (pid, read end).  The worker
    leaves by os._exit: no atexit handler runs and no inherited buffer, such
    as an unflushed stdout, is written twice."""
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        parts: list[str] = []
        chunk = run_chunk(root_spec, config, shard.tests, PortPool(*shard.ports),
                          parts.append if config.trace_path else None)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(chunk._replace(text="".join(parts))))
        code = 0
    finally:
        os._exit(code)


def _read_chunk(read_end: int, shard: Shard) -> ChunkResult:
    """A worker's ChunkResult, read to the end of its pipe."""
    import pickle

    data = bytearray()
    while block := os.read(read_end, 1 << 16):
        data += block
    if not data:
        first, last = shard.tests[0], shard.tests[-1]
        raise BackendError(f"the worker running tests {first}-{last} ended without a result")
    return pickle.loads(data)


def _stop_workers(workers: list[tuple[int, int]]) -> None:
    """SIGKILL and reap every worker, finished or not, and close its pipe."""
    if not workers:
        return  # a one-process suite loads no signal module
    import signal

    for pid, read_end in workers:
        os.close(read_end)
        os.kill(pid, signal.SIGKILL)  # a no-op on one that has exited
        os.waitpid(pid, 0)


def run_suite(root_spec: ModelSpec, config: SuiteConfig) -> SuiteReport:
    """Run the whole suite; traces stream to config.trace_path when set.

    A real suite is sharded by plan_shards over the usable CPUs: shard 0
    runs in this process, each other one in a forked worker, and the
    results merge in index order, so stdout and the trace file are the
    bytes of a one-process run.  ``taskset -c 0`` forces one process."""
    shards = plan_shards(config, _usable_cpus())
    pool = port_pool(config, shards[0].ports)
    started = time.perf_counter()
    workers: list[tuple[int, int]] = []
    try:
        for shard in shards[1:]:
            workers.append(_fork_chunk(root_spec, config, shard))
        # Opened after forking, so no worker holds the file.
        writer = open(config.trace_path, "w", encoding="utf-8") if config.trace_path else None
        try:
            write = writer.write if writer else None
            own = run_chunk(root_spec, config, shards[0].tests, pool, write)
            rest = (_read_chunk(fd, shard) for (_, fd), shard in zip(workers, shards[1:]))
            passed, keys, failures = merge_chunks(
                chain((own,), rest), write, config.abort_on_first_failure)
        finally:
            if writer:
                writer.close()
    finally:
        _stop_workers(workers)
    return SuiteReport(
        config=config,
        passed=passed,
        failures=failures,
        coverage=_coverage(keys, {**MODEL_REGISTRY, root_spec.name: root_spec}),
        elapsed_seconds=time.perf_counter() - started,
    )


def _count(seen: set[str], total: int | None) -> str:
    """``seen/total``, or ``seen`` alone for a model without totals."""
    return str(len(seen)) if total is None else f"{len(seen)}/{total}"


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
        lines.append(f"coverage {name} states {_count(cov.states_visited, cov.states_total)} "
                     f"transitions {_count(cov.transitions_fired, cov.transitions_total)}")
    if report.failures:
        lines.append("failures:")
        for f in report.failures[:20]:
            t = f.trace
            step = "-" if t.failing_step_index is None else str(t.failing_step_index)
            lines.append(f"  test {t.test_index} seed {t.test_seed} step {step}: {t.message}")
            for note in f.diagnostics:
                lines.append(f"    fault {note}")
        if len(report.failures) > 20:
            lines.append(f"  ... {len(report.failures) - 20} more")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(trace: Trace, root_spec: ModelSpec, config: SuiteConfig,
           pool: PortPool | None) -> TestResult:
    """Re-execute a recorded test from its seed and verify every step.

    Raises DivergenceError at the first step whose record line differs
    from the recorded one (or at the verdict when the steps match but the
    outcome does not).  Replay against the real backend is best-effort:
    latency may legitimately change outcomes there.  ``pool`` comes from
    port_pool(config), which validated ``config``; replays of several
    traces share it, as the tests of a suite do.
    """
    rerun = run_single_test(root_spec, config, trace.test_seed, trace.test_index, pool)
    recorded = trace.steps
    if recorded != rerun.trace.steps:
        # Records are equal exactly when their lines are (no field holds
        # whitespace), so only the first unequal pair is rendered.
        for i, pair in enumerate(zip_longest(recorded, rerun.trace.steps)):
            if pair[0] != pair[1]:
                expected, actual = (r.line(i) if r else "<missing>" for r in pair)
                raise DivergenceError(i, expected, actual)
    if verdict_line(trace) != verdict_line(rerun.trace):
        # Reported as given: a hand-edited message keeps its spacing.
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
