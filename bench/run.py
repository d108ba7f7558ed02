"""netmbt benchmark: suite throughput, start-up time and record-and-replay.

Run from the repository root:

    python3 bench/run.py --workload sim-suite --seed 7 --seconds 36 --trace 0

Every workload drives the real command line (``python -m netmbt``) in a
child process, one child at a time: a closed loop with one client.  The
suite seed is the benchmark seed, so the same seed gives the same tests.
Each run repeats the workload's suite until ``--seconds`` have passed.
Throughput is the work of all repetitions over their summed time, set-up
time the lower quartile over the timed ``run`` children (start-up noise
only ever adds time), peak RSS the median over the repetitions.  A shared
host's speed drifts by tens of percent over minutes, so after every timed
child ``bench/calibrate.py``, a fixed loop that uses nothing from netmbt,
is timed too, and throughput and set-up time are scaled to the host speed
at which that loop takes ``REFERENCE_CAL_S``; the unscaled values are
printed beside them.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
measured with tracing off.  ``--trace 1`` runs each repetition once
untraced and once under ``bench/layers.py`` (spans recorded from outside
the package) and prints the per-layer metrics; ``trace.overhead_ratio`` is
the traced wall time over the untraced one.  Which layer metric should
move which end-to-end metric, on which workload, is recorded in
``bench/expectations.json`` together with the pinned trace digests.

Every child's output is checked: exit code 0, ``N passed, 0 failed``, full
coverage totals, ``MATCH verdict=PASS`` for every replayed test, and on
sim the sha256 of a pinned reference trace.  A failed check counts in
``failed``.  Child output goes to a file, never a pipe, so a long replay
cannot block on a full pipe.

The benchmark only reads kernel state (``/proc/loadavg``,
``/proc/net/tcp``); it changes no kernel, cgroup or network setting and
uses no hardware counters.  Everything it writes goes under
``.bench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run, children included, must end well inside 180 s.
RUN_BUDGET_S = 165.0

CALIBRATE = BENCH / "calibrate.py"
# Seconds bench/calibrate.py takes on the host the bounds were set on (a
# 2-vCPU shared Xeon VM); throughput and set-up time are reported at that
# host speed.
REFERENCE_CAL_S = 0.2


@dataclass(frozen=True)
class Workload:
    model: str
    backend: str
    tests: int
    # True: every repetition records with --trace-out and the replay of that
    # file is timed too.  False: one untimed recorded pass gives the step
    # count, and its first ``replay_sample`` tests are replayed as a check.
    record_and_replay: bool
    replay_sample: int = 0


WORKLOADS = {
    "sim-suite": Workload("server-main", "sim", 500, False, replay_sample=100),
    "trace-replay": Workload("minimalist", "sim", 1000, True),
    "real-suite": Workload("server-main", "real", 500, False),
}

RESULT_RE = re.compile(r"^result: (\d+) passed, (\d+) failed \((\d+\.\d+)s\)$", re.M)
COVERAGE_RE = re.compile(r"^coverage (\S+) states (\d+)/(\d+) transitions (\d+)/(\d+)$", re.M)
REPLAY_RE = re.compile(r"^replay test (\d+): (\S+)(?: verdict=(\S+))?", re.M)


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    out: str


class Runner:
    """Spawns CLI children in a scratch directory and checks their output."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        # Absolute, so the child imports this checkout's package from any cwd.
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, args: list[str], spans: Path | None = None) -> Child:
        if spans is None:
            cmd = [sys.executable, "-m", "netmbt", *args]
        else:
            cmd = [sys.executable, str(BENCH / "layers.py"), str(spans), *args]
        out_path = self.workdir / "child.out"
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise TimeoutError("run budget exhausted")
        with open(out_path, "w", encoding="utf-8") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=self.workdir, env=self.env)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out_path.read_text(encoding="utf-8"))

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def check_run(self, child: Child, w: Workload, tests: int) -> float | None:
        """Checks a ``run`` child; returns the suite seconds it printed."""
        self.attempted += tests
        m = RESULT_RE.search(child.out)
        if not self.check(child.code == 0 and m is not None,
                          f"run exited {child.code}: {child.out[-300:]!r}"):
            self.failed += tests if m is None else int(m.group(2))
            return None
        passed, failed, seconds = int(m.group(1)), int(m.group(2)), float(m.group(3))
        self.failed += failed
        self.check(passed == tests and failed == 0,
                   f"run reported {passed} passed, {failed} failed of {tests}")
        coverage = {c[0]: c[1:] for c in COVERAGE_RE.findall(child.out)}
        self.check(set(coverage) == {w.model, "client", "worker"}
                   and all(c[0] == c[1] and c[2] == c[3] for c in coverage.values()),
                   f"coverage not full: {coverage}")
        return seconds if seconds > 0 else None

    def check_replay(self, child: Child, tests: int) -> None:
        self.attempted += tests
        verdicts = REPLAY_RE.findall(child.out)
        good = [int(i) for i, status, verdict in verdicts
                if status == "MATCH" and verdict == "PASS"]
        self.failed += tests - len(good)
        self.check(child.code == 0 and good == list(range(tests)),
                   f"replay exited {child.code}, {len(good)}/{tests} MATCH verdict=PASS")


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass
class TraceFacts:
    tests: int
    steps: int
    size: int
    sha256: str
    passed: int


def trace_facts(path: Path) -> TraceFacts:
    data = path.read_bytes()
    tests = steps = passed = 0
    for line in data.decode("utf-8").splitlines():
        if line.startswith("netmbt-trace "):
            tests += 1
        elif line.startswith("verdict "):
            passed += line == "verdict PASS"
        elif line and line.split(" ", 4)[3] != "<init>":
            steps += 1
    return TraceFacts(tests, steps, len(data), hashlib.sha256(data).hexdigest(), passed)


def run_args(w: Workload, seed: int, tests: int, trace_out: str | None = None) -> list[str]:
    args = ["run", "--model", w.model, "--backend", w.backend,
            "--seed", str(seed), "--tests", str(tests)]
    return args + ["--trace-out", trace_out] if trace_out else args


def recorded_pass(runner: Runner, w: Workload, seed: int, tests: int, name: str) -> TraceFacts | None:
    """Untimed run that writes a trace file; also warms the bytecode cache."""
    path = runner.workdir / name
    child = runner.spawn(run_args(w, seed, tests, str(path)))
    if runner.check_run(child, w, tests) is None or not path.exists():
        return None
    facts = trace_facts(path)
    runner.check(facts.tests == tests and facts.passed == tests,
                 f"{name}: {facts.passed}/{facts.tests} PASS traces, expected {tests}")
    return facts


def check_reference(runner: Runner, w: Workload, expect: dict) -> None:
    """The pinned sim digest: a trace byte changed means replay broke."""
    ref = expect["digests"][w.model]
    facts = recorded_pass(runner, w, ref["seed"], ref["tests"], "reference.trace")
    digest = facts.sha256 if facts else None
    runner.check(digest == ref["sha256"],
                 f"reference trace sha256 {digest} != pinned {ref['sha256']}")


def calibrate() -> float:
    """Seconds the fixed loop of calibrate.py takes: the host's speed now."""
    proc = subprocess.run([sys.executable, str(CALIBRATE)], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def repetitions(runner: Runner, seconds: float, minimum: int):
    """Yields until ``seconds`` have passed and ``minimum`` repetitions ran,
    stopping early when another repetition might overrun the deadline."""
    started = time.monotonic()
    done, last = 0, 0.0
    while done < minimum or time.monotonic() - started < seconds:
        if time.monotonic() + 2 * last > runner.deadline:
            return
        rep_started = time.monotonic()
        yield
        done += 1
        last = time.monotonic() - rep_started


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def prepare(runner: Runner, w: Workload, seed: int) -> tuple[TraceFacts | None, TraceFacts | None]:
    """The untimed recorded pass and the replay sample cut from it."""
    if w.record_and_replay:
        return None, None
    facts = recorded_pass(runner, w, seed, w.tests, "workload.trace")
    if facts is None or not w.replay_sample:
        return facts, None
    text = (runner.workdir / "workload.trace").read_text(encoding="utf-8")
    blocks = text.split("netmbt-trace ")[1:w.replay_sample + 1]
    (runner.workdir / "sample.trace").write_text(
        "".join("netmbt-trace " + b for b in blocks), encoding="utf-8")
    return facts, trace_facts(runner.workdir / "sample.trace")


def measure(runner: Runner, w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    facts, sample = prepare(runner, w, seed)
    suites, rss, replays, setups, cals = [], [], [], [], []
    for _ in repetitions(runner, seconds, minimum=3):
        trace_path = runner.workdir / "rep.trace"
        child = runner.spawn(run_args(w, seed, w.tests,
                                      str(trace_path) if w.record_and_replay else None))
        suite = runner.check_run(child, w, w.tests)
        if suite is None:
            break
        cals.append(calibrate())
        peak, replay_s = child.rss_mb, 0.0
        if w.record_and_replay:
            rep_facts = trace_facts(trace_path)
            facts = facts or rep_facts
            runner.check(rep_facts.sha256 == facts.sha256,
                         "the same seed wrote a different trace")
            replayed = runner.spawn(["replay", "--replay", str(trace_path)])
            runner.check_replay(replayed, w.tests)
            replay_s, peak = replayed.wall_s, max(peak, replayed.rss_mb)
            replays.append(replay_s)
            cals.append(calibrate())
        if facts is None:
            break
        setups.append(child.wall_s - suite)
        suites.append(suite)
        rss.append(peak)
    if sample is not None:
        runner.check_replay(runner.spawn(["replay", "--replay", "sample.trace"]), sample.tests)
    if not suites:
        return {}, {}
    # Throughput is work over the time it took, pooled over all repetitions;
    # both it and set-up time are scaled to the reference host speed.
    busy = sum(suites) + sum(replays)
    speed = REFERENCE_CAL_S / statistics.fmean(cals)
    setup = statistics.quantiles(setups, n=4)[0] if len(setups) > 1 else setups[0]
    metrics = {
        "setup_s": setup * speed,
        "tests_per_s": w.tests * len(suites) / busy / speed,
        "steps_per_s": facts.steps * len(suites) / busy / speed,
        "peak_rss_mb": statistics.median(rss),
        "trace_bytes_per_test": facts.size / facts.tests,
    }
    info = {"repetitions": len(suites), "tests_per_repetition": w.tests,
            "steps_per_repetition": facts.steps,
            "unscaled_tests_per_s": w.tests * len(suites) / busy,
            "unscaled_setup_s": setup,
            "host_speed": speed}
    if w.record_and_replay:
        info["run_tests_per_s"] = w.tests * len(suites) / sum(suites) / speed
        info["replay_tests_per_s"] = w.tests * len(replays) / sum(replays) / speed
    return metrics, info


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------


@dataclass
class SpanTotals:
    calls: dict[str, int] = field(default_factory=dict)
    incl_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    test_ms: list[float] = field(default_factory=list)
    import_ns: list[int] = field(default_factory=list)

    def add(self, prefix: Path) -> None:
        summary = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        names, n = summary["names"], summary["spans"]
        cols = []
        with open(prefix.with_suffix(".bin"), "rb") as fh:
            for _ in range(4):
                col = array.array("q")
                col.fromfile(fh, n)
                cols.append(col)
        name_col, start, end, parent = cols
        # A span's self time is its duration minus that of its direct children.
        child_ns = array.array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        k = len(names)
        calls, incl, own = [0] * k, [0] * k, [0] * k
        test_id = names.index("explorer.run_single_test") if "explorer.run_single_test" in names else -1
        replay_id = names.index("explorer.replay") if "explorer.replay" in names else -1
        for i in range(n):
            nid = name_col[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            incl[nid] += dur
            own[nid] += dur - child_ns[i]
            if nid == test_id and (parent[i] < 0 or name_col[parent[i]] != replay_id):
                self.test_ms.append(dur / 1e6)
        for nid, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + calls[nid]
            self.incl_ns[name] = self.incl_ns.get(name, 0) + incl[nid]
            self.self_ns[name] = self.self_ns.get(name, 0) + own[nid]
        for key, value in summary["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.import_ns.append(summary["import_ns"])

    def per_call(self, name: str, scale: float = 1.0) -> float:
        calls = self.calls.get(name, 0)
        return self.incl_ns.get(name, 0) / calls / scale if calls else 0.0

    def group(self, prefix: str) -> tuple[int, int]:
        calls = sum(c for k, c in self.calls.items() if k.startswith(prefix))
        return calls, sum(t for k, t in self.incl_ns.items() if k.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentiles(test_ms: list[float]) -> dict:
    ordered = sorted(test_ms)
    return {
        "explorer.test_ms.p50": statistics.median(ordered) if ordered else 0.0,
        "explorer.test_ms.p99": ordered[int(0.99 * (len(ordered) - 1))] if ordered else 0.0,
        "explorer.test_ms.samples": len(ordered),
    }


def layer_metrics(t: SpanTotals) -> dict:
    c, cnt = t.calls, t.counters
    picks = c.get("explorer.pick_next", 0)
    steps = c.get("efsm.fire_transition", 0)
    tests = c.get("explorer.run_single_test", 0)
    test_ns = t.incl_ns.get("explorer.run_single_test", 0)
    ledger_calls, ledger_ns = t.group("models.ledger.")
    adapter_calls, _ = t.group("adapter.")
    adapter_raised = sum(v for k, v in cnt.items()
                         if k.startswith("adapter.") and k.endswith(".raised"))
    m = {
        "explorer.pick_next.ns_per_call": t.per_call("explorer.pick_next"),
        "explorer.pick_next.self_share": _ratio(t.self_ns.get("explorer.pick_next", 0), test_ns),
        "explorer.enabled_calls_per_pick": _ratio(c.get("explorer.enabled_transitions", 0), picks),
        "explorer.enabled_pairs_per_pick": _ratio(cnt.get("explorer.enabled_pairs", 0), picks),
        "efsm.fire_transition.ns_per_call": t.per_call("efsm.fire_transition"),
        "models.action.self_share": _ratio(t.self_ns.get("efsm.fire_transition", 0), test_ns),
        "efsm.instantiate.calls_per_test": _ratio(c.get("efsm.instantiate", 0), tests),
        "efsm.instantiate.ns_per_call": t.per_call("efsm.instantiate"),
        "rng.draws_per_step": _ratio(c.get("rng.next_u64", 0), steps),
        "rng.ns_per_draw": t.per_call("rng.next_u64"),
        "rng.self_share": _ratio(sum(v for k, v in t.self_ns.items() if k.startswith("rng.")),
                                 test_ns),
        "models.ledger.calls_per_step": _ratio(ledger_calls, steps),
        "models.ledger.ns_per_call": _ratio(ledger_ns, ledger_calls),
        "adapter.error_share": _ratio(adapter_raised, adapter_calls),
        "simnet.advance.ns_per_call": t.per_call("simnet.advance"),
        "simnet.flows_per_test": _ratio(cnt.get("simnet.flows", 0), c.get("simnet.flow_stats", 0)),
        "simnet.read_over_written": _ratio(cnt.get("simnet.read", 0), cnt.get("simnet.written", 0)),
        "realnet.empty_read_share": _ratio(cnt.get("realnet.empty_reads", 0),
                                           c.get("realnet.do_read", 0)),
        "realnet.self_share": _ratio(sum(v for k, v in t.self_ns.items() if k.startswith("realnet.")),
                                     test_ns),
        "portman.acquire.ns_per_call": t.per_call("portman.acquire"),
        "portman.pool_build_ms": t.per_call("portman.init", 1e6),
        "portman.pool_builds_per_test": _ratio(c.get("portman.init", 0), tests),
        "explorer.serialize_trace.mb_per_s": _ratio(
            cnt.get("explorer.serialize_trace.bytes", 0) * 1e3,
            t.incl_ns.get("explorer.serialize_trace", 0)),
        "explorer.parse_traces.mb_per_s": _ratio(
            cnt.get("explorer.parse_traces.bytes", 0) * 1e3,
            t.incl_ns.get("explorer.parse_traces", 0)),
        "explorer.replay.ms_per_test": t.per_call("explorer.replay", 1e6),
        **percentiles(t.test_ms),
        "cli.import_ms": statistics.median(t.import_ns) / 1e6 if t.import_ns else 0.0,
    }
    for op in ("read", "write", "select_now", "accept", "connect", "close_conn"):
        m[f"adapter.{op}.ns_per_call"] = t.per_call(f"adapter.{op}")
    return m


# Linux holds a socket in TIME_WAIT for TCP_TIMEWAIT_LEN; /proc/net/tcp shows
# the time its timer has left, in clock ticks.
TIME_WAIT_S = 60.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def loopback_time_wait(younger_than: float | None = None) -> int:
    """TIME_WAIT sockets with a loopback end, read-only from /proc/net/tcp*;
    with ``younger_than``, only those that entered TIME_WAIT in the last
    ``younger_than`` seconds."""
    min_left = None if younger_than is None else (TIME_WAIT_S - younger_than) * CLOCK_TICKS
    count = 0
    for path in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(path, encoding="ascii") as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            f = row.split()
            if len(f) > 5 and f[3] == "06" and ("0100007F" in f[1] or "0100007F" in f[2]):
                if min_left is None or int(f[5].split(":")[1], 16) >= min_left:
                    count += 1
    return count


def measure_layers(runner: Runner, w: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    facts, sample = prepare(runner, w, seed)
    phases = [("rec", run_args(w, seed, w.tests, "rec.trace" if w.record_and_replay else None))]
    if w.record_and_replay:
        phases.append(("rep", ["replay", "--replay", "rec.trace"]))
    elif sample is not None:
        phases.append(("rep", ["replay", "--replay", "sample.trace"]))
    reps: list[dict] = []
    counts: list[tuple] = []
    test_ms: list[float] = []
    for _ in repetitions(runner, seconds, minimum=1):
        plain = traced = 0.0
        totals = SpanTotals()
        time_wait = 0
        for traced_mode in (False, True):
            for tag, args in phases:
                spans = runner.workdir / f"spans-{tag}" if traced_mode else None
                started = time.monotonic()
                child = runner.spawn(args, spans)
                if w.backend == "real" and not traced_mode and tag == "rec":
                    # What this run left behind: timers that started after it did.
                    time_wait = loopback_time_wait(younger_than=time.monotonic() - started)
                if tag == "rec":
                    runner.check_run(child, w, w.tests)
                else:
                    runner.check_replay(child, w.tests if sample is None else sample.tests)
                if traced_mode:
                    traced += child.wall_s
                    totals.add(spans)
                else:
                    plain += child.wall_s
            if w.record_and_replay:
                rec = trace_facts(runner.workdir / "rec.trace")
                facts = facts or rec
                runner.check(rec.sha256 == facts.sha256, "tracing changed the sim trace digest")
        fired = totals.calls.get("efsm.fire_transition", 0)
        if w.backend == "sim" and facts is not None:
            replayed = facts if sample is None else sample
            runner.check(fired == facts.steps + replayed.steps,
                         f"traced runs fired {fired} steps, the traces hold "
                         f"{facts.steps} + {replayed.steps}")
            counts.append((fired, totals.calls.get("rng.next_u64", 0),
                           totals.calls.get("explorer.enabled_transitions", 0)))
        test_ms += totals.test_ms
        metrics = layer_metrics(totals)
        metrics["trace.overhead_ratio"] = traced / plain
        metrics["realnet.time_wait_after"] = time_wait / w.tests
        reps.append(metrics)
    runner.check(len(set(counts)) <= 1, f"counts differ across repetitions: {counts}")
    if not reps:
        return {}, {}
    merged = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    # Percentiles over every traced test, so p99 has enough samples beyond it.
    merged.update(percentiles(test_ms))
    return merged, {"repetitions": len(reps), "counts": counts[:1]}


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout; git may not look above it for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "netmbt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "netmbt" / "__init__.py").is_file():
        print(f"error: no netmbt sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect = json.loads((BENCH / "expectations.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    seed = args.seed % (1 << 64)
    deadline = time.monotonic() + RUN_BUDGET_S

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "loadavg_before": os.getloadavg(),
        "time_wait_before": loopback_time_wait(),
        "changes_kernel_cgroup_or_network_settings": False,
        "hardware_counters": False,
    }
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(workdir, deadline)
    try:
        if w.backend == "sim":
            check_reference(runner, w, expect)
        if args.trace:
            values, info = measure_layers(runner, w, seed, args.seconds)
        else:
            values, info = measure(runner, w, seed, args.seconds)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    env["time_wait_after"] = loopback_time_wait()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}; problems: {runner.problems}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    fail_share = runner.failed / runner.attempted
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"{name} {values[name]}")
    for name, value in info.items():
        print(f"{name} {value}")
    print(f"fail_share {fail_share} share")
    for problem in runner.problems:
        print(f"problem {problem}")
    print("env " + json.dumps(env))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "env": env}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
