"""Sharded real suites: the shard plan, the ordered merge, and runs whose
stdout and trace file are the bytes of a one-process run.

A real suite runs shard 0 in its own process and every other shard in a
forked worker; the merge takes their results in index order.  The plan
and the merge are tested without starting a process; the forked paths
(pass, fail, abort, a worker's BackendError, an interrupt) are tested on
real sockets, and each must leave no child process behind.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env
from netmbt.efsm import Transition, define_model
from netmbt.errors import BackendError, PropertyViolation
from netmbt.explorer import (
    ChunkResult,
    SuiteConfig,
    SuiteReport,
    _usable_cpus,
    format_report,
    merge_chunks,
    plan_shards,
    run_suite,
)
from netmbt.explorer import TestResult as RunResult  # not a test class
from netmbt.models import OracleLedger
from netmbt.portman import COOLDOWN_TESTS
from netmbt.trace import Trace, parse_traces

_ELAPSED = re.compile(r"\(\d+\.\d\ds\)")


def _plan(cpus=2, **fields):
    return plan_shards(SuiteConfig(seed=1, **{"backend": "real", **fields}), cpus)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardPlan:
    """J = min(usable CPUs, tests, ports // (cooldown + 1)) on real
    sockets; one shard wherever that rule does not apply."""

    def test_two_cpus_split_a_real_suite_in_two(self):
        assert _plan(num_tests=500, port_range=(20000, 29999)) == [
            (range(0, 250), (20000, 24999)), (range(250, 500), (25000, 29999))]

    @pytest.mark.parametrize("fields, cpus", [
        ({"backend": "sim"}, 8),  # sim stays one process
        ({}, 1),  # one usable CPU
        ({"num_tests": 1}, 8),
        ({"port_range": (23100, 23100)}, 8),  # test_busy_port.py's ranges
        ({"port_range": (23100, 23104)}, 8),
    ])
    def test_one_shard_holds_the_whole_suite(self, fields, cpus):
        config = SuiteConfig(seed=1, **{"backend": "real", **fields})
        assert plan_shards(config, cpus) == [(range(config.num_tests), config.port_range)]

    def test_without_sched_getaffinity_a_real_suite_is_one_shard(self, monkeypatch):
        # The platforms that lack sched_getaffinity include those that lack
        # os.fork, so no fork is ever planned there.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _usable_cpus() == 1
        config = SuiteConfig(seed=1, backend="real", num_tests=500)
        assert plan_shards(config, _usable_cpus()) == [(range(500), config.port_range)]

    def test_a_range_gives_each_shard_a_port_plus_its_cooldown(self):
        per_shard = COOLDOWN_TESTS + 1
        assert len(_plan(cpus=8, port_range=(20000, 20000 + 3 * per_shard - 1))) == 3
        assert len(_plan(cpus=8, port_range=(20000, 20000 + 3 * per_shard - 2))) == 2

    @given(cpus=st.integers(1, 16), tests=st.integers(1, 50), lo=st.integers(1, 65000),
           size=st.integers(1, 500))
    @settings(max_examples=300, deadline=None)
    def test_shards_are_contiguous_disjoint_and_cover_both_ranges(self, cpus, tests, lo, size):
        hi = min(lo + size - 1, 65535)
        shards = _plan(cpus=cpus, num_tests=tests, port_range=(lo, hi))
        assert 1 <= len(shards) <= cpus
        assert [i for shard in shards for i in shard.tests] == list(range(tests))
        assert all(shard.tests for shard in shards)
        assert shards[0].ports[0] == lo and shards[-1].ports[1] == hi
        for a, b in zip(shards, shards[1:]):
            assert a.ports[1] + 1 == b.ports[0]
        if len(shards) > 1:
            assert all(p_hi - p_lo + 1 >= COOLDOWN_TESTS + 1 for p_lo, p_hi in
                       (shard.ports for shard in shards))


def _result(index: int, verdict: str = "FAIL") -> RunResult:
    trace = Trace(index, index, "real", [], verdict, "boom" if verdict == "FAIL" else "")
    return RunResult(trace, OracleLedger(), [], [])


def _chunk(text: str, passed: int, failing: tuple[int, ...] = (), error=None) -> ChunkResult:
    return ChunkResult(text, passed, {("m", "go", text)}, [_result(i) for i in failing], error)


class TestOrderedMerge:
    """merge_chunks on synthetic shard results, as a worker ships them."""

    def test_counts_keys_and_failures_in_index_order(self):
        written: list[str] = []
        passed, keys, failures = merge_chunks(
            [_chunk("a", 2, (1,)), _chunk("b", 1, (4, 5)), _chunk("c", 3)],
            written.append, False)
        assert (written, passed) == (["a", "b", "c"], 6)
        assert keys == {("m", "go", "a"), ("m", "go", "b"), ("m", "go", "c")}
        assert [f.trace.test_index for f in failures] == [1, 4, 5]
        report = format_report(SuiteReport(SuiteConfig(seed=1), passed, failures, {}, 0.0), "m")
        assert [line.split()[1] for line in report.splitlines()
                if line.startswith("  test ")] == ["1", "4", "5"]

    def test_abort_truncates_at_the_lowest_failing_index(self):
        # Under abort each shard stopped at its own first failure; the
        # first shard with one is the last one taken.
        written: list[str] = []
        passed, keys, failures = merge_chunks(
            [_chunk("a", 3), _chunk("b", 2, (5,)), _chunk("c", 0, (6,))], written.append, True)
        assert (written, passed, [f.trace.test_index for f in failures]) == (["a", "b"], 5, [5])
        assert ("m", "go", "c") not in keys

    def test_a_worker_error_is_raised_after_the_earlier_traces(self):
        written: list[str] = []
        later = iter([_chunk("c", 1)])
        chunks = chain([_chunk("a", 3), _chunk("b", 1, (), BackendError("no free listen port"))],
                       later)
        with pytest.raises(BackendError, match="no free listen port"):
            merge_chunks(chunks, written.append, False)
        assert written == ["a", "b"]
        assert next(later, None) is not None  # no shard after the error was read

    def test_without_a_trace_file_nothing_is_written(self):
        assert merge_chunks([_chunk("", 1), _chunk("", 2, (7,))], None, False)[0] == 3


@pytest.fixture
def forked():
    """Two usable CPUs, so that a real suite runs in two shards; skips
    where it cannot shard.  Checks that the test leaves no child process."""
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        pytest.skip("a real suite runs in one process here")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:2])
    try:
        yield os.getpid()
    finally:
        os.sched_setaffinity(0, cpus)
    assert_no_child_left()


def _model(action):
    return define_model("m", "s", [Transition("s", "s", "go", action)])


def _in_worker_after(parent: int, count: int, exc: BaseException):
    """An action that raises ``exc`` on the ``count``-th step a worker runs."""
    steps = []

    def action(inst, env):
        if os.getpid() != parent:
            steps.append(None)
            if len(steps) == count:
                raise exc

    return action


class TestForkedSuite:
    """Ten one-step tests: tests 0-4 run here, tests 5-9 in one worker."""

    def _run(self, action, tmp_path, **fields):
        config = SuiteConfig(seed=1, num_tests=10, max_steps_per_test=1, backend="real",
                             trace_path=str(tmp_path / "t.trace"), **fields)
        return run_suite(_model(action), config)

    def _indices(self, tmp_path):
        return [t.test_index for t in parse_traces((tmp_path / "t.trace").read_text())]

    def test_a_passing_suite_merges_every_shard(self, forked, tmp_path):
        report = self._run(lambda inst, env: None, tmp_path)
        assert (report.passed, report.failed) == (10, 0)
        assert self._indices(tmp_path) == list(range(10))

    def test_failures_come_back_in_index_order(self, forked, tmp_path):
        def half_fail(inst, env):
            if env.rng.next_u64() % 2:
                raise PropertyViolation("odd draw")

        report = self._run(half_fail, tmp_path)
        failed = [f.trace.test_index for f in report.failures]
        assert failed == sorted(failed) and report.tests_run == 10
        assert any(i >= 5 for i in failed)
        assert self._indices(tmp_path) == list(range(10))

    def test_abort_stops_at_the_workers_first_failure(self, forked, tmp_path):
        report = self._run(_in_worker_after(forked, 2, PropertyViolation("late")), tmp_path,
                           abort_on_first_failure=True)
        assert (report.passed, [f.trace.test_index for f in report.failures]) == (6, [6])
        assert self._indices(tmp_path) == list(range(7))

    def test_a_workers_backend_error_ends_the_suite_after_the_tests_below(self, forked,
                                                                          tmp_path):
        with pytest.raises(BackendError, match="gone"):
            self._run(_in_worker_after(forked, 2, BackendError("gone")), tmp_path)
        assert self._indices(tmp_path) == list(range(6))

    def test_an_interrupt_stops_the_workers(self, forked, tmp_path):
        def interrupted(inst, env):
            if os.getpid() == forked:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._run(interrupted, tmp_path)


class TestByteIdentity:
    """The real CLI, sharded over the usable CPUs, against a child pinned
    to one CPU: the same trace file, stdout and exit code."""

    @pytest.mark.parametrize("model", ["server-main", "minimalist"])
    def test_sharded_run_matches_one_process(self, model, tmp_path):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity to pin a child with")
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)  # stdout is a block-buffered pipe
        runs = []
        for name, pin in (("sharded", None), ("pinned", lambda: os.sched_setaffinity(0, {0}))):
            trace = tmp_path / f"{name}.trace"
            proc = subprocess.run(
                [sys.executable, "-m", "netmbt", "run", "--model", model, "--backend", "real",
                 "--seed", "11", "--tests", "300", "--trace-out", str(trace)],
                capture_output=True, text=True, env=env, preexec_fn=pin)
            assert proc.stderr == ""
            assert proc.stdout.splitlines().count("seed 11") == 1
            runs.append((proc.returncode, _ELAPSED.sub("(N.NNs)", proc.stdout),
                         trace.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert_no_child_left()
