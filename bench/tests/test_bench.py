"""Self-test of the benchmark: tracing perturbs nothing, counts repeat,
names are well formed, and the command refuses to run without sources.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]{1,64}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECT = json.loads((BENCH / "expectations.json").read_text(encoding="utf-8"))


def _runner(tmp_path: Path) -> run.Runner:
    return run.Runner(tmp_path, time.monotonic() + 120)


def _traced(runner: run.Runner, w: run.Workload, seed: int, tests: int, name: str):
    """Traced run with a trace file: (trace facts, span totals)."""
    spans = runner.workdir / name
    child = runner.spawn(run.run_args(w, seed, tests, f"{name}.trace"), spans)
    runner.check_run(child, w, tests)
    totals = run.SpanTotals()
    totals.add(spans)
    return run.trace_facts(runner.workdir / f"{name}.trace"), totals


def test_metric_names_are_well_formed_and_mapped():
    declared = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    declared += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME_RE.fullmatch(n) for n in declared), declared
    assert len(declared) == len(set(declared))
    # Every layer metric the benchmark computes is documented, and every gated
    # one is computed, even from an empty trace; the measuring loop adds the
    # two that compare runs or read /proc.
    computed = set(run.layer_metrics(run.SpanTotals()))
    computed |= {"trace.overhead_ratio", "realnet.time_wait_after"}
    assert computed == set(EXPECT["per_layer"])
    assert {m["name"] for m in SPEC["per_layer"]} <= computed
    gated = {w["name"] for w in SPEC["workloads"]}
    assert set(run.WORKLOADS) == set(EXPECT["workloads"])
    assert gated == {n for n, e in EXPECT["workloads"].items() if e["gated"]}
    assert {m["name"] for m in SPEC["end_to_end"]} == set(EXPECT["end_to_end"])


def test_tracing_leaves_sim_traces_byte_identical(tmp_path):
    runner = _runner(tmp_path)
    for name in ("sim-suite", "trace-replay"):
        w = run.WORKLOADS[name]
        path = tmp_path / f"plain-{name}.trace"
        child = runner.spawn(run.run_args(w, 5, 150, str(path)))
        runner.check_run(child, w, 150)
        traced, totals = _traced(runner, w, 5, 150, f"traced-{name}")
        assert traced.sha256 == run.trace_facts(path).sha256, name
        assert totals.calls["efsm.fire_transition"] == traced.steps
    assert runner.failed == 0, runner.problems


def test_counts_repeat_across_runs_with_the_same_seed(tmp_path):
    runner = _runner(tmp_path)
    w = run.WORKLOADS["sim-suite"]
    keys = ("efsm.fire_transition", "rng.next_u64", "explorer.enabled_transitions",
            "efsm.instantiate", "adapter.read", "models.ledger.record_read")
    seen = []
    for attempt in range(2):
        _, totals = _traced(runner, w, 9, 120, f"repeat-{attempt}")
        seen.append(([totals.calls.get(k, 0) for k in keys], totals.counters))
    assert seen[0] == seen[1]
    assert all(seen[0][0])
    assert runner.failed == 0, runner.problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
