"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The CLI-phrased criteria go through a real
subprocess so the exit-code contract is what is actually measured.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from conftest import child_env
from conftest import run_cli as cli
from netmbt.efsm import ModelInstance, Transition, define_model
from netmbt.errors import AdapterError
from netmbt.explorer import EnabledTable, SuiteConfig, pick_next, run_suite
from netmbt.models import MODEL_REGISTRY
from netmbt.rng import SeededRng, maybe
from netmbt.simnet import LATENCIES, SimBackend
from netmbt.trace import parse_traces

# The models whose every state and transition the coverage criterion asks for.
CORE_MODELS = ("minimalist", "server-main", "worker", "client")


# sha256 of `run --model server-main --backend sim --seed 42 --tests 2000`.
SERVER_MAIN_SEED42_DIGEST = "819c97108a1698a0b74dea1f317dee4c90060ae1f5091783fe5de48e8c340f61"


def check(name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {name}: {verdict}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


class TestAcceptance:
    def test_zero_false_positive_suite(self, tmp_path):
        # 10,000 sim tests against the detailed server model: exit 0, < 60 s.
        started = time.perf_counter()
        proc = cli("run", "--model", "server-main", "--backend", "sim",
                   "--tests", "10000", "--seed", "7", cwd=tmp_path)
        elapsed = time.perf_counter() - started
        check("zero-false-positive-suite",
              proc.returncode == 0 and elapsed < 60.0,
              f"exit={proc.returncode} elapsed={elapsed:.1f}s")

    def test_real_backend_soak(self, tmp_path):
        # 2,000 tests over real loopback sockets: exit 0, no port exhaustion,
        # < 5 min.
        started = time.perf_counter()
        proc = cli("run", "--model", "server-main", "--backend", "real",
                   "--tests", "2000", "--seed", "20", cwd=tmp_path)
        elapsed = time.perf_counter() - started
        ok = (proc.returncode == 0 and elapsed < 300.0
              and "no free listen port" not in proc.stderr)
        check("real-backend-soak", ok,
              f"exit={proc.returncode} elapsed={elapsed:.1f}s")

    def test_trace_determinism(self, tmp_path):
        digests = []
        for i in (1, 2):
            path = tmp_path / f"det{i}.trace"
            proc = cli("run", "--model", "server-main", "--backend", "sim",
                       "--seed", "42", "--tests", "2000",
                       "--trace-out", str(path), cwd=tmp_path)
            assert proc.returncode == 0
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        check("trace-determinism",
              digests[0] == digests[1] == SERVER_MAIN_SEED42_DIGEST,
              f"sha256={digests[0][:16]}")

    def test_oracle_sensitivity_duplicate_bytes(self, tmp_path):
        self._sensitivity_case(tmp_path, "duplicate-bytes")

    def test_oracle_sensitivity_phantom_readiness(self, tmp_path):
        self._sensitivity_case(tmp_path, "phantom-readiness")

    def _sensitivity_case(self, tmp_path, fault: str):
        trace_path = tmp_path / f"{fault}.trace"
        proc = cli("run", "--model", "server-main", "--backend", "sim",
                   "--seed", "9", "--tests", "1000", "--fault", fault,
                   "--trace-out", str(trace_path), cwd=tmp_path)
        failing = [t for t in parse_traces(trace_path.read_text()) if t.verdict == "FAIL"]
        ok = proc.returncode == 1 and bool(failing)
        detail = f"exit={proc.returncode} failures={len(failing)}"
        if ok:
            # the first failing trace must replay to the same failing step
            rep = cli("replay", "--replay", str(trace_path), "--fault", fault,
                      cwd=tmp_path)
            expected = f"replay test {failing[0].test_index}: MATCH verdict=FAIL " \
                       f"step {failing[0].failing_step_index}"
            ok = rep.returncode == 1 and expected in rep.stdout
            detail += f" replay-exit={rep.returncode}"
        check(f"oracle-sensitivity-{fault}", ok, detail)

    def test_oracle_tolerates_drop_bytes(self, tmp_path):
        # Under-delivery is indistinguishable from latency: the suite stays
        # green when bytes are silently dropped.
        proc = cli("run", "--model", "server-main", "--backend", "sim",
                   "--seed", "9", "--tests", "1000", "--fault", "drop-bytes",
                   cwd=tmp_path)
        check("oracle-tolerates-drop-bytes", proc.returncode == 0,
              f"exit={proc.returncode}")

    def test_deadlock_detection_real_backend(self, tmp_path):
        # Blocking accept before the client launch: the watchdog converts the
        # deadlock into a failure within its 5 s budget.
        started = time.perf_counter()
        proc = cli("run", "--model", "minimalist-misordered", "--backend", "real",
                   "--tests", "1", "--seed", "0", cwd=tmp_path)
        elapsed = time.perf_counter() - started
        ok = (proc.returncode == 1 and "watchdog" in proc.stdout
              and elapsed < 8.0)  # 5 s budget plus process overhead
        check("deadlock-detection", ok,
              f"exit={proc.returncode} elapsed={elapsed:.1f}s")

    def test_full_coverage_all_four_models(self):
        # 1000-test sim suites; the detailed server suite exercises
        # server-main/worker/client, the minimalist suite its own root.
        merged: dict[str, tuple[set, set]] = {}
        for root in ("server-main", "minimalist"):
            rep = run_suite(MODEL_REGISTRY[root],
                            SuiteConfig(seed=7, num_tests=1000))
            assert rep.failed == 0
            for name, cov in rep.coverage.items():
                states, transitions = merged.setdefault(name, (set(), set()))
                states.update(cov.states_visited)
                transitions.update(cov.transitions_fired)
        gaps = []
        for name in CORE_MODELS:
            spec = MODEL_REGISTRY[name]
            states, transitions = merged.get(name, (set(), set()))
            missing_s = set(spec.states) - states
            missing_t = {t.label for t in spec.transitions} - transitions
            if missing_s or missing_t:
                gaps.append(f"{name}: states-{sorted(missing_s)} transitions-{sorted(missing_t)}")
        check("full-coverage", not gaps, "; ".join(gaps) or "4 models at 100%")

    def test_sim_real_conformance(self):
        # The backend contract suite, every case on sim and on real, each
        # with one fixed outcome; the scripted comparison it replaced ran
        # 68 probes.  Its misuse table raises every ErrorKind on both.
        here = Path(__file__).parent
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(here / "test_backend_contract.py")],
            capture_output=True, text=True, cwd=here.parent, env=child_env())
        summary = proc.stdout.splitlines()[-1] if proc.stdout else ""
        counts = dict.fromkeys(("passed", "failed", "error", "errors", "skipped"), 0)
        counts.update((word, int(n)) for n, word in re.findall(r"(\d+) (\w+)", summary))
        failed = counts["failed"] + counts["error"] + counts["errors"]
        ok = (proc.returncode == 0 and counts["passed"] >= 68
              and failed == counts["skipped"] == 0)
        check("sim-real-conformance", ok, f"cases={counts['passed']} failed={failed}")

    def test_engine_micro_oracles(self):
        def noop(inst, env):
            return None

        # pickNext frequency: 2 + 3 unit-weight transitions, 1/5 +/- 0.01
        spec_a = define_model("A", "s", [Transition("s", "s", f"a{i}", noop) for i in range(2)])
        spec_b = define_model("B", "s", [Transition("s", "s", f"b{i}", noop) for i in range(3)])
        instances = [ModelInstance(1, spec_a, {}), ModelInstance(2, spec_b, {})]
        table, rng = EnabledTable(instances), SeededRng(2024)
        counts = Counter(pick_next(table, rng)[1].label for _ in range(50_000))
        pick_ok = len(counts) == 5 and all(
            9500 <= n <= 10500 for n in counts.values())

        # maybe: binomial window at p = 0.5
        rng = SeededRng(12345)
        trues = sum(1 for _ in range(10_000) if maybe(rng, 0.5))
        maybe_ok = 4700 <= trues <= 5300

        # byte conservation over 10,000 random operation sequences
        driver = SeededRng(271828)
        conservation_ok = True
        for _ in range(10_000):
            net = SimBackend(SeededRng(driver.next_u64()), LATENCIES["default"])
            srv = net.open_server()
            port = net.bind(srv)
            chans = [net.connect(port)]
            sc = net.accept(srv)
            net.configure_blocking(sc, False)
            net.configure_blocking(chans[0], False)
            chans.append(sc)
            for _ in range(12):
                op = driver.below(4)
                ch = chans[driver.below(2)]
                try:
                    if op == 0:
                        net.write(ch, driver.payload(driver.randint(1, 32)))
                    elif op == 1:
                        net.read(ch, driver.randint(1, 32))
                    elif op == 2:
                        net.advance()
                    else:
                        net.shutdown_output(ch)
                except AdapterError:
                    pass
                for stats in net.flow_stats():
                    if stats["written"] != (stats["read"] + stats["delivered_unread"]
                                            + stats["in_flight"]):
                        conservation_ok = False
            if not conservation_ok:
                break

        check("engine-micro-oracles",
              pick_ok and maybe_ok and conservation_ok,
              f"pick={pick_ok} maybe={maybe_ok} conservation={conservation_ok}")
