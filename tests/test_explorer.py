"""Explorer: scheduling, suite determinism, isolation, replay, traces, DOT."""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import pytest

from conftest import pool_sets
from netmbt.efsm import INIT_LABEL, ModelInstance, Transition, define_model
from netmbt.errors import BackendError, ConfigError, DivergenceError
from netmbt.explorer import (
    _COVERAGE_KEY,
    EnabledTable,
    ModelCoverage,
    SuiteConfig,
    SuiteReport,
    _coverage,
    export_dot,
    format_report,
    pick_next,
    port_pool,
    replay,
    run_single_test,
    run_suite,
)
from netmbt.explorer import TestResult as RunResult  # not a test class
from netmbt.models import MODEL_REGISTRY
from netmbt.portman import PortPool
from netmbt.rng import SeededRng, derive_seed
from netmbt.simnet import LATENCIES, FaultKind, LatencyModel
from netmbt.trace import Trace, parse_traces, serialize_trace


def NOOP(inst, env):
    return None


SERVER_MAIN = MODEL_REGISTRY["server-main"]
MINIMALIST = MODEL_REGISTRY["minimalist"]


def fired(result: RunResult) -> int:
    """The transitions a test fired: its records that are not a launch's."""
    return sum(r.label != INIT_LABEL for r in result.trace.steps)


def coverage_of(traces: list[Trace]) -> dict[str, ModelCoverage]:
    """Coverage recomputed from recorded traces alone."""
    return _coverage({_COVERAGE_KEY(r) for t in traces for r in t.steps}, MODEL_REGISTRY)


# ---------------------------------------------------------------------------
# Independent DOT grammar checker (subset: digraph with node/edge/attr stmts)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r'\s*(?:("(?:[^"\\]|\\.)*")|(\w+)|(->)|([{}\[\];=,]))', re.S
)


def parse_dot(text: str) -> tuple[int, int]:
    """Parse a DOT digraph; returns (node_count, edge_count) or raises."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"lexical error at {text[pos:pos+20]!r}")
            break
        tokens.append(m.group(0).strip())
        pos = m.end()

    it = iter(tokens)

    def expect(want):
        tok = next(it)
        if tok != want:
            raise ValueError(f"expected {want!r}, got {tok!r}")

    def is_id(tok):
        return tok is not None and (tok.startswith('"') or re.fullmatch(r"\w+", tok))

    expect("digraph")
    tok = next(it)
    if is_id(tok):
        tok = next(it)
    if tok != "{":
        raise ValueError("missing '{'")
    nodes = edges = 0
    tok = next(it)
    while tok != "}":
        if not is_id(tok):
            raise ValueError(f"statement must start with an identifier: {tok!r}")
        head = tok
        tok = next(it)
        if tok == "=":  # graph attribute: id = id ;
            value = next(it)
            if not is_id(value):
                raise ValueError("attribute value expected")
            expect(";")
        elif tok == "->":
            target = next(it)
            if not is_id(target):
                raise ValueError("edge target expected")
            edges += 1
            tok = next(it)
            if tok == "[":
                _parse_attrs(it, is_id)
                tok = next(it)
            if tok != ";":
                raise ValueError("missing ';' after edge")
        elif tok == ";":
            nodes += 1
        elif tok == "[":
            _parse_attrs(it, is_id)
            expect(";")
            nodes += 1
        else:
            raise ValueError(f"unexpected token {tok!r} after {head!r}")
        tok = next(it)
    return nodes, edges


def _parse_attrs(it, is_id):
    while True:
        key = next(it)
        if key == "]":
            return
        if not is_id(key):
            raise ValueError(f"attribute name expected, got {key!r}")
        nxt = next(it)
        if nxt != "=":
            raise ValueError("'=' expected in attribute")
        if not is_id(next(it)):
            raise ValueError("attribute value expected")
        sep = next(it)
        if sep == "]":
            return
        if sep != ",":
            raise ValueError("',' or ']' expected in attribute list")


class TestPickNext:
    def test_single_pair_probability_one(self):
        spec = define_model("m", "s", [Transition("s", "s", "only", NOOP)])
        inst = ModelInstance(1, spec, {})
        rng = SeededRng(0)
        assert pick_next(EnabledTable([inst]), rng)[1].label == "only"

    def test_empty_returns_none_and_consumes_no_draw(self):
        spec = define_model("m", "s", [])
        inst = ModelInstance(1, spec, {})
        rng = SeededRng(42)
        before = rng.next_u64()
        rng2 = SeededRng(42)
        assert pick_next(EnabledTable([inst]), rng2) is None
        assert rng2.next_u64() == before

    def test_same_rng_state_same_pick(self):
        spec = define_model("m", "s", [Transition("s", "s", f"t{i}", NOOP) for i in range(5)])
        inst = ModelInstance(1, spec, {})
        table = EnabledTable([inst])
        assert pick_next(table, SeededRng(7))[1] is pick_next(table, SeededRng(7))[1]

    def test_uniform_frequency_over_two_instances(self):
        # Two instances with 2 and 3 unit-weight transitions: each of the five
        # pairs must appear with frequency 1/5 +/- 0.01 over 50,000 picks.
        spec_a = define_model("A", "s", [Transition("s", "s", f"a{i}", NOOP) for i in range(2)])
        spec_b = define_model("B", "s", [Transition("s", "s", f"b{i}", NOOP) for i in range(3)])
        instances = [ModelInstance(1, spec_a, {}), ModelInstance(2, spec_b, {})]
        table, rng = EnabledTable(instances), SeededRng(2024)
        counts = Counter()
        for _ in range(50_000):
            _, t = pick_next(table, rng)
            counts[t.label] += 1
        assert len(counts) == 5
        for label, n in counts.items():
            assert 0.19 * 50_000 <= n <= 0.21 * 50_000, (label, n)

    def test_weights_bias_selection(self):
        ts = [Transition("s", "s", "heavy", NOOP, weight=9.0),
              Transition("s", "s", "light", NOOP, weight=1.0)]
        inst = ModelInstance(1, define_model("m", "s", ts), {})
        table, rng = EnabledTable([inst]), SeededRng(1)
        counts = Counter(pick_next(table, rng)[1].label for _ in range(10_000))
        assert 0.87 <= counts["heavy"] / 10_000 <= 0.93

    def test_dead_instances_never_scheduled(self):
        live = ModelInstance(1, define_model("m", "s", [Transition("s", "s", "go", NOOP)]), {})
        dead = ModelInstance(2, define_model("d", "s", []), {})
        table, rng = EnabledTable([dead, live]), SeededRng(3)
        for _ in range(50):
            inst, _ = pick_next(table, rng)
            assert inst is live


class TestSuites:
    def test_empty_root_passes_with_zero_steps(self):
        spec = define_model("empty", "s", [])
        rep = run_suite(spec, SuiteConfig(seed=1, num_tests=5))
        assert rep.passed == 5
        for i in range(5):
            result = run_single_test(spec, SuiteConfig(seed=1), derive_seed(1, i), i, None)
            assert fired(result) == 0

    def test_a_total_of_zero_is_reported_as_a_total(self):
        report = run_suite(define_model("m", "s", []), SuiteConfig(seed=1, num_tests=2))
        assert format_report(report, "m").splitlines()[2] == (
            "coverage m states 1/1 transitions 0/0")
        unknown = report._replace(coverage={"m": ModelCoverage({"s"}, set(), None, None)})
        assert format_report(unknown, "m").splitlines()[2] == "coverage m states 1 transitions 0"

    def test_totals_come_from_the_registered_models(self):
        report = run_suite(SERVER_MAIN, SuiteConfig(seed=1, num_tests=5))
        totals = {name: (cov.states_total, cov.transitions_total)
                  for name, cov in report.coverage.items()}
        assert totals["worker"] == (6, 24) and totals["client"] == (3, 4)

    def test_a_model_neither_registered_nor_the_root_has_no_totals(self):
        child = define_model("orphan", "s", [])
        spawn = Transition("s", "s", "spawn", lambda inst, env: env.launch(child, {}))
        report = run_suite(define_model("m", "s", [spawn]), SuiteConfig(seed=1, num_tests=1))
        assert report.coverage["m"][2:] == (1, 1)
        assert report.coverage["orphan"][2:] == (None, None)

    def test_budget_is_respected(self):
        for backend in ("sim", "real"):
            cfg = SuiteConfig(seed=2, num_tests=30, max_steps_per_test=17, backend=backend)
            pool = port_pool(cfg)  # None on sim, which leases no ports
            for i in range(cfg.num_tests):
                result = run_single_test(SERVER_MAIN, cfg, derive_seed(2, i), i, pool)
                assert fired(result) <= 17
                if pool is not None:
                    assert not pool_sets(pool).leased  # every lease returned at test end

    def test_suite_determinism_byte_identical(self, tmp_path):
        paths = []
        for i in (1, 2):
            p = tmp_path / f"run{i}.trace"
            run_suite(SERVER_MAIN,
                      SuiteConfig(seed=77, num_tests=60, trace_path=str(p)))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
        assert paths[0]  # non-empty
        # Pinned digests guard the replay of traces recorded by older code,
        # which a comparison of two runs of the same code cannot.  The fault
        # runs also pin the oracle's failure messages.
        pinned = [
            (MINIMALIST, 2000, {}, 0,
             "0e006581b60b326bd4753c1f0bb335bade8da0b1f7633c85b866a30b556fd09a"),
            (SERVER_MAIN, 500, {"fault": FaultKind.DUPLICATE_BYTES}, 156,
             "c6bdc482741dc60696a90343b1ea7b8cbe349c7a483bf0b31b0b920a77f749df"),
            (SERVER_MAIN, 500, {"fault": FaultKind.PHANTOM_READINESS}, 292,
             "9562f1d6c45fa494f2601769210f8d22f00b40cda62cece8c0592596b6db1bd4"),
            (SERVER_MAIN, 500, {"fault": FaultKind.DROP_BYTES}, 0,
             "4b30f1f02d24c516e3b9389454332f35c69856253a0384bb6703c18d821c20cc"),
            (SERVER_MAIN, 500, {"latency": "zero"}, 0,
             "3441bc233415ef61467cba2933d1783beaa36129a2a15bf113a451a01bdd9200"),
            (MINIMALIST, 2000, {"max_steps_per_test": 1}, 0,
             "d5f56f60ad92eadf63903fc6fa87e79a310f8effb71aa658cb060a832c7d74ba"),
        ]
        for spec, tests, settings, failed, digest in pinned:
            p = tmp_path / f"{spec.name}-{tests}.trace"
            rep = run_suite(spec, SuiteConfig(seed=42, num_tests=tests, trace_path=str(p),
                                              **settings))
            assert rep.failed == failed
            assert hashlib.sha256(p.read_bytes()).hexdigest() == digest, (spec.name, settings)

    def test_test_isolation_rerun_second_alone(self, tmp_path):
        # Drop test 0 entirely: rerunning test 1 from its derived seed alone
        # yields the identical trace.
        p = tmp_path / "suite.trace"
        cfg = SuiteConfig(seed=88, num_tests=4, trace_path=str(p))
        run_suite(SERVER_MAIN, cfg)
        recorded = parse_traces(p.read_text())
        alone = run_single_test(SERVER_MAIN, cfg, derive_seed(88, 1), 1, None)
        assert serialize_trace(alone.trace) == serialize_trace(recorded[1])

    def test_abort_on_first_failure_stops_early(self):
        cfg = SuiteConfig(seed=9, num_tests=1000,
                          fault=FaultKind.DUPLICATE_BYTES,
                          abort_on_first_failure=True)
        rep = run_suite(SERVER_MAIN, cfg)
        assert rep.failed == 1
        assert rep.tests_run < 1000

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_suite(MINIMALIST, SuiteConfig(seed=1, num_tests=0))
        with pytest.raises(ConfigError):
            run_suite(MINIMALIST, SuiteConfig(seed=1, backend="carrier-pigeon"))
        with pytest.raises(ConfigError):
            run_suite(MINIMALIST, SuiteConfig(seed=1, fault=FaultKind.DROP_BYTES,
                                              backend="real"))
        with pytest.raises(ConfigError):
            run_suite(MINIMALIST, SuiteConfig(seed=-1))

    def test_fault_that_is_not_a_fault_kind_is_config_error(self):
        # its value string would otherwise run the suite with no fault at all
        with pytest.raises(ConfigError, match="FaultKind"):
            SuiteConfig(seed=42, num_tests=300, fault="duplicate-bytes").validate()

    def test_constructor_record_precedes_all_later_steps(self):
        # every instance's <init> record comes before any of its other steps
        cfg = SuiteConfig(seed=4, num_tests=20)
        for i in range(20):
            result = run_single_test(SERVER_MAIN, cfg, derive_seed(4, i), i, None)
            born: dict[int, int] = {}
            for position, rec in enumerate(result.trace.steps):
                if rec.label == "<init>":
                    assert rec.instance_id not in born
                    born[rec.instance_id] = position
                else:
                    assert born[rec.instance_id] < position

    def test_unclassified_exception_fails_only_its_test(self, tmp_path):
        opened = []

        def bug(inst, env):
            server = env.net.open_server()
            opened.append(server)
            env.net.bind(server)
            raise KeyError("conn")

        spec = define_model("buggy", "s", [Transition("s", "s", "bug", bug)])
        p = tmp_path / "t.trace"
        rep = run_suite(spec, SuiteConfig(seed=1, num_tests=3, trace_path=str(p)))
        assert (rep.tests_run, rep.passed, rep.failed) == (3, 0, 3)
        assert [f.trace.message for f in rep.failures] == ["unclassified KeyError: 'conn'"] * 3
        traces = parse_traces(p.read_text())
        assert [t.verdict for t in traces] == ["FAIL"] * 3
        # the step that raised is recorded, and is the failing step
        assert [t.steps[-1].line(len(t.steps) - 1) for t in traces] == ["1 1 buggy bug - s"] * 3
        assert [t.failing_step_index for t in traces] == [1] * 3
        report = format_report(rep, "buggy")
        assert "coverage buggy states 1/1 transitions 1/1" in report
        assert report.count(" step 1: unclassified KeyError") == 3
        assert len(opened) == 3 and all(server.closed for server in opened)
        # On real sockets the lease taken before the failure comes back.
        config = SuiteConfig(seed=1, backend="real", port_range=(20000, 20010))
        pool = port_pool(config)
        result = run_single_test(spec, config, derive_seed(1, 0), 0, pool)
        assert not result.passed and pool_sets(pool).leased == frozenset()
        assert pool_sets(pool).cooling == {20000}

    def test_backend_error_still_aborts_the_suite(self):
        def unusable(inst, env):
            raise BackendError("no loopback")

        spec = define_model("m", "s", [Transition("s", "s", "go", unusable)])
        with pytest.raises(BackendError, match="no loopback"):
            run_suite(spec, SuiteConfig(seed=1, num_tests=3))

    def test_a_test_ticks_its_pool_clock(self):
        # Two ports, each resting two tests: the first test's port is free
        # again for the third only if the first two tests advanced the clock.
        pool = PortPool(20000, 20001)
        config = SuiteConfig(seed=3, backend="real")
        for i in range(3):
            result = run_single_test(MINIMALIST, config, derive_seed(3, i), i, pool)
            assert result.passed and result.trace.steps[0].state == "bound"
        assert pool_sets(pool).free == {20001} and pool_sets(pool).cooling == {20000}

    def test_a_constructor_that_launches_fails_its_test_naming_both_models(self):
        # The child would take the id the parent was given before its
        # constructor ran; no two records may share an instance id.
        child = define_model("child", "c", [])

        def launch_child(inst, env):
            env.launch(child, {})

        parent = define_model("parent", "p", [], launch_child)
        spawn = Transition("s", "s", "spawn", lambda inst, env: env.launch(parent, {}))
        config = SuiteConfig(seed=1)
        for root, where, lines in [
            (parent, "", ["0 1 child <init> - c"]),
            (define_model("m", "s", [spawn]), "m.spawn: ",
             ["0 1 m <init> - s", "1 2 child <init> - c", "2 1 m spawn - s"]),
        ]:
            trace = run_single_test(root, config, derive_seed(1, 0), 0, None).trace
            assert [r.line(i) for i, r in enumerate(trace.steps)] == lines
            assert (trace.verdict, trace.message) == (
                "FAIL", f"{where}constructor of parent may not launch child")

    def test_instance_ids_monotone_from_one(self):
        result = run_single_test(SERVER_MAIN, SuiteConfig(seed=4), derive_seed(4, 0), 0, None)
        init_ids = [r.instance_id for r in result.trace.steps if r.label == "<init>"]
        assert init_ids == list(range(1, len(init_ids) + 1))


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.trace"
        cfg = SuiteConfig(seed=13, num_tests=8, trace_path=str(p))
        run_suite(SERVER_MAIN, cfg)
        text = p.read_text()
        traces = parse_traces(text)
        assert len(traces) == 8
        assert "".join(serialize_trace(t) for t in traces) == text

    def test_header_and_verdict_shape(self, tmp_path):
        p = tmp_path / "t.trace"
        run_suite(MINIMALIST, SuiteConfig(seed=13, num_tests=1, trace_path=str(p)))
        lines = p.read_text().splitlines()
        assert re.fullmatch(r"netmbt-trace v1 seed=\d+ test=0 backend=sim", lines[0])
        assert re.fullmatch(r"\d+ \d+ \S+ \S+ \S+ \S+", lines[1])
        assert lines[-1].startswith("verdict ")

    def test_coverage_recomputable_from_trace_file(self, tmp_path):
        p = tmp_path / "t.trace"
        cfg = SuiteConfig(seed=21, num_tests=50, trace_path=str(p))
        rep = run_suite(SERVER_MAIN, cfg)
        recomputed = coverage_of(parse_traces(p.read_text()))
        assert set(recomputed) == set(rep.coverage)
        for name, cov in rep.coverage.items():
            assert recomputed[name].states_visited == cov.states_visited
            assert recomputed[name].transitions_fired == cov.transitions_fired

    def test_coverage_of_traces_equals_suite_coverage_with_failures(self, tmp_path):
        p = tmp_path / "t.trace"
        cfg = SuiteConfig(seed=42, num_tests=500, trace_path=str(p),
                          fault=FaultKind.DUPLICATE_BYTES)
        rep = run_suite(SERVER_MAIN, cfg)
        traces = parse_traces(p.read_text())
        assert rep.failed > 0 and sum(t.verdict == "FAIL" for t in traces) == rep.failed
        assert coverage_of(traces) == rep.coverage

    @pytest.mark.parametrize("cfg", [
        SuiteConfig(seed=42, num_tests=300, fault=FaultKind.DUPLICATE_BYTES),
        SuiteConfig(seed=42, num_tests=20, backend="real"),
    ], ids=["sim-duplicate-bytes", "real"])
    def test_results_equal_their_parsed_trace_file(self, cfg):
        pool = port_pool(cfg)
        results = [run_single_test(SERVER_MAIN, cfg, derive_seed(cfg.seed, i), i, pool)
                   for i in range(cfg.num_tests)]
        text = "".join(serialize_trace(r.trace) for r in results)
        assert parse_traces(text) == [r.trace for r in results]
        for r in results:
            launches = max(rec.instance_id for rec in r.trace.steps)
            assert fired(r) == len(r.trace.steps) - launches  # one <init> per instance
        report = run_suite(SERVER_MAIN, cfg)
        assert report.tests_run == report.passed + report.failed == cfg.num_tests
        assert report.failures == [r for r in results if not r.passed]
        if cfg.fault is not None:
            assert report.failed > 0


    @pytest.mark.parametrize("text, error", [
        ("netmbt-trace v1 seed=abc test=0 backend=sim\nverdict PASS\n", "line 1: invalid"),
        ("netmbt-trace v1 seed=1 backend=sim\nverdict PASS\n", "line 1: trace header lacks test="),
        ("hello\n", "line 1: record before trace header"),
        ("verdict PASS\n", "line 1: record before trace header"),
        ("netmbt-trace v1 seed=1 test=0 backend=sim\n\n0 1 m\n", "line 3: malformed step"),
        ("netmbt-trace v1 seed=1 test=0 backend=sim\nx 1 m l - s\n", "line 2: invalid"),
        ("netmbt-trace v1 seed=1 test=0 backend=sim\nverdict MAYBE\n",
         "line 2: unknown verdict 'MAYBE'"),
        ("netmbt-trace v1 seed=1 test=0 backend=sim\n0 1 m l - s\n"
         "netmbt-trace v1 seed=2 test=1 backend=sim\nverdict PASS\n",
         "line 3: trace header before the previous trace's verdict"),
        ("netmbt-trace v1 seed=1 test=0 backend=sim\n0 1 m l - s\n",
         "line 2: end of file before the verdict line"),
    ])
    def test_malformed_file_is_config_error_with_line(self, text, error):
        with pytest.raises(ConfigError) as e:
            parse_traces(text)
        assert str(e.value).startswith(error)


class TestReplay:
    def test_passing_trace_replays_identically(self, tmp_path):
        p = tmp_path / "t.trace"
        cfg = SuiteConfig(seed=31, num_tests=5, trace_path=str(p))
        run_suite(SERVER_MAIN, cfg)
        re_cfg = SuiteConfig(seed=0)
        pool = port_pool(re_cfg)
        for trace in parse_traces(p.read_text()):
            result = replay(trace, SERVER_MAIN, re_cfg, pool)
            assert result.trace.verdict == trace.verdict

    def test_wrong_seed_diverges(self, tmp_path):
        p = tmp_path / "t.trace"
        run_suite(SERVER_MAIN, SuiteConfig(seed=31, num_tests=1, trace_path=str(p)))
        trace = parse_traces(p.read_text())[0]
        trace = trace._replace(test_seed=trace.test_seed ^ 1)
        re_cfg = SuiteConfig(seed=0)
        with pytest.raises(DivergenceError) as e:
            replay(trace, SERVER_MAIN, re_cfg, port_pool(re_cfg))
        assert e.value.step_index >= 0

    @pytest.mark.parametrize("edit", ["step", "extend", "truncate", "verdict", "non-canonical"])
    def test_edited_trace_diverges_at_its_first_differing_line(self, tmp_path, edit):
        p = tmp_path / "t.trace"
        run_suite(SERVER_MAIN, SuiteConfig(seed=31, num_tests=1, trace_path=str(p)))
        header, *records, verdict = p.read_text().splitlines()
        assert verdict == "verdict PASS" and len(records) > 5
        n = len(records)
        edited = list(records)
        if edit == "step":
            edited[3] = records[3].rsplit(" ", 1)[0] + " Bogus"
            want = (3, edited[3], records[3])
        elif edit == "extend":
            edited.append(f"{n} 1 server-main extra - Listening")
            want = (n, edited[-1], "<missing>")
        elif edit == "truncate":
            del edited[-1]
            want = (n - 1, "<missing>", records[-1])
        elif edit == "verdict":
            verdict = "verdict FAIL lost  bytes"
            want = (n, verdict, "verdict PASS")
        else:  # "01" for "1" is refused as the file is read, before any replay
            edited[1] = "0" + records[1]
            want = None
        text = "\n".join([header, *edited, verdict]) + "\n"
        if want is None:
            with pytest.raises(ConfigError,
                               match=r"^line 3: '01' is not a canonical integer$"):
                parse_traces(text)
            return
        trace = parse_traces(text)[0]
        re_cfg = SuiteConfig(seed=0)
        with pytest.raises(DivergenceError) as e:
            replay(trace, SERVER_MAIN, re_cfg, port_pool(re_cfg))
        assert (e.value.step_index, e.value.expected, e.value.actual) == want

    def test_failing_fault_trace_replays_to_same_step(self):
        cfg = SuiteConfig(seed=9, num_tests=200, fault=FaultKind.DUPLICATE_BYTES)
        rep = run_suite(SERVER_MAIN, cfg)
        assert rep.failures
        failing = rep.failures[0].trace
        re_cfg = SuiteConfig(seed=0, fault=FaultKind.DUPLICATE_BYTES)
        result = replay(failing, SERVER_MAIN, re_cfg, port_pool(re_cfg))
        assert result.trace.verdict == "FAIL"
        assert result.trace.failing_step_index == failing.failing_step_index


class TestDotExport:
    def test_empty_model_one_node_zero_edges(self):
        spec = define_model("empty", "s0", [])
        nodes, edges = parse_dot(export_dot(spec))
        assert (nodes, edges) == (1, 0)

    def test_minimalist_two_nodes_two_edges(self):
        nodes, edges = parse_dot(export_dot(MINIMALIST))
        assert (nodes, edges) == (2, 2)

    def test_every_registered_model_parses(self):
        for spec in MODEL_REGISTRY.values():
            nodes, edges = parse_dot(export_dot(spec))
            assert nodes == len(spec.states)
            assert edges >= len(spec.transitions) - sum(
                1 for t in spec.transitions if t.outcome_branches)

    def test_conventions_dashed_branches_red_overrides(self):
        text = export_dot(SERVER_MAIN)
        assert "style=dashed" in text
        assert "color=red" in text
        for line in text.splitlines():
            if "acceptTry/nullResult" in line or "acceptTry/connected" in line:
                assert "style=dashed" in line
            if "AlreadyBoundError" in line:
                assert "color=red" in line

    def test_deterministic_output(self):
        assert export_dot(SERVER_MAIN) == export_dot(SERVER_MAIN)


class TestRecordTypes:
    """The run path's records are plain classes and NamedTuples; they keep
    the constructors, defaults and equality they had as dataclasses."""

    def test_transitions_and_specs_are_equal_by_identity(self):
        a = Transition("s", "s", "t", NOOP)
        b = Transition("s", "s", "t", NOOP, 1.0, {}, None)
        assert (a.weight, a.exception_overrides, a.outcome_branches) == (1.0, {}, None)
        assert a.exception_overrides is not b.exception_overrides
        assert a != b and len({a, b}) == 2
        spec = define_model("m", "s", [a])
        assert spec == spec and spec != define_model("m", "s", [a])

    def test_configs_and_faults_are_immutable_values(self):
        config = SuiteConfig(7)
        assert config == SuiteConfig(seed=7, num_tests=100, max_steps_per_test=100,
                                     backend="sim", abort_on_first_failure=False,
                                     trace_path=None, port_range=(20000, 29999),
                                     latency="default", fault=None)
        default = LATENCIES["default"]
        assert default == LatencyModel((0, 1, 2), True)
        assert LATENCIES["zero"] == LatencyModel(choices=(0,), split=False)
        assert len({default, LatencyModel((0, 1, 2), True)}) == 1
        for value in (config, default):
            with pytest.raises(AttributeError):
                value.seed = 1

    def test_traces_and_coverage_are_immutable_values(self):
        trace = Trace(1, 0, "sim", [])
        assert (trace.verdict, trace.message) == ("PASS", "")
        assert trace == Trace(test_seed=1, test_index=0, backend="sim", steps=[])
        failed = trace._replace(verdict="FAIL")
        assert failed != trace and trace.verdict == "PASS"
        coverage = ModelCoverage({"s"}, set(), 1, None)
        assert coverage == ModelCoverage(states_visited={"s"}, transitions_fired=set(),
                                         states_total=1, transitions_total=None)
        result = RunResult(failed, None, [], [])
        assert (result.diagnostics, result.flow_stats, result.passed) == ([], [], False)
        report = SuiteReport(SuiteConfig(1), 1, [], {}, 0.5)
        assert report.all_passed and report.elapsed_seconds == 0.5
        assert (report.tests_run, report.failed) == (1, 0)
        for value in (trace, coverage, result, report):
            assert isinstance(value, tuple)
            with pytest.raises(AttributeError):
                setattr(value, value._fields[0], None)
