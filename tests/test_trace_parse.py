"""Trace parsing: the compact parser against a line-by-line reference, its
line splitting, and the memory a parsed file keeps."""

from __future__ import annotations

import re
import tracemalloc
from functools import cache
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmbt.errors import ConfigError
from netmbt.explorer import SuiteConfig, port_pool, run_single_test, run_suite
from netmbt.models import MODEL_REGISTRY
from netmbt.rng import derive_seed
from netmbt.simnet import FaultKind
from netmbt.trace import (
    TRACE_HEADER,
    TRACE_MAGIC,
    TRACE_VERSION,
    StepRecord,
    Trace,
    _lines,
    parse_traces,
    serialize_trace,
)


_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


def canonical_int(text: str) -> int:
    """``int(text)`` for an integer written as ``str()`` writes one: ASCII
    digits, no leading zero, no sign but a minus."""
    value = int(text)  # int()'s own error comes first
    if not _CANONICAL_INT.fullmatch(text):
        raise ValueError(f"{text!r} is not a canonical integer")
    return value


def reference_parse_traces(text: str) -> list[Trace]:
    """The parser as it was before records were shared: every line split on
    its own, one fresh record per step.  A record line is six non-empty
    fields split by single spaces, with no other whitespace in them; its
    index is its position and its instance id is at least 1."""
    traces: list[Trace] = []
    current: Trace | None = None
    lineno = 0
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            if line.startswith(TRACE_MAGIC):
                version = line.split(" ", 2)[1]
                if version != TRACE_VERSION:
                    raise ValueError(f"unsupported trace version {version!r}")
                if current is not None:
                    raise ValueError("trace header before the previous trace's verdict")
                fields = {}
                for word in line.split()[2:]:
                    if "=" not in word:
                        raise ValueError(f"header word {word!r} is not key=value")
                    key, value = word.split("=", 1)
                    if key in fields:
                        raise ValueError(f"repeated header field {key!r}")
                    if key not in ("seed", "test", "backend"):
                        raise ValueError(f"unknown header field {key!r}")
                    fields[key] = value
                current = Trace(
                    test_seed=canonical_int(fields["seed"]),
                    test_index=canonical_int(fields["test"]),
                    backend=fields["backend"],
                    steps=[],
                )
                if not 0 <= current.test_seed < 1 << 64:
                    raise ValueError(f"seed={current.test_seed} is not a 64-bit unsigned integer")
                if current.test_index < 0:
                    raise ValueError(f"test={current.test_index} is negative")
                if current.backend not in ("sim", "real"):
                    raise ValueError(f"unknown backend {current.backend!r}")
                traces.append(current)
            elif current is None:
                raise ValueError(f"record before trace header: {line!r}")
            elif line.startswith("verdict "):
                parts = line.split(" ", 2)
                if parts[1] not in ("PASS", "FAIL"):
                    raise ValueError(f"unknown verdict {parts[1]!r}")
                if parts[1] == "PASS" and len(parts) > 2:
                    raise ValueError(f"verdict PASS carries no message: {line!r}")
                traces[-1] = current._replace(
                    verdict=parts[1], message=parts[2] if len(parts) > 2 else "")
                current = None
            else:
                parts = line.split(" ")
                if len(parts) != 6 or not all(p and not any(map(str.isspace, p)) for p in parts):
                    raise ValueError(f"malformed step record: {line!r}")
                index, instance_id = canonical_int(parts[0]), canonical_int(parts[1])
                if index != len(current.steps):
                    raise ValueError(f"record index {index} is not its position "
                                     f"{len(current.steps)}")
                if instance_id < 1:
                    raise ValueError(f"instance id {instance_id} is below 1")
                current.steps.append(StepRecord(instance_id, *parts[2:]))
        if current is not None:
            raise ValueError("end of file before the verdict line")
    except KeyError as exc:
        raise ConfigError(f"line {lineno}: trace header lacks {exc.args[0]}=") from None
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None
    return traces


@cache
def recorded_lines() -> tuple[str, ...]:
    """Six server-main tests under duplicate-bytes: PASS and FAIL blocks,
    FAIL messages, and record lines that repeat across blocks."""
    config = SuiteConfig(seed=43, fault=FaultKind.DUPLICATE_BYTES)
    pool = port_pool(config)
    traces = []
    for i in range(6):
        traces.append(run_single_test(MODEL_REGISTRY["server-main"], config,
                                      derive_seed(43, i), i, pool).trace)
    assert {t.verdict for t in traces} == {"PASS", "FAIL"}
    return tuple("".join(map(serialize_trace, traces)).splitlines())


def _parse(parser, text):
    try:
        return "ok", parser(text)
    except ConfigError as exc:
        return "error", str(exc)


BAD_INTS = ["01", "+1", "x", "", "-1", "0", "1_0", "\u0663", " 1"]
BLANKS = ["", " ", "\t", "  \t "]
SEPARATORS = ["\r\n", "\r", "\x0c", "\x85", "\u2028"]
WHITESPACE = ["\t", "\x1f", "\xa0", " "]  # none of them a line boundary


@st.composite
def mutated_texts(draw):
    """A recorded trace text after a few random edits of its lines."""
    lines = list(recorded_lines())
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(
            ["drop", "dup", "truncate", "blank", "int", "field", "space", "verdict"]))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(BLANKS)))
        elif op == "int":
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, 1)) % len(parts)] = draw(st.sampled_from(BAD_INTS))
            lines[i] = " ".join(parts)
        elif op == "field":
            parts = lines[i].split(" ")
            del parts[draw(st.integers(0, len(parts) - 1))]
            lines[i] = " ".join(parts)
        elif op == "space":
            parts = lines[i].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] += draw(st.sampled_from(WHITESPACE))
            lines[i] = " ".join(parts)
        else:  # swap a verdict line with another line, often another verdict
            verdicts = [k for k, line in enumerate(lines) if line.startswith("verdict ")]
            if verdicts:
                a = draw(st.sampled_from(verdicts))
                b = draw(st.sampled_from(verdicts)) if draw(st.booleans()) else i
                lines[a], lines[b] = lines[b], lines[a]
        if not lines:
            break
    seps = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        seps[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(SEPARATORS))
    return "".join(line + sep for line, sep in zip(lines, seps))[:None if draw(st.booleans()) else -1]


class TestCompactParse:
    def test_recorded_text_parses_as_the_reference_does(self):
        text = "\n".join(recorded_lines()) + "\n"
        traces = parse_traces(text)
        assert traces == reference_parse_traces(text)
        assert "".join(map(serialize_trace, traces)) == text

    @given(text=mutated_texts())
    @settings(max_examples=400, deadline=None)
    def test_mutated_text_parses_or_fails_as_the_reference_does(self, text):
        got, want = _parse(parse_traces, text), _parse(reference_parse_traces, text)
        assert got == want
        if got[0] == "ok":
            assert ([[type(r) for r in t.steps] for t in got[1]]
                    == [[StepRecord] * len(t.steps) for t in want[1]])

    def test_a_repeated_line_after_a_verdict_is_still_an_error(self):
        header = "netmbt-trace v1 seed=1 test=0 backend=sim"
        text = f"{header}\n0 1 m l - s\nverdict PASS\n0 1 m l - s\n"
        assert _parse(parse_traces, text) == _parse(reference_parse_traces, text)
        assert _parse(parse_traces, text)[1].startswith("line 4: record before trace header")

    @pytest.mark.parametrize("seed, test, error", [
        (0, 0, None),
        ((1 << 64) - 1, 7, None),
        (1 << 64, 0, "line 1: seed=18446744073709551616 is not a 64-bit unsigned integer"),
        (-1, 0, "line 1: seed=-1 is not a 64-bit unsigned integer"),
        (1, -1, "line 1: test=-1 is negative"),
    ])
    def test_header_seed_and_index_ranges(self, seed, test, error):
        text = f"{TRACE_HEADER} seed={seed} test={test} backend=sim\nverdict PASS\n"
        got = _parse(parse_traces, text)
        assert got == _parse(reference_parse_traces, text)
        if error is None:
            assert (got[1][0].test_seed, got[1][0].test_index) == (seed, test)
        else:
            assert got == ("error", error)

    @pytest.mark.parametrize("header, error", [
        ("seed=1 test=0 backend=real", None),
        ("seed=1 test=0 backend=bogus", "line 1: unknown backend 'bogus'"),
        ("seed=1 test=0 backend=", "line 1: unknown backend ''"),
        # the range checks come first
        ("seed=-1 test=0 backend=bogus", "line 1: seed=-1 is not a 64-bit unsigned integer"),
        ("seed=1 test=-1 backend=bogus", "line 1: test=-1 is negative"),
    ])
    def test_header_backend_is_sim_or_real(self, header, error):
        text = f"{TRACE_HEADER} {header}\nverdict PASS\n"
        got = _parse(parse_traces, text)
        assert got == _parse(reference_parse_traces, text)
        if error is None:
            assert got[1][0].backend == "real"
        else:
            assert got == ("error", error)

    @pytest.mark.parametrize("header, error", [
        ("seed=1 test=0 backend=sim seed=2", "line 1: repeated header field 'seed'"),
        ("seed=1 test=0 test=3 backend=sim", "line 1: repeated header field 'test'"),
        ("seed=1 test=0 backend=sim junk=x", "line 1: unknown header field 'junk'"),
        ("seed=1 test=0 =0 backend=sim", "line 1: unknown header field ''"),
        ("seed=1 test=0 backend=sim stray", "line 1: header word 'stray' is not key=value"),
        # a word is checked as it is read, before the missing field
        ("seed=1 test=0 backend", "line 1: header word 'backend' is not key=value"),
        ("backend=sim test=0 seed=1", None),  # any order
    ])
    def test_header_names_each_field_once_and_nothing_else(self, header, error):
        text = f"{TRACE_HEADER} {header}\nverdict PASS\n"
        got = _parse(parse_traces, text)
        assert got == _parse(reference_parse_traces, text)
        if error is None:
            assert (got[1][0].test_seed, got[1][0].test_index) == (1, 0)
        else:
            assert got == ("error", error)

    @pytest.mark.parametrize("verdict, error", [
        ("verdict PASS", None),
        ("verdict FAIL", None),
        ("verdict FAIL lost  bytes", None),  # kept as written
        ("verdict PASS stray words",
         "line 2: verdict PASS carries no message: 'verdict PASS stray words'"),
        ("verdict PASS ", "line 2: verdict PASS carries no message: 'verdict PASS '"),
        ("verdict PASSED", "line 2: unknown verdict 'PASSED'"),
    ])
    def test_only_a_fail_verdict_carries_a_message(self, verdict, error):
        text = f"{TRACE_HEADER} seed=1 test=0 backend=sim\n{verdict}\n"
        got = _parse(parse_traces, text)
        assert got == _parse(reference_parse_traces, text)
        if error is None:
            trace = got[1][0]
            assert f"verdict {trace.verdict} {trace.message}".strip() == verdict
        else:
            assert got == ("error", error)

    @pytest.mark.parametrize("version", ["v10", "v2", "V1", ""])
    def test_header_version_is_exactly_v1(self, version):
        text = f"netmbt-trace {version} seed=1 test=0 backend=sim\nverdict PASS\n"
        assert (_parse(parse_traces, text) == _parse(reference_parse_traces, text)
                == ("error", f"line 1: unsupported trace version {version!r}"))

    @pytest.mark.parametrize("header, record, error", [
        ("seed=1 test=0_0", "0 1", "line 1: '0_0' is not a canonical integer"),
        ("seed=+7134611160154358618 test=0", "0 1",
         "line 1: '+7134611160154358618' is not a canonical integer"),
        ("seed=07 test=0", "0 1", "line 1: '07' is not a canonical integer"),
        ("seed=1 test=-0", "0 1", "line 1: '-0' is not a canonical integer"),
        ("seed=1 test=-1", "0 1", "line 1: test=-1 is negative"),
        ("seed=1 test=0", "1 \u0662", "line 3: '\u0662' is not a canonical integer"),
        ("seed=1 test=0", "00 1", "line 3: '00' is not a canonical integer"),
        ("seed=1 test=0", "1 +1", "line 3: '+1' is not a canonical integer"),
        ("seed=1 test=0", "1 1_0", "line 3: '1_0' is not a canonical integer"),
        ("seed=1 test=0", "1 x", "line 3: invalid literal for int() with base 10: 'x'"),
        ("seed=1 test=0", "01 x", "line 3: '01' is not a canonical integer"),
    ])
    def test_an_integer_is_read_only_as_serialize_trace_writes_it(self, header, record, error):
        # the second record sits at position 1: "00 1" shares the first record's
        # cached text after the index, and its index is still read
        text = f"{TRACE_HEADER} {header} backend=sim\n0 1 m l - s\n{record} m l - s\nverdict PASS\n"
        got = _parse(parse_traces, text)
        assert got == _parse(reference_parse_traces, text) == ("error", error)

    @pytest.mark.parametrize("records, error", [
        (["0 1 m l - s"], None),
        (["0 1 m l - s x"], "line 2: malformed step record: '0 1 m l - s x'"),
        (["0 1 m  l - s"], "line 2: malformed step record: '0 1 m  l - s'"),
        (["0 1 m l - "], "line 2: malformed step record: '0 1 m l - '"),
        (["0 1 m l - s", " 1 m l - s"], "line 3: malformed step record: ' 1 m l - s'"),
        (["1 1 m l - s"], "line 2: record index 1 is not its position 0"),
        (["0 1 m l - s", "0 1 m l - s"], "line 3: record index 0 is not its position 1"),
        (["0 1 m l - s", "2 1 m l - s"], "line 3: record index 2 is not its position 1"),
        (["0 1 m l - s", "-1 1 m l - t"], "line 3: record index -1 is not its position 1"),
        # the index is read before the position is compared
        (["0 1 m l - s", "01 1 m l - s"], "line 3: '01' is not a canonical integer"),
        # serialize_trace numbers instances from 1 and writes no whitespace but the separators
        (["0 -1 m l - s"], "line 2: instance id -1 is below 1"),
        (["0 0 m l - s"], "line 2: instance id 0 is below 1"),
        (["1 0 m l - s"], "line 2: record index 1 is not its position 0"),
        (["0 1 m\tl - s"], "line 2: malformed step record: '0 1 m\\tl - s'"),
        (["0 1 m l - s\t"], "line 2: malformed step record: '0 1 m l - s\\t'"),
        (["0 1 m l -\x1f s"], "line 2: malformed step record: '0 1 m l -\\x1f s'"),
        (["0 1 m l\xa0x - s"], "line 2: malformed step record: '0 1 m l\\xa0x - s'"),
        (["0 1 m l - s\u3000"], "line 2: malformed step record: '0 1 m l - s\\u3000'"),
    ])
    def test_a_record_is_six_fields_and_its_index_is_its_position(self, records, error):
        text = "\n".join([f"{TRACE_HEADER} seed=1 test=0 backend=sim", *records,
                          "verdict PASS"]) + "\n"
        got = _parse(parse_traces, text)
        assert got == _parse(reference_parse_traces, text)
        if error is None:
            assert got[1][0].steps == [StepRecord(1, "m", "l", "-", "s")]
        else:
            assert got == ("error", error)

    def test_equal_steps_share_one_record_across_positions_and_blocks(self):
        block = "\n".join([f"{TRACE_HEADER} seed=1 test={{}} backend=sim",
                           "0 1 m <init> - s", "1 1 m l - t", "2 1 m l - t", "verdict PASS"])
        traces = parse_traces((block + "\n").format(0) + (block + "\n").format(1))
        records = [r for t in traces for r in t.steps]
        assert len(records) == 6 and len({id(r) for r in records}) == 2
        assert records[1] is records[2] is records[4] is records[5]
        assert records[0] is records[3]

    def test_a_cached_record_line_is_a_canonical_one(self):
        text = f"{TRACE_HEADER} seed=1 test=0 backend=sim\n0 1 m l - s\n1 1 m l - s\nverdict PASS\n"
        steps = parse_traces(text)[0].steps
        assert steps == [StepRecord(1, "m", "l", "-", "s")] * 2 and steps[0] is steps[1]
        assert "".join(map(serialize_trace, parse_traces(text))) == text


def _recorded_file(tmp_path, model, **config):
    path = tmp_path / f"{model}.trace"
    run_suite(MODEL_REGISTRY[model],
              SuiteConfig(seed=7, num_tests=40, trace_path=str(path), **config))
    return path.read_text()


class TestRoundTrip:
    @pytest.mark.parametrize("model", ["server-main", "minimalist"])
    @pytest.mark.parametrize("config", [
        {},
        {"latency": "zero"},
        *({"fault": kind} for kind in FaultKind),
    ], ids=["default", "zero-latency", *(kind.value for kind in FaultKind)])
    def test_a_recorded_sim_file_serializes_back_to_its_bytes(self, tmp_path, model, config):
        text = _recorded_file(tmp_path, model, **config)
        assert "".join(map(serialize_trace, parse_traces(text))) == text

    def test_a_recorded_real_file_serializes_back_to_its_bytes(self, tmp_path):
        text = _recorded_file(tmp_path, "server-main", backend="real")
        assert "".join(map(serialize_trace, parse_traces(text))) == text


class TestLineSplitting:
    @given(text=st.text(alphabet="ab \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=60),
           size=st.integers(1, 12))
    @settings(max_examples=400, deadline=None)
    def test_chunked_lines_are_splitlines(self, text, size):
        with patch("netmbt.trace._CHUNK", size):
            assert list(_lines(text)) == text.splitlines()

    def test_default_chunks_on_a_long_text(self):
        text = "".join(f"{i} x\r\n" if i % 7 else f"{i}\r\r\n\n" for i in range(40000))
        assert list(_lines(text)) == text.splitlines()


class TestParseMemory:
    def test_parsed_minimalist_file_keeps_little_per_step(self, tmp_path):
        # A regression guard, independent of host speed: records are shared
        # per distinct text after the index (about 18 B a step on CPython
        # 3.11.7: a list slot and the blocks' own objects), and no list of
        # every line is built (peak about 22 B a step).  The bounds add 6 and
        # 10 B a step for other builds.
        path = tmp_path / "min.trace"
        run_suite(MODEL_REGISTRY["minimalist"],
                  SuiteConfig(seed=5, num_tests=1000, trace_path=str(path)))
        text = path.read_text()
        tracemalloc.start()
        try:
            traces = parse_traces(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        steps = sum(len(t.steps) for t in traces)
        assert steps == 55541
        assert kept / steps <= 24
        assert peak / steps <= 32
