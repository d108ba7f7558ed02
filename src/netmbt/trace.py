"""The trace format's one home: the block header, the step records, the
verdict line, serialize_trace, which writes a block, and parse_traces,
which reads a file of blocks back.  README's "Trace format" describes it.
"""

from __future__ import annotations

from itertools import chain, count
from typing import Iterator, NamedTuple

from .errors import ConfigError

BACKENDS = ("sim", "real")
TRACE_MAGIC, TRACE_VERSION = "netmbt-trace ", "v1"
TRACE_HEADER = TRACE_MAGIC + TRACE_VERSION
_HEADER_KEYS = ("seed", "test", "backend")  # each exactly once, nothing else
_CHUNK = 1 << 16  # the characters _lines splits at a time


class StepRecord(NamedTuple):  # its index is its position in Trace.steps
    instance_id: int
    model: str
    label: str
    outcome: str  # outcome tag, ErrorKind value, or "-"
    state: str

    def line(self, index: int) -> str:
        return f"{index} {self.instance_id} {self.model} {self.label} {self.outcome} {self.state}"


class Trace(NamedTuple):
    test_seed: int
    test_index: int
    backend: str
    steps: list[StepRecord]
    verdict: str = "PASS"  # "PASS" | "FAIL"
    message: str = ""

    @property
    def failing_step_index(self) -> int | None:
        return len(self.steps) - 1 if self.verdict == "FAIL" and self.steps else None


def verdict_line(trace: Trace) -> str:
    """A block's last line.  ``verdict PASS`` carries no message; a FAIL
    message is written on one line, each run of whitespace one space."""
    if trace.verdict == "PASS":
        return "verdict PASS"
    message = " ".join(trace.message.split())
    return f"verdict FAIL {message}" if message else "verdict FAIL"


def serialize_trace(trace: Trace) -> str:
    header = f"{TRACE_HEADER} seed={trace.test_seed} test={trace.test_index} backend={trace.backend}"
    lines = map(StepRecord.line, trace.steps, count())
    return "\n".join([header, *lines, verdict_line(trace)]) + "\n"


def _int(text: str) -> int:
    """``int(text)``, refusing what serialize_trace never writes: 1_0, +1, 01, non-ASCII digits."""
    if str(value := int(text)) != text:
        raise ValueError(f"{text!r} is not a canonical integer")
    return value


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split a chunk of about ``_CHUNK`` characters at a
    time.  Each chunk but the last ends with a newline, where every line
    boundary is complete, so the lines are those of the whole text; only one
    chunk's lines exist at once."""
    def chunks() -> Iterator[str]:
        start, end = 0, len(text)
        while start < end:
            cut = text.find("\n", start + _CHUNK) + 1 or end
            yield text[start:cut]
            start = cut

    return chain.from_iterable(map(str.splitlines, chunks()))


def parse_traces(text: str) -> list[Trace]:
    """Parse the traces serialize_trace wrote.  A malformed file, including
    one that ends inside a block, raises ConfigError naming the bad line.

    Step records are shared: a record holds no index, so there is one
    StepRecord per distinct text after a record line's index, and a file
    costs about a pointer per step.
    """
    traces: list[Trace] = []
    current: Trace | None = None
    records: dict[str, StepRecord] = {}  # text after the index -> its record
    lineno = 0
    try:
        for lineno, line in enumerate(_lines(text), start=1):
            # only a record line starts with its position: a cached step of the open block
            index, _, rest = line.partition(" ")
            record = records.get(rest)
            if record is not None and current is not None and index == str(len(steps)):
                append(record)
                continue
            if not line.strip():
                continue
            if line.startswith(TRACE_MAGIC):
                version = line.split(" ", 2)[1]
                if version != TRACE_VERSION:
                    raise ValueError(f"unsupported trace version {version!r}")
                if current is not None:
                    raise ValueError("trace header before the previous trace's verdict")
                fields: dict[str, str] = {}
                for word in line.split()[2:]:
                    key, eq, value = word.partition("=")
                    if not eq:
                        raise ValueError(f"header word {word!r} is not key=value")
                    if key in fields:
                        raise ValueError(f"repeated header field {key!r}")
                    if key not in _HEADER_KEYS:
                        raise ValueError(f"unknown header field {key!r}")
                    fields[key] = value
                current = Trace(_int(fields["seed"]), _int(fields["test"]), fields["backend"], [])
                if not 0 <= current.test_seed < 1 << 64:
                    raise ValueError(f"seed={current.test_seed} is not a 64-bit unsigned integer")
                if current.test_index < 0:
                    raise ValueError(f"test={current.test_index} is negative")
                if current.backend not in BACKENDS:
                    raise ValueError(f"unknown backend {current.backend!r}")
                steps = current.steps
                append = steps.append
            elif current is None:
                raise ValueError(f"record before trace header: {line!r}")
            elif line.startswith("verdict "):
                parts = line.split(" ", 2)
                if parts[1] not in ("PASS", "FAIL"):
                    raise ValueError(f"unknown verdict {parts[1]!r}")
                if parts[1] == "PASS" and len(parts) > 2:
                    raise ValueError(f"verdict PASS carries no message: {line!r}")
                traces.append(current._replace(
                    verdict=parts[1], message=parts[2] if len(parts) > 2 else ""))
                current = None
            else:  # a record line not seen before, or a wrong one
                fields = line.split(" ")
                if len(fields) != 6 or line.split() != fields:  # a field empty or with whitespace
                    raise ValueError(f"malformed step record: {line!r}")
                position, instance_id = _int(fields[0]), _int(fields[1])
                if position != len(steps):
                    raise ValueError(f"record index {position} is not its position {len(steps)}")
                if instance_id < 1:
                    raise ValueError(f"instance id {instance_id} is below 1")
                record = records[rest] = tuple.__new__(StepRecord, (instance_id, *fields[2:]))
                append(record)
        if current is not None:
            raise ValueError("end of file before the verdict line")
    except KeyError as exc:
        raise ConfigError(f"line {lineno}: trace header lacks {exc.args[0]}=") from None
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None
    return traces
