"""Error taxonomy shared by the engine, the socket backends and the models."""

from __future__ import annotations

import enum


class ErrorKind(enum.Enum):
    """Closed enumeration of classified socket-API failures.

    Models reference these values in transition exception overrides; the
    underlying OS error, when there is one, travels as diagnostic text only.
    """

    ALREADY_BOUND = "AlreadyBoundError"
    NOT_YET_BOUND = "NotYetBoundError"
    CLOSED_CHANNEL = "ClosedChannelError"
    CONNECTION_REFUSED = "ConnectionRefusedError"
    INPUT_SHUTDOWN = "InputShutdownError"
    OUTPUT_SHUTDOWN = "OutputShutdownError"
    ILLEGAL_BLOCKING_MODE = "IllegalBlockingModeError"
    PEER_CLOSED = "PeerClosedError"

    __hash__ = object.__hash__  # in C, not Python: sound, as members are singletons


class AdapterError(Exception):
    """A classified channel/selector failure; only ``str()`` formats its text."""

    def __init__(self, kind: ErrorKind, detail: str = ""):
        self.kind = kind
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.kind._value_}: {self.detail}" if self.detail else self.kind._value_


class PropertyViolation(Exception):
    """An oracle assertion failed, or an unexpected error escaped an action.

    Raising this ends the current test with a Fail verdict.
    """


class WatchdogTimeout(Exception):
    """A blocking operation exceeded the per-step budget (orchestration bug)."""


class SpecError(ValueError):
    """A model definition violates a structural invariant."""


class ConfigError(ValueError):
    """A suite configuration value is outside its contract."""


class BackendError(RuntimeError):
    """The backing network facility is unusable; distinct from a test failure."""


class PoolExhaustedError(BackendError):
    """No listen port is currently available in the configured range."""


class DivergenceError(Exception):
    """A replayed step did not match the recorded one."""

    def __init__(self, step_index: int, expected: str, actual: str):
        self.step_index = step_index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"divergence at step {step_index}: expected {expected!r}, got {actual!r}"
        )
