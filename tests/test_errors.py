"""Classified errors: their text, and pickling, which a result shipped
between processes relies on."""

from __future__ import annotations

import pickle

import pytest

from netmbt.errors import AdapterError, ErrorKind
from netmbt.explorer import SuiteConfig, run_single_test
from netmbt.models import MODEL_REGISTRY
from netmbt.rng import derive_seed
from netmbt.simnet import FaultKind


def test_text_names_the_kind_then_the_detail():
    assert str(AdapterError(ErrorKind.PEER_CLOSED, "x")) == "PeerClosedError: x"
    assert str(AdapterError(ErrorKind.CLOSED_CHANNEL)) == "ClosedChannelError"


@pytest.mark.parametrize("kind", list(ErrorKind))
@pytest.mark.parametrize("detail", ["", "connection reset by peer"])
def test_every_kind_keeps_its_text_and_survives_pickling(kind, detail):
    exc = AdapterError(kind, detail) if detail else AdapterError(kind)
    text = f"{kind.value}: {detail}" if detail else kind.value
    assert str(exc) == text
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is AdapterError
    assert (copy.kind, copy.detail, str(copy)) == (kind, detail, text)


def _value(result):
    """Every field of a TestResult, with the ledger's records as tuples."""
    ledger = {conn: {role: (side.wrote, side.read, side.output_shut, side.saw_eof)
                     for role, side in entry.items()}
              for conn, entry in result.ledger.entries.items()}
    return (result.trace, ledger, result.diagnostics, result.flow_stats)


def test_a_failing_sim_result_survives_pickling():
    config = SuiteConfig(seed=9, fault=FaultKind.DUPLICATE_BYTES)
    for i in range(1000):
        result = run_single_test(MODEL_REGISTRY["server-main"], config,
                                 derive_seed(9, i), i, None)
        if not result.passed:
            break
    assert not result.passed and "oracle" in result.trace.message
    assert result.diagnostics and result.flow_stats and result.ledger.entries
    copy = pickle.loads(pickle.dumps(result))
    assert _value(copy) == _value(result)
    assert copy == result
    assert copy.trace == result.trace and not copy.passed
    side = next(iter(copy.ledger.entries.values()))["client"]
    side.read += 1  # the ledger compares by value, field by field
    assert copy.ledger != result.ledger and copy != result
