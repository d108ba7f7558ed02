"""Helpers shared by the tests: starting netmbt in a child process,
letting real sockets settle, and reading a port pool's sets."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

import netmbt
from netmbt import realnet
from netmbt.portman import PortPool

# Children may run from another cwd, where a relative PYTHONPATH entry such
# as "src" no longer resolves; put the directory holding the imported
# package first, as an absolute path.
_PACKAGE_ROOT = str(Path(netmbt.__file__).resolve().parents[1])


def child_env() -> dict[str, str]:
    """The current environment, with the package root first on PYTHONPATH."""
    entries = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(e for e in entries if e))


def run_cli(*argv, cwd=None):
    """``python -m netmbt *argv`` in a child process, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "netmbt", *argv],
        capture_output=True, text=True, cwd=cwd, env=child_env(),
    )


@pytest.fixture
def short_watchdog(monkeypatch):
    """A 2 s budget for blocking real-socket calls, so a hung one fails fast."""
    monkeypatch.setattr(realnet, "WATCHDOG_SECONDS", 2.0)


def settle(net) -> None:
    """Let in-flight effects land: on real sockets, wait 50 ms for the
    kernel; the simulator's effects land when they are made."""
    if not net.is_sim:
        time.sleep(0.05)


class PoolSets(NamedTuple):
    free: frozenset[int]  # never leased, or released and cooled down
    leased: frozenset[int]
    cooling: frozenset[int]  # released, still in its cooldown
    retired: frozenset[int]  # held by another process


def pool_sets(pool: PortPool) -> PoolSets:
    """A pool's ports by standing, read from its fields: free and cooling
    are views of the release queue."""
    due = [port for when, port in pool._released if when <= pool._test_index]
    cooling = [port for when, port in pool._released if when > pool._test_index]
    return PoolSets(frozenset(due).union(range(pool._next, pool.hi + 1)),
                    frozenset(pool._leased), frozenset(cooling), frozenset(pool._retired))
