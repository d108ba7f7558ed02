"""Helpers shared by the tests that start netmbt in a child process."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import netmbt

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
