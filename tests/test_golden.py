"""Golden runs: whole CLI commands whose output bytes are pinned.

Each row of ``golden.json`` is one ``netmbt`` command, run in-process
through ``cli.main`` in an empty directory.  A row pins its exit code, the
sha256 of stdout with the elapsed time ``(N.NNs)`` masked, and the sha256
of every file the command writes there.  A command that argparse ends
(``--help``) exits with the code of its ``SystemExit``, and help text is
formatted for 80 columns, whatever the terminal.  A ``needs`` row first
gets the files another row wrote (a ``replay`` of a recorded file).  A file whose
digest is ``null`` is not pinned: it is compared with a second run of the
same command, as for the real backend, whose bytes no other kernel has
been checked against.

A change that moves a golden byte on purpose edits the row and names the
cause.  A row fails once, and its message gives every field that changed
with its new value: the exit code, the stdout digest, the file list and
each file's digest.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from netmbt.cli import main

ROWS = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
BY_ID = {row["id"]: row for row in ROWS}
_ELAPSED = re.compile(r"\(\d+\.\d\ds\)")


@pytest.fixture(scope="module")
def written() -> dict[str, dict[str, bytes]]:
    """Row id -> the files that row wrote, kept for the rows that need them."""
    return {}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_row(row, path: Path, written, monkeypatch, capsys) -> tuple[int, str, dict[str, bytes]]:
    """Run ``row`` in the empty directory ``path``: (exit code, masked
    stdout, the files it wrote)."""
    inputs = inputs_of(row, path.parent / "inputs", written, monkeypatch, capsys)
    for name, data in inputs.items():
        (path / name).write_bytes(data)
    monkeypatch.chdir(path)
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    try:
        code = main(list(row["argv"]))
    except SystemExit as exc:
        code = exc.code
    out = _ELAPSED.sub("(N.NNs)", capsys.readouterr().out)
    files = {p.name: p.read_bytes() for p in path.iterdir() if p.name not in inputs}
    return code, out, files


def inputs_of(row, scratch: Path, written, monkeypatch, capsys) -> dict[str, bytes]:
    """The files of the row that ``row`` needs, running it once if no
    earlier case has."""
    need = row.get("needs")
    if need is None:
        return {}
    if need not in written:
        scratch = scratch / need
        scratch.mkdir(parents=True)
        written[need] = run_row(BY_ID[need], scratch, written, monkeypatch, capsys)[2]
    return written[need]


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_golden_run(row, tmp_path, written, monkeypatch, capsys):
    here = tmp_path / "run"
    here.mkdir()
    code, out, files = run_row(row, here, written, monkeypatch, capsys)
    written[row["id"]] = files
    changed = []  # every field of the row that differs, with its new value
    if code != row["exit"]:
        changed.append(f"exit is now {code}")
    if (got := sha256(out.encode())) != row["stdout"]:
        changed.append(f"stdout is now {got}:\n{out}")
    if sorted(files) != sorted(row["files"]):
        changed.append(f"files are now {sorted(files)}")
    if None in row["files"].values():
        again = tmp_path / "again"
        again.mkdir()
        second = run_row(row, again, written, monkeypatch, capsys)[2]
    for name, data in sorted(files.items()):
        pinned = row["files"].get(name, "")  # "": a file the row does not list
        if pinned is None:
            if data != second.get(name):
                changed.append(f"{name} differs between two runs")
        elif (got := sha256(data)) != pinned:
            changed.append(f"{name} is now {got}")
    assert not changed, f"{row['id']}: " + "\n".join(changed)
