"""Every call boundary that bench/layers.py wraps still exists.

The layer tracer patches the package by name, from outside it.  A refactor
that renames or moves one of those names would otherwise only show up as a
KeyError or AttributeError inside a traced benchmark child; here it fails
with the missing name.  The tracer module is imported as it is, and
nothing is patched.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
LAYERS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(LAYERS)


def owner(path: str):
    """The object an entry's owner path names, as layers.install resolves
    it: ``explorer`` is netmbt.explorer, ``rng.SeededRng`` a class in it."""
    module = importlib.import_module("netmbt." + path.partition(".")[0])
    return LAYERS._resolve({path.partition(".")[0]: module}, path)


@pytest.mark.parametrize("name, owner_path, attr", LAYERS._FUNCTIONS,
                         ids=[f"{o}.{a}" for _, o, a in LAYERS._FUNCTIONS])
def test_wrapped_function_is_in_the_namespace_that_calls_it(name, owner_path, attr):
    assert callable(getattr(owner(owner_path), attr, None)), (
        f"bench/layers.py wraps netmbt.{owner_path}.{attr} for span {name!r}")


@pytest.mark.parametrize("layer, owner_path, attrs", LAYERS._METHODS,
                         ids=[o for _, o, _ in LAYERS._METHODS])
def test_wrapped_methods_are_defined_on_their_own_class(layer, owner_path, attrs):
    # install() reads cls.__dict__[attr]: an inherited method does not count.
    cls = owner(owner_path)
    missing = [attr for attr in attrs if not callable(vars(cls).get(attr))]
    assert not missing, f"bench/layers.py wraps {missing} on netmbt.{owner_path}"


def counted(monkeypatch, module, attr: str) -> list:
    """Wrap ``module.attr`` as the tracer does, in the namespace that calls
    it; the returned list grows by one per call."""
    calls, fn = [], getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


class TestTracedTraceCalls:
    """The trace codec is timed through the names bench/layers.py patches:
    a call made through another name would leave its per-layer metrics at
    zero without failing anything."""

    def test_run_suite_serializes_through_explorer(self, tmp_path, monkeypatch):
        from netmbt import explorer
        from netmbt.models import MODEL_REGISTRY

        calls = counted(monkeypatch, explorer, "serialize_trace")
        config = explorer.SuiteConfig(seed=1, num_tests=2, trace_path=str(tmp_path / "t.trace"))
        explorer.run_suite(MODEL_REGISTRY["server-main"], config)
        assert len(calls) == 2

    def test_failing_run_writes_its_default_file_through_cli(self, tmp_path, monkeypatch):
        from netmbt import cli

        calls = counted(monkeypatch, cli, "serialize_trace")
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--model", "minimalist-misordered", "--seed", "1", "--tests", "2"]
        assert cli.main(argv) == 1
        assert len(calls) == 2

    def test_replay_parses_through_cli(self, tmp_path, monkeypatch):
        from netmbt import cli

        path = str(tmp_path / "t.trace")
        assert cli.main(["run", "--model", "minimalist", "--seed", "1", "--tests", "2",
                         "--trace-out", path]) == 0
        calls = counted(monkeypatch, cli, "parse_traces")
        assert cli.main(["replay", "--replay", path]) == 0
        assert calls == ["parse_traces"]
