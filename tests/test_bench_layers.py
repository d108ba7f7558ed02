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
