"""The names the benchmark's tracer wraps must exist in hopfalg.

`perfbench/tracing.py` wraps the entry points in `ENTRY_POINTS` and
counts the calls in `COUNTED`; a name missing from the package breaks
every traced benchmark run.  `perfbench/` is not a package, so this test
loads the tracer by path and resolves each name here.

The suite also collects `perfbench/`, whose install test reports every
reference to an entry point that no wrapper replaces.  So test modules
call the traced entry points through their modules (`morita.check_iso`),
never through names bound at module level by `from ... import`.
"""
import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
NAMES = [(m, a) for m, a, _ in TRACING.ENTRY_POINTS + TRACING.COUNTED]


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"hopfalg.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
