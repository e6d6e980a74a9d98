"""The names the benchmark's tracer and workloads use must exist in hopfalg.

`perfbench/tracing.py` wraps the entry points in `ENTRY_POINTS` and
counts the calls in `COUNTED`, and `perfbench/workloads.py` imports
names from hopfalg's modules; a name missing from the package breaks
every benchmark run.  `perfbench/` is not a package, so this test loads
the tracer by path, reads the imports of the workloads with `ast`, and
resolves each name here.  It also runs one iteration of each workload
against its frozen reference, which no other test reads.

The suite also collects `perfbench/`, whose install test reports every
reference to an entry point that no wrapper replaces.  So test modules
call the traced entry points through their modules (`morita.check_iso`),
never through names bound at module level by `from ... import`.
"""
import ast
import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench(name):
    """perfbench/<name>.py, loaded by path."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _perfbench("tracing")
NAMES = [(m, a) for m, a, _ in TRACING.ENTRY_POINTS + TRACING.COUNTED]


@pytest.mark.parametrize("module, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"hopfalg.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _workload_imports():
    """(module, name) for each `from hopfalg... import name` in
    perfbench/workloads.py, in source order without repeats."""
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "hopfalg"):
            for alias in node.names:
                found[(node.module, alias.name)] = None
    return list(found)


IMPORTS = _workload_imports()


def test_workloads_import_from_hopfalg():
    assert {module for module, _ in IMPORTS} >= {
        "hopfalg", "hopfalg.groupoid", "hopfalg.comodule",
        "hopfalg.morita"}


@pytest.mark.parametrize("module, name", IMPORTS,
                         ids=[f"{m}.{n}" for m, n in IMPORTS])
def test_workload_import_resolves(module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")  # a submodule


WORKLOADS = _perfbench("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_matches_its_reference(name, tmp_path):
    """One seeded iteration of the workload, in this process, through the
    calls the benchmark makes (`hopfalg ext ... --parallel 1`,
    `ext_dims(..., parallel=1, check_d2=True)`): every answer equals the
    one in perfbench/reference/."""
    w = WORKLOADS.WORKLOADS[name]
    answers = w.run(w.setup(1, str(tmp_path)))
    expected = WORKLOADS.load_expected(
        w, os.path.join(ROOT, "perfbench", "reference"))
    assert WORKLOADS.mismatches(w.operations, answers, expected) == []
