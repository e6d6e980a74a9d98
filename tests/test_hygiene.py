"""Source hygiene: every name a hopfalg module imports is used there."""
import ast
import pathlib

import pytest

import hopfalg

MODULES = sorted(
    path
    for path in pathlib.Path(hopfalg.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by an import statement of `source` that no expression
    in it reads.  `import a.b` binds `a`; `__future__` imports bind
    nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .errors import InputError, SolveFailure as Failed\n"
        "def f():\n"
        "    raise InputError(os.sep)\n"
    )
    assert unused_imports(source) == [(3, "Failed")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
