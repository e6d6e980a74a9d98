"""Source hygiene: every name a hopfalg module imports is used there,
only an allowlist of functions keeps a process-wide memo, only `hopf`
builds a tensor power, only `groupoid._from_elements` builds a finite
ring, only `files._write` forms a section header, and the Ext path
loads no module it does not run."""
import ast
import pathlib
import re

import pytest

import hopfalg
from hopfalg import files

from conftest import mu2_algebroid, run_code

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


# A process-wide memo keeps what it returns until the process exits, so
# nothing derived from an algebroid may have one: `evaluate_groupoid`
# stores groupoids on the algebroid instead, freed with it.  Allowed: the
# BP towers, a pure function of (p, D, max_gens) that callers ask for
# again and again (groupoids of a tower's own algebroid live as long as
# the tower; its quotient pairs, with their groupoids, only as long as a
# caller holds them, as `BPData.pairs` keeps them weakly, and an induced
# presentation only as long as its base map f_0, as `HopfAlgebroid.induced`
# keys on f_0 weakly), and the ring catalog, whose rings key those
# groupoids and so must be the same objects on every call.
MEMO_ALLOWLIST = {"fgl.assemble_bp", "groupoid.catalog_rings"}


def memoized_functions(source, module):
    """(line, "module.function") for every function of `source` decorated
    with `cache` or `lru_cache`, bare or through `functools`, called or
    not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                deco = deco.func
            if isinstance(deco, ast.Attribute):
                name = deco.attr
            else:
                name = getattr(deco, "id", None)
            if name in ("cache", "lru_cache"):
                out.append((node.lineno, f"{module}.{node.name}"))
    return sorted(out)


def test_the_check_sees_a_memo_decorator():
    source = (
        "import functools\n"
        "from functools import cached_property, lru_cache\n"
        "@functools.cache\n"
        "def a(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def b(): pass\n"
        "class C:\n"
        "    @cached_property\n"
        "    def d(self): pass\n"
        "    @functools.lru_cache\n"
        "    def e(self): pass\n"
    )
    assert memoized_functions(source, "m") == [(4, "m.a"), (6, "m.b"), (11, "m.e")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_memo_decorators_only_on_the_allowlist(path):
    found = memoized_functions(path.read_text(encoding="utf-8"), path.stem)
    assert [name for _, name in found if name not in MEMO_ALLOWLIST] == []


def _calls(node, callee):
    """Whether `node` calls `callee`, bare or as an attribute."""
    return isinstance(node, ast.Call) and callee == getattr(
        node.func, "id", getattr(node.func, "attr", None)
    )


# The tensor square is fixed by (A, Gamma, eta_R): `HopfAlgebroid` builds
# it once and hands it to the caller's Delta, and builds the cube for the
# axioms, so no other module constructs a `TensorPower`.
def tensor_power_calls(source):
    """Lines of `source` that call `TensorPower`, bare or as an
    attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if _calls(node, "TensorPower")
    )


def test_the_check_sees_a_tensor_power_construction():
    source = (
        "from . import hopf\n"
        "from .hopf import TensorPower\n"
        "ts = TensorPower(A, G, (1,), etaR, 2)\n"
        "tc = hopf.TensorPower(A, G, (1,), etaR, 3)\n"
        "ts.map_out(G, f, g)\n"
    )
    assert tensor_power_calls(source) == [3, 4]


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.stem != "hopf"],
    ids=lambda path: path.name,
)
def test_only_hopf_builds_a_tensor_power(path):
    assert tensor_power_calls(path.read_text(encoding="utf-8")) == []


# A finite ring is tabulated from its elements in one place,
# `groupoid._from_elements`, so no constructor encodes elements as table
# indices by hand.
def finite_ring_calls(source):
    """(line, enclosing top-level definition or None) for every call of
    `FiniteRing` in `source`, bare or as an attribute."""
    return sorted(
        (node.lineno, getattr(top, "name", None))
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if _calls(node, "FiniteRing")
    )


def test_the_check_sees_a_finite_ring_construction():
    source = (
        "from . import groupoid\n"
        "def _from_elements(e):\n"
        "    return FiniteRing(e, e, 1)\n"
        "def Zmod(n):\n"
        "    return groupoid.FiniteRing(n, n, 1)\n"
        "R = FiniteRing([[0]], [[0]], 0)\n"
        "name = 'FiniteRing(F_2)'\n"
    )
    assert finite_ring_calls(source) == [
        (3, "_from_elements"), (5, "Zmod"), (6, None)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_from_elements_builds_a_finite_ring(path):
    calls = finite_ring_calls(path.read_text(encoding="utf-8"))
    if path.stem == "groupoid":
        calls = [call for call in calls if call[1] != "_from_elements"]
    assert calls == []


def test_ext_does_not_load_the_finite_ring_oracle(tmp_path):
    """`hopfalg ext` evaluates no points over finite rings, so it never
    imports `groupoid`, the package's largest module: without written
    bytecode every process would compile it anew."""
    files.write_algebroid(mu2_algebroid(), str(tmp_path))
    r = run_code(
        "import sys\n"
        "from hopfalg import cli\n"
        f"code = cli.run(['ext', {str(tmp_path / 'algebroid.ini')!r}, "
        "'--smax', '2', '--tmin', '0', '--tmax', '4'])\n"
        "print(code, 'hopfalg.groupoid' in sys.modules)\n"
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 False"


# A document's layout is written in one place, `files._write`, so no
# emitter lays out its own sections again.
_SECTION_HEADER = re.compile(r"\[[^\[\]]*\]\n?")


def section_headers(source):
    """(line, enclosing top-level definition or None) for every string
    literal of `source` that is a bare INI section header `[name]`,
    optionally with its newline; an f-string counts with each replacement
    field standing for a name."""
    tree = ast.parse(source)
    parts = {
        id(value)
        for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for value in node.values
    }
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.JoinedStr):
                text = "".join(
                    v.value if isinstance(v, ast.Constant) else "{}"
                    for v in node.values
                )
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in parts):
                text = node.value
            else:
                continue
            if _SECTION_HEADER.fullmatch(text):
                out.append((node.lineno, getattr(top, "name", None)))
    return sorted(out)


def test_the_check_sees_a_section_header():
    source = (
        "def _write(name):\n"
        "    return f'[{name}]\\n'\n"
        "def emit(P):\n"
        "    lines = ['[base]', 'mode = fp']\n"
        "    return '\\n'.join(lines + [f'[{P.name}]', f'[gen{P.k}s]'])\n"
        "NOTE = 'a [base] section needs p'\n"
        "ERR = f'[{P.name}] needs {P.key}'\n"
        "HEAD = '[f0]\\n'\n"
    )
    assert section_headers(source) == [
        (2, "_write"), (4, "emit"), (5, "emit"), (5, "emit"), (8, None)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_write_forms_a_section_header(path):
    found = section_headers(path.read_text(encoding="utf-8"))
    if path.stem == "files":
        found = [header for header in found if header[1] != "_write"]
    assert found == []
