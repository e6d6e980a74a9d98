"""Shared fixtures and helpers: small algebroids, the BP pairs, the
flagship localized pair at p=3, and the CLI runner."""
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

import hopfalg
from hopfalg.hopf import HopfAlgebroid
from hopfalg.presentation import BaseMode, GradedPresentation, RingMorphism

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")


def _run(*argv):
    """Run argv under this interpreter, with the test process's PYTHONPATH
    led by the directory of the hopfalg package the tests import, so that
    no install step is needed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfalg.__file__)))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=300,
    )


def run_cli(*args):
    """Run the CLI as `python -m hopfalg`."""
    return _run("-m", "hopfalg", *args)


def run_code(code):
    """Run a Python snippet under this interpreter."""
    return _run("-c", code)


def run_script(name, *args):
    """Run a script from the repository's scripts/ directory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return _run(os.path.join(root, "scripts", name), *args)


def primitive_line(p, xdeg, power, truncation=16, name=""):
    """(F_p, F_p[x]/(x^power)) with x primitive: Delta(x) = x(x)1 + 1(x)x,
    eps(x) = 0, c(x) = -x."""
    mode = BaseMode("fp", p)
    A = GradedPresentation(mode, [], truncation=truncation, name=f"F_{p}")
    Gamma = GradedPresentation(
        mode,
        [("x", xdeg)],
        relations={"x": (power, [])},
        truncation=truncation,
        name=name or f"F_{p}[x]/(x^{power})",
    )
    return HopfAlgebroid(
        A, Gamma, [0], RingMorphism(A, Gamma, [], name="etaR"),
        {"x": A.zero()}, {"x": -Gamma.gen(0)},
        lambda ts: {"x": ts.incl_l(Gamma.gen(0)) + ts.incl_r(Gamma.gen(0))},
        name=name or f"line(p={p},|x|={xdeg},x^{power})",
    )


def mu2_algebroid(truncation=8):
    """(F_3, F_3[g]/(g^2 - 1)): the order-2 group scheme mu_2 at p=3.
    Delta(g) = g (x) g, eps(g) = 1, c(g) = g."""
    mode = BaseMode("fp", 3)
    A = GradedPresentation(mode, [], truncation=truncation, name="F_3")
    Gamma = GradedPresentation(
        mode,
        [("g", 0)],
        relations={"g": (2, [(1, (0,))])},
        truncation=truncation,
        name="F_3[g]/(g^2-1)",
    )
    return HopfAlgebroid(
        A, Gamma, [0], RingMorphism(A, Gamma, [], name="etaR"),
        {"g": A.one()}, {"g": Gamma.gen(0)},
        lambda ts: {"g": ts.incl_l(Gamma.gen(0)) * ts.incl_r(Gamma.gen(0))},
        name="mu2@F_3",
    )


def line_over_v(order):
    """(F_3[v], F_3[v][x]/(x^3)), |v| = 4, |x| = 2, x primitive, with
    Gamma's generators listed in `order`."""
    mode = BaseMode("fp", 3)
    A = GradedPresentation(mode, [("v", 4)], truncation=16)
    degrees = {"x": 2, "v": 4}
    Gamma = GradedPresentation(
        mode, [(g, degrees[g]) for g in order],
        relations={"x": (3, [])}, truncation=16,
    )
    x, v = Gamma.gen("x"), Gamma.gen("v")
    return HopfAlgebroid(
        A, Gamma, ["x"], RingMorphism(A, Gamma, [v]),
        {"x": A.zero()}, {"x": -x},
        lambda ts: {"x": ts.incl_l(x) + ts.incl_r(x)},
    )


def line_over_unit(udeg):
    """(F_3[u^+-1], F_3[u^+-1][x]/(x^3)), |x| = 2, x and u primitive: the
    line over a unit of degree udeg, whose Ext is u-periodic."""
    mode = BaseMode("fp", 3)
    A = GradedPresentation(mode, [("u", udeg)], inverted=["u"], truncation=16)
    Gamma = GradedPresentation(
        mode, [("u", udeg), ("x", 2)], relations={"x": (3, [])},
        inverted=["u"], truncation=16,
    )
    u, x = Gamma.gen(0), Gamma.gen(1)
    return HopfAlgebroid(
        A, Gamma, [1], RingMorphism(A, Gamma, [u]),
        {"x": A.zero()}, {"x": -x},
        lambda ts: {"x": ts.incl_l(x) + ts.incl_r(x)},
        name=f"line(|u|={udeg})",
    )


def mu2_on_unit():
    """mu_2 acting on a unit: A = F_3[u^+-1], |u| = 4, Gamma =
    A[g]/(g^2 - 1), eta_R(u) = u*g, Delta(g) = g (x) g, eps(g) = 1,
    c(g) = g.  u is not primitive (u^2 is), so Ext^{0,4} = 0 while
    Ext^{0,0} = Ext^{0,8} = 1."""
    mode = BaseMode("fp", 3)
    A = GradedPresentation(mode, [("u", 4)], inverted=["u"], truncation=8)
    Gamma = GradedPresentation(
        mode, [("u", 4), ("g", 0)], relations={"g": (2, [(1, (0, 0))])},
        inverted=["u"], truncation=8,
    )
    u, g = Gamma.gen(0), Gamma.gen(1)
    return HopfAlgebroid(
        A, Gamma, [1], RingMorphism(A, Gamma, [u * g]),
        {"g": A.one()}, {"g": g},
        lambda ts: {"g": ts.incl_l(g) * ts.incl_r(g)},
        name="mu2 on u@F_3",
    )


@pytest.fixture(scope="session")
def bp2():
    from hopfalg.fgl import assemble_bp

    return assemble_bp(2, 16)


@pytest.fixture(scope="session")
def bp3():
    from hopfalg.fgl import assemble_bp

    return assemble_bp(3, 40)


@pytest.fixture(scope="session")
def flagship():
    """The p=3 localized pair at weight cap 48 with the two-generator
    truncation, plus the canonical map to its induced algebroid."""
    from hopfalg.fgl import assemble_bp, johnson_wilson, quotient_localize

    bp = assemble_bp(3, 48, max_gens=2)
    H1 = quotient_localize(bp, 1)
    H2, f = johnson_wilson(bp, 1, 1)
    return bp, H1, H2, f


def write_mu2_identity_map(d):
    """Write the mu_2 algebroid (algebroid.ini, base.ini) and its identity
    map (map.ini) under the directory d; returns the map's path."""
    from hopfalg import files
    from hopfalg.morita import HopfMap
    from hopfalg.presentation import identity_morphism

    H = mu2_algebroid()
    files.write_algebroid(H, str(d))
    f = HopfMap(H, H, identity_morphism(H.A), identity_morphism(H.Gamma))
    path = d / "map.ini"
    path.write_text(files.emit_map(f, "algebroid.ini", "algebroid.ini"))
    return path


@pytest.fixture(scope="session")
def mu2():
    return mu2_algebroid()


@pytest.fixture(scope="session")
def jw_files(flagship, tmp_path_factory):
    """The flagship pair and map serialized to INI documents."""
    from hopfalg import files

    _, H1, H2, f = flagship
    d = tmp_path_factory.mktemp("jw")
    files.write_algebroid(H1, str(d), stem="source", base_stem="source_base")
    files.write_algebroid(H2, str(d), stem="target", base_stem="target_base")
    (d / "map.ini").write_text(files.emit_map(f, "source.ini", "target.ini"))
    (d / "witness.ini").write_text("[witness]\nkind = identity\n")
    return d
