"""End-to-end CLI tests through `python -m hopfalg`."""
import json

import pytest

from hopfalg import fgl, files, morita
from hopfalg.cobar import CobarComplex, ext_dims
from hopfalg.comodule import Comodule
from hopfalg.presentation import BaseMode, GradedPresentation, RingMorphism

from conftest import (
    mu2_algebroid,
    primitive_line,
    run_cli,
    run_code,
    write_mu2_identity_map,
)


@pytest.fixture(scope="module")
def mu2_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mu2")
    files.write_algebroid(mu2_algebroid(), str(d))
    return d


def test_ring_check(mu2_dir):
    r = run_cli("ring", "check", mu2_dir / "base.ini")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["verdict"] == "pass" and out["schema"] == 1


def test_hopf_axioms_pass(mu2_dir, jw_files):
    assert run_cli("hopf", "axioms", mu2_dir / "algebroid.ini").returncode == 0
    assert run_cli("hopf", "axioms", jw_files / "target.ini").returncode == 0


def test_hopf_axioms_fail_on_corrupted_counit(mu2_dir, tmp_path):
    text = (mu2_dir / "algebroid.ini").read_text()
    assert "epsilon = 1" in text
    bad = tmp_path / "bad.ini"
    bad.write_text(text.replace("epsilon = 1", "epsilon = 2"))
    (tmp_path / "base.ini").write_text((mu2_dir / "base.ini").read_text())
    r = run_cli("hopf", "axioms", bad)
    assert r.returncode == 1
    out = json.loads(r.stdout)
    assert not out["ok"]
    assert any("eps" in msg for msg in out["failures"])


def test_hopf_bp_roundtrip(tmp_path):
    out = tmp_path / "bp2"
    r = run_cli("hopf", "bp", "--prime", 2, "--degree", 16, "--out", out)
    assert r.returncode == 0
    assert run_cli("hopf", "axioms", out / "algebroid.ini").returncode == 0


def test_morita_check_verdicts(jw_files):
    r = run_cli("morita", "check", jw_files / "map.ini", "--assume-flat",
                "--degree", 24)
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "conditional"
    r2 = run_cli("morita", "check", jw_files / "map.ini",
                 "--flat-witness", jw_files / "witness.ini", "--degree", 24)
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["status"] == "yes"


def test_comodule_check(mu2_dir, tmp_path):
    doc = (
        "[comodule]\nalgebroid = algebroid.ini\n\n"
        "[generators]\nm = 0\n\n[psi]\nm = g(g)(x)m\n"
    )
    (mu2_dir / "twist.ini").write_text(doc)
    r = run_cli("comodule", "check", mu2_dir / "twist.ini")
    assert r.returncode == 0
    bad = doc.replace("g(g)(x)m", "g(2*g)(x)m")
    (mu2_dir / "broken.ini").write_text(bad)
    assert run_cli("comodule", "check", mu2_dir / "broken.ini").returncode == 1


def test_ext_deterministic_across_processes(jw_files):
    """Two separate processes print identical bytes, in every output
    format; one passes `--parallel 1`, the only value it accepts."""
    base = ["ext", jw_files / "target.ini", "--smax", 2,
            "--tmin", -12, "--tmax", 12, "--inner", 24]
    for fmt in ("csv", "json", "chart"):
        r1 = run_cli(*base, "--format", fmt, "--parallel", 1)
        r2 = run_cli(*base, "--format", fmt)
        assert r1.returncode == 0 and r2.returncode == 0
        assert r1.stdout == r2.stdout, fmt


def test_ext_parallel_other_than_one_is_an_input_error(jw_files):
    r = run_cli("ext", jw_files / "target.ini", "--smax", 1,
                "--tmin", 0, "--tmax", 4, "--parallel", 2)
    assert r.returncode == 2
    assert "--parallel" in r.stderr


def test_ext_csv_content(jw_files):
    r = run_cli("ext", jw_files / "target.ini", "--smax", 1,
                "--tmin", 0, "--tmax", 8, "--inner", 24, "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "s,t,dim"
    assert "0,0,1" in lines and "1,4,1" in lines


def test_oracle_groupoid_on_map(jw_files):
    r = run_cli("oracle", "groupoid", jw_files / "map.ini", "--rings", "F_3")
    assert r.returncode == 0
    reports = json.loads(r.stdout)["reports"]
    assert len(reports) == 1
    assert reports[0]["faithful"] and reports[0]["full"]


def test_oracle_groupoid_on_an_algebroid_document_and_directory(mu2_dir):
    """An algebroid document, or the directory holding algebroid.ini,
    reports its groupoid per ring: mu_2 over F_3 has one object and the
    two square roots of 1 as morphisms."""
    want = [{"groupoid_laws": "corroborated", "morphisms": 2, "objects": 1,
             "ring": "F_3"}]
    for path in (mu2_dir / "algebroid.ini", mu2_dir):
        r = run_cli("oracle", "groupoid", path, "--rings", "F_3")
        assert r.returncode == 0, r.stderr
        out = json.loads(r.stdout)
        assert out["source"] == path.name and out["reports"] == want


def test_ext_with_a_comodule_is_the_in_process_table(tmp_path):
    """`ext --comodule` prints the table of the cobar complex with those
    coefficients: here the extension of the unit by x over the line
    F_3[x]/(x^3), whose table is not the unit comodule's."""
    line = primitive_line(3, 2, 3)
    one, x = line.Gamma.one(), line.Gamma.gen(0)
    M = Comodule(line, [("m0", 0), ("m1", 2)],
                 {"m0": [(one, "m0")], "m1": [(one, "m1"), (x, "m0")]},
                 name="x-extension")
    files.write_algebroid(line, str(tmp_path))
    (tmp_path / "comodule.ini").write_text(
        files.emit_comodule(M, "algebroid.ini")
    )
    window = dict(s_max=3, t_min=0, t_max=12)
    r = run_cli("ext", tmp_path / "algebroid.ini",
                "--comodule", tmp_path / "comodule.ini",
                "--smax", 3, "--tmin", 0, "--tmax", 12)
    assert r.returncode == 0, r.stderr
    assert r.stdout == ext_dims(CobarComplex(line, M=M, **window)).to_csv()
    assert r.stdout != ext_dims(CobarComplex(line, **window)).to_csv()


def test_morita_check_fails_on_status_no(jw_files, tmp_path):
    """A map whose f1 sends t1 to 0 has a combined map that is no
    isomorphism: status "no", exit 1."""
    doc = (jw_files / "map.ini").read_text()
    assert "images = v1; 0; t1; t2" in doc
    path = tmp_path / "map.ini"
    path.write_text(
        doc.replace("images = v1; 0; t1; t2", "images = v1; 0; 0; t2")
        .replace("source.ini", str(jw_files / "source.ini"))
        .replace("target.ini", str(jw_files / "target.ini"))
    )
    r = run_cli("morita", "check", path, "--degree", 8)
    assert r.returncode == 1, r.stderr
    out = json.loads(r.stdout)
    assert out["status"] == "no" and not out["iso"]["ok"]


def test_ext_aborts_on_a_mixed_height_pair(tmp_path):
    """v_2^{-1}BP_*/I_1 at p=3 keeps v1 beside the inverted v2, and
    eta_R(v2) = v2 + v1*t1^3 + 2*v1^3*t1 has terms of weight 16: the
    outer face would raise key weights, so the command aborts (exit 3)
    naming v2 instead of failing inside the differential."""
    bp = fgl.assemble_bp(3, 52, max_gens=3)
    B = GradedPresentation(
        BaseMode("fp", 3), bp.A.gens, inverted=["v2"], truncation=52,
        name="v2^-1BP*/I1@p=3",
    )
    f0 = RingMorphism(bp.A, B, [B.gen(i) for i in range(3)], name="f0")
    files.write_algebroid(
        morita.induced_algebroid(bp.H, f0).target, str(tmp_path)
    )
    r = run_cli("ext", tmp_path / "algebroid.ini",
                "--smax", 1, "--tmin", 0, "--tmax", 16)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("aborted: eta_R(v2) has a term of weight 16 ")


def test_oracle_budget_exhaustion(jw_files):
    r = run_cli("oracle", "groupoid", jw_files / "map.ini",
                "--rings", "F_3", "--budget", 2)
    assert r.returncode == 3


def test_descent_ok_and_planted_noncover():
    r = run_cli("descent", "--modules", 3, "--seed", 7)
    assert r.returncode == 0
    # the planted non-cover run passes exactly when the refutation fires
    r2 = run_cli("descent", "--planted-noncover")
    assert r2.returncode == 0
    refuted = json.loads(r2.stdout)["results"][0]["refuted"]
    assert "kills (1, 0)" in refuted


def test_descent_of_a_large_module():
    """Seed 7 draws F_3-modules of dims 7 and 11; 3^11 vectors exceeded
    the budget of the enumerating checker, which exited with code 3."""
    r = run_cli("descent", "--modules", 2, "--max-dim", 12, "--seed", 7)
    assert r.returncode == 0, r.stderr
    results = json.loads(r.stdout)["results"]
    assert all(res["ok"] for res in results)
    assert max(res["module_dim"] for res in results
               if res["cover"] == "F_3 -> F_9") >= 11


def test_malformed_and_missing_files(tmp_path):
    p = tmp_path / "junk.ini"
    p.write_text("[base]\nmode = fp\n")  # fp without p
    assert run_cli("ring", "check", p).returncode == 2
    assert run_cli("hopf", "axioms", tmp_path / "nope.ini").returncode == 2


def test_internal_error_has_its_own_exit_code(mu2_dir, monkeypatch, capsys):
    """A broken invariant is reported as an internal error, not as bad
    input and not as a traceback."""
    from hopfalg import cli
    from hopfalg.cobar import CobarComplex

    monkeypatch.setattr(
        CobarComplex, "d_of_key", lambda self, key: {("stray",): 1}
    )
    code = cli.run(["ext", str(mu2_dir / "algebroid.ini"), "--smax", "1",
                    "--tmin", "0", "--tmax", "0"])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "leaves the enumerated basis" in err


@pytest.mark.parametrize("smax", ["0", "1"])
def test_internal_error_in_the_stable_path(mu2_dir, monkeypatch, capsys, smax):
    """The same on the stable path, where an inner key of the top level
    (s_max = 0) or of a lower level (s_max = 1) leaves the basis."""
    from hopfalg import cli
    from hopfalg.cobar import CobarComplex

    monkeypatch.setattr(
        CobarComplex, "d_of_key", lambda self, key: {("stray",): 1}
    )
    code = cli.run(["ext", str(mu2_dir / "algebroid.ini"), "--smax", smax,
                    "--tmin", "0", "--tmax", "0", "--inner", "8"])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ")
    assert "leaves the enumerated basis" in err


# Run in a fresh process: once d_{2,6} is built, add 1 to d_{1,6} in a row
# where d_{2,6} is nonzero; the d^2 = 0 check runs with no flag.
D2_CORRUPTED = """
import sys
from hopfalg import cli
from hopfalg.cobar import CobarComplex

columns = CobarComplex._columns

def corrupting(self, keys, s, t):
    cols = columns(self, keys, s, t)
    if (s, t) == (2, 6):
        r = next(r for r, col in enumerate(cols) if col)
        d1 = self._columns_cache[(1, 6)][0]
        d1[r] = (d1.get(r, 0) + 1) % self.p
    return cols

CobarComplex._columns = corrupting
sys.exit(cli.run(["ext", {path!r}, "--smax", "2", "--tmin", "0", "--tmax", "8"]))
"""


def test_ext_exits_4_when_d_squared_is_not_zero(tmp_path):
    alg, _ = files.write_algebroid(primitive_line(3, 2, 9), str(tmp_path))
    r = run_code(D2_CORRUPTED.format(path=alg))
    assert r.returncode == 4, r.stderr
    assert r.stderr == "internal error: d^2 != 0 at (s,t)=(1,6)\n"


def test_malformed_integer_is_an_input_error(tmp_path, capsys):
    from hopfalg import cli

    p = tmp_path / "ring.ini"
    p.write_text("[base]\nmode = fp\np = 3\n\n[generators]\nx = 2\n\n"
                 "[truncation]\nD = abc\n")
    assert cli.run(["ring", "check", str(p)]) == cli.EXIT_INPUT == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "'abc'" in err
    p.write_text("[base]\nmode = fp\np = 3\n\n[generators]\nx = two\n")
    assert cli.run(["ring", "check", str(p)]) == cli.EXIT_INPUT


def _ext_with_broken_differential(mu2_dir, monkeypatch, exc):
    """Run `ext` on mu_2 with a differential that raises `exc`."""
    from hopfalg import cli
    from hopfalg.cobar import CobarComplex

    def broken(self, key):
        raise exc

    monkeypatch.setattr(CobarComplex, "d_of_key", broken)
    return cli.run(["ext", str(mu2_dir / "algebroid.ini"), "--smax", "1",
                    "--tmin", "0", "--tmax", "0"])


def test_internal_value_error_is_not_an_input_error(mu2_dir, monkeypatch, capsys):
    """Only InputError and ParseError mean bad input; a ValueError raised
    inside the computation is an internal error."""
    from hopfalg import cli

    code = _ext_with_broken_differential(mu2_dir, monkeypatch,
                                         ValueError("stray value"))
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: stray value\n"


def test_any_other_internal_exception_is_an_internal_error(mu2_dir, monkeypatch,
                                                           capsys):
    """Any other exception raised inside the computation (here a KeyError)
    is an internal error too, never exit 1 (a property failed)."""
    from hopfalg import cli

    code = _ext_with_broken_differential(mu2_dir, monkeypatch, KeyError("w"))
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'w'\n"


# every key an algebroid or map document must carry: (document, section, key)
REQUIRED_KEYS = [
    ("algebroid", "algebroid", "base"),
    ("algebroid", "algebroid", "morphisms"),
    *(("algebroid", "maps", key)
      for key in ("etaL", "etaR", "epsilon", "c", "delta")),
    ("map", "map", "source"),
    ("map", "map", "target"),
    ("map", "f0", "images"),
    ("map", "f1", "images"),
]


def _without_key(text, section, key):
    """The INI text with the line of `key` in [section] removed."""
    out, current = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith("["):
            current = line.strip()[1:-1]
        elif current == section and line.split("=")[0].strip() == key:
            continue
        out.append(line)
    assert len(out) == len(text.splitlines()) - 1
    return "".join(out)


@pytest.mark.parametrize(
    "doc, section, key", REQUIRED_KEYS,
    ids=[f"{sec}.{key}" for _, sec, key in REQUIRED_KEYS],
)
def test_missing_required_key_is_an_input_error(tmp_path, capsys, doc,
                                                section, key):
    from hopfalg import cli

    map_path = write_mu2_identity_map(tmp_path)
    files.parse_map(str(map_path))  # the complete documents parse
    path = tmp_path / f"{doc}.ini"
    path.write_text(_without_key(path.read_text(), section, key))
    assert cli.run(["morita", "check", str(map_path)]) == cli.EXIT_INPUT == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert f"[{section}] needs {key}" in err



@pytest.fixture(scope="module")
def refused_docs(jw_files, tmp_path_factory):
    """Algebroid documents that parse but that `ext` refuses (p-local
    coefficients; an odd degree in characteristic 3), one whose base
    names the non-prime p = 4, a comodule over mu_2 that passes its
    check, and a flagship map whose f0 sends v1 to 2*v1, an automorphism
    over F_3 but no mirror map, so outside the supported base maps.  Three
    copies of the line over F_3[v] whose Gamma does not mirror A: its
    base generator renamed to w, `morphisms` naming v, and no morphisms."""
    from hopfalg.fgl import assemble_bp

    from conftest import line_over_v, primitive_line

    d = tmp_path_factory.mktemp("refused")
    files.write_algebroid(assemble_bp(3, 24, max_gens=2).H, str(d),
                          stem="plocal", base_stem="plocal_base")
    files.write_algebroid(primitive_line(3, 3, 3), str(d),
                          stem="odd", base_stem="odd_base")
    base = (jw_files / "target_base.ini").read_text()
    assert "p = 3\n" in base
    (d / "p4_base.ini").write_text(base.replace("p = 3\n", "p = 4\n"))
    (d / "p4.ini").write_text((jw_files / "target.ini").read_text()
                              .replace("target_base.ini", "p4_base.ini"))
    files.write_algebroid(mu2_algebroid(), str(d), stem="mu2",
                          base_stem="mu2_base")
    (d / "twist.ini").write_text(
        "[comodule]\nalgebroid = mu2.ini\n\n"
        "[generators]\nm = 0\n\n[psi]\nm = g(g)(x)m\n"
    )
    mapped = (jw_files / "map.ini").read_text()
    assert "[f0]\nimages = v1; 0\n" in mapped
    (d / "scaled_v1.ini").write_text(
        mapped.replace("[f0]\nimages = v1; 0\n", "[f0]\nimages = 2*v1; 0\n")
        .replace("= source.ini", f"= {jw_files / 'source.ini'}")
        .replace("= target.ini", f"= {jw_files / 'target.ini'}")
    )
    files.write_algebroid(line_over_v(["v", "x"]), str(d), stem="line",
                          base_stem="line_base")
    line = (d / "line.ini").read_text()
    renamed = line
    for old, new in (("v = 4\n", "w = 4\n"), ("etaL = v\n", "etaL = w\n"),
                     ("etaR = v\n", "etaR = w\n"), ("c = v;", "c = w;")):
        assert renamed.count(old) == 1
        renamed = renamed.replace(old, new)
    (d / "renamed_base.ini").write_text(renamed)
    assert line.count("morphisms = x\n") == 1
    for stem, morphisms in (("base_morphism", "v"), ("no_morphisms", "")):
        (d / f"{stem}.ini").write_text(
            line.replace("morphisms = x\n", f"morphisms = {morphisms}\n")
        )
    return d


_WINDOW = ["--smax", "1", "--tmin", "0", "--tmax", "4"]
_PRIME = "input error: modes plocal/fp need a prime p, not "
# (argv, exit code, stderr prefix): {bad} is the `refused_docs` directory,
# {jw} the flagship's
EXIT_CODES = [
    (["hopf", "bp", "--prime", "4", "--degree", "8", "--out", "{bad}/bp4"],
     2, _PRIME + "4"),
    (["hopf", "bp", "--prime", "1", "--degree", "8", "--out", "{bad}/bp1"],
     2, _PRIME + "1"),
    (["hopf", "bp", "--prime", "3", "--degree", "-4", "--out", "{bad}/bpneg"],
     2, "input error: degree -4 is below the first generator's degree 4"),
    (["ext", "{bad}/p4.ini", *_WINDOW], 2, _PRIME + "4"),
    (["ext", "{bad}/plocal.ini", *_WINDOW],
     2, "input error: cobar dimensions need a prime-field coefficient mode"),
    (["ext", "{bad}/odd.ini", *_WINDOW],
     2, "input error: odd generator degrees need characteristic 2"),
    (["ext", "{jw}/target.ini", "--smax", "-1", "--tmin", "0", "--tmax", "4"],
     2, "input error: s_max must be >= 0, not -1"),
    (["ext", "{jw}/target.ini", "--smax", "1", "--tmin", "4", "--tmax", "-4"],
     2, "input error: empty t window: t_min 4 > t_max -4"),
    (["descent", "--max-dim", "0"],
     2, "input error: --max-dim must be >= 1, not 0"),
    (["descent", "--modules", "-1"],
     2, "input error: --modules must be >= 0, not -1"),
    (["hopf", "axioms", "{jw}/target.ini", "--bound", "-1"],
     2, "input error: --bound must be >= 0, not -1"),
    (["morita", "check", "{jw}/map.ini", "--degree", "-1",
      "--flat-witness", "{jw}/witness.ini"],
     2, "input error: --degree must be >= 0, not -1"),
    (["comodule", "check", "{bad}/twist.ini", "--bound", "-1"],
     2, "input error: --bound must be >= 0, not -1"),
    (["ring", "check", "{jw}/target_base.ini", "--degree", "-3"],
     2, "input error: --degree must be >= 0, not -3"),
    (["ext", "{jw}/target.ini", *_WINDOW, "--inner", "-1"],
     2, "input error: --inner must be >= 0, not -1"),
    (["hopf", "bp", "--prime", "3", "--degree", "8", "--max-gens", "0",
      "--out", "{bad}/bp0"],
     2, "input error: --max-gens must be >= 1, not 0"),
    (["oracle", "groupoid", "{jw}/map.ini", "--rings", "F_3",
      "--budget", "0"],
     2, "input error: --budget must be >= 1, not 0"),
    (["oracle", "groupoid", "{jw}/map.ini", "--rings", "F_3,F_5,bogus"],
     2, "input error: not in the ring catalog: F_5, bogus"),
    (["morita", "check", "{bad}/scaled_v1.ini"],
     2, "input error: f0 must send v1 to its mirror (got 2*v1)"),
    (["hopf", "axioms", "{bad}/renamed_base.ini"],
     2, "input error: Gamma's base generators (('w', 4),) do not mirror A's"),
    (["hopf", "axioms", "{bad}/base_morphism.ini"],
     2, "input error: Gamma's base generators (('x', 2),) do not mirror A's"),
    (["hopf", "axioms", "{bad}/no_morphisms.ini"],
     2, "input error: Gamma's base generators (('v', 4), ('x', 2)) do not"),
]


@pytest.mark.parametrize(
    "argv, code, prefix", EXIT_CODES,
    ids=["bp-p4", "bp-p1", "bp-degree-below-first-generator", "ext-fp-p4",
         "ext-plocal", "ext-odd-degree", "ext-smax-negative",
         "ext-empty-t-window", "descent-max-dim-0",
         "descent-modules-negative", "axioms-bound-negative",
         "morita-degree-negative", "comodule-bound-negative",
         "ring-degree-negative", "ext-inner-negative", "bp-max-gens-0",
         "oracle-budget-0", "oracle-unknown-ring",
         "morita-unsupported-base-map", "algebroid-base-generator-renamed",
         "algebroid-morphism-is-base-generator", "algebroid-no-morphisms"],
)
def test_exit_codes(refused_docs, jw_files, capsys, argv, code, prefix):
    """What each refused input exits with, and the line it prints."""
    from hopfalg import cli

    argv = [a.format(bad=refused_docs, jw=jw_files) for a in argv]
    assert cli.run(argv) == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.fixture(scope="module")
def bp8_dir(tmp_path_factory):
    """The p=2 tower at D=8 (v1, v2; t1, t2) as documents."""
    from hopfalg.fgl import assemble_bp

    d = tmp_path_factory.mktemp("bp8")
    files.write_algebroid(assemble_bp(2, 8).H, str(d))
    return d


def _edited(bp8_dir, d, old, new):
    """The bp8 documents under d, with `old` replaced by `new` in the
    algebroid document; returns its path."""
    text = (bp8_dir / "algebroid.ini").read_text()
    assert text.count(old) == 1
    (d / "base.ini").write_text((bp8_dir / "base.ini").read_text())
    path = d / "algebroid.ini"
    path.write_text(text.replace(old, new))
    return path


# (line edited, its replacement, the message): etaL, and epsilon and c of a
# base generator, differing from the maps the algebroid derives
FORCED_IMAGES = [
    ("etaL = v1; v2\n", "etaL = v1; v2 + v1^3\n",
     "etaL(v2) = v2 + v1^3, but the derived etaL sends v2 to v2"),
    ("epsilon = v1; v2;", "epsilon = v1; v2 + v1^3;",
     "epsilon(v2) = v2 + v1^3, but the derived epsilon sends v2 to v2"),
    ("c = 2*t1 + v1;", "c = v1;",
     "c(v1) = v1, but the derived c sends v1 to 2*t1 + v1"),
]


@pytest.mark.parametrize("old, new, message", FORCED_IMAGES,
                         ids=["etaL", "epsilon", "c"])
def test_a_forced_image_that_differs_is_an_input_error(
        bp8_dir, tmp_path, capsys, old, new, message):
    from hopfalg import cli

    path = _edited(bp8_dir, tmp_path, old, new)
    assert cli.run(["hopf", "axioms", str(path)]) == cli.EXIT_INPUT == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_a_degree_error_in_a_presentation_is_an_input_error(tmp_path, capsys):
    from hopfalg import cli

    path = tmp_path / "ring.ini"
    path.write_text("[base]\nmode = fp\np = 3\n\n[generators]\nx = 2\ny = 4\n\n"
                    "[relations]\ny = x\n")
    assert cli.run(["ring", "check", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: inhomogeneous rule for y\n"
    )


def test_an_unknown_inverted_name_is_an_input_error(tmp_path, capsys):
    from hopfalg import cli

    path = tmp_path / "ring.ini"
    path.write_text("[base]\nmode = fp\np = 3\n\n[generators]\nv = 4\n\n"
                    "[inverted]\nnames = q\n")
    assert cli.run(["ring", "check", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: inverted name 'q' is not a generator\n"
    )


def test_a_degree_error_in_a_structure_map_is_an_input_error(
        bp8_dir, tmp_path, capsys):
    from hopfalg import cli

    path = _edited(bp8_dir, tmp_path, "; -t2 - t1^3 - v1*t1^2\n", "; t1^2\n")
    assert cli.run(["hopf", "axioms", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: image of t2 has degree 4, expected 6\n"
    )


def test_a_degree_error_in_a_coaction_is_an_input_error(
        bp8_dir, tmp_path, capsys):
    from hopfalg import cli

    path = tmp_path / "comodule.ini"
    path.write_text(
        f"[comodule]\nalgebroid = {bp8_dir / 'algebroid.ini'}\n\n"
        "[generators]\nm0 = 0\nm1 = 2\n\n"
        "[psi]\nm0 = g(1)(x)m0\nm1 = g(1)(x)m1 + g(t1^2)(x)m0\n"
    )
    assert cli.run(["comodule", "check", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: psi(m1) term at m0 has degree 4, expected 2\n"
    )
