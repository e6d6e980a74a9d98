"""End-to-end CLI tests through `python -m hopfalg`."""
import json

import pytest

from hopfalg import files

from conftest import mu2_algebroid, run_cli


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


def test_internal_value_error_is_not_an_input_error(mu2_dir, monkeypatch, capsys):
    """Only InputError and ParseError mean bad input; a ValueError raised
    inside the computation is an internal error."""
    from hopfalg import cli
    from hopfalg.cobar import CobarComplex

    def broken(self, key):
        raise ValueError("stray value")

    monkeypatch.setattr(CobarComplex, "d_of_key", broken)
    code = cli.run(["ext", str(mu2_dir / "algebroid.ini"), "--smax", "1",
                    "--tmin", "0", "--tmax", "0"])
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == "internal error: stray value\n"
