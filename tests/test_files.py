"""INI serialization: byte-stable round-trips and parse diagnostics."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfalg import files, hopf, morita
from hopfalg.errors import InputError, ParseError
from hopfalg.presentation import BaseMode, GradedPresentation


def sample_presentation():
    return GradedPresentation(
        BaseMode("fp", 3),
        [("u", 4), ("w", 16)],
        relations={"w": (2, [(1, (4, 1))])},
        inverted=["u"],
        truncation=32,
        name="sample",
    )


def test_presentation_roundtrip(tmp_path):
    P = sample_presentation()
    doc = files.emit_presentation(P)
    path = tmp_path / "p.ini"
    path.write_text(doc)
    Q = files.parse_presentation(str(path))
    assert Q.gens == P.gens
    assert Q.inverted == P.inverted
    assert Q.truncation == P.truncation
    assert {i: (r.power, r.rhs) for i, r in Q.rules.items()} == {
        i: (r.power, r.rhs) for i, r in P.rules.items()
    }
    assert files.emit_presentation(Q) == doc


def test_algebroid_roundtrip(tmp_path, mu2):
    alg, base = files.write_algebroid(mu2, str(tmp_path))
    H = files.parse_algebroid(alg)
    assert hopf.check_hopf_axioms(H, 8).ok
    alg2, base2 = files.write_algebroid(
        H, str(tmp_path / "again"), stem="algebroid", base_stem="base"
    )
    assert open(alg2).read() == open(alg).read()
    assert open(base2).read() == open(base).read()


def test_flagship_algebroid_roundtrip(jw_files):
    H = files.parse_algebroid(str(jw_files / "target.ini"))
    # the derived relation survives the trip
    t1, v1 = H.Gamma.gen(2), H.Gamma.gen(0)
    assert t1 ** 3 == v1 ** 2 * t1
    assert hopf.check_hopf_axioms(H, 24).ok
    assert files.emit_algebroid(H, "target_base.ini") == (
        jw_files / "target.ini"
    ).read_text()


def test_map_roundtrip(jw_files):
    f = files.parse_map(str(jw_files / "map.ini"))
    assert morita.check_hopf_map(f, 24).ok
    assert files.emit_map(f, "source.ini", "target.ini") == (
        jw_files / "map.ini"
    ).read_text()


def test_comodule_roundtrip(tmp_path, mu2):
    from hopfalg.comodule import Comodule

    files.write_algebroid(mu2, str(tmp_path))
    g = mu2.Gamma.gen(0)
    M = Comodule(
        mu2,
        [("m0", 0), ("m1", 0)],
        {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m1")]},
        name="twisty",
    )
    doc = files.emit_comodule(M, "algebroid.ini")
    path = tmp_path / "c.ini"
    path.write_text(doc)
    N = files.parse_comodule(str(path))
    assert N.gens == M.gens
    for gen, _ in M.gens:
        assert N.psi_raw(gen) == M.psi_raw(gen)
    assert files.emit_comodule(N, "algebroid.ini") == doc


def test_emit_comodule_refuses_an_empty_coaction(mu2):
    """psi(m) = 0 fails the counit law, and `parse_comodule` would refuse
    the `m = 0` line, so the emitter refuses it and names m."""
    from hopfalg.comodule import Comodule

    M = Comodule(mu2, [("m", 0)], {"m": []})
    with pytest.raises(InputError, match="coaction of m is empty"):
        files.emit_comodule(M, "algebroid.ini")


def test_comodule_accepts_unicode_tensor(tmp_path, mu2):
    files.write_algebroid(mu2, str(tmp_path))
    doc = (
        "[comodule]\nalgebroid = algebroid.ini\n\n"
        "[generators]\nm = 0\n\n[psi]\nm = g(g)⊗m\n"
    )
    path = tmp_path / "c.ini"
    path.write_text(doc)
    M = files.parse_comodule(str(path), H=mu2)
    assert M.psi["m"]["m"] == mu2.Gamma.gen(0)


def test_missing_sections_raise(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[map]\nsource = a.ini\n")
    with pytest.raises(ParseError):
        files.parse_map(str(p))
    p.write_text("[base]\nmode = fp\np = 3\n")
    with pytest.raises(ParseError):
        files.parse_algebroid(str(p))


def test_wrong_image_count_raises(jw_files, tmp_path):
    text = (jw_files / "map.ini").read_text()
    broken = text.replace(
        "[f0]\nimages = ", "[f0]\nimages = 0; "
    )
    p = jw_files / "broken_map.ini"
    p.write_text(broken)
    with pytest.raises(ParseError, match="images"):
        files.parse_map(str(p))


def test_expression_diagnostics():
    P = sample_presentation()
    with pytest.raises(ParseError, match="unknown generator"):
        files.parse_expression(P, "u + q")
    with pytest.raises(ParseError):
        files.parse_expression(P, "u + ")
    with pytest.raises(ParseError):
        files.parse_expression(P, "(u")


def test_expression_grammar():
    P = sample_presentation()
    u, w = P.gen(0), P.gen(1)
    assert files.parse_expression(P, "2*u^3 - w + 1") == (
        P.scalar(2) * u ** 3 - w + P.one()
    )
    assert files.parse_expression(P, "u^-2") == u ** -2
    assert files.parse_expression(P, "-(u + w)*u") == -(u + w) * u


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-6, max_value=6),
            st.tuples(
                st.integers(min_value=-2, max_value=3),
                st.integers(min_value=0, max_value=2),
            ),
        ),
        max_size=4,
    )
)
def test_element_str_parse_inverse(raw):
    P = sample_presentation()
    e = P.element(raw)
    assert files.parse_expression(P, files.element_str(e)) == e
