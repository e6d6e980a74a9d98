"""Induced algebroids, combined maps, and equivalence certificates."""
import collections

import pytest

from hopfalg import cli, fgl, groupoid, hopf, morita
from hopfalg.cobar import CobarComplex, ext_dims
from hopfalg.errors import (
    AxiomFailure,
    SearchBudgetExceeded,
    UnsupportedBaseMap,
)
from hopfalg.morita import HopfMap, combined_map, identity_witness
from hopfalg.presentation import (
    BaseMode,
    GradedPresentation,
    RingMorphism,
    identity_morphism,
)

from conftest import line_over_v, write_mu2_identity_map


def test_induced_algebroid_axioms(flagship):
    _, H1, H2, f = flagship
    assert hopf.check_hopf_axioms(H2, 32).ok
    assert morita.check_hopf_map(f, 32).ok


def test_derived_power_rule(flagship):
    _, _, H2, _ = flagship
    Gamma = H2.Gamma
    t1 = Gamma.gen(2)
    v1 = Gamma.gen(0)
    assert t1 ** 3 == v1 ** 2 * t1


def test_combined_map_is_identity(flagship):
    _, _, _, f = flagship
    m = combined_map(f)
    v = morita.check_iso(m, 32)
    assert v.ok
    for i in range(len(m.source.gens)):
        assert m(m.source.gen(i)) == m.target.gen(i)


def test_flat_witness_verifies(flagship):
    _, _, _, f = flagship
    basis = identity_witness(f)
    v = morita.check_flat_witness(f, basis, bound=32)
    assert v.ok


def test_flat_witness_rejects_wrong_basis(flagship):
    _, _, _, f = flagship
    basis = identity_witness(f)
    v = morita.check_flat_witness(f, basis[:-2], bound=32)
    assert not v.ok


def test_flat_witness_rejects_a_zero_element(flagship):
    """A basis element past the truncation bound is zero, so the witness
    is no basis, though it adds no A-monomial products to any degree."""
    _, _, _, f = flagship
    basis = identity_witness(f)
    CP = morita.collapsed_pair(f.source, f.f0)
    i = len(CP.gens) - 1
    beyond = tuple(
        CP.truncation // CP.degrees[i] + 1 if j == i else 0
        for j in range(len(CP.gens))
    )
    assert CP.weight(beyond) > CP.truncation
    v = morita.check_flat_witness(f, basis + [beyond], bound=32)
    assert not v.ok
    assert any("is zero" in msg for msg in v.failures)


def test_theoremD_conditional_and_yes(flagship):
    _, _, _, f = flagship
    cert = morita.theoremD_verdict(f, assume_flat=True, bound=24)
    assert cert.status == "conditional"
    assert cert.witness_status == "assumed"
    cert2 = morita.theoremD_verdict(f, witness=identity_witness(f), bound=24)
    assert cert2.status == "yes"
    assert cert2.witness_status == "verified"
    assert not cert2.inconsistent
    d = cert2.to_dict()
    assert d["schema"] == 1 and d["status"] == "yes"


def test_identity_witness_drops_odd_squares():
    """x odd in characteristic 3 squares to zero: the witness basis of the
    line F_3[x]/(x^5) is 1, x, and it verifies."""
    from conftest import primitive_line

    H = primitive_line(3, 1, 5)
    assert H.morphism_monomials() == [(0,), (1,)]
    f = HopfMap(H, H, identity_morphism(H.A), identity_morphism(H.Gamma))
    cert = morita.theoremD_verdict(f, witness=identity_witness(f))
    assert cert.status == "yes", cert.to_dict()


def test_theoremD_refutes_broken_map(flagship):
    _, H1, H2, f = flagship
    # kill t2 in f1: the combined map misses the t2-line
    imgs = list(f.f1.images)
    t2_index = 3
    imgs[t2_index] = H2.Gamma.zero()
    bad_f1 = RingMorphism(f.f1.source, f.f1.target, imgs, name="bad_f1")
    bad = HopfMap(f.source, f.target, f.f0, bad_f1, name="broken")
    cert = morita.theoremD_verdict(bad, assume_flat=True, bound=24)
    assert cert.status == "no"
    assert cert.refutation


def test_induced_pair_ignores_the_order_of_gammas_generators():
    """Killing v on the line over v: Gamma_f is F_3[x]/(x^3) with f1(x) =
    x whether Gamma lists v before or after x, and neither the
    certificate nor the Ext table sees the order."""
    B = GradedPresentation(
        BaseMode("fp", 3), [("v", 4)], relations={"v": (1, [])}, truncation=16
    )
    results = []
    for order in (("v", "x"), ("x", "v")):
        H = line_over_v(order)
        f0 = RingMorphism(H.A, B, [B.gen(0)], name="f0")
        f = morita.induced_algebroid(H, f0)
        Hf = f.target
        x = Hf.Gamma.gen("x")
        assert not x.is_zero()
        assert f.f1(H.Gamma.gen("x")) == x
        assert f.f1(H.Gamma.gen("v")).is_zero()
        assert morita.check_hopf_map(f, 16).ok
        cert = morita.theoremD_verdict(f, witness=identity_witness(f))
        table = ext_dims(CobarComplex(Hf, s_max=3, t_min=0, t_max=16))
        results.append((Hf.Gamma.fingerprint(), cert.to_dict(), table.to_csv()))
    assert results[0] == results[1]
    # F_3[v] -> F_3 is not flat, and the witness check says so
    cert = results[0][1]
    assert cert["status"] == "inconclusive" and cert["iso"]["ok"]
    assert cert["witness"]["failures"] == [
        "h kills v; composite cannot be injective"
    ]
    assert table.nonzero() == [((0, 0), 1), ((1, 2), 1), ((2, 6), 1), ((3, 8), 1)]


def test_one_induced_presentation_per_algebroid_and_base_map(monkeypatch):
    """induced_algebroid, identity_witness and the certificate's combined
    map and flat-witness check share one derivation of (B (x)_A Gamma,
    Gamma_f); another base map is another derivation."""
    B = GradedPresentation(
        BaseMode("fp", 3), [("v", 4)], relations={"v": (1, [])}, truncation=16
    )
    H = line_over_v(("v", "x"))
    derived = collections.Counter()
    collapse = morita.collapsed_pair

    def counted(H, f0):
        derived[id(H), f0] += 1
        return collapse(H, f0)

    monkeypatch.setattr(morita, "collapsed_pair", counted)
    f0, g0 = (RingMorphism(H.A, B, [B.gen(0)], name="f0") for _ in range(2))
    f = morita.induced_algebroid(H, f0)
    morita.theoremD_verdict(f, witness=identity_witness(f))
    assert derived == {(id(H), f0): 1}
    assert H.induced[f0][1] is f.target.Gamma
    morita.induced_algebroid(H, g0)
    assert derived == {(id(H), f0): 1, (id(H), g0): 1}


def _raising(exc):
    def analyze_map(f, R, budget=None):
        raise exc
    return analyze_map


def test_oracle_skips_only_an_exhausted_budget(mu2, monkeypatch):
    """The certificate records a ring as skipped when its groupoid search
    runs out of budget; a refuted groupoid law is no skip."""
    f = HopfMap(mu2, mu2, identity_morphism(mu2.A),
                identity_morphism(mu2.Gamma))
    monkeypatch.setattr(groupoid, "analyze_map",
                        _raising(SearchBudgetExceeded("budget")))
    cert = morita.theoremD_verdict(f)
    assert cert.oracle and set(cert.oracle.values()) == {
        "skipped: SearchBudgetExceeded"
    }
    monkeypatch.setattr(groupoid, "analyze_map",
                        _raising(AxiomFailure("composition not associative")))
    with pytest.raises(AxiomFailure):
        morita.theoremD_verdict(f)


def test_refuted_oracle_fails_morita_check(tmp_path, monkeypatch, capsys):
    map_path = write_mu2_identity_map(tmp_path)
    monkeypatch.setattr(groupoid, "analyze_map",
                        _raising(AxiomFailure("composition not associative")))
    assert cli.run(["morita", "check", str(map_path)]) == cli.EXIT_FAIL == 1
    assert "composition not associative" in capsys.readouterr().err


@pytest.mark.parametrize("p,D,gens,n", [(2, 16, 3, 1), (3, 48, 2, 1), (3, 52, 3, 2)])
def test_a_base_map_may_reduce_mod_p(p, D, gens, n):
    """Z_(p) -> F_p is the one change of base mode: the canonical map from
    BP to its pair over v_n^{-1}BP_*/I_n is a map of Hopf algebroids."""
    bp = fgl.assemble_bp(p, D, max_gens=gens)
    f = morita.induced_algebroid(bp.H, fgl._base_map(bp.H, n, bp.N, "B"))
    assert f.target.Gamma.mode == BaseMode("fp", p)
    assert morita.check_hopf_map(f, D).ok


def _int_line():
    """(Z[v], Z[v][x]), |v| = 4, |x| = 2, x primitive: a pair in int mode."""
    mode = BaseMode("int")
    A = GradedPresentation(mode, [("v", 4)], truncation=16)
    Gamma = GradedPresentation(mode, [("v", 4), ("x", 2)], truncation=16)
    x = Gamma.gen("x")
    return hopf.HopfAlgebroid(
        A, Gamma, ["x"], RingMorphism(A, Gamma, [Gamma.gen("v")], name="etaR"),
        {"x": A.zero()}, {"x": -x},
        lambda ts: {"x": ts.incl_l(x) + ts.incl_r(x)},
    )


@pytest.mark.parametrize("source,mode", [
    ("plocal3", BaseMode("fp", 5)),
    ("fp3", BaseMode("plocal", 3)),
    ("int", BaseMode("fp", 3)),
], ids=["Z3-F5", "F3-Z3", "Z-F3"])
def test_every_other_change_of_base_mode_is_refused(source, mode):
    """Z_(3) -> F_5, F_3 -> Z_(3) and Z -> F_3 are no supported base maps,
    even with every generator sent to its mirror."""
    bp = fgl.assemble_bp(3, 40)
    H = {
        "plocal3": lambda: bp.H,
        "fp3": lambda: fgl.quotient_localize(bp, 1),
        "int": _int_line,
    }[source]()
    B = GradedPresentation(mode, H.A.gens, truncation=H.A.truncation)
    f0 = RingMorphism(H.A, B, [B.gen(i) for i in range(len(B.gens))], name="f0")
    with pytest.raises(UnsupportedBaseMap, match="base mode"):
        morita.induced_algebroid(H, f0)


def test_unsupported_base_map_escape_hatch():
    """Base maps that do not just mirror generators are refused loudly."""
    from hopfalg.fgl import assemble_bp, quotient_localize

    H = quotient_localize(assemble_bp(3, 40), 1)
    A = H.A
    mode = BaseMode("fp", 3)
    B = GradedPresentation(
        mode, [("u", 4)], inverted=["u"], truncation=40
    )  # renamed generator: not a mirror
    f0 = RingMorphism(A, B, [B.gen(0), B.zero()], name="rename")
    with pytest.raises(UnsupportedBaseMap):
        morita.induced_algebroid(H, f0)


def test_power_rule_needs_a_unit_lead_coefficient():
    """Over Z_(3) the relation x^2 + 3y = 0 has lead term 3y, and y ->
    -x^2/3 is no p-local rule; x^2 + 2y = 0 gives y -> -x^2/2."""
    from fractions import Fraction

    from hopfalg.morita import _extract_power_rule

    P = GradedPresentation(
        BaseMode("plocal", 3), [("x", 2), ("y", 4)], truncation=16
    )
    x, y = P.gen(0), P.gen(1)
    with pytest.raises(UnsupportedBaseMap):
        _extract_power_rule(P, x * x + y.scale(3), set())
    i, e, rhs = _extract_power_rule(P, x * x + y.scale(2), set())
    assert (i, e) == (1, 1) and rhs == (x * x).scale(Fraction(-1, 2))


def test_m2_case_is_the_identity_construction(flagship):
    """Inverting v1 with every generator kept induces the same pair."""
    from hopfalg.fgl import johnson_wilson

    bp, H1, _, _ = flagship
    H22, f22 = johnson_wilson(bp, 2, 1)
    assert H22.Gamma.gens == H1.Gamma.gens
    assert morita.check_iso(combined_map(f22), 24).ok


def test_corrupted_f1_breaks_delta_compatibility(flagship):
    """f1(t2) -> f1(t2) + f1(t1)^4 keeps every generator's degree, but
    (t1(x)1 + 1(x)t1)^4 has cross terms mod 3 that (f1(x)f1)(Delta t2)
    does not, so the Delta compatibility fails at t2."""
    _, _, _, f = flagship
    S = f.f1.source
    images = list(f.f1.images)
    images[S.index["t2"]] = images[S.index["t2"]] + images[S.index["t1"]] ** 4
    bad = HopfMap(
        f.source, f.target, f.f0, RingMorphism(S, f.f1.target, images, name="bad")
    )
    failures = morita.check_hopf_map(bad, 48).failures
    assert any(
        s.startswith("Delta.f1 != (f1@f1).Delta at t2: ") for s in failures
    )
    assert not any("at t1" in s for s in failures)


def _scaling(mode, c):
    """x -> c*x on mode's ring [x], |x| = 2, D = 8."""
    P = GradedPresentation(mode, [("x", 2)], truncation=8)
    return RingMorphism(P, P, [P.gen(0).scale(c)], name=f"x->{c}x")


@pytest.mark.parametrize(
    "kind, p, c, ok",
    [
        ("plocal", 3, 3, False),  # determinant 3^k: not a unit of Z_(3)
        ("int", None, 2, False),  # 2^k: invertible over Q only
        ("plocal", 3, 2, True),  # 2^k: a unit of Z_(3)
        ("int", None, -1, True),  # (-1)^k
        ("fp", 3, 2, True),
    ],
)
def test_check_iso_decides_over_the_coefficient_ring(kind, p, c, ok):
    v = morita.check_iso(_scaling(BaseMode(kind, p), c), 8)
    assert v.ok == ok
    if not ok:
        # degree 0 is the identity; degrees 2, 4, 6, 8 are of full rank
        assert v.failures == [
            f"degree {t}: matrix of rank 1 not invertible" for t in (2, 4, 6, 8)
        ]
