"""Hopf algebroid structure: axiom suite, tensor squares, fault injection."""
import pytest

from hopfalg import hopf
from hopfalg.errors import NotFreeOverA
from hopfalg.hopf import HopfAlgebroid
from hopfalg.presentation import BaseMode, GradedPresentation, RingMorphism

from conftest import mu2_algebroid, primitive_line


@pytest.mark.parametrize(
    "p,xdeg,power", [(2, 1, 2), (3, 2, 3), (2, 2, 4), (5, 2, 5)]
)
def test_primitive_line_axioms(p, xdeg, power):
    H = primitive_line(p, xdeg, power)
    assert hopf.check_hopf_axioms(H, 16).ok


def test_mu2_axioms(mu2):
    assert hopf.check_hopf_axioms(mu2, 8).ok


def test_balanced_tensor_relation(mu2):
    # in Gamma (x)_A Gamma the right base copy moves left through eta_R;
    # for the lines over F_p the base is trivial, so check on a BP quotient
    from hopfalg.fgl import assemble_bp, quotient_localize

    H = quotient_localize(assemble_bp(3, 40), 1)
    ts = H.ts
    a = H.A.gen(1)  # v2
    lhs = ts.incl_r(H.etaL(a))
    rhs = ts.incl_l(H.etaR(a))
    assert lhs == rhs


def test_corrupted_delta_fails_axioms():
    # Delta(x) = x (x) 1 only: not counital on the right
    p, xdeg, power = 3, 2, 3
    mode = BaseMode("fp", p)
    A = GradedPresentation(mode, [], truncation=16)
    Gamma = GradedPresentation(
        mode, [("x", xdeg)], relations={"x": (power, [])}, truncation=16
    )
    etaL = RingMorphism(A, Gamma, [])
    etaR = RingMorphism(A, Gamma, [])
    eps = RingMorphism(Gamma, A, [A.zero()])
    c = RingMorphism(Gamma, Gamma, [-Gamma.gen(0)])
    H = HopfAlgebroid(
        A, Gamma, [0], etaL, etaR, eps, c, {"x": [(1, (1, 0))]}
    )
    v = hopf.check_hopf_axioms(H, 16)
    assert not v.ok
    assert any("counit" in msg or "eps" in msg for msg in v.failures)


def test_corrupted_antipode_fails_axioms():
    H = primitive_line(3, 2, 3)
    bad_c = RingMorphism(H.Gamma, H.Gamma, [H.Gamma.gen(0)])  # c(x) = +x
    bad = HopfAlgebroid(
        H.A, H.Gamma, [0], H.etaL, H.etaR, H.eps, bad_c,
        {"x": [(1, (1, 0)), (1, (0, 1))]},
    )
    v = hopf.check_hopf_axioms(bad, 16)
    assert not v.ok


def test_misaligned_base_generators_rejected():
    mode = BaseMode("fp", 3)
    A = GradedPresentation(mode, [("v", 4)], truncation=16)
    Gamma = GradedPresentation(
        mode, [("w", 4), ("t", 4)], truncation=16
    )  # name mismatch
    etaL = RingMorphism(A, Gamma, [Gamma.gen(0)])
    with pytest.raises(NotFreeOverA):
        HopfAlgebroid(
            A, Gamma, [1], etaL, etaL,
            RingMorphism(Gamma, A, [A.gen(0), A.zero()]),
            RingMorphism(Gamma, Gamma, [Gamma.gen(0), -Gamma.gen(1)]),
            {"t": [(1, (0, 1, 0)), (1, (0, 0, 1))]},
        )


def test_point_algebra_over_finite_ring(mu2):
    """Points of mu_2 over F_3 form the group {1, -1} under composition."""
    from hopfalg.groupoid import GF, enumerate_points

    R = GF(3)
    pts = enumerate_points(mu2.Gamma, R)
    assert sorted(pts) == [(1,), (2,)]


def test_morphism_monomials_power_bounded(flagship):
    _, _, H2, _ = flagship
    monos = H2.morphism_monomials()
    # t1-exponent capped by the derived rule t1^3 = v1^2 t1
    t1 = min(H2.morphism_order)
    assert all(m[t1] <= 2 for m in monos)
    assert any(m[t1] == 2 for m in monos)


def test_counital_but_not_coassociative_delta():
    """Delta(y) = y(x)1 + 1(x)y + x(x)x^3 over F_2 with x primitive is
    counital and has an antipode (c(y) = y + x^4), but x(x)x^3 is not a
    Hochschild cocycle, so only coassociativity fails."""
    mode = BaseMode("fp", 2)
    A = GradedPresentation(mode, [], truncation=16, name="F_2")
    G = GradedPresentation(mode, [("x", 2), ("y", 8)], truncation=16)
    x, y = G.gen(0), G.gen(1)
    H = HopfAlgebroid(
        A, G, [0, 1],
        RingMorphism(A, G, []),
        RingMorphism(A, G, []),
        RingMorphism(G, A, [A.zero(), A.zero()]),
        RingMorphism(G, G, [x, y + x ** 4]),
        {
            "x": [(1, (1, 0, 0, 0)), (1, (0, 0, 1, 0))],
            "y": [(1, (0, 1, 0, 0)), (1, (0, 0, 0, 1)), (1, (1, 0, 3, 0))],
        },
    )
    v = hopf.check_hopf_axioms(H, 16)
    assert len(v.failures) == 1
    assert v.failures[0].startswith("coassociativity fails at y: ")
