"""The p-typical family: logs, right units, quotient localization."""
import gc
import weakref
from fractions import Fraction

import pytest

from hopfalg import fgl, hopf
from hopfalg.errors import IntegralityFailure
from hopfalg.fgl import (
    bp_generator_count,
    gen_degree,
    hazewinkel_logs,
    strict_height,
)
from hopfalg.presentation import BaseMode, GradedPresentation, RingMorphism


def test_generator_degrees():
    assert [gen_degree(2, i) for i in (1, 2, 3)] == [2, 6, 14]
    assert [gen_degree(3, i) for i in (1, 2, 3)] == [4, 16, 52]
    assert bp_generator_count(2, 16) == 3
    assert bp_generator_count(3, 40) == 2


def test_log_recursion_p3():
    # p*l_n = sum_{i<n} l_i v_{n-i}^{p^i} with l_0 = 1
    logs = hazewinkel_logs(3, 2)
    P = logs[1].pres
    v1, v2 = P.gen(0), P.gen(1)
    assert logs[1] * P.scalar(Fraction(3)) == v1
    assert logs[2] * P.scalar(Fraction(3)) == v2 + logs[1] * (v1 ** 3)


@pytest.mark.parametrize("p,D", [(2, 16), (3, 40)])
def test_bp_axiom_suite(p, D):
    bp = fgl.assemble_bp(p, D)
    assert hopf.check_hopf_axioms(bp.H, D).ok


@pytest.mark.parametrize("p", [2, 3])
def test_right_unit_closed_forms(p):
    bp = fgl.assemble_bp(p, gen_degree(p, 2))
    H, Gamma = bp.H, bp.Gamma
    v1, t1 = Gamma.gen(0), Gamma.gen(bp.N)
    assert H.etaR(bp.A.gen(0)) == v1 + Gamma.scalar(p) * t1


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_primitivity_mod_In(p, n):
    """eta_R(v_n) = v_n modulo I_n = (p, v_1, ..., v_{n-1})."""
    D = gen_degree(p, n) + 2 * gen_degree(p, 1)
    bp = fgl.assemble_bp(p, max(D, gen_degree(p, n)))
    H = bp.H
    diff = H.etaR(bp.A.gen(n - 1)) - H.etaL(bp.A.gen(n - 1))
    for mono, c in diff.terms.items():
        in_In = Fraction(c) % p == 0 or any(
            mono[i] > 0 for i in range(n - 1)
        )
        assert in_In, f"term {mono}:{c} of eta_R(v_{n}) - v_{n} not in I_{n}"


def test_integrality_enforced():
    # the raw log coefficients themselves are non-integral; the assembled
    # structure maps eta_R, Delta and c must never be
    for p, D in [(2, 16), (2, 32), (3, 52)]:
        logs = hazewinkel_logs(p, 2)
        assert any(
            Fraction(c).denominator != 1 for c in logs[2].terms.values()
        )
        H = fgl.assemble_bp(p, D).H
        for phi in (H.etaR, H.delta, H.c):
            for img in phi.images:
                for c in img.terms.values():
                    assert Fraction(c).denominator == 1, (p, D, phi.name, img)


def test_quotient_localize_shape():
    H = fgl.quotient_localize(fgl.assemble_bp(3, 40), 1)
    A = H.A
    assert A.mode.kind == "fp" and A.mode.p == 3
    assert 0 in A.inverted  # v1 inverted
    # eta_R(v2) = v2 + v1 t1^3 - v1^3 t1 mod 3
    Gamma = H.Gamma
    v1, v2 = Gamma.gen(0), Gamma.gen(1)
    t1 = Gamma.gen(2)
    assert H.etaR(A.gen(1)) == v2 + v1 * t1 ** 3 + Gamma.scalar(2) * v1 ** 3 * t1


def test_johnson_wilson_pair(flagship):
    _, H1, H2, f = flagship
    assert f.source.name == H1.name
    assert f.source.A.gens == H1.A.gens
    # B = F_3[v1^{+-1}]: v2 killed
    assert f.target.A.gen(1).is_zero()
    assert hopf.check_hopf_axioms(H2, 32).ok


def test_one_quotient_pair_per_tower_and_height(flagship):
    """The tower shares each quotient pair a caller holds: every canonical
    map out of height n starts at the pair quotient_localize(bp, n)
    returns."""
    bp, H1, _, f = flagship
    assert fgl.quotient_localize(bp, 1) is H1
    assert f.source is H1
    assert fgl.johnson_wilson(bp, 2, 1)[1].source is H1
    H2 = fgl.quotient_localize(bp, 2)
    assert H2 is not H1 and fgl.johnson_wilson(bp, 2, 2)[1].source is H2


def test_a_quotient_pair_no_caller_holds_is_freed():
    """The cached tower does not keep its pairs (and their groupoids)
    alive; the next call builds the pair again."""
    bp = fgl.assemble_bp.__wrapped__(3, 40)  # a tower no other test holds
    ref = weakref.ref(fgl.quotient_localize(bp, 1))
    gc.collect()
    assert ref() is None and 1 not in bp.pairs
    assert fgl.quotient_localize(bp, 1).name == "v1^-1BP/I1@p=3"


def test_strict_height():
    bp = fgl.assemble_bp(3, 40)
    A = bp.A
    mode = BaseMode("fp", 3)
    R = GradedPresentation(
        mode, [("u", 4)], inverted=["u"], truncation=40
    )
    f_good = RingMorphism(A, R, [R.gen(0), R.zero()], name="height1")
    assert strict_height(f_good, 1)
    R2 = GradedPresentation(mode, [("u", 4)], truncation=40)
    f_bad = RingMorphism(A, R2, [R2.gen(0), R2.zero()], name="notaunit")
    assert not strict_height(f_bad, 1)
    f_bad2 = RingMorphism(A, R, [R.zero(), R.zero()], name="killsv1")
    assert not strict_height(f_bad2, 1)


def test_max_gens_truncation():
    bp = fgl.assemble_bp(3, 48, max_gens=2)
    assert bp.N == 2
    assert bp.A.truncation == 48
    assert hopf.check_hopf_axioms(bp.H, 32).ok
