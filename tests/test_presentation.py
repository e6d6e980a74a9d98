"""Property tests for the exact graded-commutative arithmetic layer."""
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfalg.errors import (
    DegreeError,
    IllegalExponent,
    InfiniteBasis,
    PresentationMismatch,
)
from hopfalg.presentation import (
    BaseMode,
    GradedPresentation,
    RingMorphism,
    identity_morphism,
    invert_element,
)

FP3 = BaseMode("fp", 3)
FP2 = BaseMode("fp", 2)
INT = BaseMode("int")


def poly_ring():
    return GradedPresentation(
        FP3, [("a", 2), ("b", 4)], truncation=24, name="F_3[a,b]"
    )


def quotient_ring():
    # F_3[a, b] / (b^2 = a * b), a inverted would break the rule; plain
    return GradedPresentation(
        FP3,
        [("a", 4), ("b", 4)],
        relations={"b": (2, [(1, (1, 1))])},
        truncation=32,
    )


def laurent_ring():
    return GradedPresentation(
        FP3, [("u", 4), ("w", 16)], inverted=["u"], truncation=32
    )


RINGS = [poly_ring(), quotient_ring(), laurent_ring()]


def elements(P, max_terms=4):
    monos = st.tuples(
        *[
            st.integers(min_value=-2 if i in P.inverted else 0, max_value=3)
            for i in range(len(P.gens))
        ]
    )
    term = st.tuples(st.integers(min_value=-6, max_value=6), monos)
    return st.lists(term, max_size=max_terms).map(
        lambda raw: P.element(raw)
    )


@pytest.mark.parametrize("P", RINGS, ids=[r.name or str(i) for i, r in enumerate(RINGS)])
def test_normal_form_idempotent(P):
    @given(elements(P))
    def inner(x):
        again = P.element([(c, m) for m, c in x.terms.items()])
        assert again.terms == x.terms

    inner()


@pytest.mark.parametrize("P", RINGS, ids=["poly", "quot", "laurent"])
def test_ring_axioms(P):
    @given(elements(P), elements(P), elements(P))
    def inner(x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + P.zero() == x
        assert x * P.one() == x
        assert (x - x).is_zero()

    inner()


def brute_degree_basis(P, t):
    """Independent oracle: enumerate exponent boxes directly."""
    n = len(P.gens)
    lims = []
    for i in range(n):
        rule = P.rules.get(i)
        if i in P.inverted:
            lims.append(range(-16, 17))
        elif rule is not None:
            lims.append(range(rule.power))
        else:
            d = abs(P.degrees[i]) or 1
            lims.append(range(P.truncation // d + 1))
    out = []
    for mono in itertools.product(*lims):
        if P.monomial_degree(mono) != t:
            continue
        if P.weight(mono) > P.truncation:
            continue
        out.append(mono)
    return sorted(out)


@pytest.mark.parametrize("P", RINGS, ids=["poly", "quot", "laurent"])
@pytest.mark.parametrize("t", [0, 4, 8, 12, 16, 20])
def test_degree_basis_matches_brute_force(P, t):
    assert sorted(P.degree_basis(t)) == brute_degree_basis(P, t)


def test_infinite_basis_detected():
    P = GradedPresentation(
        FP3, [("u", 2), ("w", -2)], inverted=["u", "w"], truncation=8
    )
    with pytest.raises(InfiniteBasis):
        P.degree_basis(0)


def test_power_rule_rewrites():
    P = quotient_ring()
    b = P.gen(1)
    a = P.gen(0)
    assert b * b == a * b
    assert b ** 3 == a * a * b


def test_truncation_flag_is_sticky():
    P = poly_ring()
    big = P.monomial_element((13, 0))  # weight 26 > 24
    assert big.is_zero() and big.truncated
    assert (big + P.one()).truncated
    assert (P.one() * big).truncated


def test_koszul_sign_odd_generators():
    P = GradedPresentation(FP3, [("e", 3), ("f", 5)], truncation=16)
    e, f = P.gen(0), P.gen(1)
    assert f * e == -(e * f)
    assert (e * f + f * e).is_zero()
    # odd squares vanish away from characteristic 2
    assert (e * e).is_zero()
    P2 = GradedPresentation(FP2, [("e", 3)], truncation=16)
    assert not (P2.gen(0) * P2.gen(0)).is_zero()


def test_invert_element_units_only():
    P = laurent_ring()
    u, w = P.gen(0), P.gen(1)
    uinv = invert_element(u * u)
    assert uinv is not None and uinv * (u * u) == P.one()
    assert invert_element(w) is None
    assert invert_element(u + w) is None


def test_morphism_application_and_identity():
    P = poly_ring()
    ident = identity_morphism(P)

    @given(elements(P))
    def inner(x):
        assert ident(x) == x

    inner()


def test_morphism_degree_check():
    P = poly_ring()
    with pytest.raises(DegreeError):
        RingMorphism(P, P, [P.gen(1), P.gen(0)])  # swaps degrees 2 and 4


def test_cross_presentation_arithmetic_rejected():
    P, Q = poly_ring(), quotient_ring()
    with pytest.raises(PresentationMismatch):
        P.gen(0) + Q.gen(0)


def test_illegal_exponent_on_noninverted():
    P = poly_ring()
    with pytest.raises(IllegalExponent):
        P.element([(1, (-1, 0))])


def test_int_mode_exactness():
    P = GradedPresentation(INT, [("x", 2)], truncation=40)
    x = P.gen(0)
    acc = P.one()
    for _ in range(12):
        acc = acc * (x + P.one())
    # binomial coefficients exact
    assert acc.terms[(6,)] == 924


def test_morphism_monomial_with_an_inverted_generator():
    """`RingMorphism.monomial` is the one routine that multiplies out
    generator images: it agrees with the morphism applied to the normal
    form and with the product of image powers, reaches monomials past the
    source's truncation, and needs the image of an inverted generator to
    be a unit."""
    import random

    from hopfalg.errors import SolveFailure

    rng = random.Random(7)
    P = laurent_ring()
    Q = GradedPresentation(
        FP3, [("u", 4), ("w", 16)], inverted=["u"], truncation=64
    )
    u, w = Q.gen(0), Q.gen(1)
    for _ in range(5):
        a, b, k = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 2)
        phi = RingMorphism(P, Q, [a * u, b * w + k * u ** 4])
        x, y = phi.images
        for t in range(-16, 33, 4):
            for m in P.degree_basis(t):
                c = rng.randint(1, 2)
                powers = Q.scalar(c) * x ** m[0] * y ** m[1]
                assert phi.monomial(m, c) == powers
                assert phi(P.monomial_element(m, c)) == powers
        # w^3 has weight 48 > 32: zero in P, but its image in Q is not
        past = (-2, 3)
        assert P.monomial_element(past).is_zero()
        powers = x ** -2 * y ** 3
        assert not powers.is_zero()
        assert phi.monomial(past) == powers
    # u^-3 w has the degree of u but is nilpotent, so it is not a unit
    psi = RingMorphism(P, Q, [Q.monomial_element((-3, 1)), w])
    assert psi.monomial((2, 1)) == Q.monomial_element((-6, 3))
    with pytest.raises(SolveFailure):
        psi.monomial((-1, 0))
