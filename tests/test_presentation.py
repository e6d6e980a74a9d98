"""Property tests for the exact graded-commutative arithmetic layer."""
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfalg.errors import (
    DegreeError,
    IllegalExponent,
    InfiniteBasis,
    IntegralityFailure,
    PresentationMismatch,
    SolveFailure,
)
from hopfalg.presentation import (
    BaseMode,
    Element,
    GradedPresentation,
    RingMorphism,
    assert_p_integral,
    exponent_vectors,
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


def negative_rule_ring(names, mode=FP3):
    """F_p[x, y]/(x^2) with |x| = -2, |y| = 1 and D = 8, generators in the
    order `names`.  x lowers the weight, so over F_2 x*y^9 (weight 7 <= 8)
    lies in degree 7 and x*y^10 in degree 8.  Over F_3 the odd y squares
    to zero, which leaves the degrees 0, 1, -2 and -1."""
    degrees = {"x": -2, "y": 1}
    return GradedPresentation(
        mode,
        [(n, degrees[n]) for n in names],
        relations={"x": (2, [])},
        truncation=8,
        name=f"F_{mode.p}[{','.join(names)}]/(x^2)",
    )


RINGS = [
    poly_ring(), quotient_ring(), laurent_ring(),
    negative_rule_ring("xy"), negative_rule_ring("yx"),
    negative_rule_ring("xy", FP2),
]
RING_IDS = ["poly", "quot", "laurent", "neg-xy", "neg-yx", "neg-xy-f2"]


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


@pytest.mark.parametrize("P", RINGS, ids=RING_IDS)
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
    """Independent oracle: enumerate exponent boxes directly.  A free
    generator's box reaches past the truncation bound by the weight that
    rule-bounded negative-degree generators can subtract.  Away from
    characteristic 2 a monomial with an odd generator squared is zero."""
    n = len(P.gens)
    slack = sum(
        (rule.power - 1) * -P.degrees[i]
        for i, rule in P.rules.items()
        if P.degrees[i] < 0
    )
    lims = []
    for i in range(n):
        rule = P.rules.get(i)
        if i in P.inverted:
            lims.append(range(-16, 17))
        elif rule is not None:
            lims.append(range(rule.power))
        else:
            d = abs(P.degrees[i]) or 1
            lims.append(range((P.truncation + slack) // d + 1))
    out = []
    for mono in itertools.product(*lims):
        if P.monomial_degree(mono) != t:
            continue
        if P.weight(mono) > P.truncation:
            continue
        if P.mode.characteristic != 2 and any(
            e >= 2 for e, d in zip(mono, P.degrees) if d % 2
        ):
            continue
        out.append(mono)
    return sorted(out)


@pytest.mark.parametrize("P", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("t", [-2, 0, 4, 7, 8, 12, 16, 20])
def test_degree_basis_matches_brute_force(P, t):
    assert sorted(P.degree_basis(t)) == brute_degree_basis(P, t)


def brute_exponent_vectors(n, factors, cap):
    """exponent_vectors by itertools.product over boxes wide enough for
    every vector the cap admits."""
    slack = sum((lim - 1) * -w for _, w, lim in factors if w < 0)
    ranges = [range(1)] * n
    for i, w, lim in factors:
        ranges[i] = range(lim) if lim is not None else range((cap + slack) // w + 1)
    return sorted(
        m for m in itertools.product(*ranges)
        if sum(m[i] * w for i, w, _ in factors) <= cap
    )


def test_exponent_vectors_matches_brute_force():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 4)
        factors = []
        for i in rng.sample(range(n), rng.randint(0, n)):
            lim = rng.choice([None, 1, 2, 3])
            w = rng.randint(1, 4) if lim is None else rng.randint(-3, 4)
            factors.append((i, w, lim))
        cap = rng.randint(-4, 10)
        got = exponent_vectors(n, factors, cap)
        assert got == brute_exponent_vectors(n, factors, cap), (n, factors, cap)


@pytest.mark.parametrize("weight", [0, -1])
def test_exponent_vectors_rejects_an_unbounded_factor(weight):
    with pytest.raises(InfiniteBasis):
        exponent_vectors(2, [(0, 1, None), (1, weight, None)], 8)


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


def test_odd_squares_are_not_normal_forms():
    """y odd in characteristic 3: y^2 is zero as a monomial, not only in
    products, and no degree basis lists it."""
    P = negative_rule_ring("xy")
    y2 = P.monomial_element((0, 2))
    assert y2.is_zero()
    assert P.gen(1) * P.gen(1) == y2
    assert P.degree_basis(2) == []
    assert P.degree_basis(1) == [(0, 1)]
    F2 = negative_rule_ring("xy", FP2)
    assert F2.degree_basis(2) == [(0, 2), (1, 4)]


def test_invert_element_int_mode():
    """Z[u^+-1, w], w nilpotent by truncation: the linear-algebra path over
    Z.  u + w is a unit; 2u + w is one over Q only."""
    P = GradedPresentation(INT, [("u", 2), ("w", 2)], inverted=["u"], truncation=6)
    u, w = P.gen(0), P.gen(1)
    x = u + w
    y = invert_element(x)
    assert y is not None and x * y == P.one()
    assert sorted(y.terms.values()) == [-1, -1, 1, 1]
    assert invert_element(u.scale(2) + w) is None


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


# -- p-local coefficients in canonical form ---------------------------------


@dataclass(frozen=True)
class FractionMode(BaseMode):
    """Reference p-local arithmetic: every coefficient a Fraction."""

    def coerce(self, c):
        return Fraction(c)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


def plocal_ring(mode):
    """Z_(2)[u^+-1, x, y] / (y^2 = x^2*y/5 + u^4 + 2/3*u*x*y), weight cap 24."""
    return GradedPresentation(
        mode,
        [("u", 2), ("x", 2), ("y", 4)],
        relations={
            "y": (2, [(Fraction(1, 5), (0, 2, 1)), (1, (4, 0, 0)),
                      (Fraction(2, 3), (1, 1, 1))])
        },
        inverted=["u"],
        truncation=24,
    )


def raw_terms(max_terms=4):
    coeff = st.builds(
        Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 1, 3, 5])
    )
    mono = st.tuples(
        st.integers(min_value=-2, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    return st.lists(st.tuples(coeff, mono), max_size=max_terms)


def assert_canonical(terms):
    for c in terms.values():
        if Fraction(c).denominator == 1:
            assert type(c) is int, c
        else:
            assert type(c) is Fraction, c


def test_plocal_coefficients_are_canonical():
    M = BaseMode("plocal", 2)
    assert type(M.coerce(3)) is int and M.coerce(3) == 3
    assert type(M.coerce(Fraction(6, 2))) is int
    assert type(M.coerce(Fraction(1, 5))) is Fraction
    assert type(M.add(Fraction(1, 3), Fraction(2, 3))) is int
    assert type(M.add(Fraction(1, 3), Fraction(1, 3))) is Fraction
    assert type(M.mul(Fraction(3, 5), 5)) is int
    assert M.mul(Fraction(3, 5), Fraction(5, 3)) == 1
    assert type(M.mul(Fraction(3, 5), Fraction(5, 3))) is int
    assert type(M.inv(Fraction(1, 5))) is int and M.inv(Fraction(1, 5)) == 5
    assert M.inv(5) == Fraction(1, 5)
    assert type(M.inv(Fraction(-1))) is int and M.inv(Fraction(-1)) == -1
    # the other modes keep their forms
    assert BaseMode("fp", 3).coerce(Fraction(1, 2)) == 2
    assert type(BaseMode("int").coerce(Fraction(4, 2))) is int
    with pytest.raises(IntegralityFailure):
        BaseMode("int").coerce(Fraction(1, 2))


def test_plocal_arithmetic_matches_fraction_reference():
    P, R = plocal_ring(BaseMode("plocal", 2)), plocal_ring(FractionMode("plocal", 2))

    @given(raw_terms(), raw_terms(), raw_terms())
    def inner(a, b, c):
        x, y, z = P.element(a), P.element(b), P.element(c)
        xr, yr, zr = R.element(a), R.element(b), R.element(c)
        for got, ref in (
            (x, xr),
            (x + y, xr + yr),
            (x - y, xr - yr),
            (x * y, xr * yr),
            (x * y * z + z, xr * yr * zr + zr),
        ):
            assert got.terms == ref.terms
            assert repr(got) == repr(ref)
            assert_canonical(got.terms)

    inner()


def test_int_coefficients_accepted_at_the_boundaries():
    from hopfalg.files import _coeff_int
    from hopfalg.groupoid import Zmod

    P = plocal_ring(BaseMode("plocal", 2))
    x = P.element([(3, (0, 1, 0)), (Fraction(1, 3), (1, 0, 0))])
    assert type(x.coefficient((0, 1, 0))) is int
    assert assert_p_integral(x, 2) is x
    with pytest.raises(IntegralityFailure):
        assert_p_integral(P.scalar(Fraction(1, 2)), 2)
    assert _coeff_int(-7) == -7 and _coeff_int(Fraction(-7)) == -7
    R = Zmod(5)
    assert R.scalar(3) == R.scalar(Fraction(3)) == R.scalar(Fraction(6, 2))
    assert R.mul[R.scalar(Fraction(1, 2))][R.scalar(2)] == R.one


# -- units of Z_(p) ---------------------------------------------------------


def test_plocal_inverse_only_of_units():
    M = BaseMode("plocal", 3)
    with pytest.raises(SolveFailure):
        M.inv(3)
    with pytest.raises(SolveFailure):
        M.inv(Fraction(6, 5))
    assert M.inv(Fraction(2, 5)) == Fraction(5, 2)
    # one term in an inverted generator: the fast path
    P = GradedPresentation(M, [("v", 4)], inverted=["v"], truncation=16)
    v = P.gen(0)
    assert invert_element(v.scale(3)) is None
    assert invert_element(v.scale(2)) == P.monomial_element((-1,), Fraction(1, 2))
    # u inverted, w nilpotent by truncation: the linear-algebra path, whose
    # Q-solution for 3u + w has denominators 3, 9, 27 and 81
    Q = GradedPresentation(M, [("u", 2), ("w", 2)], inverted=["u"], truncation=6)
    u, w = Q.gen(0), Q.gen(1)
    assert invert_element(u.scale(3) + w) is None
    x = u.scale(2) + w
    y = invert_element(x)
    assert y is not None and x * y == Q.one()
    assert assert_p_integral(y, 3) is y
    assert {Fraction(c).denominator for c in y.terms.values()} == {2, 4, 8, 16}


# -- the per-call power table -------------------------------------------------


def monomial_reference(phi, m, c=1):
    """Term-by-term substitution with no power table: every power of every
    generator image is recomputed for every term."""
    prod = phi.target.scalar(c)
    for i, e in enumerate(m):
        if e > 0:
            prod = prod * (phi.images[i] ** e)
        elif e < 0:
            prod = prod * (invert_element(phi.images[i]) ** (-e))
    return prod


def apply_reference(phi, elem):
    out = phi.target.zero()
    for m, c in elem.terms.items():
        out = out + monomial_reference(phi, m, c)
    return Element(phi.target, out.terms, out.truncated or elem.truncated)


def assert_power_table_matches(phi, elem):
    got, ref = phi(elem), apply_reference(phi, elem)
    assert got == ref and got.truncated == ref.truncated
    assert_canonical(got.terms)


def test_power_table_on_bp_structure_maps():
    from hopfalg.fgl import assemble_bp

    bp = assemble_bp(2, 32)
    H, Gamma, n = bp.H, bp.Gamma, len(bp.Gamma.gens)
    images = bp.etaR_images[1:] + bp.c_images
    for x in images:
        for phi in (H.delta, H.c, H.eps, H.ts.incl_r):
            assert_power_table_matches(phi, x)
    # the antipode multiplied out of the tensor square, on every Delta(t_n)
    mu_1c = RingMorphism(
        H.ts.pres, Gamma,
        [Gamma.gen(i) for i in range(n)] + [H.c.image(j) for j in H.morphism_order],
        check_degrees=False,
    )
    for j in H.morphism_order:
        assert_power_table_matches(mu_1c, H.delta.image(j))


def test_power_table_on_negative_exponents(flagship):
    """The localized source's eta_R on elements with negative powers of
    the inverted v_1, one at a time and summed over a degree."""
    _, H1, _, _ = flagship
    A = H1.A
    assert 0 in A.inverted
    for t in range(-24, 25, 4):
        basis = A.degree_basis(t)
        assert any(m[0] < 0 for m in basis)
        for m in basis:
            assert_power_table_matches(H1.etaR, A.monomial_element(m))
        assert_power_table_matches(H1.etaR, A.element([(1, m) for m in basis]))


# -- presentations with no rule and no inverted generator ---------------------


def test_bp_rejects_a_negative_exponent():
    """BP_*, BP_*BP and its tensor square have no rule and no inverted
    generator, so normalization skips the rule scan there; a negative
    exponent is still an IllegalExponent naming the highest such
    generator."""
    from hopfalg.fgl import assemble_bp

    bp = assemble_bp(2, 32)
    for P in (bp.A, bp.Gamma, bp.H.ts.pres):
        assert not P.rules and not P.inverted
        n = len(P.gens)
        top = (1, -1) + (0,) * (n - 3) + (-2,)
        with pytest.raises(IllegalExponent, match=f"generator {P.names[-1]}$"):
            P.element([(1, top)])
        second = (0, -1) + (0,) * (n - 2)
        with pytest.raises(IllegalExponent, match=f"generator {P.names[1]}$"):
            P.element([(1, (0,) * n), (1, second)])
        assert P.element([(1, (0,) * n), (2, (0,) * n)]) == P.scalar(3)


# -- RingMorphism.__call__ sums into one dict -------------------------------


def old_sum(phi, elem):
    """`RingMorphism.__call__` as it summed before: `out = out + image`
    for each term, over the same per-call power table."""
    powers = {}
    out = phi.target.zero()
    for m, c in elem.terms.items():
        out = out + phi._monomial(m, c, powers)
    if elem.truncated:
        out = Element(phi.target, out.terms, True)
    return out


def random_element(rng, P, degrees, truncated=False):
    raw = []
    for t in degrees:
        basis = P.degree_basis(t)
        for m in rng.sample(basis, min(len(basis), rng.randint(1, 6))):
            raw.append((rng.choice([-3, -2, -1, 1, 2, 3]), m))
    return P.element(raw, truncated)


def assert_same_sum(phi, x):
    got, want = phi(x), old_sum(phi, x)
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.truncated == want.truncated
    return got


def test_morphism_sum_matches_old_sum():
    """Seeded elements of BP p=2 D=32 through eta_R and Delta: the same
    terms in the same order and the same truncated flag, which is set by
    a truncated element or by a truncated image of one of its terms."""
    import random

    from hopfalg.fgl import assemble_bp

    bp = assemble_bp(2, 32)
    H = bp.H
    rng = random.Random(20011)
    degrees = range(0, 33, 2)
    for phi in (H.etaR, H.delta):
        for k in range(40):
            x = random_element(
                rng, phi.source, rng.sample(degrees, 3), truncated=k % 4 == 0
            )
            assert assert_same_sum(phi, x).truncated == x.truncated
    # the same generators capped at 16: images of terms past 16 truncate
    A = H.A
    low = GradedPresentation(A.mode, A.gens, truncation=16)
    to_low = RingMorphism(A, low, [low.gen(i) for i in range(len(A.gens))])
    flags = set()
    for _ in range(20):
        x = random_element(rng, A, rng.sample(degrees, 3))
        flags.add(assert_same_sum(to_low, x).truncated)
    assert flags == {False, True}
