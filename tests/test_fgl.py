"""The p-typical family: logs, right units, quotient localization."""
import gc
import hashlib
import pathlib
import weakref
from fractions import Fraction

import pytest

from hopfalg import files, fgl, hopf, morita
from hopfalg.cobar import CobarComplex, ext_dims
from hopfalg.errors import IntegralityFailure, UnsupportedBaseMap
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
    logs = hazewinkel_logs(3, 2, fgl.assemble_bp(3, gen_degree(3, 2)).A)
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
        logs = hazewinkel_logs(p, 2, fgl.assemble_bp(p, gen_degree(p, 2)).A)
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


def test_induced_presentations_live_as_long_as_their_base_map():
    """H.induced keeps a derivation only while its base map lives: the
    maps a caller drops free theirs, and the source pair's base map,
    which nothing returns, is gone once quotient_localize returns."""
    bp = fgl.assemble_bp.__wrapped__(3, 40)  # a tower no other test holds
    H1 = fgl.quotient_localize(bp, 1)
    assert len(bp.H.induced) == 0
    maps = [fgl.johnson_wilson(bp, 1, 1)[1] for _ in range(5)]
    assert len(H1.induced) == 5
    f = maps.pop()
    del maps
    gc.collect()
    assert list(H1.induced) == [f.f0]
    del f
    gc.collect()
    assert len(H1.induced) == 0


def _structure(H):
    """A pair's presentation and structure maps as plain data: Gamma's
    rules up to the order of their terms, every image as its terms."""
    maps = (H.etaR, H.eps, H.c, H.delta)
    return (
        H.Gamma.gens, H.A.rules, H.A.inverted, H.morphism_order,
        {i: (r.power, sorted(r.rhs)) for i, r in H.Gamma.rules.items()},
        [[img.terms for img in phi.images] for phi in maps],
    )


@pytest.mark.parametrize("p,D,gens,m,n", [
    (3, 48, 2, 1, 1), (3, 52, 3, 1, 1), (3, 52, 3, 2, 2), (2, 32, 3, 1, 1),
])
def test_inducing_along_a_composite_is_inducing_twice(p, D, gens, m, n):
    """BP_* -> v_n^{-1}E(m)_*/I_n in one step gives the pair that
    johnson_wilson builds in two, through v_n^{-1}BP_*/I_n: the same
    presentation, structure maps and Ext table."""
    bp = fgl.assemble_bp(p, D, max_gens=gens)
    twice = fgl.johnson_wilson(bp, m, n)[0]
    f0 = fgl._base_map(bp.H, n, m, twice.A.name)
    once = morita.induced_algebroid(bp.H, f0).target
    assert _structure(once) == _structure(twice)

    def table(H):
        return ext_dims(CobarComplex(H, s_max=2, t_min=0, t_max=24)).to_csv()

    assert table(once) == table(twice)


@pytest.mark.parametrize("p,D,gens", [(2, 16, None), (2, 32, 3), (3, 52, None)])
def test_height_one_quotient_of_three_generator_towers_is_refused(p, D, gens):
    """v_1^{-1}E(2)_*/I_1 over a tower with v_3: the relation from
    eta_R(v_3) puts a negative power of v_1 into a rule's right side,
    which rule extraction does not support yet.  Two-generator towers
    build the pair (see `test_acceptance`)."""
    bp = fgl.assemble_bp(p, D, max_gens=gens)
    assert bp.N == 3
    with pytest.raises(
        UnsupportedBaseMap,
        match="^derived relations unusable: negative exponent in rule RHS$",
    ):
        fgl.johnson_wilson(bp, 2, 1)


# sha256 prefixes of the source pair's documents (algebroid, base): the
# names and rules they print must not depend on how the pair is built
SOURCE_DOCUMENT_HASHES = {
    (3, 48, 2, 1): ("57acb7897c2d742b", "d45a657c4cbc1060"),
    (2, 16, 3, 1): ("2b1ff1517fa222ac", "f661afb1e699b407"),
    (3, 52, 3, 2): ("d62f435e21369b39", "5a636ac51be22f1f"),
}


@pytest.mark.parametrize("key", sorted(SOURCE_DOCUMENT_HASHES))
def test_source_pair_documents_are_frozen(key, tmp_path):
    p, D, gens, n = key
    H = fgl.quotient_localize(fgl.assemble_bp(p, D, max_gens=gens), n)
    paths = files.write_algebroid(
        H, str(tmp_path), stem="source", base_stem="source_base"
    )
    got = tuple(
        hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()[:16]
        for path in paths
    )
    assert got == SOURCE_DOCUMENT_HASHES[key]


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
