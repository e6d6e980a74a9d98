"""Acceptance gate: the end-to-end guarantees, one test per criterion.

These tests intentionally re-verify behavior covered piecemeal elsewhere;
they are the contract for the package as a whole.
"""
import json
import random
import time
from fractions import Fraction

import pytest

from hopfalg import comodule, fgl, groupoid, hopf, morita
from hopfalg.cobar import CobarComplex, compare_ext, ext_dims
from hopfalg.errors import NotACover
from hopfalg.fgl import gen_degree
from hopfalg.groupoid import (
    catalog_rings,
    field_extension_cover,
    free_module,
    projection_noncover,
    random_module,
)
from hopfalg.hopf import HopfAlgebroid
from hopfalg.morita import combined_map, identity_witness
from hopfalg.presentation import RingMorphism

from conftest import run_cli
from test_cobar import oracle_ext_dim
from test_comodule import comodule_catalog


def test_criterion_1_structure_assembly():
    """Both shipped towers assemble and pass the full axiom suite quickly."""
    t0 = time.monotonic()
    for p, D in ((2, 16), (3, 40)):
        bp = fgl.assemble_bp(p, D)
        assert hopf.check_hopf_axioms(bp.H, D).ok, (p, D)
    assert time.monotonic() - t0 < 60


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_criterion_2_primitivity_mod_invariant_ideal(p, n):
    D = max(gen_degree(p, n) + 2 * gen_degree(p, 1), gen_degree(p, n))
    bp = fgl.assemble_bp(p, D)
    diff = bp.H.etaR(bp.A.gen(n - 1)) - bp.H.etaL(bp.A.gen(n - 1))
    for mono, c in diff.terms.items():
        assert Fraction(c) % p == 0 or any(mono[i] > 0 for i in range(n - 1))


def test_criterion_3_induced_pair_coherence(flagship):
    _, H1, H2, f = flagship
    assert hopf.check_hopf_axioms(H2, 32).ok
    assert morita.check_hopf_map(f, 32).ok
    assert morita.check_iso(combined_map(f), 32).ok
    assert morita.theoremD_verdict(f, assume_flat=True, bound=24).status == "conditional"
    cert = morita.theoremD_verdict(f, witness=identity_witness(f), bound=24)
    assert cert.status == "yes" and cert.witness_status == "verified"


def test_criterion_4_change_of_rings(flagship):
    """The flagship computation: the quotient-localized pair and its
    induced pair have identical stable-range cohomology tables for
    s <= 3, |t| <= 32, at both heights of the construction."""
    bp, H1, H2, f = flagship
    t0 = time.monotonic()
    window = dict(s_max=3, t_min=-32, t_max=32)
    inner = 36

    def table(H):
        return ext_dims(CobarComplex(H, **window), inner=inner)

    T1 = table(H1)
    T2 = table(H2)
    assert compare_ext(T1, T2) == []
    # sanity on the answer itself: one class per nonneg multiple of 4 at
    # s = 0 and s = 1, nothing above
    for t in range(-32, 33):
        expect0 = 1 if t % 4 == 0 else 0
        assert T1.dims[(0, t)] == expect0, t
        assert T1.dims[(1, t)] == expect0, t
        assert T1.dims[(2, t)] == 0 and T1.dims[(3, t)] == 0, t

    # the other height: all generators kept, so the induced pair is a
    # copy of the source and agreement is again exact
    H2b, f2 = fgl.johnson_wilson(bp, 2, 1)
    assert H2b.Gamma.gens == H1.Gamma.gens
    T2b = table(H2b)
    assert compare_ext(T1, T2b) == []
    assert time.monotonic() - t0 < 600


def test_criterion_4_fault_injection(flagship):
    """A corrupted right unit on the induced pair must surface as a
    cohomology disagreement, with the first bad bidegree identified."""
    _, H1, H2, _ = flagship
    Gamma = H1.Gamma
    # drop the morphism terms of eta_R(v2): v2 becomes spuriously primitive
    bad_etaR = RingMorphism(
        H1.A, Gamma, [Gamma.gen(0), Gamma.gen(1)], name="bad_etaR"
    )
    bad = HopfAlgebroid(
        H1.A, Gamma, H1.morphism_order, H1.etaL, bad_etaR, H1.eps, H1.c,
        {Gamma.names[i]: H1.delta(Gamma.gen(i)) for i in H1.morphism_order},
        name="corrupted",
    )
    window = dict(s_max=1, t_min=0, t_max=16)
    T_good = ext_dims(CobarComplex(H2, **window), inner=24)
    T_bad = ext_dims(CobarComplex(bad, **window), inner=24)
    diffs = compare_ext(T_good, T_bad)
    assert diffs
    s, t, a, b = diffs[0]
    # first disagreement: the spurious primitive v1^-4 v2 in degree 0
    assert (s, t) == (0, 0)
    assert (a, b) == (1, 2)


def test_criterion_5_known_answers_vs_hand_oracle():
    """Package cohomology equals an independently coded one-generator
    oracle on both classical truncated lines (frozen expected values are
    asserted inside the comparison tests' helpers)."""
    from conftest import primitive_line

    H2x = primitive_line(2, 1, 2)
    T = ext_dims(CobarComplex(H2x, s_max=6, t_min=0, t_max=8), check_d2=True)
    for (s, t), d in T.dims.items():
        assert d == oracle_ext_dim(s, t, 1, 2, 2), (s, t)

    H3x = primitive_line(3, 2, 3)
    T3 = ext_dims(CobarComplex(H3x, s_max=4, t_min=0, t_max=12), check_d2=True)
    for (s, t), d in T3.dims.items():
        assert d == oracle_ext_dim(s, t, 2, 3, 3), (s, t)
    assert T3.dims[(1, 2)] == 1 and T3.dims[(2, 6)] == 1


def test_criterion_6_sheaf_roundtrip(mu2, flagship):
    cat = comodule_catalog(mu2, flagship)
    assert len(cat) >= 5
    rings = catalog_rings()
    for M in cat:
        assert comodule.check_comodule(M).ok, M.name
        S = comodule.sheaf_data(M, rings=rings)
        for pt in S.points:
            assert pt.verdict.ok, (M.name, pt.ring_name)
        back = comodule.comodule_from_sheaf(S, name=M.name)
        assert back.gens == M.gens
        for g, _ in M.gens:
            assert back.psi_raw(g) == M.psi_raw(g), M.name


def test_criterion_7_cross_oracle_consistency(flagship):
    """The algebraic equivalence certificate and the finite-groupoid
    functor analysis must agree: an isomorphism of pairs is fully
    faithful over every ring in the catalog."""
    _, _, _, f = flagship
    assert morita.check_iso(combined_map(f), 24).ok
    for R in catalog_rings():
        rep = groupoid.analyze_map(f, R)
        assert rep.fully_faithful, (R.name, rep.witnesses)


def test_criterion_8_descent():
    rng = random.Random(2026)
    checked = 0
    for p, q in ((2, 4), (3, 9)):
        R, cover = field_extension_cover(p, q)
        for _ in range(10):
            M = random_module(R, rng, max_dim=3)
            assert groupoid.check_descent(cover, M).ok
            checked += 1
    assert checked >= 20
    R, cover = projection_noncover()
    with pytest.raises(NotACover, match="kills"):
        groupoid.check_descent(cover, free_module(R, 1, name="F_2xF_2^1"))


def test_criterion_9_determinism(flagship, jw_files):
    _, _, H2, _ = flagship
    tables = [
        ext_dims(CobarComplex(H2, s_max=2, t_min=-12, t_max=12), inner=24)
        for _ in range(2)
    ]
    assert tables[0].to_csv() == tables[1].to_csv()
    assert tables[0].to_dict() == tables[1].to_dict()
    outs = []
    for extra in (["--parallel", "1"], []):
        r = run_cli("ext", str(jw_files / "target.ini"),
                    "--smax", "2", "--tmin", "-12", "--tmax", "12",
                    "--inner", "24", "--format", "json", *extra)
        assert r.returncode == 0
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    json.loads(outs[0])  # well-formed
