"""Finite-ring groupoid oracles and faithfully-flat descent."""
import collections
import dataclasses
import gc
import hashlib
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from conftest import mu2_algebroid
from hopfalg import comodule, fgl, groupoid, morita
from hopfalg.errors import AxiomFailure, NotACover, SearchBudgetExceeded
from hopfalg.groupoid import (
    GF,
    AlgebraOver,
    FiniteRing,
    Zmod,
    catalog_rings,
    compile_poly,
    dual_numbers,
    enumerate_points,
    eval_compiled,
    field_extension_cover,
    free_module,
    point_name,
    product_ring,
    projection_noncover,
    random_module,
    _compiled_images,
    _descent_maps,
    _eval_all,
    _mode_admits,
    _Quotient,
    _verify_groupoid,
)
from hopfalg.hopf import HopfAlgebroid
from hopfalg.morita import HopfMap
from hopfalg.presentation import BaseMode, GradedPresentation, RingMorphism


def test_ring_table_validation():
    n = 3
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    FiniteRing(add, mul, 1)  # F_3 passes
    bad_mul = [row[:] for row in mul]
    bad_mul[2][2] = 2  # breaks 2*2 = 1, and with it distributivity
    with pytest.raises(ValueError):
        FiniteRing(add, bad_mul, 1)


def test_catalog_shapes():
    cat = catalog_rings()
    assert [R.name for R in cat] == [
        "F_2", "F_3", "F_4", "Z/4", "F_2[e]/(e^2)", "Z/6"
    ]
    assert [R.n for R in cat] == [2, 3, 4, 4, 4, 6]
    assert [R.char for R in cat] == [2, 3, 2, 4, 2, 6]
    assert len(GF(4).units) == 3  # a field
    assert len(Zmod(4).units) == 2  # not a field
    assert len(dual_numbers(2).units) == 2  # local, non-reduced


def test_mu2_groupoid_is_the_order_two_group(mu2):
    G = groupoid.evaluate_groupoid(mu2, GF(3))
    assert len(G.objects) == 1
    assert len(G.morphisms) == 2
    e = G.identity[0]
    other = 1 - e
    assert G.comp[(other, other)] == e
    assert G.inverse[other] == other


def test_wrong_characteristic_is_vacuous(mu2):
    for R in (GF(2), Zmod(4), Zmod(6)):
        G = groupoid.evaluate_groupoid(mu2, R)
        assert G.objects == () and G.morphisms == ()


def test_budget_guard(mu2):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_points(mu2.Gamma, GF(3), budget=2)


def test_budget_bounds_the_composites_before_composing():
    """Over F_3, mu_2's Gamma has 3^1 assignments but its groupoid 2 * 2
    = 4 composites: a budget of 3 admits the points and refuses the
    groupoid, and a refused groupoid is not stored."""
    H = mu2_algebroid()
    with pytest.raises(SearchBudgetExceeded, match="4 composites"):
        groupoid.evaluate_groupoid(H, GF(3), budget=3)
    assert H.groupoids == {}
    assert len(groupoid.evaluate_groupoid(H, GF(3), budget=4).comp) == 4


def test_a_ring_that_admits_no_map_is_empty_under_any_budget(mu2):
    """F_4 has characteristic 2, so no ring map leaves mu_2's F_3: the
    groupoid is empty, not refused for 4^1 > 1 assignments."""
    assert enumerate_points(mu2.Gamma, GF(4), budget=1) == []
    G = groupoid.evaluate_groupoid(mu2, GF(4), budget=1)
    assert G.objects == () and G.morphisms == ()


# sha256 of repr((add, mul, one, names, name)), recorded from the
# hand-encoded constructors that `_from_elements` replaced: the carrier
# order, and with it every point, groupoid and witness string, is fixed.
RING_TABLE_HASHES = {
    "F_2": "6031c27d14369aa0ec3b2bce4250ebf5ab2098f7d9f24f7f56d0d6a050c36a1e",
    "F_3": "d16336fa3055e3a17f78e8b8f2ea8360e3e98e0c82a7603f2f88131e43aef564",
    "F_4": "e82437f15140b16ce0d38e02700415d24bfd00379e99009f927437c0f7bcf911",
    "Z/4": "e2e1afab0b2400090953653123736bcc5da469152ab2038e789fc0548bc66fb9",
    "F_2[e]/(e^2)":
        "4e26b1edeefafe71f017381a581f5b81a26981e240f5cabafeecbd22dce321b1",
    "Z/6": "df83e6f34d0a92b23cad9a8f9573c51cee9296f333ffee3057b5dace7cfea147",
    "F_9": "d79d83ec13d5502cf26be40e4ce8599601e29f0cd26f0b2e99c5f56b1e22abd1",
    "F_2xF_2":
        "872f8bba445bafdfe22b9319d356c9e7261d624c8d0cae81044c53aae8345234",
    "Z/5": "9b463f69213c7f81c70493df6c9773b93246c11dece5da0367d107e1f0e9af09",
    "F_3[e]/(e^2)":
        "3be407f21bbd468769223f06aa525573345f026a3341a4ba58da3ff6be6524ed",
}


def test_ring_tables_are_frozen():
    rings = list(catalog_rings()) + [
        GF(9), product_ring(GF(2), GF(2)), Zmod(5), dual_numbers(3)
    ]
    got = {
        R.name: hashlib.sha256(
            repr((R.add, R.mul, R.one, R.names, R.name)).encode()
        ).hexdigest()
        for R in rings
    }
    assert got == RING_TABLE_HASHES


def test_equivalence_is_fully_faithful_at_every_ring(flagship):
    """Cross-oracle check: the induced map is an isomorphism of algebroids,
    so the groupoid functor must be full and faithful over every test ring."""
    _, _, _, f = flagship
    for R in catalog_rings():
        rep = groupoid.analyze_map(f, R)
        assert rep.faithful, (R.name, rep.witnesses)
        assert rep.full, (R.name, rep.witnesses)
        assert rep.fully_faithful


def test_essential_image_over_F3(flagship):
    """Over F_3 the functor is not essentially surjective: the target kills
    v2, so objects with v2 != 0 are missed.  The report names one."""
    _, _, _, f = flagship
    rep = groupoid.analyze_map(f, GF(3))
    assert rep.object_counts == (2, 6)
    assert rep.morphism_counts == (18, 54)
    assert not rep.essentially_surjective
    assert rep.essential_image_count == 2
    assert "v2" in rep.witnesses["essentially_surjective"]
    d = rep.to_dict()
    assert d["ring"] == "F_3" and d["full"] and d["faithful"]


def reference_faithful_witness(f, R):
    """The all-pairs faithfulness loop analyze_map ran before it keyed
    morphisms by (dom, cod, image): the lexicographically first pair of
    parallel morphisms with one image, named, or None."""
    Gdom = groupoid.evaluate_groupoid(f.target, R)
    Gcod = groupoid.evaluate_groupoid(f.source, R)
    f1 = _compiled_images(R, f.f1, f.source.Gamma)
    cmor = {a: i for i, a in enumerate(Gcod.morphisms)}
    mor_im = [cmor[_eval_all(R, a, f1)] for a in Gdom.morphisms]
    n = len(Gdom.morphisms)
    for ai in range(n):
        for bi in range(ai + 1, n):
            if (
                Gdom.dom[ai] == Gdom.dom[bi]
                and Gdom.cod[ai] == Gdom.cod[bi]
                and mor_im[ai] == mor_im[bi]
            ):
                return tuple(
                    point_name(R, f.target.Gamma, Gdom.morphisms[i])
                    for i in (ai, bi)
                )
    return None


def _primitive_algebroid(names):
    """(F_2, F_2[names]/(x^2 for each name)), every generator primitive of
    degree 1."""
    mode = BaseMode("fp", 2)
    n = len(names)
    A = GradedPresentation(mode, [], truncation=8, name="F_2")
    Gamma = GradedPresentation(
        mode, [(x, 1) for x in names],
        relations={x: (2, []) for x in names}, truncation=8,
    )
    return HopfAlgebroid(
        A, Gamma, list(range(n)), RingMorphism(A, Gamma, []),
        {x: A.zero() for x in names},
        {x: -Gamma.gen(i) for i, x in enumerate(names)},
        lambda ts: {
            x: ts.incl_l(Gamma.gen(i)) + ts.incl_r(Gamma.gen(i))
            for i, x in enumerate(names)
        },
        name="+".join(names),
    )


def test_forgetting_a_generator_is_not_faithful():
    """The line on x mapped into the plane on x, y by x -> x: over
    F_2[e]/(e^2) the points x -> 0 with y -> 0 and y -> e are parallel
    morphisms with one image, so the functor is not faithful."""
    line, plane = _primitive_algebroid(["x"]), _primitive_algebroid(["x", "y"])
    f = HopfMap(
        line, plane,
        RingMorphism(line.A, plane.A, []),
        RingMorphism(line.Gamma, plane.Gamma, [plane.Gamma.gen(0)]),
    )
    R = dual_numbers(2)
    rep = groupoid.analyze_map(f, R)
    assert rep.morphism_counts == (4, 2)
    assert not rep.faithful and rep.full
    assert rep.witnesses["faithful"] == reference_faithful_witness(f, R)
    assert rep.witnesses["faithful"] == ("{x->0, y->0}", "{x->0, y->e}")
    assert groupoid.analyze_map(f, GF(2)).faithful


def test_faithfulness_witness_matches_reference(flagship):
    _, _, _, f = flagship
    for R in (GF(3), Zmod(6)):
        assert reference_faithful_witness(f, R) is None
        assert groupoid.analyze_map(f, R).faithful


def reference_fp_rref(rows, p):
    """Row-reduce dense rows over F_p; returns (rref rows, pivot columns).
    The elimination descent ran before it moved onto `linalg`."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f_ = rows[r][col]
                rows[r] = [
                    (x - f_ * y) % p for x, y in zip(rows[r], rows[rank])
                ]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def reference_project(rref, pivots, vec, p):
    """Coordinates of vec modulo the RREF rows on the non-pivot columns."""
    vec = list(vec)
    for row, col in zip(rref, pivots):
        c = vec[col] % p
        if c:
            vec = [(x - c * y) % p for x, y in zip(vec, row)]
    return tuple(vec[i] % p for i in range(len(vec)) if i not in pivots)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quotient_projection_matches_rref(p):
    rng = random.Random(20260901 + p)
    for _ in range(200):
        n = rng.randint(0, 8)
        rows = [
            [rng.choice([0, 0, rng.randrange(p)]) for _ in range(n)]
            for _ in range(rng.randint(0, 6))
        ]
        Q = _Quotient(p, n, [
            {i: x for i, x in enumerate(r) if x} for r in rows
        ])
        rref, pivots = reference_fp_rref(rows, p) if rows else ([], [])
        assert sorted(Q.pivots) == pivots
        for _ in range(5):
            vec = [rng.randrange(p) for _ in range(n)]
            dense = reference_project(rref, pivots, vec, p)
            assert Q.project({i: x for i, x in enumerate(vec) if x}) == {
                i: x for i, x in enumerate(dense) if x
            }


def _broken_modules():
    """Actions of 1-dimensional modules, each of which breaks one module
    law: the zero action of 1 on F_2; an F_3-action that is not additive
    (1 + 1 acts as 1); and a GF(4)-action r -> f(r), f the F_2-linear
    functional with 1 -> 1 and x -> 0 for some x outside F_2, which is
    additive but no ring map GF(4) -> F_2."""
    zero_one = {0: [{}], 1: [{}]}
    R3 = GF(3)
    nonadditive = {r: [{0: 1}] if r != R3.zero else [{}] for r in range(3)}
    R4 = GF(4)
    x = next(r for r in range(R4.n) if r not in (R4.zero, R4.one))
    kernel = (R4.zero, x)
    functional = {
        r: [{}] if r in kernel else [{0: 1}] for r in range(R4.n)
    }
    return [
        (GF(2), zero_one, "1 must act as the identity"),
        (R3, nonadditive, "action not additive"),
        (R4, functional, "action not multiplicative"),
    ]


@pytest.mark.parametrize(
    "ring, action, message", _broken_modules(),
    ids=["identity", "additive", "multiplicative"],
)
def test_module_check_rejects_a_broken_action(ring, action, message):
    with pytest.raises(ValueError, match=message):
        groupoid.FpModule(ring, 1, action).check()


def test_module_actions_are_dict_columns():
    """Column j of the action of r is r times the j-th basis vector; the
    free module of rank 2 over F_4 repeats the regular action on each of
    its two F_2-planes."""
    R, cover = field_extension_cover(2, 4)
    S = cover[0].ring
    M = free_module(S, 2)
    assert M.dim == 4 and M.check()
    _, regular = AlgebraOver(S, S, tuple(range(S.n))).as_module()
    for r in range(S.n):
        cols = M.action[r]
        assert all(isinstance(col, dict) for col in cols)
        assert cols[:2] == regular.action[r]
        assert cols[2:] == [{i + 2: x for i, x in col.items()}
                            for col in regular.action[r]]
    assert M.action[S.one] == [{j: 1} for j in range(4)]


def _apply_columns(cols, x, p):
    out = {}
    for xk, col in zip(x, cols):
        if xk:
            for i, y in col.items():
                out[i] = (out.get(i, 0) + xk * y) % p
    return {i: y for i, y in out.items() if y}


@pytest.mark.parametrize("p,q", [(2, 4), (3, 9)])
def test_descent_on_random_modules(p, q):
    """Every module passes; where P0 has at most 10^4 vectors, an
    enumeration confirms that the equalizer {x : d0 x = d1 x} has exactly
    p^dim M elements, as the rank test in `check_descent` concludes."""
    R, cover = field_extension_cover(p, q)
    rng = random.Random(20260823 + p)
    enumerated = 0
    for k in range(20):
        M = random_module(R, rng, max_dim=3, name=f"M{k}")
        assert groupoid.check_descent(cover, M).ok
        _, d0, d1 = _descent_maps(cover, M)
        if p ** len(d0) > 10 ** 4:
            continue
        count = sum(
            _apply_columns(d0, x, p) == _apply_columns(d1, x, p)
            for x in itertools.product(range(p), repeat=len(d0))
        )
        assert count == p ** M.dim, M.name
        enumerated += 1
    assert enumerated == 20


@pytest.mark.parametrize("purity", [False, True])
def test_descent_past_the_old_enumeration_budget(purity):
    """Rank 11 over F_3 has 3^11 > 10^5 vectors, which the enumerating
    checker refused with SearchBudgetExceeded."""
    R, cover = field_extension_cover(3, 9)
    M = free_module(R, 11)
    probe = cover[0] if purity else None
    assert groupoid.check_descent(cover, M, purity_probe=probe).ok


def test_descent_with_purity_probe():
    R, cover = field_extension_cover(2, 4)
    M = free_module(R, 2)
    assert groupoid.check_descent(cover, M, purity_probe=cover[0]).ok


def test_planted_noncover_is_refuted():
    R, cover = projection_noncover()
    M = free_module(R, 1, name="F_2xF_2^1")
    with pytest.raises(NotACover) as exc:
        groupoid.check_descent(cover, M)
    msg = str(exc.value)
    assert "kills" in msg and "(1, 0)" in msg


def test_two_element_cover_of_a_product():
    """Both projections together do cover F_2 x F_2."""
    R = product_ring(GF(2), GF(2))
    S = GF(2)
    pr1 = tuple(r // S.n for r in range(R.n))
    pr2 = tuple(r % S.n for r in range(R.n))
    cover = [
        AlgebraOver(R, S, pr1, name="pr_1"),
        AlgebraOver(R, S, pr2, name="pr_2"),
    ]
    M = free_module(R, 1)
    assert groupoid.check_descent(cover, M).ok


def test_descent_rejects_a_module_over_another_ring():
    """An F_3-module is no module over the base F_2 of F_2 -> F_4.  It
    still has action matrices for the elements 0 and 1, which is all the
    equalizer reads, so without the ring check it passed descent."""
    _, cover = field_extension_cover(2, 4)
    with pytest.raises(ValueError, match="not over the cover's base"):
        groupoid.check_descent(cover, free_module(GF(3), 1))


# ---------------------------------------------------------------------------
# the compiled evaluator and composition by domain, against the old loops


def reference_eval_at(R, assign, terms):
    """Point evaluation as it was before polynomials were compiled: every
    factor through `FiniteRing.power`, no early stop."""
    out = R.zero
    for mono, coeff in terms:
        val = R.scalar(coeff)
        for i, e in enumerate(mono):
            if e:
                val = R.mul[val][R.power(assign[i], e)]
        out = R.add[out][val]
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def _random_coefficient(rng):
    if rng.random() < 0.5:
        return rng.randint(-12, 12)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 7))


@pytest.mark.parametrize("ring", range(6))
def test_eval_at_matches_the_old_loop(ring):
    """Random polynomials with int and p-local coefficients, negative
    exponents mostly at unit values, and assignments with zeros: the same
    value or the same ZeroDivisionError as the old loop."""
    R = catalog_rings()[ring]
    units = sorted(R.units)
    rng = random.Random(20261018 + ring)
    values = raised = neg_values = zero_hits = 0
    for _ in range(400):
        ngen = rng.randint(1, 4)
        terms = [
            (
                tuple(rng.choice([0, 0, 1, 2, 3, 5, 9, -1, -2]) for _ in range(ngen)),
                _random_coefficient(rng),
            )
            for _ in range(rng.randint(0, 6))
        ]
        negative = {i for m, _ in terms for i, e in enumerate(m) if e < 0}
        assign = tuple(
            rng.choice(units)
            if i in negative and rng.random() < 0.8
            else rng.choice([R.zero, rng.randrange(R.n)])
            for i in range(ngen)
        )
        want = _outcome(reference_eval_at, R, assign, terms)
        got = _outcome(eval_compiled, R, assign, compile_poly(R, terms))
        assert got == want, (terms, assign)
        if want is ZeroDivisionError:
            raised += 1
        else:
            values += 1
            neg_values += bool(negative)
            zero_hits += R.zero in assign
    assert values and neg_values and zero_hits
    if len(units) < R.n:
        assert raised


@pytest.mark.parametrize("ring", range(6))
def test_negative_power_of_a_non_unit_raises(ring):
    """Also where the term is zero anyway: its coefficient is 0 in R, or
    an earlier factor is 0.  The old loop raised there too."""
    R = catalog_rings()[ring]
    non_units = [a for a in range(R.n) if a not in R.units]
    assert non_units  # 0 at least
    for a in non_units:
        with pytest.raises(ZeroDivisionError):
            R.power(a, -1)
        for assign, terms in [
            ((a,), [((-1,), 1)]),
            ((a,), [((-2,), R.char)]),  # coefficient 0 in R
            ((R.zero, a), [((1, -1), 1)]),  # x_0 = 0 comes first
            ((a, R.zero), [((-1, 3), 1)]),
            ((R.one, a), [((1, 0), 1), ((2, -1), 0)]),
        ]:
            with pytest.raises(ZeroDivisionError):
                reference_eval_at(R, assign, terms)
            with pytest.raises(ZeroDivisionError):
                eval_compiled(R, assign, compile_poly(R, terms))


def reference_groupoid(H, R):
    """(objects, morphisms, dom, cod, identity, inverse, comp) as the old
    code built them: every assignment checked with `reference_eval_at`,
    every ordered pair of morphisms tried for composition.  The lists are
    returned as tuples, the form `FiniteGroupoid` keeps them in."""

    def points(P):
        if not _mode_admits(P, R):
            return []
        rules = [
            (i, rule.power, [(m, c) for c, m in rule.rhs])
            for i, rule in P.rules.items()
        ]
        return [
            a
            for a in itertools.product(range(R.n), repeat=len(P.gens))
            if all(a[i] in R.units for i in P.inverted)
            and all(
                R.power(a[i], k) == reference_eval_at(R, a, rhs)
                for i, k, rhs in rules
            )
        ]

    def at(assign, f, P):
        return tuple(
            reference_eval_at(R, assign, sorted(f(P.gen(i)).terms.items()))
            for i in range(len(P.gens))
        )

    A, Gamma = H.A, H.Gamma
    objects, morphisms = points(A), points(Gamma)
    obj, mor = objects.index, morphisms.index
    dom = [obj(at(a, H.etaL, A)) for a in morphisms]
    cod = [obj(at(a, H.etaR, A)) for a in morphisms]
    identity = {xi: mor(at(x, H.eps, Gamma)) for xi, x in enumerate(objects)}
    inverse = [mor(at(a, H.c, Gamma)) for a in morphisms]
    comp = {}
    for ai, a in enumerate(morphisms):
        for bi, b in enumerate(morphisms):
            if cod[ai] == dom[bi]:
                ts = a + tuple(b[i] for i in H.morphism_order)
                comp[(bi, ai)] = mor(at(ts, H.delta, Gamma))
    return (tuple(objects), tuple(morphisms), tuple(dom), tuple(cod),
            identity, tuple(inverse), comp)


def test_groupoids_match_the_all_pairs_reference(flagship):
    """The flagship pair has only automorphisms at every catalog ring;
    BP at p=2 with two generators also has morphisms between distinct
    objects, 192 of them over Z/4.  The induced pair of BP at p=3 with
    three generators has a Delta(t3) of 25 terms over 10 right-factor
    monomials, so many terms share the right monomial they are grouped by
    (the flagship's largest Delta, of t2, has 5 terms over 4)."""
    _, source, target, _ = flagship
    cases = [(H, R) for H in (source, target) for R in catalog_rings()]
    cases.append((fgl.assemble_bp(2, 16, max_gens=2).H, Zmod(4)))
    induced, _ = fgl.johnson_wilson(fgl.assemble_bp(3, 52, max_gens=3), 1, 1)
    cases.append((induced, GF(3)))
    between = 0
    for H, R in cases:
        G = groupoid.evaluate_groupoid(H, R)
        got = (G.objects, G.morphisms, G.dom, G.cod, G.identity,
               G.inverse, G.comp)
        want = reference_groupoid(H, R)
        assert got == want, (H.name, R.name)
        assert list(G.comp) == list(want[-1])  # same insertion order
        between += sum(x != y for x, y in zip(G.dom, G.cod))
    assert between == 192


def test_a_ring_without_points_compiles_nothing(flagship, monkeypatch):
    """At a catalog ring that admits no map from the pair's coefficients,
    the groupoids of both algebroids are empty and built without
    compiling a structure map, and analyze_map reports the empty functor
    without compiling f_0 or f_1."""
    _, _, _, f = flagship
    rings = [R for R in catalog_rings() if not _mode_admits(f.source.A, R)]
    assert [R.name for R in rings] == [
        "F_2", "F_4", "Z/4", "F_2[e]/(e^2)", "Z/6"]

    def refuse(*args):
        raise AssertionError("compiled at a ring without points")

    monkeypatch.setattr(groupoid, "_split_delta", refuse)
    monkeypatch.setattr(groupoid, "_compiled_images", refuse)
    for H in (f.source, f.target):
        monkeypatch.setattr(H, "groupoids", {})
    empty = {"faithful": True, "full": True, "essentially_surjective": True,
             "essential_image_count": 0, "objects": [0, 0],
             "morphisms": [0, 0], "witnesses": {}}
    for R in rings:
        for H in (f.source, f.target):
            G = groupoid.evaluate_groupoid(H, R)
            assert (G.objects, G.morphisms, G.dom, G.cod, G.identity,
                    G.inverse, G.comp) == reference_groupoid(H, R), R.name
        report = groupoid.analyze_map(f, R).to_dict()
        assert report == {"ring": R.name, **empty}


def _corruptible(G):
    """A composite (bi, ai) of two non-identity morphisms with bi not the
    inverse of ai, and another morphism with the same endpoints."""
    ids = set(G.identity.values())
    for (bi, ai), gi in G.comp.items():
        if bi in ids or ai in ids or G.inverse[ai] == bi:
            continue
        for other in range(len(G.morphisms)):
            if other != gi and (G.dom[other], G.cod[other]) == (
                G.dom[gi], G.cod[gi]
            ):
                return (bi, ai), other
    raise AssertionError("no corruptible composite")


def test_verify_groupoid_catches_a_non_associative_table(flagship):
    _, _, target, _ = flagship
    G = groupoid.evaluate_groupoid(target, GF(3))
    _verify_groupoid(G)
    key, other = _corruptible(G)
    bad = dataclasses.replace(G, comp={**G.comp, key: other})
    with pytest.raises(AxiomFailure, match="associativity fails on triple") as exc:
        _verify_groupoid(bad)
    ci, bi, ai = map(int, str(exc.value).split("(")[1].rstrip(")").split(","))
    C = bad.comp
    assert C[(ci, C[(bi, ai)])] != C[(C[(ci, bi)], ai)]


@pytest.mark.parametrize("side", ["left", "right"])
def test_verify_groupoid_catches_a_broken_identity(flagship, side):
    _, _, target, _ = flagship
    G = groupoid.evaluate_groupoid(target, GF(3))
    ai = next(m for m in range(len(G.morphisms)) if m not in G.identity.values())
    key = (
        (G.identity[G.cod[ai]], ai) if side == "left"
        else (ai, G.identity[G.dom[ai]])
    )
    bad = dataclasses.replace(G, comp={**G.comp, key: G.inverse[ai]})
    with pytest.raises(AxiomFailure, match=f"identity law fails at morphism {ai}"):
        _verify_groupoid(bad)


def test_coefficients_missing_from_R_matter_only_at_points():
    """eta_R(v) = v + t/2 over Z_(3): 1/2 has no image in the rings of
    characteristic 2, 4 or 6, but those have no points either, so their
    groupoids are empty rather than a ZeroDivisionError."""
    mode = BaseMode("plocal", 3)
    A = GradedPresentation(mode, [("v", 2)], truncation=8)
    Gamma = GradedPresentation(mode, [("v", 2), ("t", 2)], truncation=8)
    v, t = Gamma.gen(0), Gamma.gen(1)
    shift = v + Gamma.scalar(Fraction(1, 2)) * t
    H = HopfAlgebroid(
        A, Gamma, ["t"], RingMorphism(A, Gamma, [shift], name="etaR"),
        {"t": A.zero()}, {"t": -t},
        lambda ts: {"t": ts.incl_l(t) + ts.incl_r(t)},
        name="half-shift",
    )
    sizes = []
    for R in catalog_rings():
        G = groupoid.evaluate_groupoid(H, R)
        assert (G.objects, G.morphisms, G.dom, G.cod, G.identity, G.inverse,
                G.comp) == reference_groupoid(H, R), R.name
        sizes.append(len(G.morphisms))
    assert sizes == [0, 9, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# the groupoids an algebroid stores


def test_one_evaluation_per_algebroid_and_ring(monkeypatch):
    """The certificate evaluates the map's source and target over every
    catalog ring; two sheaf_data calls over the source then find every
    groupoid stored, so points are enumerated once per (algebroid, ring)."""
    source, target = mu2_algebroid(), mu2_algebroid()
    f = HopfMap(
        source, target, RingMorphism(source.A, target.A, []),
        RingMorphism(source.Gamma, target.Gamma, [target.Gamma.gen(0)]),
    )
    built = collections.Counter()
    build = groupoid._build_groupoid

    def counted(H, R, budget):
        built[id(H), R] += 1
        return build(H, R, budget)

    monkeypatch.setattr(groupoid, "_build_groupoid", counted)
    cert = morita.theoremD_verdict(f)
    assert set(cert.oracle) == {R.name for R in catalog_rings()}
    one, g = source.Gamma.one(), source.Gamma.gen(0)
    twisted = comodule.Comodule(source, [("m0", 0), ("m1", 0)],
                                {"m0": [(one, "m0")], "m1": [(g, "m1")]})
    for M in (comodule.unit_comodule(source), twisted):
        S = comodule.sheaf_data(M, rings=catalog_rings())
        assert len(S.points) == 6 and all(pt.verdict.ok for pt in S.points)
    assert built == {(id(H), R): 1 for H in (source, target)
                     for R in catalog_rings()}


def test_the_source_pair_is_evaluated_once(monkeypatch):
    """The benchmark's structure-oracle sequence: the certificate of
    johnson_wilson(bp, 1, 1), then sheaf_data of two comodules over
    quotient_localize(bp, 1).  The tower hands out the one source pair
    the caller holds, so its groupoids are built once: 12 builds, 6 rings
    for each algebroid."""
    # a tower of its own: a pair of the cached one that another test
    # holds may be evaluated already
    bp = fgl.assemble_bp.__wrapped__(3, 52, max_gens=3)
    built = collections.Counter()
    build = groupoid._build_groupoid

    def counted(H, R, budget):
        built[id(H), R] += 1
        return build(H, R, budget)

    monkeypatch.setattr(groupoid, "_build_groupoid", counted)
    source = fgl.quotient_localize(bp, 1)
    _, f = fgl.johnson_wilson(bp, 1, 1)
    cert = morita.theoremD_verdict(
        f, witness=morita.identity_witness(f), bound=24
    )
    assert cert.status == "yes"
    one = source.Gamma.one()
    t1 = source.Gamma.gen("t1")
    extension = comodule.Comodule(
        source, [("m0", 0), ("m1", 4)],
        {"m0": [(one, "m0")], "m1": [(one, "m1"), (t1, "m0")]},
    )
    for M in (comodule.unit_comodule(source), extension):
        comodule.sheaf_data(M, rings=catalog_rings())
    assert built == {(id(H), R): 1 for H in (source, f.target)
                     for R in catalog_rings()}
    assert sum(built.values()) == 12


def test_a_smaller_budget_still_raises_after_a_stored_evaluation():
    H = mu2_algebroid()
    R = catalog_rings()[1]  # F_3: |R|^#gens = 3 for Gamma
    G = groupoid.evaluate_groupoid(H, R)
    assert groupoid.evaluate_groupoid(H, R) is G
    with pytest.raises(SearchBudgetExceeded):
        groupoid.evaluate_groupoid(H, R, budget=2)


def test_a_stored_groupoid_is_immutable(mu2):
    G = groupoid.evaluate_groupoid(mu2, catalog_rings()[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.comp = {}
    for table, key in ((G.comp, next(iter(G.comp))), (G.identity, 0),
                       (G.dom, 0), (G.inverse, 0), (G.morphisms, 0)):
        with pytest.raises(TypeError):
            table[key] = 0


def test_stored_groupoids_are_freed_with_their_algebroid():
    H = mu2_algebroid()
    ref = weakref.ref(groupoid.evaluate_groupoid(H, catalog_rings()[1]))
    gc.collect()
    assert ref() is not None
    del H
    gc.collect()
    assert ref() is None
