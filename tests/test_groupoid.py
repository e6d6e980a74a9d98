"""Finite-ring groupoid oracles and faithfully-flat descent."""
import itertools
import random

import pytest

from hopfalg.errors import AxiomFailure, NotACover, SearchBudgetExceeded
from hopfalg.groupoid import (
    GF,
    AlgebraOver,
    FiniteRing,
    Zmod,
    analyze_map,
    catalog_rings,
    check_descent,
    dual_numbers,
    enumerate_points,
    evaluate_groupoid,
    field_extension_cover,
    free_module,
    product_ring,
    projection_noncover,
    random_module,
    _descent_maps,
    _Quotient,
)


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
    G = evaluate_groupoid(mu2, GF(3))
    assert len(G.objects) == 1
    assert len(G.morphisms) == 2
    e = G.identity[0]
    other = 1 - e
    assert G.comp[(other, other)] == e
    assert G.inverse[other] == other


def test_wrong_characteristic_is_vacuous(mu2):
    for R in (GF(2), Zmod(4), Zmod(6)):
        G = evaluate_groupoid(mu2, R)
        assert G.objects == [] and G.morphisms == []


def test_budget_guard(mu2):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_points(mu2.Gamma, GF(3), budget=2)


def test_equivalence_is_fully_faithful_at_every_ring(flagship):
    """Cross-oracle check: the induced map is an isomorphism of algebroids,
    so the groupoid functor must be full and faithful over every test ring."""
    _, _, _, f = flagship
    for R in catalog_rings():
        rep = analyze_map(f, R)
        assert rep.faithful, (R.name, rep.witnesses)
        assert rep.full, (R.name, rep.witnesses)
        assert rep.fully_faithful


def test_essential_image_over_F3(flagship):
    """Over F_3 the functor is not essentially surjective: the target kills
    v2, so objects with v2 != 0 are missed.  The report names one."""
    _, _, _, f = flagship
    rep = analyze_map(f, GF(3))
    assert rep.object_counts == (2, 6)
    assert rep.morphism_counts == (18, 54)
    assert not rep.essentially_surjective
    assert rep.essential_image_count == 2
    assert "v2" in rep.witnesses["essentially_surjective"]
    d = rep.to_dict()
    assert d["ring"] == "F_3" and d["full"] and d["faithful"]


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
            assert Q.project({i: x for i, x in enumerate(vec) if x}) == (
                reference_project(rref, pivots, vec, p)
            )


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
        assert check_descent(cover, M).ok
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
    assert check_descent(cover, M, purity_probe=probe).ok


def test_descent_with_purity_probe():
    R, cover = field_extension_cover(2, 4)
    M = free_module(R, 2)
    assert check_descent(cover, M, purity_probe=cover[0]).ok


def test_planted_noncover_is_refuted():
    R, cover = projection_noncover()
    M = free_module(R, 1, name="F_2xF_2^1")
    with pytest.raises(NotACover) as exc:
        check_descent(cover, M)
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
    assert check_descent(cover, M).ok


def test_descent_rejects_a_module_over_another_ring():
    """An F_3-module is no module over the base F_2 of F_2 -> F_4.  It
    still has action matrices for the elements 0 and 1, which is all the
    equalizer reads, so without the ring check it passed descent."""
    _, cover = field_extension_cover(2, 4)
    with pytest.raises(ValueError, match="not over the cover's base"):
        check_descent(cover, free_module(GF(3), 1))
