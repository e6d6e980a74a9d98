"""Comodules, their sheaf forms, and the roundtrip between them."""
import dataclasses

import pytest

from hopfalg import comodule, groupoid
from hopfalg.comodule import (
    Comodule,
    _ring_matrix_product,
    base_change,
    sheaf_over_groupoid,
    unit_comodule,
)
from hopfalg.errors import DegreeError, NotQuasiCoherent
from hopfalg.groupoid import catalog_rings

from conftest import primitive_line


def comodule_catalog(mu2, flagship):
    """Named comodules across three algebroids (criterion: at least 5)."""
    _, H1, H2, _ = flagship
    line = primitive_line(3, 2, 3)
    cat = [unit_comodule(mu2, name="unit/mu2")]
    g = mu2.Gamma.gen(0)
    cat.append(
        Comodule(mu2, [("m", 0)], {"m": [(g, "m")]}, name="twist/mu2")
    )
    cat.append(
        Comodule(
            mu2,
            [("m0", 0), ("m1", 0)],
            {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m1")]},
            name="unit+twist/mu2",
        )
    )
    cat.append(unit_comodule(H1, name="unit/loc-pair"))
    t1 = H2.Gamma.gen(2)
    cat.append(
        Comodule(
            H2,
            [("m0", 0), ("m1", 4)],
            {
                "m0": [(H2.Gamma.one(), "m0")],
                "m1": [(H2.Gamma.one(), "m1"), (t1, "m0")],
            },
            name="t1-extension/induced-pair",
        )
    )
    x = line.Gamma.gen(0)
    cat.append(
        Comodule(
            line,
            [("m0", 0), ("m1", 2)],
            {
                "m0": [(line.Gamma.one(), "m0")],
                "m1": [(line.Gamma.one(), "m1"), (x, "m0")],
            },
            name="x-extension/line",
        )
    )
    return cat


def test_catalog_passes_comodule_laws(mu2, flagship):
    cat = comodule_catalog(mu2, flagship)
    assert len(cat) >= 5
    for M in cat:
        assert comodule.check_comodule(M).ok, M.name


def test_roundtrip_is_identity(mu2, flagship):
    rings = catalog_rings()
    for M in comodule_catalog(mu2, flagship):
        S = comodule.sheaf_data(M, rings=rings)
        back = comodule.comodule_from_sheaf(S, name=M.name)
        assert back.gens == M.gens
        for g, _ in M.gens:
            assert back.psi_raw(g) == M.psi_raw(g), M.name


def test_fibre_laws_exhaustive(mu2):
    g = mu2.Gamma.gen(0)
    M = Comodule(
        mu2,
        [("m0", 0), ("m1", 0)],
        {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m1")]},
    )
    for R in catalog_rings():
        G = groupoid.evaluate_groupoid(mu2, R)
        maps, v = sheaf_over_groupoid(M, G)
        assert v.ok, (R.name, v.failures)
        assert len(maps) == len(G.morphisms)


def test_sheaf_rejects_a_singular_fibre(mu2):
    """psi(m1) = g (x) m0 makes every psi~_alpha singular (its second row
    is zero); the identity and cocycle laws must catch it."""
    g = mu2.Gamma.gen(0)
    bad = Comodule(
        mu2,
        [("m0", 0), ("m1", 0)],
        {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m0")]},
        name="singular",
    )
    G = groupoid.evaluate_groupoid(mu2, catalog_rings()[1])  # F_3
    maps, v = sheaf_over_groupoid(bad, G)
    assert maps and all(mat[1] == (G.ring.zero,) * 2 for mat in maps)
    assert not v.ok
    assert any("identity" in msg for msg in v.failures)
    assert any("cocycle" in msg for msg in v.failures)
    assert all("identity" in msg or "cocycle" in msg for msg in v.failures)


def reference_sheaf_failures(M, G):
    """The identity and cocycle failures as found with one
    `_ring_matrix_product` per composite, in `G.comp` order, on the fibres
    `sheaf_over_groupoid` forms."""
    maps, _ = sheaf_over_groupoid(M, G)
    R, n = G.ring, len(M.gens)
    ident = tuple(
        tuple(R.one if i == j else R.zero for j in range(n)) for i in range(n)
    )
    out = [
        f"psi~ at the identity of object {xi} is not the identity"
        for xi, mi in G.identity.items()
        if maps[mi] != ident
    ]
    out += [
        f"cocycle fails on composite ({bi} after {ai})"
        for (bi, ai), gi in G.comp.items()
        if maps[gi] != _ring_matrix_product(R, maps[bi], maps[ai])
    ]
    return out


def _t1_extension(H):
    one, t1 = H.Gamma.one(), H.Gamma.gen("t1")
    return Comodule(
        H, [("m0", 0), ("m1", 4)],
        {"m0": [(one, "m0")], "m1": [(one, "m1"), (t1, "m0")]},
        name="t1-extension",
    )


def test_cocycle_memo_matches_the_per_composite_reference(mu2, flagship):
    """One product per distinct pair of fibres finds the failures a
    product per composite finds, in the same order: for the singular
    fibre, for fibres whose products are no fibre, for two comodules on
    which every law holds, and for a groupoid with one composite
    redirected, where the law fails on that composite alone."""
    g = mu2.Gamma.gen(0)
    singular = Comodule(
        mu2,
        [("m0", 0), ("m1", 0)],
        {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m0")]},
        name="singular",
    )
    # over F_3, psi~ of (1 + g) (x) m is 2 at g = 1 and 0 at g = 2: the
    # product 2 * 2 = 1 is no fibre
    shifted = Comodule(
        mu2, [("m", 0)], {"m": [(mu2.Gamma.one() + g, "m")]}, name="1+g"
    )
    G = groupoid.evaluate_groupoid(mu2, catalog_rings()[1])  # F_3
    for M in (singular, shifted):
        want = reference_sheaf_failures(M, G)
        assert any("cocycle" in msg for msg in want), M.name
        assert sheaf_over_groupoid(M, G)[1].failures == want, M.name
    _, source, _, _ = flagship
    extension = _t1_extension(source)
    for M in (unit_comodule(source), extension):
        for R in catalog_rings():
            G = groupoid.evaluate_groupoid(source, R)
            got = sheaf_over_groupoid(M, G)[1].failures
            assert got == reference_sheaf_failures(M, G) == [], (M.name, R.name)
    G = groupoid.evaluate_groupoid(source, catalog_rings()[1])
    maps, _ = sheaf_over_groupoid(extension, G)
    (bi, ai), other = next(
        (key, m) for key, gi in G.comp.items() for m in range(len(G.morphisms))
        if (G.dom[m], G.cod[m]) == (G.dom[gi], G.cod[gi]) and maps[m] != maps[gi]
    )
    bad = dataclasses.replace(G, comp={**G.comp, (bi, ai): other})
    want = reference_sheaf_failures(extension, bad)
    assert want == [f"cocycle fails on composite ({bi} after {ai})"]
    assert sheaf_over_groupoid(extension, bad)[1].failures == want


def test_corrupted_psi_fails_counit(mu2):
    g = mu2.Gamma.gen(0)
    bad = Comodule(
        mu2,
        [("m0", 0), ("m1", 0)],
        {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m0")]},
        name="broken",
    )
    v = comodule.check_comodule(bad)
    assert not v.ok
    assert any("counit" in msg for msg in v.failures)


def test_corrupted_psi_fails_coassociativity():
    line = primitive_line(3, 2, 3)
    x = line.Gamma.gen(0)
    # psi(m1) = 1 (x) m1 + x^2 (x) m0 is counital but not coassociative
    bad = Comodule(
        line,
        [("m0", 0), ("m1", 4)],
        {
            "m0": [(line.Gamma.one(), "m0")],
            "m1": [(line.Gamma.one(), "m1"), (x * x, "m0")],
        },
        name="noncoassoc",
    )
    v = comodule.check_comodule(bad)
    assert not v.ok
    assert any("coassociativity" in msg for msg in v.failures)


def test_inhomogeneous_psi_rejected(mu2):
    g = mu2.Gamma.gen(0)
    with pytest.raises(DegreeError):
        Comodule(
            mu2,
            [("m0", 0), ("m1", 2)],
            {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m0")]},
        )


def test_rank_mismatch_not_quasicoherent(mu2):
    M = unit_comodule(mu2)
    S = comodule.sheaf_data(M, rings=catalog_rings()[:2])
    S.points[0].rank = 2
    with pytest.raises(NotQuasiCoherent):
        comodule.comodule_from_sheaf(S)


def test_base_change_along_flagship_map(flagship):
    _, H1, H2, f = flagship
    M = unit_comodule(f.source)
    N = base_change(f, M)
    assert N.H is f.target
    assert comodule.check_comodule(N).ok
