"""Comodules, their sheaf forms, and the roundtrip between them."""
import pytest

from hopfalg.comodule import (
    Comodule,
    base_change,
    check_comodule,
    comodule_from_sheaf,
    sheaf_data,
    sheaf_over_groupoid,
    unit_comodule,
)
from hopfalg.errors import DegreeError, NotQuasiCoherent
from hopfalg.groupoid import catalog_rings, evaluate_groupoid

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
        assert check_comodule(M).ok, M.name


def test_roundtrip_is_identity(mu2, flagship):
    rings = catalog_rings()
    for M in comodule_catalog(mu2, flagship):
        S = sheaf_data(M, rings=rings)
        back = comodule_from_sheaf(S, name=M.name)
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
        G = evaluate_groupoid(mu2, R)
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
    G = evaluate_groupoid(mu2, catalog_rings()[1])  # F_3
    maps, v = sheaf_over_groupoid(bad, G)
    assert maps and all(mat[1] == [G.ring.zero] * 2 for mat in maps)
    assert not v.ok
    assert any("identity" in msg for msg in v.failures)
    assert any("cocycle" in msg for msg in v.failures)
    assert all("identity" in msg or "cocycle" in msg for msg in v.failures)


def test_corrupted_psi_fails_counit(mu2):
    g = mu2.Gamma.gen(0)
    bad = Comodule(
        mu2,
        [("m0", 0), ("m1", 0)],
        {"m0": [(mu2.Gamma.one(), "m0")], "m1": [(g, "m0")]},
        name="broken",
    )
    v = check_comodule(bad)
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
    v = check_comodule(bad)
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
    S = sheaf_data(M, rings=catalog_rings()[:2])
    S.points[0].rank = 2
    with pytest.raises(NotQuasiCoherent):
        comodule_from_sheaf(S)


def test_base_change_along_flagship_map(flagship):
    _, H1, H2, f = flagship
    M = unit_comodule(f.source)
    N = base_change(f, M)
    assert N.H is f.target
    assert check_comodule(N).ok
