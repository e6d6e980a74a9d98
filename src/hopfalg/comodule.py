"""Graded comodules and their sheaf-of-modules incarnations.

A comodule here is an A-free module on listed generators with a coaction
psi landing in Gamma (x)_A M; counitality and coassociativity are checked
degreewise.  `sheaf_data` turns a comodule into the family of linear
maps psi~_alpha : M_{dom alpha} -> M_{cod alpha} indexed by points alpha
of Gamma: at the universal point (the identity of Gamma) that is the
matrix of psi itself, and `sheaf_over_groupoid` evaluates it at every
morphism of a finite-ring groupoid.  `comodule_from_sheaf` recovers the
coaction from the universal fibre.  Over finite rings the identity and
cocycle laws are verified exhaustively; together they make every
psi~_alpha invertible, with inverse psi~ at the inverse of alpha.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DegreeError,
    InputError,
    NotQuasiCoherent,
    PresentationMismatch,
    Verdict,
)


def _norm_tensor(H, word_list):
    """Normalize a Gamma (x) M element given as [(Gamma-elem, gen name)]
    into {gen name: Gamma element}, dropping zero components."""
    out = {}
    for gamma, gen in word_list:
        if gamma.pres is not H.Gamma:
            raise PresentationMismatch("tensor factor not in Gamma")
        out[gen] = out.get(gen, H.Gamma.zero()) + gamma
    return {g: e for g, e in out.items() if not e.is_zero()}


class Comodule:
    """An A-free comodule on `gens` = [(name, degree)] with coaction images
    psi[name] = [(Gamma-element, other name), ...]."""

    def __init__(self, H, gens, psi, name=""):
        self.H = H
        self.gens = tuple((str(n), int(d)) for n, d in gens)
        self.index = {n: i for i, (n, _) in enumerate(self.gens)}
        self.degrees = {n: d for n, d in self.gens}
        self.name = name
        self.psi = {}
        for gname, _ in self.gens:
            if gname not in psi:
                raise InputError(f"missing coaction image for {gname}")
            self.psi[gname] = _norm_tensor(H, psi[gname])
        for gname, word in self.psi.items():
            for other, gamma in word.items():
                if other not in self.index:
                    raise InputError(f"unknown generator {other} in psi")
                if not gamma.is_zero():
                    want = self.degrees[gname] - self.degrees[other]
                    if gamma.degree() != want:
                        raise DegreeError(
                            f"psi({gname}) term at {other} has degree "
                            f"{gamma.degree()}, expected {want}"
                        )

    def psi_raw(self, gname):
        return sorted(
            (other, tuple(sorted(g.terms.items())))
            for other, g in self.psi[gname].items()
        )

    def __repr__(self):
        return f"Comodule({self.name or ','.join(n for n, _ in self.gens)})"


def unit_comodule(H, name="A"):
    """A itself: one generator with psi(m) = 1 (x) m, so that the coaction
    on a*m is eta_R(a) (x) m."""
    return Comodule(H, [("m", 0)], {"m": [(H.Gamma.one(), "m")]}, name=name)


def check_comodule(M, bound=None):
    """Counitality and coassociativity on every generator of degree <=
    bound (default: all)."""
    H = M.H
    v = Verdict()
    ts = H.ts
    for gname, gdeg in M.gens:
        if bound is not None and abs(gdeg) > bound:
            continue
        # counit: (eps (x) 1) psi(g) = g.  `Comodule` keys psi(g) by
        # generator, so each component maps on its own
        psi = M.psi[gname]
        counit = {other: H.eps(gamma) for other, gamma in psi.items()}
        acc = {k: e for k, e in counit.items() if not e.is_zero()}
        if acc != {gname: H.A.one()}:
            got = ", ".join(f"{e}*{k}" for k, e in sorted(acc.items())) or "0"
            v.fail(f"counit fails on {gname}: (eps(x)1)psi = {got}")
        # coassociativity: (Delta (x) 1) psi = (1 (x) psi) psi
        lhs = {other: H.delta(gamma) for other, gamma in psi.items()}
        rhs = {}
        for mid, gamma in psi.items():
            left = ts.incl_l(gamma)
            for other, gamma2 in M.psi[mid].items():
                rhs[other] = rhs.get(other, ts.pres.zero()) + left * ts.incl_r(
                    gamma2
                )
        keys = set(lhs) | set(rhs)
        for k in sorted(keys):
            le = lhs.get(k, ts.pres.zero())
            re_ = rhs.get(k, ts.pres.zero())
            if le != re_:
                v.fail(
                    f"coassociativity fails on {gname} at component {k}: "
                    f"{le} vs {re_}"
                )
                break
    return v


def base_change(f, M):
    """The comodule B (x)_A M over the target algebroid: same generators,
    coaction pushed through f_1."""
    if M.H is not f.source:
        raise PresentationMismatch("comodule not over the map's source")
    psi = {
        g: [(f.f1(gamma), other) for other, gamma in M.psi[g].items()]
        for g, _ in M.gens
    }
    return Comodule(f.target, M.gens, psi, name=f"B(x){M.name}")


# ---------------------------------------------------------------------------
# sheaf forms


def _ring_matrix_product(R, A, B):
    n = len(A)
    out = [[R.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = R.zero
            for t in range(n):
                acc = R.add[acc][R.mul[A[i][t]][B[t][j]]]
            out[i][j] = acc
    return tuple(map(tuple, out))


def sheaf_over_groupoid(M, G):
    """All psi~_alpha over a FiniteGroupoid, each a tuple of rows, with the
    identity and cocycle laws checked exhaustively.  Every distinct fibre
    gets an id, and one product is formed per distinct pair of fibre ids:
    a composite fails when its fibre's id is not its product's (-1 when
    the product is no fibre).  Returns (maps, verdict)."""
    from .groupoid import compile_poly, eval_compiled

    R = G.ring
    v = Verdict()
    n = len(M.gens)
    ident = tuple(
        tuple(R.one if i == j else R.zero for j in range(n)) for i in range(n)
    )
    # psi~_alpha at every point alpha; each entry of psi compiled once
    entries = [
        (M.index[other], j, compile_poly(R, tuple(sorted(gamma.terms.items()))))
        for j, (g, _) in enumerate(M.gens)
        for other, gamma in M.psi[g].items()
    ]
    maps = []
    for a in G.morphisms:
        mat = [[R.zero] * n for _ in range(n)]
        for i, j, poly in entries:
            mat[i][j] = eval_compiled(R, a, poly)
        maps.append(tuple(map(tuple, mat)))
    ids = {}
    fibre = [ids.setdefault(mat, len(ids)) for mat in maps]
    # No separate invertibility check, and no verdict differs for its
    # absence: evaluate_groupoid has verified comp(inv a, a) = id, so where
    # the identity and cocycle laws hold, psi~_{inv a} psi~_a = I.
    for xi, mi in G.identity.items():
        if maps[mi] != ident:
            v.fail(f"psi~ at the identity of object {xi} is not the identity")
    products = {}
    for (bi, ai), gi in G.comp.items():
        key = fibre[bi], fibre[ai]
        if key not in products:
            product = _ring_matrix_product(R, maps[bi], maps[ai])
            products[key] = ids.get(product, -1)
        if fibre[gi] != products[key]:
            v.fail(f"cocycle fails on composite ({bi} after {ai})")
    return maps, v


@dataclass
class SheafPointData:
    """The fibre data of the sheaf at one finite test ring."""

    ring_name: str
    rank: int
    maps: list  # one matrix per groupoid morphism
    verdict: Verdict


@dataclass
class SheafData:
    """A quasi-coherent family: the universal fibre (matrix over Gamma at
    the identity point of Gamma) plus finite-ring fibres."""

    H: object
    gens: tuple
    universal: list  # matrix of Gamma-elements
    points: list = field(default_factory=list)


def sheaf_data(M, rings=None):
    """Sheafify over the universal point and (optionally) a list of finite
    rings through their groupoids, which M.H stores (`evaluate_groupoid`):
    rings from `catalog_rings()` share them with every other caller."""
    from .groupoid import evaluate_groupoid

    H = M.H
    # at the identity point of Gamma, psi~ is the matrix of psi itself
    names = [g for g, _ in M.gens]
    universal = [
        [M.psi[g].get(other, H.Gamma.zero()) for g in names] for other in names
    ]
    data = SheafData(H, M.gens, universal)
    for R in rings or []:
        G = evaluate_groupoid(H, R)
        maps, v = sheaf_over_groupoid(M, G)
        data.points.append(
            SheafPointData(R.name, len(M.gens), maps, v)
        )
    return data


def comodule_from_sheaf(S, name=""):
    """Recover the comodule from the universal fibre.  The family must be
    quasi-coherent: all fibres free of one common rank, all finite-ring
    laws verified."""
    n = len(S.gens)
    for pt in S.points:
        if pt.rank != n:
            raise NotQuasiCoherent(
                f"fibre over {pt.ring_name} has rank {pt.rank}, expected {n}"
            )
        if not pt.verdict.ok:
            raise NotQuasiCoherent(
                f"fibre laws fail over {pt.ring_name}: {pt.verdict.summary()}"
            )
    names = [g for g, _ in S.gens]
    psi = {
        g: [(S.universal[i][j], names[i]) for i in range(n)]
        for j, g in enumerate(names)
    }
    return Comodule(S.H, S.gens, psi, name=name or "recovered")
