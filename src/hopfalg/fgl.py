"""The BP family of Hopf algebroids.

Generator convention: Hazewinkel, via the log recursion
    p*l_n = sum_{0 <= i < n} l_i * v_{n-i}^{p^i},   l_0 = 1,
with |v_i| = |t_i| = 2(p^i - 1).  The right unit comes from
    eta_R(l_n) = m_n = sum_{i+j=n} l_i * t_j^{p^i}
by inverting the log recursion on the target side; the diagonal solves
    sum_i l_i * Delta(t_{n-i})^{p^i}
        = sum_{a+b+c=n} l_a * t_b^{p^a} (x) t_c^{p^{a+b}}
degreewise; the conjugation solves mu(1 (x) c)Delta = eta_L . eps.  All
intermediates are exact rationals; p-integrality is asserted before any
image is frozen into an algebroid."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, SolveFailure
from .hopf import HopfAlgebroid, TensorPower
from .presentation import (
    BaseMode,
    GradedPresentation,
    RingMorphism,
    assert_p_integral,
    invert_element,
    reduce_mod,
)


def gen_degree(p, i):
    return 2 * (p ** i - 1)


def bp_generator_count(p, D):
    """Number of v/t generators with degree <= D."""
    n = 0
    while gen_degree(p, n + 1) <= D:
        n += 1
    return n


@dataclass
class LogData:
    p: int
    N: int
    pres: GradedPresentation  # rational presentation the logs live in
    logs: list  # logs[0] = 1, logs[n] = l_n


@dataclass
class BPData:
    p: int
    D: int
    N: int
    A: GradedPresentation
    Gamma: GradedPresentation
    H: HopfAlgebroid
    logs: LogData
    etaR_images: list  # eta_R(v_n) as Gamma elements, index 1..N
    delta_images: dict  # t-name -> tensor-square element
    c_images: list  # c(t_n), index 1..N


def hazewinkel_logs(p, N, pres=None, vname="v"):
    """The rational log coefficients l_1..l_N inside pres (default: a fresh
    rational presentation on v_1..v_N)."""
    if pres is None:
        D = gen_degree(p, N)
        pres = GradedPresentation(
            BaseMode("plocal", p),
            [(f"{vname}{i}", gen_degree(p, i)) for i in range(1, N + 1)],
            truncation=D,
            name=f"BP*({p})Q",
        )
    logs = [pres.one()]
    for n in range(1, N + 1):
        acc = pres.zero()
        for i in range(n):
            vni = pres.gen(f"{vname}{n - i}")
            acc = acc + logs[i] * (vni ** (p ** i))
        logs.append(acc.scale(Fraction(1, p)))
    return LogData(p, N, pres, logs)


def _tower(mode, N, D, label, relations=None, inverted=()):
    """A on v_1..v_N and Gamma = A[t_1..t_N] under the same rules and
    inversions, with Gamma's morphism generators (the t's), eta_L and eps.
    `label` names both rings, "{}" standing for BP* in A and BP*BP in
    Gamma."""
    vs = [(f"v{i}", gen_degree(mode.p, i)) for i in range(1, N + 1)]
    ts = [(f"t{i}", gen_degree(mode.p, i)) for i in range(1, N + 1)]

    def ring(gens, what):
        return GradedPresentation(
            mode, gens, relations=relations, inverted=inverted, truncation=D,
            name=label.format(what),
        )

    A, Gamma = ring(vs, "BP*"), ring(vs + ts, "BP*BP")
    etaL = RingMorphism(A, Gamma, [Gamma.gen(i) for i in range(N)], name="etaL")
    eps = RingMorphism(
        Gamma, A, [A.gen(i) for i in range(N)] + [A.zero()] * N, name="eps"
    )
    return A, Gamma, tuple(range(N, 2 * N)), etaL, eps


@lru_cache(maxsize=None)
def assemble_bp(p, D, max_gens=None):
    """Build (BP_*, BP_*BP) with all generators of degree <= D.

    `max_gens` caps the number of Hazewinkel generators independently of
    the weight bound D; the result is then the N-generator sub-Hopf-
    algebroid (a "bud": the structure maps of v_1..v_N, t_1..t_N only
    involve generators of index <= N) carried at a larger weight cap."""
    # InputError unless p is a prime, before bp_generator_count, which
    # never stops for p < 2
    mode = BaseMode("plocal", p)
    N = bp_generator_count(p, D)
    if N == 0:
        raise InputError(
            f"degree {D} is below the first generator's degree {gen_degree(p, 1)}"
        )
    if max_gens is not None:
        N = min(N, int(max_gens))
    A, Gamma, morphism_order, etaL, eps = _tower(mode, N, D, f"{{}}@p={p}")

    logdata = hazewinkel_logs(p, N, pres=Gamma)
    logs = logdata.logs

    # right unit: m_n = eta_R(l_n), then invert the log recursion
    t = [None] + [Gamma.gen(N + i) for i in range(N)]
    m = [Gamma.one()]
    for n in range(1, N + 1):
        acc = Gamma.zero()
        for i in range(n + 1):
            tj = Gamma.one() if n - i == 0 else t[n - i]
            acc = acc + logs[i] * (tj ** (p ** i))
        m.append(acc)
    etaR_images = [None]
    for n in range(1, N + 1):
        acc = m[n].scale(p)
        for i in range(1, n):
            acc = acc - m[i] * (etaR_images[n - i] ** (p ** i))
        etaR_images.append(assert_p_integral(acc, p))
    etaR = RingMorphism(A, Gamma, etaR_images[1:], name="etaR")

    ts = TensorPower(A, Gamma, morphism_order, etaR, 2, name="BP.TS")
    incl_l, incl_r = ts.incl_l, ts.incl_r

    # diagonal
    delta = [ts.pres.one()]
    for n in range(1, N + 1):
        acc = ts.pres.zero()
        for a in range(n + 1):
            for b in range(n + 1 - a):
                c_ = n - a - b
                left = ts.pres.one() if b == 0 else incl_l(t[b]) ** (p ** a)
                right = ts.pres.one() if c_ == 0 else incl_r(t[c_]) ** (p ** (a + b))
                acc = acc + incl_l(logs[a]) * left * right
        for i in range(1, n + 1):
            acc = acc - incl_l(logs[i]) * (delta[n - i] ** (p ** i))
        delta.append(assert_p_integral(acc, p))
    delta_images = {f"t{n}": delta[n] for n in range(1, N + 1)}

    # conjugation: c(t_n) = -(sum over Delta(t_n) terms except 1 (x) t_n
    # of left-part * c(right-part)), with c(v) = eta_R(v)
    c_images = [None]
    pure_right = {}
    for n in range(1, N + 1):
        # layout of ts.pres: v's, t's, then t-right copies
        mono = [0] * len(ts.pres.gens)
        mono[ts.slots[(1, N + n - 1)]] = 1
        pure_right[n] = tuple(mono)
    for n in range(1, N + 1):
        dn = delta[n]
        if dn.coefficient(pure_right[n]) != 1:
            raise SolveFailure(f"Delta(t{n}) lacks the unit 1(x)t{n} term")
        acc = Gamma.zero()
        for mono, coeff in dn.terms.items():
            if mono == pure_right[n]:
                continue
            lmono, rmono = ts.split_monomial(mono)
            term = Gamma.monomial_element(lmono, coeff)
            for j, e in enumerate(rmono):
                if e:
                    term = term * (c_images[j - N + 1] ** e)
            acc = acc + term
        c_images.append(assert_p_integral(-acc, p))
    c = RingMorphism(
        Gamma,
        Gamma,
        [etaR_images[i + 1] for i in range(N)] + c_images[1:],
        name="c",
    )

    H = HopfAlgebroid(
        A,
        Gamma,
        morphism_order,
        etaL,
        etaR,
        eps,
        c,
        delta_images,
        name=f"BP@p={p}",
    )
    return BPData(
        p, D, N, A, Gamma, H, logdata, etaR_images, delta_images, c_images[1:]
    )


def quotient_localize(bp, n):
    """(v_n^{-1}BP_*/I_n, v_n^{-1}BP_*BP/I_n) in prime-field mode."""
    p, N, D = bp.p, bp.N, bp.D
    mode = BaseMode("fp", p)
    kills = {f"v{i}": (1, []) for i in range(1, n)}
    A, Gamma, morphism_order, etaL, eps = _tower(
        mode, N, D, f"v{n}^-1{{}}/I{n}@p={p}", kills, [f"v{n}"]
    )
    etaR_images = [reduce_mod(x, Gamma) for x in bp.etaR_images[1:]]
    etaR = RingMorphism(A, Gamma, etaR_images, name="etaR")
    c = RingMorphism(
        Gamma,
        Gamma,
        etaR_images + [reduce_mod(ci, Gamma) for ci in bp.c_images],
        name="c",
    )
    return HopfAlgebroid(
        A,
        Gamma,
        morphism_order,
        etaL,
        etaR,
        eps,
        c,
        bp.delta_images,
        name=f"v{n}^-1BP/I{n}@p={p}",
    )


def johnson_wilson(bp, m, n):
    """(v_n^{-1}E(m)_*/I_n, Gamma_f) plus the canonical map from the
    quotient-localized BP algebroid."""
    from .morita import induced_algebroid

    if not (1 <= n <= m):
        raise InputError("need 1 <= n <= m")
    H = quotient_localize(bp, n)
    p, N, D = bp.p, bp.N, bp.D
    mode = BaseMode("fp", p)
    rels = {f"v{i}": (1, []) for i in range(1, n)}
    rels.update({f"v{i}": (1, []) for i in range(m + 1, N + 1)})
    B = GradedPresentation(
        mode,
        [(f"v{i}", gen_degree(p, i)) for i in range(1, N + 1)],
        relations=rels,
        inverted=[f"v{n}"],
        truncation=D,
        name=f"v{n}^-1E({m})*/I{n}@p={p}",
    )
    f0 = RingMorphism(H.A, B, [B.gen(i) for i in range(N)], name="f0")
    ind = induced_algebroid(H, f0)
    return ind.algebroid, ind.map


def strict_height(f, n):
    """True iff f: BP_* -> R kills p, v_1..v_{n-1} and sends v_n to a
    graded unit."""
    R = f.target
    p = f.source.mode.p
    if p is None or not R.scalar(p).is_zero():
        return False
    for i in range(n - 1):
        if not f.images[i].is_zero():
            return False
    if len(f.images) < n:
        return False
    return invert_element(f.images[n - 1]) is not None
