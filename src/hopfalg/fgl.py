"""The BP family of Hopf algebroids.

Generator convention: Hazewinkel, via the log recursion
    p*l_n = sum_{0 <= i < n} l_i * v_{n-i}^{p^i},   l_0 = 1,
with |v_i| = |t_i| = 2(p^i - 1).  The three structure maps are
recursions over m_n = eta_R(l_n) = sum_{i+j=n} l_i * t_j^{p^i}, t_0 = 1
(Ravenel, Complex Cobordism, Thm. A2.1.27):
    eta_R(v_n) = p*m_n - sum_{0 < i < n} m_i * eta_R(v_{n-i})^{p^i},
    sum_i l_i * Delta(t_{n-i})^{p^i} = sum_{h+k=n} m_h (x) t_k^{p^h},
    c(t_n) = l_n - sum_{0 < h <= n} m_h * c(t_{n-h})^{p^h},  c(t_0) = 1.
All intermediates are exact rationals; p-integrality is asserted before
any image is frozen into an algebroid.  Delta's recursion runs in the
square the algebroid builds.  Every other pair is induced along a base
map (`morita.induced_algebroid`): the quotient-localized pair from BP
along BP_* -> v_n^{-1}BP_*/I_n, the Johnson-Wilson pairs from it along
further kills.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from weakref import WeakValueDictionary

from .errors import InputError
from .hopf import HopfAlgebroid
from .presentation import (
    BaseMode,
    GradedPresentation,
    RingMorphism,
    assert_p_integral,
    invert_element,
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
class BPData:
    p: int
    D: int
    N: int
    A: GradedPresentation
    Gamma: GradedPresentation
    H: HopfAlgebroid
    # n -> quotient_localize(self, n) while a caller holds it: held strongly,
    # a pair and its groupoids would live as long as the cached tower
    pairs: WeakValueDictionary


def hazewinkel_logs(p, N, pres):
    """The rational log coefficients [1, l_1, ..., l_N] inside pres, a
    p-local presentation with generators v1..vN."""
    logs = [pres.one()]
    for n in range(1, N + 1):
        acc = pres.zero()
        for i in range(n):
            vni = pres.gen(f"v{n - i}")
            acc = acc + logs[i] * (vni ** (p ** i))
        logs.append(acc.scale(Fraction(1, p)))
    return logs


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
    vs = [(f"v{i}", gen_degree(p, i)) for i in range(1, N + 1)]
    ts = [(f"t{i}", gen_degree(p, i)) for i in range(1, N + 1)]
    A = GradedPresentation(mode, vs, truncation=D, name=f"BP*@p={p}")
    Gamma = GradedPresentation(mode, vs + ts, truncation=D, name=f"BP*BP@p={p}")
    morphism_order = range(N, 2 * N)

    logs = hazewinkel_logs(p, N, pres=Gamma)
    t = [Gamma.one()] + [Gamma.gen(i) for i in morphism_order]
    # m_n = eta_R(l_n) = sum_{i+j=n} l_i t_j^{p^i}, with t_0 = 1
    m = [
        sum((logs[i] * t[n - i] ** (p ** i) for i in range(n + 1)), Gamma.zero())
        for n in range(N + 1)
    ]

    etaR_images = [None]
    for n in range(1, N + 1):
        acc = m[n].scale(p)
        for i in range(1, n):
            acc = acc - m[i] * (etaR_images[n - i] ** (p ** i))
        etaR_images.append(assert_p_integral(acc, p))
    etaR = RingMorphism(A, Gamma, etaR_images[1:], name="etaR")

    c_images = [Gamma.one()]
    for n in range(1, N + 1):
        acc = logs[n]
        for h in range(1, n + 1):
            acc = acc - m[h] * (c_images[n - h] ** (p ** h))
        c_images.append(assert_p_integral(acc, p))

    def delta(ts):
        images = [ts.pres.one()]
        for n in range(1, N + 1):
            acc = ts.pres.zero()
            for h in range(n + 1):
                acc = acc + ts.incl_l(m[h]) * ts.incl_r(t[n - h]) ** (p ** h)
            for i in range(1, n + 1):
                acc = acc - ts.incl_l(logs[i]) * (images[n - i] ** (p ** i))
            images.append(assert_p_integral(acc, p))
        return {f"t{n}": images[n] for n in range(1, N + 1)}

    H = HopfAlgebroid(
        A, Gamma, morphism_order, etaR,
        {f"t{n}": A.zero() for n in range(1, N + 1)},
        {f"t{n}": c_images[n] for n in range(1, N + 1)},
        delta, name=f"BP@p={p}",
    )
    return BPData(p, D, N, A, Gamma, H, WeakValueDictionary())


def _base_map(H, n, kept, name):
    """f_0: H.A -> B, B = v_n^{-1}(H.A)/(p, v_1..v_{n-1}, v_{kept+1}..) in
    prime-field mode, each v_i sent to its mirror in B."""
    A = H.A
    kills = {
        f"v{i}": (1, []) for i in range(1, len(A.gens) + 1) if i < n or i > kept
    }
    B = GradedPresentation(
        BaseMode("fp", A.mode.p), A.gens, relations=kills,
        inverted=[f"v{n}"], truncation=A.truncation, name=name,
    )
    return RingMorphism(A, B, [B.gen(i) for i in range(len(A.gens))], name="f0")


def quotient_localize(bp, n):
    """(v_n^{-1}BP_*/I_n, v_n^{-1}BP_*BP/I_n) in prime-field mode: the pair
    induced from BP along BP_* -> v_n^{-1}BP_*/I_n.  While a caller holds
    the pair, `bp.pairs` returns it to every later call."""
    from .morita import induced_algebroid

    pair = bp.pairs.get(n)
    if pair is not None:
        return pair
    p = bp.p
    f0 = _base_map(bp.H, n, bp.N, f"v{n}^-1BP*/I{n}@p={p}")
    names = f"v{n}^-1BP/I{n}@p={p}", f"v{n}^-1BP*BP/I{n}@p={p}"
    pair = bp.pairs[n] = induced_algebroid(bp.H, f0, names=names).target
    return pair


def johnson_wilson(bp, m, n):
    """(v_n^{-1}E(m)_*/I_n, Gamma_f) plus the canonical map from the
    quotient-localized BP algebroid `quotient_localize(bp, n)`, along the
    base map that kills v_{m+1}, v_{m+2}, ... as well."""
    from .morita import induced_algebroid

    if not (1 <= n <= m):
        raise InputError("need 1 <= n <= m")
    H = quotient_localize(bp, n)
    f = induced_algebroid(H, _base_map(H, n, m, f"v{n}^-1E({m})*/I{n}@p={bp.p}"))
    return f.target, f


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
