"""Reduced cobar complex and Ext dimension tables.

C^s = Gbar^{(x)_A s} (x)_A M, where Gbar is the positive part of Gamma
(the complement of the eta_L-unit); a basis in internal degree t consists
of keys (a, w_1|...|w_s, m) with `a` an A-monomial, each w_i a nonempty
monomial in the morphism generators, and m a module generator.  The
scalar coefficients (powers of inverted generators and the like) are
folded into the monomial enumeration so every bidegree is a finite
F_p-vector space; dimensions come from exact elimination over F_p.

The differential is the alternating sum of the reduced diagonals applied
in each slot plus the reduced coaction on the module slot; A-coefficients
produced inside a slot slide left through the balanced tensor relation
(gamma (x) a*x = gamma*eta_R(a) (x) x) until they reach the outer
A-coefficient, which multiplies the first slot through eta_L.  Keys with
an empty slot are degenerate and are projected away.

The differential is assembled as a left A-module map.  The inner faces
and the coaction face of a*[w|m] are eta_L(a) times the same faces of
[w|m]; only the outer face sees `a`, as (eta_R(a) - eta_L(a)) (x) w (x) m
(Ravenel, Complex Cobordism, A1.2.11).  One formula covers it at every
s, s = 0 included: the eta_L(a) part is degenerate, so the outer face is
the terms of eta_R(a) with a nonempty morphism part, each put in front
of w.  The a-free faces F(w, m) are built and slid per key (`_faces`).
Only a face's own left factor can hold an A-part: the left factor of the
reduced diagonal in its slot, or the coaction term.  The slots right of
it are the key's own words, each its own normal form, and stay as they
are.  That factor's terms are split once (`_dbar`, `_psi_reduced`), and
their A-parts are carried into the word prefix left of them by
`_carry`, cached per (prefix, A-part) since keys of many words share
both.  Each monomial m0 of the first slot that comes out, degenerate
ones included, is multiplied by eta_L(a) in Gamma's normal form
(relations, Koszul signs and weight truncation as in any product)
before degenerate keys are projected away; that product is the one
cached per (a, m0), `_etaL_times`.  The normal form is linear, so this
gives the same coordinates as expanding every face of every key.

Each basis lists its keys by weight, descending (key order within one
weight), so the keys above any weight cap are a prefix.  Each
differential d_{s,t} is stored sparse, as the columns `d_columns`
returns: column j is d of the j-th source key, {target position:
residue}.  The differentials are more than 99% zero, so every count is a
rank, taken by `linalg.echelon` on these columns without record vectors,
and d^2 = 0 is a sparse product, `linalg.apply`, of cached columns.
Each d_{s,t} is eliminated once, its inner columns (keys of weight <=
inner) first and then the outer ones with the same pivots, each group
sparsest first (fewest nonzeros), which keeps fill-in down; the sorted
leads of that echelon form are cached per (s, t).  The leads depend only
on the image, so the sort does not move them, and the boundaries of
d_{s-1,t} that lie inside the inner rows, a suffix of C^{s,t}, are
counted by the leads at or past the outer prefix (see
`ext_dim_stable`).  The plain dimension `ext_dim` is the
same routine with no weight cap.  The stable-range dimension reads only
the inner columns of d_{s,t}, so at s = s_max it builds those alone,
uncached; the outer columns of the top differential, most of its keys on
the flagship, are never built.  Their rows are still the whole of
C^{s+1,t}.  No dense matrix is formed on the Ext path.  `differential`
builds the dense matrix from the columns on demand and never caches it;
it is kept only as a test reference and as an entry point of the
benchmark's tracer.

When A inverts one generator u whose power u^k is primitive,
eta_R(u^k) = eta_L(u^k) (k = 1: v_n in the quotient-localized pairs),
multiplying by u^k is a chain isomorphism C^{*,t} -> C^{*,t+k|u|} that
keeps key weights: Ext is a K(n)_*-module (Ravenel, Complex Cobordism,
ch. 6).  `period` finds the smallest such k on the algebroid, and
`ext_dims` then computes one period of t and fills the rest of the
window by the shift.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import mul

from . import linalg
from .errors import InfiniteBasis, InputError, SolveFailure


def _neg_pow(i):
    return -1 if i % 2 else 1


class CobarComplex:
    """Bases and differentials of the reduced cobar complex of H with
    coefficients in the comodule M (default: the unit comodule)."""

    def __init__(self, H, M=None, s_max=3, t_min=-32, t_max=32):
        if H.Gamma.mode.kind != "fp":
            raise InputError(
                "cobar dimensions need a prime-field coefficient mode"
            )
        self.p = H.Gamma.mode.p
        if self.p != 2:
            for _, d in H.Gamma.gens:
                if d % 2:
                    raise InputError(
                        "odd generator degrees need characteristic 2"
                    )
        if s_max < 0:
            raise InputError(f"s_max must be >= 0, not {s_max}")
        if t_min > t_max:
            raise InputError(f"empty t window: t_min {t_min} > t_max {t_max}")
        # an inverted generator has weight 0: a term of positive weight in
        # eta_R of it makes the outer face raise key weights, and d leaves
        # the weight-capped basis
        for i in sorted(H.A.inverted):
            w = max(map(H.Gamma.weight, H.etaR.images[i].terms), default=0)
            if w > 0:
                name = H.A.names[i]
                raise InfiniteBasis(
                    f"eta_R({name}) has a term of weight {w} while {name} "
                    "has weight 0: the outer face raises key weights past "
                    "the enumerated basis"
                )
        self.H = H
        if M is None:
            from .comodule import unit_comodule

            M = unit_comodule(H)
        if M.H is not H:
            raise InputError("comodule is not over this algebroid")
        self.M = M
        self.s_max = s_max
        self.t_min = t_min
        self.t_max = t_max
        self.D = H.Gamma.truncation
        # nonempty morphism monomials with their degrees, grouped and
        # deterministic; a monomial's degree is also the weight the cap
        # counts
        self._reduced = sorted(
            (w, H.Gamma.monomial_degree(w))
            for w in H.morphism_monomials()
            if any(w)
        )
        self._word_degree = dict(self._reduced)
        self._morphism_mask = tuple(
            int(i in H.morphism_gens) for i in range(len(H.Gamma.gens))
        )
        self._base_mask = tuple(1 - m for m in self._morphism_mask)
        self._words_cache = {}
        self._basis_cache = {}
        self._columns_cache = {}
        self._leads_cache = {}
        self._dbar_cache = {}
        self._etaL_times_cache = {}
        self._elem_cache = {}
        self._etaR_cache = {}
        self._carry_cache = {}
        self._psi_reduced = {
            g: [(other, self._split_terms(gamma))
                for other, gamma in sorted(M.psi[g].items())]
            for g, _ in M.gens
        }

    # -- helpers ----------------------------------------------------------

    def _elem(self, w):
        """The Gamma-element of a monomial, cached."""
        got = self._elem_cache.get(w)
        if got is None:
            got = self._elem_cache[w] = self.H.Gamma.monomial_element(w)
        return got

    def _etaR_monomial(self, a_mono):
        """eta_R of an A-monomial, cached per monomial.  It comes from
        `etaR.monomial`, which multiplies out the generator images, so the
        monomial may lie beyond A's own truncation boundary.  A non-unit
        image of an inverted generator makes the basis infinite."""
        got = self._etaR_cache.get(a_mono)
        if got is None:
            try:
                got = self.H.etaR.monomial(a_mono)
            except SolveFailure as exc:
                raise InfiniteBasis(f"eta_R: {exc}") from exc
            self._etaR_cache[a_mono] = got
        return got

    def _etaL_monomial(self, a_mono):
        """eta_L of an A-monomial: its exponents scattered onto the base
        generators of Gamma, wherever they sit among the morphism
        generators."""
        G = self.H.Gamma
        mono = [0] * len(G.gens)
        for i, e in zip(self.H.base_order, a_mono):
            mono[i] = e
        return G.monomial_element(tuple(mono))

    def _split_gamma_mono(self, mono):
        """Split a Gamma-monomial into (A-exponents, morphism exponents);
        base generators mirror A's generators in order."""
        return (
            tuple(compress(mono, self._base_mask)),
            tuple(map(mul, mono, self._morphism_mask)),
        )

    def _dbar(self, w):
        """Reduced diagonal of a morphism monomial with its degenerate
        right factors dropped, as a list of (coefficient, `_split_terms` of
        the left factor, right morphism monomial) triples."""
        got = self._dbar_cache.get(w)
        if got is not None:
            return got
        H = self.H
        ts = H.ts
        elem = H.Gamma.monomial_element(w)
        D = H.delta(elem) - ts.incl_l(elem) - ts.incl_r(elem)
        out = []
        for mono, c in sorted(D.terms.items()):
            lmono, rmono = ts.split_monomial(mono)
            if any(rmono):
                lelem = H.Gamma.monomial_element(lmono)
                out.append((int(c), self._split_terms(lelem), rmono))
        self._dbar_cache[w] = out
        return out

    # -- bases ------------------------------------------------------------

    def _words(self, s):
        """Words of s nonempty morphism monomials within the weight cap,
        grouped by degree (equal to weight): {degree: [words]}, cached
        per s."""
        got = self._words_cache.get(s)
        if got is None and s == 0:
            got = self._words_cache[s] = {0: [()]}
        elif got is None:
            got = self._words_cache[s] = {}
            for wdeg, words in self._words(s - 1).items():
                for w, d in self._reduced:
                    if wdeg + d <= self.D:
                        got.setdefault(wdeg + d, []).extend(
                            [word + (w,) for word in words]
                        )
        return got

    def basis(self, s, t):
        """Deterministic basis of C^s in internal degree t, heaviest first:
        keys (a_monomial, word tuple, module generator name) by weight,
        descending, and in key order within one weight.  The keys above
        any weight cap are then a prefix."""
        key = (s, t)
        got = self._basis_cache.get(key)
        if got is not None:
            return got
        A = self.H.A
        out = []
        for wdeg, words in self._words(s).items():
            for mgen, mdeg in self.M.gens:
                for a in A.degree_basis(t - wdeg - mdeg, self.D - wdeg):
                    w = -A.weight(a) - wdeg
                    out += [(w, (a, word, mgen)) for word in words]
        out.sort()
        got = self._basis_cache[key] = [k for _, k in out]
        return got

    # -- the differential -------------------------------------------------

    def _split_terms(self, g):
        """The nondegenerate terms of a Gamma-element, split once:
        (A-part or None, morphism part, coefficient, monomial)."""
        out = []
        for mono, cc in g.terms.items():
            a_part, w_part = self._split_gamma_mono(mono)
            if any(w_part):
                a_part = a_part if any(a_part) else None
                out.append((a_part, w_part, int(cc), mono))
        return out

    def _carry(self, prefix, a):
        """The slide of eta_R(x^a) into the word prefix w_1..w_k (k >= 1):
        w_k * eta_R(a) is split, its degenerate terms dropped, and the
        A-part of each term carried on into w_1..w_{k-1}.  A list of
        (coefficient, first-slot Gamma-monomial, words of slots 2..k),
        cached per (prefix, a)."""
        got = self._carry_cache.get((prefix, a))
        if got is not None:
            return got
        rest = prefix[:-1]
        g = self._elem(prefix[-1]) * self._etaR_monomial(a)
        if not rest:
            got = [(int(cc), m0, ()) for m0, cc in g.terms.items()]
        else:
            got = []
            for a2, w2, cc, _ in self._split_terms(g):
                if a2 is None:
                    got.append((cc, rest[0], rest[1:] + (w2,)))
                else:
                    got += [(cc * c, m0, ws + (w2,))
                            for c, m0, ws in self._carry(rest, a2)]
        self._carry_cache[(prefix, a)] = got
        return got

    def _faces(self, word, mgen):
        """The inner faces and the coaction face of [w|m], slid, before the
        outer coefficient multiplies the first slot: (coefficient,
        first-slot Gamma-monomial, words of the later slots, module
        generator).  Only the face's left factor (the left factor of the
        reduced diagonal in slot i, or the coaction term) can hold an
        A-part: the slots right of it are pure words, and it is carried
        into the slots left of it by `_carry`.  A term with no A-part, or
        with no slot left of it, is its own slot."""
        s = len(word)
        # (slot, coefficient, left factor, words right of it, generator)
        faces = [
            (i, c, terms, (rmono,) + word[i:], mgen)
            for i in range(1, s + 1)
            for c, terms, rmono in self._dbar(word[i - 1])
        ]
        faces += [(s + 1, 1, terms, (), other)
                  for other, terms in self._psi_reduced[mgen]]
        for i, c, terms, suffix, out_gen in faces:
            prefix, c = word[: i - 1], _neg_pow(i) * c
            for a, w_part, cc, mono in terms:
                if a is None or not prefix:  # mono == w_part if a is None
                    head = prefix + (mono,) + suffix
                    yield c * cc, head[0], head[1:], out_gen
                    continue
                for c2, m0, ws in self._carry(prefix, a):
                    yield c * cc * c2, m0, ws + (w_part,) + suffix, out_gen

    def _etaL_times(self, a, m0):
        """eta_L(a) * m0 for an A-monomial `a` and a Gamma-monomial m0, in
        Gamma's normal form, as (A-part, morphism part, coefficient)
        triples with the degenerate terms dropped; cached, since keys of
        many words share both factors."""
        got = self._etaL_times_cache.get((a, m0))
        if got is not None:
            return got
        got = []
        for mono, cc in (self._etaL_monomial(a) * self._elem(m0)).terms.items():
            a_part, w_part = self._split_gamma_mono(mono)
            if any(w_part):
                got.append((a_part, w_part, int(cc)))
        self._etaL_times_cache[(a, m0)] = got
        return got

    def d_of_key(self, key):
        """The differential of one basis key, as canonical coordinates.

        The outer face of a*[w|m] is (eta_R(a) - eta_L(a)) (x) w (x) m at
        every s, s = 0 included (Ravenel, Complex Cobordism, A1.2.11): the
        face 1 (x) a*[w|m] reads the coefficient through eta_R.  The
        eta_L(a) part is degenerate, and the slots of w are pure morphism
        monomials with nothing to slide, so the face adds each term of
        eta_R(a) with a nonempty morphism part, put in front of w, with
        coefficient +1.  The inner faces and the coaction face are
        eta_L(a) times F(w, m): each first-slot monomial of the slid
        faces of `_faces` goes through `_etaL_times`."""
        a, word, mgen = key
        p = self.p
        acc = {}
        for mono, cc in self._etaR_monomial(a).terms.items():
            a_part, w_part = self._split_gamma_mono(mono)
            if any(w_part):
                k = (a_part, (w_part,) + word, mgen)
                acc[k] = (acc.get(k, 0) + int(cc)) % p
        for c, m0, ws, out_gen in self._faces(word, mgen):
            for a_part, w_part, cc in self._etaL_times(a, m0):
                k = (a_part, (w_part,) + ws, out_gen)
                acc[k] = (acc.get(k, 0) + c * cc) % p
        return {k: v for k, v in acc.items() if v % p}

    def _columns(self, keys, s, t):
        """d of each key of C^{s,t} in `keys`, as sparse columns
        {target basis position: residue} against the whole of
        basis(s+1, t); not cached."""
        cols, outside = linalg.coordinates(
            map(self.d_of_key, keys), self.basis(s + 1, t)
        )
        if outside is not None:
            raise AssertionError(
                f"differential leaves the enumerated basis at {outside}"
            )
        return cols

    def d_columns(self, s, t):
        """d: C^{s,t} -> C^{s+1,t} as sparse columns, cached: column j is
        d of the j-th source key, {target basis position: residue}."""
        key = (s, t)
        got = self._columns_cache.get(key)
        if got is None:
            got = self._columns_cache[key] = self._columns(
                self.basis(s, t), s, t
            )
        return got

    def differential(self, s, t):
        """Matrix of d: C^{s,t} -> C^{s+1,t} in the deterministic bases
        (rows = target basis, columns = source basis): a dense view of
        `d_columns`, built on every call.  Nothing in the package calls
        it: it stays as a test reference and as an entry point that
        `perfbench/tracing.py` times, until the tracer times `d_columns`
        and `linalg.echelon` instead."""
        cols = self.d_columns(s, t)
        mat = [[0] * len(cols) for _ in self.basis(s + 1, t)]
        for j, col in enumerate(cols):
            for r, c in col.items():
                mat[r][j] = c
        return mat

    def _eliminate(self, s, t, n_out):
        """rank of the columns of d_{s,t} at positions >= n_out, the keys
        of weight <= some cap.  Unless d_{s,t}'s leads are cached, the
        echelon form goes on through the columns < n_out with the same
        pivots, and its sorted leads are cached: each column of d_{s,t}
        is eliminated once."""
        leads = self._leads_cache.get((s, t))
        if leads is not None and not n_out:
            return len(leads)
        cols = self.d_columns(s, t)
        pivots, _ = linalg.echelon(
            ((dict(c), None) for c in sorted(cols[n_out:], key=len)), self.p
        )
        rank_in = len(pivots)
        if leads is None:
            linalg.echelon(
                ((dict(c), None) for c in sorted(cols[:n_out], key=len)),
                self.p,
                pivots,
            )
            self._leads_cache[(s, t)] = sorted(pivots)
        return rank_in

    def d_leads(self, s, t):
        """Sorted leads of an echelon form of d_{s,t} that pivots on the
        smallest index, cached.  They depend only on the image: they are
        the smallest indices of its nonzero vectors."""
        if (s, t) not in self._leads_cache:
            self._eliminate(s, t, 0)
        return self._leads_cache[(s, t)]

    def d_squared_is_zero(self, s, t):
        """d_{s+1,t} d_{s,t} = 0, as a sparse product of the columns."""
        d1 = self.d_columns(s + 1, t)
        return not any(linalg.apply(d1, col, self.p) for col in self.d_columns(s, t))

    def ext_dim(self, s, t):
        """dim Ext^{s,t} = dim ker d_{s,t} - rank d_{s-1,t}: the
        stable-range dimension with no weight cap."""
        return self.ext_dim_stable(s, t, math.inf)

    def period(self):
        """k|u| for the smallest k >= 1 such that u^k is primitive,
        eta_R(u^k) = eta_L(u^k), where u is A's one inverted generator;
        None when there is no such u, or no such k with k|u| at most the
        window's width (k = 1 is always tried).

        u has weight 0, carries no rule, and multiplying by u^k in A, or
        by eta_L(u^k) in Gamma, only bumps u's exponent.  So it keeps key
        weights and normal forms, `basis(s, t + k|u|)` is `basis(s, t)`
        with u bumped by k, in the same order (`graded_walk` shifts each
        degree class), and the outer face (eta_R(u^k a) - eta_L(u^k a))
        (x) w (x) m is eta_L(u^k) times that of a: multiplication by u^k
        is a chain isomorphism C^{*,t} -> C^{*,t+k|u|}, and
        `d_columns(s, t + k|u|) == d_columns(s, t)`.  The faces of the
        comodule slot are A-linear, so this holds for every M (Ravenel,
        Complex Cobordism, ch. 6: Ext of v_n^{-1}BP_*/I_n is a
        K(n)_*-module)."""
        H = self.H
        if len(H.A.inverted) != 1:
            return None
        (i,) = H.A.inverted
        du = abs(H.A.degrees[i])
        if not du:
            return None  # no finite basis: `graded_walk` says so
        width = self.t_max - self.t_min + 1
        for k in range(1, max(width // du, 1) + 1):
            m = tuple(k * (j == i) for j in range(len(H.A.gens)))
            if H.etaR.monomial(m) == H.etaL.monomial(m):
                return k * du
        return None

    def key_weight(self, key):
        a, word, _ = key
        return self.H.A.weight(a) + sum(self._word_degree[w] for w in word)

    def ext_dim_stable(self, s, t, inner):
        """dim of the image H^{s,t}(C_{<=inner}) -> H^{s,t}(C).

        The differential never raises weight, so the keys of weight <=
        inner span a subcomplex C_in; cocycles there that only bound once
        higher-weight cochains are available (truncation-boundary
        artifacts) are discarded by computing the image of the induced
        map on cohomology instead of the cohomology of either cap alone.

        The image is Z_in / (Z_in n B), with Z_in the cocycles of C_in and
        B the image of d_{s-1,t}.  Since B lies in ker d, Z_in n B =
        C_in n B.  The basis lists its n_out keys of weight > inner first,
        so C_in is spanned by the positions >= n_out, and dim(C_in n B) is
        the number of leads of d_{s-1,t} at positions >= n_out (the leads
        of an echelon form that pivots on the smallest index are the
        smallest indices of the vectors of B).  So

            dim = n_in - rank(d_{s,t}|inner cols)
                  - #{leads of d_{s-1,t} >= n_out}.

        At s = 0 there are no boundaries, and with no inner key the
        image is 0.  With inner = inf this is the plain dimension, which
        `ext_dim` returns.

        Only the inner columns of d_{s,t} enter; the full d_{s,t} is read
        again, for its leads, by the dimension at s' = s + 1.  So at s >=
        s_max, when some key is outer, only the inner keys are
        differentiated, and their columns are not cached.  The rows stay
        the whole of C^{s+1,t}, with the same check that d stays inside
        the enumerated basis: a coaction with off-diagonal terms can carry
        an inner key past the inner weight.  Otherwise the inner columns
        and then the outer ones go through one elimination (`_eliminate`),
        which caches the leads of d_{s,t} for the next s."""
        basis = self.basis(s, t)
        # the keys of weight > inner, a prefix of the basis
        n_out = bisect_left(basis, -inner, key=lambda k: -self.key_weight(k))
        n_in = len(basis) - n_out
        if not n_in:
            return 0
        if s >= self.s_max and n_out:
            cols = self._columns(basis[n_out:], s, t)
            rank_in = linalg.rank(sorted(cols, key=len), self.p)
        else:
            rank_in = self._eliminate(s, t, n_out)
        dim = n_in - rank_in
        if s:
            leads = self.d_leads(s - 1, t)
            dim -= len(leads) - bisect_left(leads, n_out)
        return dim


@dataclass
class ExtTable:
    p: int
    s_max: int
    t_min: int
    t_max: int
    dims: dict  # (s, t) -> dimension
    source: str = ""

    def nonzero(self):
        return sorted(
            ((s, t), d) for (s, t), d in self.dims.items() if d
        )

    def to_csv(self):
        lines = ["s,t,dim"]
        for (s, t), d in self.nonzero():
            lines.append(f"{s},{t},{d}")
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "schema": 1,
            "p": self.p,
            "s_max": self.s_max,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "source": self.source,
            "dims": [
                {"s": s, "t": t, "dim": d} for (s, t), d in self.nonzero()
            ],
        }


def ext_dims(C, parallel=1, check_d2=False, inner=None):
    """The Ext dimension table on C's window.  With `inner` set, each
    entry is the stable-range dimension `ext_dim_stable(s, t, inner)`
    instead of the plain cap cohomology.

    With a period k|u| (`CobarComplex.period`), only t in [t_min, t_min
    + k|u|) is computed, and every later entry is the one k|u| below it.
    d_{s+1,t} d_{s,t} = 0 is checked at the same t (AssertionError
    otherwise): with `check_d2` at every s < s_max, and by default only
    where both differentials were built in full for the table (every s <
    s_max on a plain table, s + 1 < s_max on a stable one), so the check
    builds nothing.  Each elimination feeds `echelon`
    its sparsest columns first (see the module docstring).  The table is
    computed serially; `parallel` is accepted for existing callers and
    must be 1 (InputError otherwise)."""
    if parallel != 1:
        raise InputError(f"ext_dims is serial: parallel must be 1, not {parallel}")
    if inner is None:
        inner = math.inf
    period = C.period()
    ts = range(C.t_min, C.t_max + 1)
    if period is not None:
        ts = ts[:period]
    dims = {}
    for s in range(C.s_max + 1):
        for t in ts:
            dims[(s, t)] = C.ext_dim_stable(s, t, inner)
        for t in range(ts[-1] + 1, C.t_max + 1):
            dims[(s, t)] = dims[(s, t - period)]
    built = C._columns_cache
    for s in range(C.s_max):
        for t in ts:
            if check_d2 or ((s, t) in built and (s + 1, t) in built):
                if not C.d_squared_is_zero(s, t):
                    raise AssertionError(f"d^2 != 0 at (s,t)=({s},{t})")
    return ExtTable(
        C.p,
        C.s_max,
        C.t_min,
        C.t_max,
        dims,
        source=getattr(C.H, "name", "") or "",
    )


def compare_ext(T1, T2):
    """Bidegree-by-bidegree diff on the common window; empty = agreement."""
    if T1.p != T2.p:
        raise InputError("tables at different primes")
    s_max = min(T1.s_max, T2.s_max)
    t_min = max(T1.t_min, T2.t_min)
    t_max = min(T1.t_max, T2.t_max)
    diffs = []
    for s in range(s_max + 1):
        for t in range(t_min, t_max + 1):
            a = T1.dims.get((s, t), 0)
            b = T2.dims.get((s, t), 0)
            if a != b:
                diffs.append((s, t, a, b))
    return diffs


def primitive_dims(H, t_min, t_max):
    """dim of the primitives {a in A_t : eta_R(a) = eta_L(a)} per degree,
    computed directly (the independent Ext^0 cross-check)."""
    p = H.Gamma.mode.p
    out = {}
    for t in range(t_min, t_max + 1):
        ab = H.A.degree_basis(t)
        if not ab:
            out[t] = 0
            continue
        elems = map(H.A.monomial_element, ab)
        diffs = ((H.etaR(x) - H.etaL(x)).terms for x in elems)
        vecs, _ = linalg.coordinates(diffs, H.Gamma.degree_basis(t))
        out[t] = len(ab) - linalg.rank(vecs, p)
    return out
