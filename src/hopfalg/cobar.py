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
of w.  The a-free faces F(w, m) are computed once per (word, module
generator), with the first slot kept as a full Gamma-element, degenerate
terms included, and each key multiplies them by eta_L(a) in Gamma's
normal form (relations, Koszul signs and weight truncation as in any
product) before projecting degenerate keys away.  The normal form is
linear, so this gives the same coordinates as expanding every face of
every key.

Each differential d_{s,t} is stored sparse, as the columns `d_columns`
returns: column j is d of the j-th source key, {target position: residue}.
The differentials are more than 99% zero, so every count is a rank, taken
by `linalg.echelon` on these columns (or on a restriction of them)
without record vectors: the plain dimension needs rank d_{s,t} and
rank d_{s-1,t}, and the stable-range dimension two further ranks (see
`ext_dim_stable`).  The stable-range dimension reads only the inner
columns (keys of weight <= inner) of d_{s,t}, so at s = s_max it builds
those alone, uncached; the outer columns of the top differential, most
of its keys on the flagship, are never built.  Their rows are still the
whole of C^{s+1,t}.  Below s_max, one elimination of the inner and then
the outer columns gives both rank(d_{s,t}|inner) and rank d_{s,t}.  No
dense matrix is formed on the Ext path.  `differential` builds the dense
matrix from the columns on demand and never caches it; it is kept only as
a test reference and as an entry point of the benchmark's tracer.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul

from . import linalg
from .errors import DegreeError, InfiniteBasis, InputError, SolveFailure


def _neg_pow(i):
    return -1 if i % 2 else 1


class CobarComplex:
    """Bases and differentials of the reduced cobar complex of H with
    coefficients in the comodule M (default: the unit comodule)."""

    def __init__(self, H, M=None, s_max=3, t_min=-32, t_max=32):
        if H.Gamma.mode.kind != "fp":
            raise DegreeError(
                "cobar dimensions need a prime-field coefficient mode"
            )
        self.p = H.Gamma.mode.p
        if self.p != 2:
            for _, d in H.Gamma.gens:
                if d % 2:
                    raise DegreeError(
                        "odd generator degrees need characteristic 2"
                    )
        self.H = H
        if M is None:
            from .comodule import unit_comodule

            M = unit_comodule(H)
        if M.H is not H:
            raise DegreeError("comodule is not over this algebroid")
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
        self._base_positions = tuple(compress(
            range(len(H.Gamma.gens)), self._base_mask
        ))
        self._words_cache = {}
        self._basis_cache = {}
        self._columns_cache = {}
        self._rank_cache = {}
        self._dbar_cache = {}
        self._faces_cache = {}
        self._etaL_times_cache = {}
        self._elem_cache = {}
        self._etaR_cache = {}
        self._psi_reduced = {
            g: sorted(
                (other, gamma)
                for other, gamma in M.psi[g].items()
            )
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
        for i, e in zip(self._base_positions, a_mono):
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
        """Reduced diagonal of a morphism monomial, as a list of
        (coefficient, left Gamma-element, right Gamma-monomial) triples."""
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
            out.append((c, H.Gamma.monomial_element(lmono), rmono))
        self._dbar_cache[w] = out
        return out

    # -- bases ------------------------------------------------------------

    def _words(self, s):
        """Words of s nonempty morphism monomials within the weight cap,
        with their degrees (equal to their weights), cached per s."""
        got = self._words_cache.get(s)
        if got is None:
            got = [((), 0)] if s == 0 else [
                (word + (w,), wdeg + d)
                for word, wdeg in self._words(s - 1)
                for w, d in self._reduced
                if wdeg + d <= self.D
            ]
            self._words_cache[s] = got
        return got

    def basis(self, s, t):
        """Deterministic basis of C^s in internal degree t: sorted keys
        (a_monomial, word tuple, module generator name)."""
        key = (s, t)
        got = self._basis_cache.get(key)
        if got is not None:
            return got
        A = self.H.A
        out = []
        for word, wdeg in self._words(s):
            for mgen, mdeg in self.M.gens:
                trem = t - wdeg - mdeg
                for a in A.degree_basis(trem, self.D - wdeg):
                    out.append((a, word, mgen))
        out.sort()
        self._basis_cache[key] = out
        return out

    # -- the differential -------------------------------------------------

    def _slide(self, coeff, slots):
        """Slide the A-coefficients of slots[1:] leftwards into slots[0],
        branching per monomial and dropping degenerate slots: a list of
        (coefficient, first-slot Gamma-element, words of the later slots).
        A trivial A-coefficient carries nothing: the slots are in normal
        form, so multiplying by eta_R(1) = 1 would not change them."""
        p = self.p
        branches = [(coeff, (), None)]
        for i in range(len(slots) - 1, 0, -1):
            new = []
            for c, ws, carry in branches:
                g = slots[i] if carry is None else slots[i] * carry
                for mono, cc in g.terms.items():
                    a_part, w_part = self._split_gamma_mono(mono)
                    if not any(w_part):
                        continue  # degenerate slot
                    new.append(
                        (
                            c * int(cc) % p,
                            (w_part,) + ws,
                            self._etaR_monomial(a_part)
                            if any(a_part)
                            else None,
                        )
                    )
            branches = new
        return [
            (c, slots[0] if carry is None else slots[0] * carry, ws)
            for c, ws, carry in branches
        ]

    def _faces(self, word, mgen):
        """F(w, m): the inner faces and the coaction face of [w|m], before
        the outer coefficient multiplies the first slot.  A list of
        (later words, module generator, ((first-slot monomial,
        coefficient), ...)); degenerate first slots are kept, since only
        the product with eta_L(a) decides degeneracy."""
        got = self._faces_cache.get((word, mgen))
        if got is not None:
            return got
        p = self.p
        s = len(word)
        word_elems = [self._elem(w) for w in word]
        faces = []  # (coefficient, slots, module generator)
        for i in range(1, s + 1):
            sign = _neg_pow(i)
            for c, lelem, rmono in self._dbar(word[i - 1]):
                if not any(rmono):
                    continue
                slots = (
                    word_elems[: i - 1]
                    + [lelem, self._elem(rmono)]
                    + word_elems[i:]
                )
                faces.append((sign * int(c) % p, slots, mgen))
        sign = _neg_pow(s + 1)
        for other, gamma in self._psi_reduced[mgen]:
            faces.append((sign, word_elems + [gamma], other))
        groups = {}
        for coeff, slots, out_gen in faces:
            for c, g, ws in self._slide(coeff, slots):
                terms = groups.setdefault((ws, out_gen), {})
                for mono, cc in g.terms.items():
                    terms[mono] = (terms.get(mono, 0) + c * int(cc)) % p
        got = [
            (ws, out_gen, tuple((m, c) for m, c in terms.items() if c))
            for (ws, out_gen), terms in groups.items()
        ]
        self._faces_cache[(word, mgen)] = got
        return got

    def _etaL_times(self, a, m0):
        """eta_L(a) * m0 for an A-monomial `a` and a Gamma-monomial m0, in
        Gamma's normal form, as (A-part, morphism part, coefficient)
        triples with the degenerate terms dropped; cached, since keys of
        many words share both factors."""
        got = self._etaL_times_cache.get((a, m0))
        if got is not None:
            return got
        G = self.H.Gamma
        raw = []
        for ma, ca in self._etaL_monomial(a).terms.items():
            res = G._mul_mono(ma, m0)
            if res is not None:
                sgn, mono = res
                raw.append((-ca if sgn < 0 else ca, mono))
        got = []
        for mono, cc in G.normalize_terms(raw)[0].items():
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
        eta_L(a) times F(w, m)."""
        a, word, mgen = key
        p = self.p
        acc = {}
        for mono, cc in self._etaR_monomial(a).terms.items():
            a_part, w_part = self._split_gamma_mono(mono)
            if any(w_part):
                k = (a_part, (w_part,) + word, mgen)
                acc[k] = (acc.get(k, 0) + int(cc)) % p
        for ws, out_gen, terms in self._faces(word, mgen):
            for m0, c0 in terms:
                for a_part, w_part, cc in self._etaL_times(a, m0):
                    k = (a_part, (w_part,) + ws, out_gen)
                    acc[k] = (acc.get(k, 0) + c0 * cc) % p
        return {k: v for k, v in acc.items() if v % p}

    def _columns(self, keys, s, t):
        """d of each key of C^{s,t} in `keys`, as sparse columns
        {target basis position: residue} against the whole of
        basis(s+1, t); not cached."""
        pos = {k: i for i, k in enumerate(self.basis(s + 1, t))}
        cols = []
        for k in keys:
            col = {}
            for outk, c in self.d_of_key(k).items():
                r = pos.get(outk)
                if r is None:
                    raise AssertionError(
                        f"differential leaves the enumerated basis at {outk}"
                    )
                col[r] = c
            cols.append(col)
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

    def d_rank(self, s, t):
        """rank d_{s,t}, cached."""
        key = (s, t)
        got = self._rank_cache.get(key)
        if got is None:
            got = self._rank_cache[key] = _sparse_rank(
                map(dict, self.d_columns(s, t)), self.p
            )
        return got

    def d_squared_is_zero(self, s, t):
        """d_{s+1,t} d_{s,t} = 0, as a sparse product of the columns."""
        p = self.p
        d1 = self.d_columns(s + 1, t)
        for col in self.d_columns(s, t):
            acc = {}
            for r, c in col.items():
                for i, x in d1[r].items():
                    acc[i] = acc.get(i, 0) + c * x
            if any(v % p for v in acc.values()):
                return False
        return True

    def ext_dim(self, s, t):
        """dim Ext^{s,t} = dim ker d_{s,t} - rank d_{s-1,t}."""
        dim = len(self.basis(s, t)) - self.d_rank(s, t)
        return dim - self.d_rank(s - 1, t) if s else dim

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
        C_in n B, which is the kernel of P_out on B, where P_out drops the
        rows of weight <= inner.  So, by ranks alone,

            dim = n_in - rank(d_{s,t}|inner cols)
                  - rank d_{s-1,t} + rank(P_out d_{s-1,t}).

        At s = 0 there are no boundaries, and with no inner key the
        image is 0.

        Only the inner columns of d_{s,t} enter; the full d_{s,t} is read
        again, as d_{s'-1,t}, by the dimension at s' = s + 1.  So at s >=
        s_max only the inner keys are differentiated, and their columns
        are not cached.  The rows stay the whole of C^{s+1,t}, with the
        same check that d stays inside the enumerated basis: a coaction
        with off-diagonal terms can carry an inner key past the inner
        weight.  Below s_max, the inner columns and then the outer ones
        go through one elimination: rank(d_{s,t}|inner cols) is its pivot
        count after the inner columns, and the full count is rank d_{s,t},
        which fills the rank cache for the next s."""
        basis = self.basis(s, t)
        is_inner = [self.key_weight(k) <= inner for k in basis]
        n_in = sum(is_inner)
        if not n_in:
            return 0
        p = self.p
        if s >= self.s_max:
            dim = n_in - _sparse_rank(
                self._columns(compress(basis, is_inner), s, t), p
            )
        else:
            cols = self.d_columns(s, t)
            pivots, _ = linalg.echelon(
                ((dict(c), None) for c in compress(cols, is_inner)), p
            )
            dim = n_in - len(pivots)
            if (s, t) not in self._rank_cache:
                is_outer = [not x for x in is_inner]
                linalg.echelon(
                    ((dict(c), None) for c in compress(cols, is_outer)),
                    p,
                    pivots,
                )
                self._rank_cache[(s, t)] = len(pivots)
        if s == 0:
            return dim
        outer_rank = _sparse_rank(
            (
                {r: c for r, c in col.items() if not is_inner[r]}
                for col in self.d_columns(s - 1, t)
            ),
            p,
        )
        return dim - self.d_rank(s - 1, t) + outer_rank


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


def _sparse_rank(vectors, p):
    """Rank over F_p of the dict vectors, which the elimination consumes."""
    return len(linalg.echelon(((v, None) for v in vectors), p)[0])


def ext_dims(C, parallel=1, check_d2=False, inner=None):
    """The Ext dimension table on C's window.  With `inner` set, each
    entry is the stable-range dimension `ext_dim_stable(s, t, inner)`
    instead of the plain cap cohomology.  The table is computed serially;
    `parallel` is accepted for existing callers and must be 1 (InputError
    otherwise)."""
    if parallel != 1:
        raise InputError(f"ext_dims is serial: parallel must be 1, not {parallel}")
    dims = {}
    for s in range(C.s_max + 1):
        for t in range(C.t_min, C.t_max + 1):
            if inner is None:
                dims[(s, t)] = C.ext_dim(s, t)
            else:
                dims[(s, t)] = C.ext_dim_stable(s, t, inner)
    if check_d2:
        for s in range(C.s_max):
            for t in range(C.t_min, C.t_max + 1):
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
        pos = {m: i for i, m in enumerate(H.Gamma.degree_basis(t))}
        vecs = []
        for a in ab:
            diff = H.etaR(H.A.monomial_element(a)) - H.etaL(
                H.A.monomial_element(a)
            )
            vecs.append({pos[m]: c for m, c in diff.terms.items()})
        out[t] = len(ab) - _sparse_rank(vecs, p)
    return out
