"""Cobar-complex cohomology against an independent hand-rolled oracle."""
import functools
import hashlib
import itertools
import math
import operator
import os
import time

import pytest

from hopfalg import linalg
from hopfalg.cobar import CobarComplex, compare_ext, ext_dims, primitive_dims
from hopfalg.errors import InputError
from hopfalg.hopf import TensorPower
from hopfalg.presentation import (
    BaseMode,
    GradedPresentation,
    RingMorphism,
    identity_morphism,
)

from conftest import (
    line_over_unit,
    line_over_v,
    mu2_algebroid,
    mu2_on_unit,
    primitive_line,
)
from test_comodule import comodule_catalog


# ---------------------------------------------------------------------------
# the oracle: a from-scratch cobar complex for F_p[x]/(x^q) with x
# primitive, sharing no code with the package (including its own rref)


def _binom_mod(n, k, p):
    from math import comb

    return comb(n, k) % p


def _oracle_basis(s, t, d, q):
    """Words (k_1..k_s), 1 <= k_i < q, sum k_i * d = t."""
    if s == 0:
        return [()] if t == 0 else []
    return [
        w
        for w in itertools.product(range(1, q), repeat=s)
        if sum(w) * d == t
    ]


def _oracle_d(word, p, q):
    """d(w) = sum_i (-1)^i w with slot i split by the reduced diagonal."""
    out = {}
    for i, k in enumerate(word):
        sign = (-1) ** (i + 1)
        for a in range(1, k):
            c = (sign * _binom_mod(k, a, p)) % p
            if c:
                new = word[:i] + (a, k - a) + word[i + 1 :]
                out[new] = (out.get(new, 0) + c) % p
    return {w: c for w, c in out.items() if c}


def _oracle_rank(rows, p):
    rows = [list(r) for r in rows if any(x % p for x in r)]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _oracle_matrix(s, t, d, q, p):
    dom = _oracle_basis(s, t, d, q)
    cod = _oracle_basis(s + 1, t, d, q)
    idx = {w: i for i, w in enumerate(cod)}
    rows = []
    for w in dom:
        row = [0] * len(cod)
        for nw, c in _oracle_d(w, p, q).items():
            row[idx[nw]] = c
        rows.append(row)
    return rows, len(dom), len(cod)


def oracle_ext_dim(s, t, d, q, p):
    mat, ndom, _ = _oracle_matrix(s, t, d, q, p)
    ker = ndom - _oracle_rank(mat, p)
    if s == 0:
        return ker
    prev, _, _ = _oracle_matrix(s - 1, t, d, q, p)
    return ker - _oracle_rank(prev, p)


def oracle_ext_dim_s1_p2(s, t):
    """dim Ext^{s,t} of v1^-1BP_*/I1 at p=2: K(1)_* (x) H*(S(1)) with
    H*(S(1)) = F_2[h_10] (x) E(zeta_1), h_10 in (1, 2) and zeta_1 in
    (1, 0) (Ravenel, Complex Cobordism, ch. 6), and |v1| = 2.  So 1 at s
    = 0 and 2 at s >= 1 for even t, 0 for odd t."""
    if t % 2:
        return 0
    return 1 if s == 0 else 2


def test_oracle_differential_squares_to_zero():
    for p, d, q in [(2, 1, 2), (3, 2, 3)]:
        for s in range(5):
            for w in itertools.product(range(1, q), repeat=s):
                acc = {}
                for nw, c in _oracle_d(w, p, q).items():
                    for nnw, c2 in _oracle_d(nw, p, q).items():
                        acc[nnw] = (acc.get(nnw, 0) + c * c2) % p
                assert not any(acc.values()), w


# ---------------------------------------------------------------------------
# package vs oracle


def test_exterior_line_char2():
    """Over F_2[x]/(x^2), |x|=1, the answer is a polynomial algebra on one
    class in (s, t) = (1, 1): a single dimension on the diagonal."""
    H = primitive_line(2, 1, 2)
    C = CobarComplex(H, s_max=6, t_min=0, t_max=8)
    T = ext_dims(C, check_d2=True)
    for s in range(7):
        for t in range(9):
            want = 1 if s == t else 0
            assert T.dims[(s, t)] == want, (s, t)
            assert oracle_ext_dim(s, t, 1, 2, 2) == want, (s, t)


def test_truncated_line_char3():
    """Over F_3[x]/(x^3), |x|=2: an exterior class in (1, 2) times a
    polynomial class in (2, 6)."""
    H = primitive_line(3, 2, 3)
    C = CobarComplex(H, s_max=4, t_min=0, t_max=12)
    T = ext_dims(C, check_d2=True)
    expected = {(0, 0), (1, 2), (2, 6), (3, 8), (4, 12)}
    for s in range(5):
        for t in range(13):
            want = 1 if (s, t) in expected else 0
            assert T.dims[(s, t)] == want, (s, t)
            assert oracle_ext_dim(s, t, 2, 3, 3) == want, (s, t)


# ---------------------------------------------------------------------------
# the induced pair at p = 3


def test_d_squared_flagship(flagship):
    _, H1, H2, _ = flagship
    for H in (H1, H2):
        C = CobarComplex(H, s_max=2, t_min=0, t_max=20)
        for s in (0, 1):
            for t in (0, 4, 8, 12, 16, 20):
                assert C.d_squared_is_zero(s, t), (H.name, s, t)


def _corrupt(C, s, t):
    """Add 1 to one entry of the cached d_{s,t}, in a row where d_{s+1,t}
    is nonzero, so that d_{s+1,t} d_{s,t} != 0."""
    d1 = C.differential(s + 1, t)
    r = next(k for k in range(len(d1[0])) if any(row[k] for row in d1))
    col = C.d_columns(s, t)[0]  # the cached column, corrupted in place
    col[r] = (col.get(r, 0) + 1) % C.p
    if not col[r]:
        del col[r]


def test_d_squared_detects_a_corrupted_differential():
    C = CobarComplex(primitive_line(3, 2, 3), s_max=3, t_min=0, t_max=12)
    s, t = 2, 8
    assert C.d_squared_is_zero(s, t)
    _corrupt(C, s, t)
    assert not C.d_squared_is_zero(s, t)


@pytest.mark.parametrize("inner", [None, 10])
def test_ext_dims_checks_d_squared_by_default(inner):
    """With no flag, `ext_dims` checks d^2 = 0 wherever the table built
    both differentials in full, and builds nothing for it: on a plain
    window every s < s_max, on a stable one s + 1 < s_max (the top
    level's keys of weight > inner are never differentiated)."""
    C = CobarComplex(primitive_line(3, 2, 3), s_max=4, t_min=0, t_max=12)
    ext_dims(C, inner=inner)
    assert ((4, 12) in C._columns_cache) == (inner is None)
    _corrupt(C, 2, 8)
    with pytest.raises(AssertionError, match=r"d\^2 != 0 at \(s,t\)=\(2,8\)"):
        ext_dims(C, inner=inner)


def test_ext0_equals_primitives(flagship):
    _, H1, _, _ = flagship
    C = CobarComplex(H1, s_max=0, t_min=-16, t_max=16)
    T = ext_dims(C)
    prim = primitive_dims(H1, -16, 16)
    for t in range(-16, 17):
        assert T.dims[(0, t)] == prim[t], t


def test_fresh_complexes_identical(flagship):
    """Two complexes built from scratch give the same table, byte for byte."""
    _, _, H2, _ = flagship
    T1, T2 = (
        ext_dims(CobarComplex(H2, s_max=2, t_min=-12, t_max=12))
        for _ in range(2)
    )
    assert T1.dims == T2.dims
    assert T1.to_csv() == T2.to_csv()
    assert T1.to_dict() == T2.to_dict()


def test_ext_dims_is_serial(flagship):
    _, _, H2, _ = flagship
    C = CobarComplex(H2, s_max=1, t_min=0, t_max=4)
    with pytest.raises(InputError, match="parallel must be 1"):
        ext_dims(C, parallel=2)


def test_stable_range_flagship_slice(flagship):
    """A small slice of the change-of-rings agreement: both complexes give
    the same stable-range dimensions (full window in the acceptance run)."""
    _, H1, H2, _ = flagship
    dims = {}
    for H in (H1, H2):
        C = CobarComplex(H, s_max=1, t_min=-8, t_max=8)
        dims[H.name] = {
            (s, t): C.ext_dim_stable(s, t, 24)
            for s in (0, 1)
            for t in (-8, -4, 0, 4, 8)
        }
    a, b = dims.values()
    assert a == b
    assert a[(0, 0)] == 1 and a[(1, 4)] == 1


def test_base_generators_may_follow_morphism_generators():
    """eta_L(a) lands on the base generators wherever Gamma lists them:
    F_3[v] tensor Ext of F_3[x]/(x^3), whichever generator comes first."""
    tables = [
        ext_dims(
            CobarComplex(line_over_v(order), s_max=3, t_min=0, t_max=16),
            check_d2=True,
        )
        for order in (("v", "x"), ("x", "v"))
    ]
    assert tables[0].to_csv() == tables[1].to_csv()
    classes = {(0, 0), (1, 2), (2, 6), (3, 8)}
    assert tables[0].nonzero() == sorted(
        ((s, t + 4 * k), 1)
        for s, t in classes
        for k in range(5)
        if t + 4 * k <= 16
    )


def _frozen_table(name):
    """(s, t) -> dim from a table frozen under perfbench/reference."""
    path = os.path.join(
        os.path.dirname(__file__), "..", "perfbench", "reference", name
    )
    with open(path, encoding="utf-8") as fh:
        _, *rows = fh.read().splitlines()
    return {
        (s, t): d for s, t, d in (map(int, row.split(",")) for row in rows)
    }


def test_stable_tables_match_frozen_reference(flagship):
    """The flagship table (inner weight 36) on a small window of both
    pairs, against the answer frozen with the benchmark and against the
    Miller-Ravenel closed form: at p=3, Ext of v1^-1BP_*/I1 is
    K(1)_* (x) E(zeta_1) (Ravenel, Complex Cobordism, ch. 6), one class
    exactly when s is 0 or 1 and t is a multiple of |v1| = 4."""
    _, H1, H2, _ = flagship
    want = _frozen_table("change_of_rings.csv")
    for H in (H1, H2):
        C = CobarComplex(H, s_max=3, t_min=-16, t_max=16)
        for s in range(4):
            for t in range(-16, 17):
                got = C.ext_dim_stable(s, t, 36)
                assert got == want.get((s, t), 0), (H.name, s, t)
                assert got == (s <= 1 and t % 4 == 0), (H.name, s, t)


def test_plain_table_matches_frozen_reference():
    from hopfalg.fgl import assemble_bp, quotient_localize

    H = quotient_localize(assemble_bp(2, 16, max_gens=3), 1)
    want = _frozen_table("plain_ext_p2.csv")
    C = CobarComplex(H, s_max=3, t_min=-16, t_max=16)
    for s in range(4):
        for t in range(-16, 17):
            assert C.ext_dim(s, t) == want.get((s, t), 0), (s, t)


def test_compare_ext_reports_first_disagreement():
    H = primitive_line(3, 2, 3)
    C = CobarComplex(H, s_max=2, t_min=0, t_max=8)
    T1 = ext_dims(C)
    T2 = ext_dims(C)
    assert compare_ext(T1, T2) == []
    T2.dims[(1, 2)] = 5
    assert compare_ext(T1, T2) == [(1, 2, 1, 5)]


def test_mode_guards():
    from hopfalg.hopf import HopfAlgebroid

    mode = BaseMode("int")
    A = GradedPresentation(mode, [], truncation=8)
    Gamma = GradedPresentation(
        mode, [("x", 2)], relations={"x": (2, [])}, truncation=8
    )
    H_int = HopfAlgebroid(
        A, Gamma, [0], RingMorphism(A, Gamma, []),
        {"x": A.zero()}, {"x": -Gamma.gen(0)},
        lambda ts: {"x": ts.incl_l(Gamma.gen(0)) + ts.incl_r(Gamma.gen(0))},
    )
    with pytest.raises(InputError):
        CobarComplex(H_int)
    with pytest.raises(InputError):
        CobarComplex(primitive_line(3, 3, 3))  # odd degree off char 2
    from hopfalg.comodule import unit_comodule

    H = primitive_line(3, 2, 3)
    with pytest.raises(InputError, match="not over this algebroid"):
        CobarComplex(H, M=unit_comodule(primitive_line(3, 2, 3)))
    with pytest.raises(InputError, match="s_max"):
        CobarComplex(H, s_max=-1)
    with pytest.raises(InputError, match="empty t window"):
        CobarComplex(H, t_min=1, t_max=0)


# ---------------------------------------------------------------------------
# the assembled differential against a face-by-face reference


def _slide(C, coeff, slots):
    """Slide the A-coefficients of slots[1:] leftwards into slots[0], slot
    by slot from the right, branching per monomial and dropping degenerate
    slots: a list of (coefficient, first-slot Gamma-element, words of the
    later slots).  A trivial A-coefficient carries nothing: the slots are
    in normal form, so multiplying by eta_R(1) = 1 would not change them."""
    p = C.p
    branches = [(coeff, (), None)]
    for i in range(len(slots) - 1, 0, -1):
        new = []
        for c, ws, carry in branches:
            g = slots[i] if carry is None else slots[i] * carry
            for mono, cc in g.terms.items():
                a_part, w_part = C._split_gamma_mono(mono)
                if not any(w_part):
                    continue  # degenerate slot
                new.append(
                    (
                        c * int(cc) % p,
                        (w_part,) + ws,
                        C._etaR_monomial(a_part) if any(a_part) else None,
                    )
                )
        branches = new
    return [
        (c, slots[0] if carry is None else slots[0] * carry, ws)
        for c, ws, carry in branches
    ]


def _reduce_word(C, coeff, outer, slots, mgen, acc):
    """Accumulate the canonical coordinates of
    eta_L(outer) * slots[0] (x) ... (x) slots[-1] (x) mgen into acc."""
    p = C.p
    for c, g, ws in _slide(C, coeff, slots):
        if outer is not None:
            g = C._etaL_monomial(outer) * g
        for mono, cc in g.terms.items():
            a_part, w_part = C._split_gamma_mono(mono)
            if not any(w_part):
                continue
            k = (a_part, (w_part,) + ws, mgen)
            acc[k] = (acc.get(k, 0) + c * int(cc)) % p


def _element(C, terms):
    """The Gamma-element of the split terms `_dbar` and `_psi_reduced`
    store."""
    return C.H.Gamma.element([(cc, mono) for _, _, cc, mono in terms])


def reference_d_of_key(C, key):
    """d of one basis key with every face expanded for this key alone,
    eta_L(a) applied inside each face, and the outer face in two cases
    (s >= 1 with a nontrivial coefficient, and s = 0): the assembly the
    complex used before the a-free faces were shared between keys, with
    every slot of every face slid by `_slide`."""
    a, word, mgen = key
    H = C.H
    s = len(word)
    acc = {}
    word_elems = [H.Gamma.monomial_element(w) for w in word]
    if s >= 1 and any(a):
        _reduce_word(
            C, 1, None, [C._etaR_monomial(a)] + word_elems, mgen, acc
        )
    for i in range(1, s + 1):
        sign = -1 if i % 2 else 1
        for c, terms, rmono in C._dbar(word[i - 1]):
            slots = (
                word_elems[: i - 1]
                + [_element(C, terms), H.Gamma.monomial_element(rmono)]
                + word_elems[i:]
            )
            _reduce_word(C, sign * int(c) % C.p, a, slots, mgen, acc)
    sign = -1 if (s + 1) % 2 else 1
    for other, terms in C._psi_reduced[mgen]:
        _reduce_word(C, sign, a, word_elems + [_element(C, terms)], other, acc)
    if s == 0:
        _reduce_word(
            C, -sign % C.p, None, [C._etaR_monomial(a)], mgen, acc
        )
    return {k: v for k, v in acc.items() if v % C.p}


def _reference_differential(C, s, t):
    src = C.basis(s, t)
    pos = {k: i for i, k in enumerate(C.basis(s + 1, t))}
    mat = [[0] * len(src) for _ in range(len(pos))]
    for j, k in enumerate(src):
        for outk, c in reference_d_of_key(C, k).items():
            if outk not in pos:
                raise AssertionError("differential leaves the basis")
            mat[pos[outk]][j] = c
    return mat


def _outcome(differential, C, s, t):
    """The matrix, or the exception type for a key outside the basis."""
    try:
        return differential(C, s, t)
    except AssertionError as exc:
        return type(exc)


def assert_differentials_match(H, M, s_max, t_min, t_max):
    """Fresh complexes on both sides, so that no cache is shared."""
    C = CobarComplex(H, M=M)
    R = CobarComplex(H, M=M)
    for s in range(s_max + 1):
        for t in range(t_min, t_max + 1):
            got = _outcome(CobarComplex.differential, C, s, t)
            want = _outcome(_reference_differential, R, s, t)
            assert got == want, (H.name, M and M.name, s, t)


def test_differential_matches_reference_flagship(flagship):
    _, H1, H2, _ = flagship
    for H in (H1, H2):
        assert_differentials_match(H, None, 2, -12, 12)


def test_differential_matches_reference_p2():
    from hopfalg.fgl import assemble_bp, quotient_localize

    H = quotient_localize(assemble_bp(2, 16, max_gens=3), 1)
    assert_differentials_match(H, None, 2, -16, 16)


def test_differential_matches_reference_comodules(flagship):
    """Includes the t1-extension, whose coaction has an off-diagonal
    term, and windows where a key leaves the enumerated basis."""
    for M in comodule_catalog(mu2_algebroid(), flagship):
        assert_differentials_match(M.H, M, 3, -16, 16)


def _v1t1_extension(H):
    """psi(m1) = 1 (x) m1 + v1*t1 (x) m0 over the source pair: the one
    comodule here whose coaction term has a nontrivial A-part, so the
    coaction face carries it into the word.  v1 is primitive there."""
    from hopfalg.comodule import Comodule

    G = H.Gamma
    v1t1 = G.gen(G.names.index("v1")) * G.gen(G.names.index("t1"))
    return Comodule(
        H,
        [("m0", 0), ("m1", 8)],
        {"m0": [(G.one(), "m0")], "m1": [(G.one(), "m1"), (v1t1, "m0")]},
        name="v1t1-extension/source-pair",
    )


def test_coaction_face_carries_an_a_part(flagship):
    """d against both references on every key at s <= 2, |t| <= 16.  As
    on the t1-extension, the coaction face adds t1 to the key weight, so
    some terms of d lie above D."""
    from hopfalg.comodule import check_comodule

    _, H1, _, _ = flagship
    M = _v1t1_extension(H1)
    assert check_comodule(M).ok
    assert_differentials_match(H1, M, 2, -16, 16)
    C = CobarComplex(H1, M=M, s_max=2, t_min=-16, t_max=16)
    assert _coface_split(C, range(-16, 17)) == (5040, 630)


# sha256 of the columns of d_{s,t}, s <= 2, over one period of t from -16,
# as `repr` prints them (their dict order included)
DIFFERENTIAL_COLUMN_HASHES = {
    "source": "b42651e353870d55fc19d3389238b97cd6402c99020820545cf9d01d6e0d2ce4",
    "induced": "c1401dc40a1eaa527876a0edd6341e6c160bcfae21b4b0999737b5f3d009b892",
    "p2": "654515cccbdeb8ee502a40bbe7695f6d44119bbce95c34b0c5bf16a6fe9512e3",
}


def test_differential_columns_are_frozen(flagship):
    """Every column of the assembled differential, bit for bit, on the two
    flagship pairs and the p=2 pair."""
    _, H1, H2, _ = flagship
    got = {}
    for name, H in (("source", H1), ("induced", H2), ("p2", _p2_pair())):
        C = CobarComplex(H, s_max=2, t_min=-16, t_max=16)
        cols = [
            [list(col.items()) for col in C.d_columns(s, t)]
            for s in range(3)
            for t in range(-16, -16 + C.period())
        ]
        got[name] = hashlib.sha256(repr(cols).encode()).hexdigest()
    assert got == DIFFERENTIAL_COLUMN_HASHES


# ---------------------------------------------------------------------------
# d against the coface maps, sharing no code with the complex


class CofaceReference:
    """d of a basis key as the alternating sum of the coface maps
    Gamma^{(x)s} (x)_A M -> Gamma^{(x)s+1} (x)_A M, projected onto the
    nondegenerate keys, built from `hopf.TensorPower` and `RingMorphism`
    alone.  The key (a, w_1|...|w_s, m) is eta_L(a) w_1 (x) ... (x) w_s
    (x) m, and the cofaces are 1 (x) x, Delta in factor i, and x (x) gamma
    for each coaction term gamma (x) m' of m.  Every product is taken in
    the target tensor power, whose factor inclusions carry the balanced
    relation, so no coefficient is slid by hand.  k = 1 is Gamma itself,
    since a TensorPower has k >= 2."""

    def __init__(self, H, M):
        self.H, self.M = H, M
        self._powers = {}
        self._into = {}

    def _power(self, k):
        """(presentation, factor inclusions, monomial splitter) of
        Gamma^{(x)k}."""
        got = self._powers.get(k)
        if got is None:
            H = self.H
            if k == 1:
                got = (H.Gamma, [identity_morphism(H.Gamma)], lambda m: (m,))
            else:
                T = TensorPower(H.A, H.Gamma, H.morphism_order, H.etaR, k)
                got = (T.pres, list(T.inclusions()), T.split_monomial)
            self._powers[k] = got
        return got

    def _square_into(self, k, i):
        """The tensor square into factors i, i+1 of Gamma^{(x)k}."""
        got = self._into.get((k, i))
        if got is None:
            H, G = self.H, self.H.Gamma
            P, incl, _ = self._power(k)
            got = self._into[(k, i)] = RingMorphism(
                H.ts.pres,
                P,
                [incl[i](G.gen(g)) for g in range(len(G.gens))]
                + [incl[i + 1](G.gen(g)) for g in H.morphism_order],
            )
        return got

    def d(self, key):
        H, G = self.H, self.H.Gamma
        a, word, mgen = key
        s = len(word)
        _, incl, split = self._power(s + 1)
        coeff = H.A.monomial_element(a)
        ys = [G.monomial_element(w) for w in word]
        left = incl[0](H.etaL(coeff))
        faces = [  # (sign, module generator, factors of the product)
            (1, mgen, [incl[0](H.etaR(coeff))]
             + [incl[j + 1](y) for j, y in enumerate(ys)])
        ]
        for i in range(s):
            into = self._square_into(s + 1, i)
            faces.append(((-1) ** (i + 1), mgen, [left] + [
                incl[j](y) if j < i else into(H.delta(y)) if j == i
                else incl[j + 1](y)
                for j, y in enumerate(ys)
            ]))
        for other, gamma in self.M.psi[mgen].items():
            faces.append(((-1) ** (s + 1), other, [left] + [
                incl[j](y) for j, y in enumerate(ys)
            ] + [incl[s](gamma)]))
        p = G.mode.p
        acc = {}
        for sign, out, factors in faces:
            for mono, c in functools.reduce(operator.mul, factors).terms.items():
                first, *rest = split(mono)
                ws = (
                    tuple(e * (g in H.morphism_gens) for g, e in enumerate(first)),
                    *rest,
                )
                if all(map(any, ws)):
                    k = (tuple(first[g] for g in H.base_order), ws, out)
                    acc[k] = (acc.get(k, 0) + sign * int(c)) % p
        return {k: c for k, c in acc.items() if c}


def _coface_split(C, ts):
    """(keys, terms of d above the weight cap D) over s <= s_max and t in
    ts; on every term of weight <= D, `d_of_key` equals the coface
    reference."""
    ref = CofaceReference(C.H, C.M)
    keys = above = 0
    for s in range(C.s_max + 1):
        for t in ts:
            for key in C.basis(s, t):
                d = C.d_of_key(key)
                low = {k: c for k, c in d.items() if C.key_weight(k) <= C.D}
                assert low == ref.d(key), (C.H.name, C.M.name, key)
                keys += 1
                above += len(d) - len(low)
    return keys, above


@pytest.mark.parametrize(
    "pair, s_max, window, keys",
    [("source", 3, 32, 933), ("induced", 3, 32, 160), ("p2", 4, 16, 408)],
)
def test_d_is_the_sum_of_the_cofaces(flagship, pair, s_max, window, keys):
    """Every key of one period, s <= s_max; no term of d lies above D."""
    _, H1, H2, _ = flagship
    H = {"source": H1, "induced": H2}.get(pair) or _p2_pair()
    C = CobarComplex(H, s_max=s_max, t_min=-window, t_max=window)
    period = range(-window, -window + C.period())
    assert _coface_split(C, period) == (keys, 0)


def test_d_is_the_sum_of_the_cofaces_comodules(mu2, flagship):
    """Every key at s <= 2, |t| <= 16.  The t1-extension's d has terms
    above D, where it leaves the enumerated basis: the reference's
    products truncate them, and every other comodule's d has none."""
    split = {}
    for M in comodule_catalog(mu2, flagship):
        C = CobarComplex(M.H, M=M, s_max=2, t_min=-16, t_max=16)
        split[M.name] = _coface_split(C, range(-16, 17))
    assert sum(keys for keys, _ in split.values()) == 3428
    assert {name: above for name, (_, above) in split.items() if above} == {
        "t1-extension/induced-pair": 54
    }


# ---------------------------------------------------------------------------
# the stable-range dimension against kernel-plus-extension


def reference_ext_dim_stable(C, s, t, inner, inner_columns=None):
    """dim of the image H^{s,t}(C_{<=inner}) -> H^{s,t}(C) as the complex
    computed it before it took ranks alone: a kernel basis of d_{s,t} on
    the inner columns, then rank(Z_in + B) - rank(B) by extending an
    echelon form of the boundaries B with those cycles.  The inner
    columns, (position, column) pairs, default to those of `d_columns`."""
    basis_s = C.basis(s, t)
    if not basis_s:
        return 0
    if inner_columns is None:
        d_out = C.d_columns(s, t)
        inner_columns = [
            (j, d_out[j])
            for j, k in enumerate(basis_s)
            if C.key_weight(k) <= inner
        ]
    cycles = linalg.kernel_fp(inner_columns, C.p)
    if s == 0:
        return len(cycles)
    pivots, _ = linalg.echelon(
        ((dict(col), None) for col in C.d_columns(s - 1, t)), C.p
    )
    rank_b = len(pivots)
    pivots, _ = linalg.echelon(((z, None) for z in cycles), C.p, pivots)
    return len(pivots) - rank_b


def _p2_pair():
    from hopfalg.fgl import assemble_bp, quotient_localize

    return quotient_localize(assemble_bp(2, 16, max_gens=3), 1)


def _bidegrees(C):
    return [
        (s, t)
        for s in range(C.s_max + 1)
        for t in range(C.t_min, C.t_max + 1)
    ]


def assert_stable_matches_reference(C, inners):
    for s, t in _bidegrees(C):
        for inner in inners:
            assert C.ext_dim_stable(s, t, inner) == reference_ext_dim_stable(
                C, s, t, inner
            ), (C.H.name, s, t, inner)


def test_stable_rank_formula_matches_reference_flagship(flagship):
    _, H1, H2, _ = flagship
    for H in (H1, H2):
        C = CobarComplex(H, s_max=3, t_min=-32, t_max=32)
        assert_stable_matches_reference(C, (24, 36, 48))


def test_stable_rank_formula_matches_reference_p2():
    C = CobarComplex(_p2_pair(), s_max=3, t_min=-16, t_max=16)
    assert_stable_matches_reference(C, (8, 12, 16))


def test_stable_rank_formula_matches_reference_comodules(flagship):
    """Bidegrees where the differential leaves the enumerated basis have
    no dimension on either side and are skipped."""
    for M in comodule_catalog(mu2_algebroid(), flagship):
        C = CobarComplex(M.H, M=M, s_max=3, t_min=-16, t_max=16)
        for s, t in _bidegrees(C):
            if any(
                _outcome(CobarComplex.d_columns, C, s - d, t) is AssertionError
                for d in (0, 1)
                if s - d >= 0
            ):
                continue
            for inner in range(0, C.D + 1, 8):
                got = C.ext_dim_stable(s, t, inner)
                want = reference_ext_dim_stable(C, s, t, inner)
                assert got == want, (M.name, s, t, inner)


def test_stable_rank_formula_edge_cases(flagship):
    """With every key inside, the stable dimension is the plain one; with
    none inside, it is 0."""
    _, H1, H2, _ = flagship
    for H, window in ((H1, 32), (H2, 32), (_p2_pair(), 16)):
        C = CobarComplex(H, s_max=3, t_min=-window, t_max=window)
        for s, t in _bidegrees(C):
            weights = [C.key_weight(k) for k in C.basis(s, t)]
            if not weights:
                continue
            assert C.ext_dim_stable(s, t, max(weights)) == C.ext_dim(s, t), (
                H.name, s, t
            )
            assert C.ext_dim_stable(s, t, min(weights) - 1) == 0, (
                H.name, s, t
            )


# ---------------------------------------------------------------------------
# the top differential: inner columns only


# the one v1-period t in [-32, -29] that a flagship table computes
_PERIOD = range(-32, -28)


def test_stable_table_differentiates_no_outer_top_key(flagship, monkeypatch):
    """The flagship source table (inner weight 36) differentiates, over
    the one period it computes, every key below s_max and only the inner
    keys at s_max, and no key at any other t; the ranks it caches on the
    way are the full ranks, and the table is the frozen one."""
    _, H1, _, _ = flagship
    visited = set()
    d_of_key = CobarComplex.d_of_key

    def counting(self, key):
        visited.add(key)
        return d_of_key(self, key)

    monkeypatch.setattr(CobarComplex, "d_of_key", counting)
    C = CobarComplex(H1, s_max=3, t_min=-32, t_max=32)
    T = ext_dims(C, inner=36)
    monkeypatch.undo()
    want = _frozen_table("change_of_rings.csv")
    assert T.dims == {st: want.get(st, 0) for st in _bidegrees(C)}
    in_period = set()
    for s in range(C.s_max + 1):
        for t in _PERIOD:
            keys = C.basis(s, t)
            in_period.update(keys)
            if s < C.s_max:
                assert visited.issuperset(keys), (s, t)
                pivots, _ = linalg.echelon(
                    ((dict(col), None) for col in C.d_columns(s, t)), C.p
                )
                assert len(C.d_leads(s, t)) == len(pivots), (s, t)
                if keys:
                    assert C._leads_cache[(s, t)] == sorted(pivots), (s, t)
            else:
                inner = {k for k in keys if C.key_weight(k) <= 36}
                assert visited.intersection(keys) == inner, t
    assert visited <= in_period
    assert sum(C.key_weight(k) > 36 for k in C.basis(3, -32)) > 0


def _inner_reference_columns(C, s, t, inner):
    """The inner columns of d_{s,t}, face by face."""
    pos = {k: i for i, k in enumerate(C.basis(s + 1, t))}
    return [
        (j, {pos[outk]: c for outk, c in reference_d_of_key(C, k).items()})
        for j, k in enumerate(C.basis(s, t))
        if C.key_weight(k) <= inner
    ]


def test_top_level_answers_where_an_outer_column_leaves_the_basis(flagship):
    """On the t1-extension with s_max = 1, every d_{1,t} has an outer
    column that leaves the enumerated basis, so the plain table raises;
    the stable table reads only the inner columns of d_{1,t} and matches
    kernel-plus-extension over the face-by-face inner columns."""
    M = next(
        M for M in comodule_catalog(mu2_algebroid(), flagship)
        if M.name == "t1-extension/induced-pair"
    )
    C = CobarComplex(M.H, M=M, s_max=1, t_min=-16, t_max=16)
    with pytest.raises(AssertionError, match="leaves the enumerated basis"):
        ext_dims(CobarComplex(M.H, M=M, s_max=1, t_min=-16, t_max=16))
    T = ext_dims(C, inner=16)
    for t in range(-16, 17, 4):
        assert _outcome(CobarComplex.d_columns, C, 1, t) is AssertionError
        want = reference_ext_dim_stable(
            C, 1, t, 16, _inner_reference_columns(C, 1, t, 16)
        )
        assert T.dims[(1, t)] == want, t
    assert T.dims[(1, 0)] == 1


# ---------------------------------------------------------------------------
# heaviest-first bases: one elimination per differential


def test_bases_are_heaviest_first(flagship):
    """Weights never increase along a basis, keys of one weight are in
    key order, and no key repeats: the keys above any cap are a prefix."""
    _, H1, H2, _ = flagship
    M = next(
        M for M in comodule_catalog(mu2_algebroid(), flagship)
        if M.name == "t1-extension/induced-pair"
    )
    for C in (
        CobarComplex(H1, s_max=3, t_min=-32, t_max=32),
        CobarComplex(H2, s_max=3, t_min=-32, t_max=32),
        CobarComplex(M.H, M=M, s_max=3, t_min=-16, t_max=16),
    ):
        for s in range(C.s_max + 2):
            for t in range(C.t_min, C.t_max + 1):
                basis = C.basis(s, t)
                ranked = [(-C.key_weight(k), k) for k in basis]
                assert ranked == sorted(ranked), (C.H.name, s, t)
                assert len(set(basis)) == len(basis), (C.H.name, s, t)


def assert_inner_leads_count_boundaries_inside(C, inners):
    """The leads of d_{s-1,t} at positions >= n_out number dim(B n C_in),
    taken here by the rank formula the lead count replaced: rank d_{s-1,t}
    - rank(P_out d_{s-1,t}), with P_out keeping the rows of weight >
    inner."""
    for s in (1, 2):
        for t in range(C.t_min, C.t_max + 1):
            cols = C.d_columns(s - 1, t)
            full = linalg.rank(cols, C.p)
            leads = C.d_leads(s - 1, t)
            assert len(leads) == full, (C.H.name, s, t)
            weights = [C.key_weight(k) for k in C.basis(s, t)]
            for inner in inners:
                n_out = sum(w > inner for w in weights)
                projected = [
                    {r: c for r, c in col.items() if weights[r] > inner}
                    for col in cols
                ]
                assert sum(lead >= n_out for lead in leads) == (
                    full - linalg.rank(projected, C.p)
                ), (C.H.name, s, t, inner)


def test_inner_leads_count_boundaries_inside_flagship(flagship):
    _, H1, H2, _ = flagship
    for H in (H1, H2):
        C = CobarComplex(H, s_max=2, t_min=-32, t_max=32)
        assert_inner_leads_count_boundaries_inside(C, range(0, C.D + 1, 8))


def test_inner_leads_count_boundaries_inside_p2():
    C = CobarComplex(_p2_pair(), s_max=2, t_min=-16, t_max=16)
    assert_inner_leads_count_boundaries_inside(C, range(0, C.D + 1, 8))


def test_stable_table_feeds_each_column_to_one_elimination(
    flagship, monkeypatch
):
    """Over one flagship stable table, `linalg.echelon` receives every
    column of d_{s,t} for s < s_max and the inner columns at s_max, each
    once, for the t of the one period it computes, and no column at any
    other t: no second pass over d_{s-1,t} for the outer rows."""
    _, H1, _, _ = flagship
    fed = []
    echelon = linalg.echelon

    def counting(vectors, char, pivots=None):
        vectors = list(vectors)
        fed.append(len(vectors))
        return echelon(vectors, char, pivots)

    monkeypatch.setattr(linalg, "echelon", counting)
    C = CobarComplex(H1, s_max=3, t_min=-32, t_max=32)
    T = ext_dims(C, inner=36)
    monkeypatch.undo()
    want = _frozen_table("change_of_rings.csv")
    assert T.dims == {st: want.get(st, 0) for st in _bidegrees(C)}
    below = sum(
        len(C.basis(s, t)) for s in range(C.s_max) for t in _PERIOD
    )
    top = sum(
        C.key_weight(k) <= 36 for t in _PERIOD for k in C.basis(3, t)
    )
    assert sum(fed) == below + top
    assert {t for _, t in C._basis_cache} <= set(_PERIOD)


# ---------------------------------------------------------------------------
# one v_n-period: ext_dims computes t in [t_min, t_min + |u|) and fills
# the rest of the window by the shift


def _per_bidegree(C, inner=None):
    """C's table by one `ext_dim_stable` per bidegree on a fresh complex:
    the oracle for the shift."""
    F = CobarComplex(C.H, M=C.M, s_max=C.s_max, t_min=C.t_min, t_max=C.t_max)
    inner = math.inf if inner is None else inner
    return {(s, t): F.ext_dim_stable(s, t, inner) for s, t in _bidegrees(F)}


def assert_shift_matches_per_bidegree(C, inner=None, check_d2=False):
    assert C.period() is not None
    T = ext_dims(C, check_d2=check_d2, inner=inner)
    assert T.dims == _per_bidegree(C, inner), C.H.name


def test_shift_matches_per_bidegree_flagship(flagship):
    """Both flagship pairs, on the full window, on one that starts off a
    multiple of |v1| = 4, and on one narrower than a period."""
    _, H1, H2, _ = flagship
    for H in (H1, H2):
        assert CobarComplex(H).period() == 4
        for t_min, t_max in ((-32, 32), (-31, 29), (-31, -30)):
            C = CobarComplex(H, s_max=3, t_min=t_min, t_max=t_max)
            assert_shift_matches_per_bidegree(C, inner=36)


def test_shift_matches_per_bidegree_height_2():
    """Both height-2 pairs at p=3, D=52: |v2| = 16."""
    from hopfalg.fgl import assemble_bp, johnson_wilson, quotient_localize

    bp = assemble_bp(3, 52, max_gens=3)
    for H in (quotient_localize(bp, 2), johnson_wilson(bp, 2, 2)[0]):
        C = CobarComplex(H, s_max=2, t_min=-32, t_max=32)
        assert C.period() == 16
        assert_shift_matches_per_bidegree(C, inner=40)


def test_shift_matches_per_bidegree_p2_plain():
    """The plain p=2 table with the d^2 = 0 check: |v1| = 2."""
    C = CobarComplex(_p2_pair(), s_max=4, t_min=-16, t_max=16)
    assert C.period() == 2
    assert_shift_matches_per_bidegree(C, check_d2=True)


def test_shift_matches_per_bidegree_comodule(flagship):
    """The stable table of the t1-extension: the shift holds for a
    comodule, whose faces are A-linear in the outer coefficient."""
    M = next(
        M for M in comodule_catalog(mu2_algebroid(), flagship)
        if M.name == "t1-extension/induced-pair"
    )
    C = CobarComplex(M.H, M=M, s_max=1, t_min=-16, t_max=16)
    assert_shift_matches_per_bidegree(C, inner=16)


def _bump(key, i, e):
    a, word, mgen = key
    return (a[:i] + (a[i] + e,) + a[i + 1:], word, mgen)


def test_basis_and_columns_shift_by_the_period(flagship):
    """Bumping v1's exponent maps basis(s, t) onto basis(s, t + 4) in
    order, and d_columns(s, t + 4) == d_columns(s, t), for s <= 2."""
    _, H1, H2, _ = flagship
    for H in (H1, H2):
        C = CobarComplex(H, s_max=2, t_min=-32, t_max=32)
        period = C.period()
        (i,) = H.A.inverted
        for s in range(3):
            for t in range(-32, 33 - period):
                assert C.basis(s, t + period) == [
                    _bump(k, i, 1) for k in C.basis(s, t)
                ], (H.name, s, t)
                assert C.d_columns(s, t + period) == C.d_columns(s, t), (
                    H.name, s, t
                )


def test_line_over_a_unit_has_its_period():
    """The period is |u|, whatever the sign of u's degree."""
    from hopfalg.hopf import check_hopf_axioms

    for udeg in (4, -4):
        H = line_over_unit(udeg)
        assert check_hopf_axioms(H, 16).ok
        C = CobarComplex(H, s_max=3, t_min=-16, t_max=16)
        assert C.period() == 4
        assert_shift_matches_per_bidegree(C, check_d2=True)


def test_a_unit_that_is_not_primitive_has_no_period(monkeypatch):
    """mu_2 acting on u: eta_R(u) = u*g, so u is not a cocycle and the
    table is not u-periodic.  Forcing the shift would make u a class.
    u^2 is primitive, so a window of width at least 8 has period 8, and
    one narrower than 8 has none."""
    from hopfalg.hopf import check_hopf_axioms

    H = mu2_on_unit()
    assert check_hopf_axioms(H, 8).ok
    window = dict(s_max=0, t_min=0, t_max=4)
    C = CobarComplex(H, **window)
    assert C.period() is None
    T = ext_dims(C)
    assert T.dims[(0, 0)] == 1 and T.dims[(0, 4)] == 0
    for t_min, t_max in ((-8, 16), (-3, 4), (0, 23)):
        C = CobarComplex(H, s_max=2, t_min=t_min, t_max=t_max)
        assert C.period() == 8
        assert_shift_matches_per_bidegree(C, check_d2=True)
    T = ext_dims(CobarComplex(H, s_max=0, t_min=-8, t_max=16))
    assert [T.dims[(0, t)] for t in range(-8, 17, 4)] == [1, 0, 1, 0, 1, 0, 1]
    monkeypatch.setattr(CobarComplex, "period", lambda self: 4)
    assert ext_dims(CobarComplex(H, **window)).dims[(0, 4)] == 1


def test_no_inverted_generator_no_period():
    for H in (mu2_algebroid(), primitive_line(3, 2, 3)):
        assert CobarComplex(H, s_max=1, t_min=0, t_max=8).period() is None


def test_a_long_window_costs_one_period(flagship):
    """|t| <= 4000 builds the bases of one period only, agrees with the
    |t| <= 32 table, and is the Miller-Ravenel closed form throughout."""
    _, H1, _, _ = flagship
    C = CobarComplex(H1, s_max=3, t_min=-4000, t_max=4000)
    start = time.monotonic()
    T = ext_dims(C, inner=36)
    elapsed = time.monotonic() - start
    assert {t for _, t in C._basis_cache} <= set(range(-4000, -3996))
    small = ext_dims(CobarComplex(H1, s_max=3, t_min=-32, t_max=32), inner=36)
    assert all(T.dims[st] == d for st, d in small.dims.items())
    assert all(
        d == (s <= 1 and t % 4 == 0) for (s, t), d in T.dims.items()
    )
    assert elapsed < 5, elapsed


# ---------------------------------------------------------------------------
# sparsest-first elimination: the leads depend only on the span


def assert_sorted_elimination_matches_unsorted(C, inners):
    """`_eliminate` feeds each group of columns to `echelon` sorted by
    nonzero count; its inner rank and cached leads equal those of the
    columns in basis order, and the sort does reorder some of them."""
    reordered = False
    for s in range(3):
        for t in range(C.t_min, C.t_max + 1):
            cols = C.d_columns(s, t)
            sizes = [len(c) for c in cols]
            reordered = reordered or sizes != sorted(sizes)
            weights = [C.key_weight(k) for k in C.basis(s, t)]
            for inner in inners:
                n_out = sum(w > inner for w in weights)
                C._leads_cache.pop((s, t), None)
                rank_in = C._eliminate(s, t, n_out)
                pivots, _ = linalg.echelon(
                    ((dict(c), None) for c in cols[n_out:]), C.p
                )
                assert rank_in == len(pivots), (C.H.name, s, t, inner)
                linalg.echelon(
                    ((dict(c), None) for c in cols[:n_out]), C.p, pivots
                )
                assert C._leads_cache[(s, t)] == sorted(pivots), (
                    C.H.name, s, t, inner
                )
    assert reordered, C.H.name


def test_sorted_elimination_matches_unsorted_flagship(flagship):
    _, H1, H2, _ = flagship
    for H in (H1, H2):
        C = CobarComplex(H, s_max=3, t_min=-32, t_max=-29)
        assert_sorted_elimination_matches_unsorted(C, (24, 36, math.inf))


def test_sorted_elimination_matches_unsorted_p2():
    C = CobarComplex(_p2_pair(), s_max=3, t_min=-16, t_max=-15)
    assert_sorted_elimination_matches_unsorted(C, (8, 12, math.inf))


def test_p2_tables_match_the_closed_form():
    """Both p=2 pairs at D=32 (three generators, inner 24, s <= 3, |t| <=
    16) against K(1)_* (x) H*(S(1))."""
    from hopfalg.fgl import assemble_bp, johnson_wilson, quotient_localize

    bp = assemble_bp(2, 32, max_gens=3)
    for H in (quotient_localize(bp, 1), johnson_wilson(bp, 1, 1)[0]):
        T = ext_dims(CobarComplex(H, s_max=3, t_min=-16, t_max=16), inner=24)
        for (s, t), d in T.dims.items():
            assert d == oracle_ext_dim_s1_p2(s, t), (H.name, s, t)
