"""Cobar-complex cohomology against an independent hand-rolled oracle."""
import itertools
import os

import pytest

from hopfalg import linalg
from hopfalg.cobar import CobarComplex, compare_ext, ext_dims, primitive_dims
from hopfalg.errors import DegreeError, InputError
from hopfalg.presentation import BaseMode, GradedPresentation

from conftest import mu2_algebroid, primitive_line
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


def test_d_squared_detects_a_corrupted_differential():
    C = CobarComplex(primitive_line(3, 2, 3), s_max=3, t_min=0, t_max=12)
    s, t = 2, 8
    assert C.d_squared_is_zero(s, t)
    d1 = C.differential(s + 1, t)
    r = next(k for k in range(len(d1[0])) if any(row[k] for row in d1))
    col = C.d_columns(s, t)[0]  # the cached column, corrupted in place
    col[r] = (col.get(r, 0) + 1) % C.p
    if not col[r]:
        del col[r]
    assert not C.d_squared_is_zero(s, t)


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


def _line_over_v(order):
    """(F_3[v], F_3[v][x]/(x^3)), |v| = 4, |x| = 2, x primitive, with
    Gamma's generators listed in `order`."""
    from hopfalg.hopf import HopfAlgebroid
    from hopfalg.presentation import RingMorphism

    mode = BaseMode("fp", 3)
    A = GradedPresentation(mode, [("v", 4)], truncation=16)
    degrees = {"x": 2, "v": 4}
    Gamma = GradedPresentation(
        mode, [(g, degrees[g]) for g in order],
        relations={"x": (3, [])}, truncation=16,
    )
    x, v = Gamma.index["x"], Gamma.index["v"]
    etaL = RingMorphism(A, Gamma, [Gamma.gen(v)])
    eps = RingMorphism(
        Gamma, A, [A.zero() if g == "x" else A.gen(0) for g in order]
    )
    c = RingMorphism(
        Gamma, Gamma,
        [-Gamma.gen(x) if g == "x" else Gamma.gen(v) for g in order],
    )
    # tensor-square generators: Gamma's, then the right copy of x
    left = tuple(int(i == x) for i in range(2)) + (0,)
    return HopfAlgebroid(
        A, Gamma, [x], etaL, etaL, eps, c,
        {"x": [(1, left), (1, (0, 0, 1))]},
    )


def test_base_generators_may_follow_morphism_generators():
    """eta_L(a) lands on the base generators wherever Gamma lists them:
    F_3[v] tensor Ext of F_3[x]/(x^3), whichever generator comes first."""
    tables = [
        ext_dims(
            CobarComplex(_line_over_v(order), s_max=3, t_min=0, t_max=16),
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
    pairs, against the answer frozen with the benchmark."""
    _, H1, H2, _ = flagship
    want = _frozen_table("change_of_rings.csv")
    for H in (H1, H2):
        C = CobarComplex(H, s_max=3, t_min=-16, t_max=16)
        for s in range(4):
            for t in range(-16, 17):
                got = C.ext_dim_stable(s, t, 36)
                assert got == want.get((s, t), 0), (H.name, s, t)


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
    from hopfalg.presentation import RingMorphism

    mode = BaseMode("int")
    A = GradedPresentation(mode, [], truncation=8)
    Gamma = GradedPresentation(
        mode, [("x", 2)], relations={"x": (2, [])}, truncation=8
    )
    etaL = RingMorphism(A, Gamma, [])
    eps = RingMorphism(Gamma, A, [A.zero()])
    c = RingMorphism(Gamma, Gamma, [-Gamma.gen(0)])
    H_int = HopfAlgebroid(
        A, Gamma, [0], etaL, etaL, eps, c,
        {"x": [(1, (1, 0)), (1, (0, 1))]},
    )
    with pytest.raises(DegreeError):
        CobarComplex(H_int)
    with pytest.raises(DegreeError):
        CobarComplex(primitive_line(3, 3, 3))  # odd degree off char 2


# ---------------------------------------------------------------------------
# the assembled differential against a face-by-face reference


def _reduce_word(C, coeff, outer, slots, mgen, acc):
    """Accumulate the canonical coordinates of
    eta_L(outer) * slots[0] (x) ... (x) slots[-1] (x) mgen into acc."""
    p = C.p
    for c, g, ws in C._slide(coeff, slots):
        if outer is not None:
            g = C._etaL_monomial(outer) * g
        for mono, cc in g.terms.items():
            a_part, w_part = C._split_gamma_mono(mono)
            if not any(w_part):
                continue
            k = (a_part, (w_part,) + ws, mgen)
            acc[k] = (acc.get(k, 0) + c * int(cc)) % p


def reference_d_of_key(C, key):
    """d of one basis key with every face expanded for this key alone,
    eta_L(a) applied inside each face, and the outer face in two cases
    (s >= 1 with a nontrivial coefficient, and s = 0): the assembly the
    complex used before the a-free faces were shared between keys."""
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
        for c, lelem, rmono in C._dbar(word[i - 1]):
            if not any(rmono):
                continue
            slots = (
                word_elems[: i - 1]
                + [lelem, H.Gamma.monomial_element(rmono)]
                + word_elems[i:]
            )
            _reduce_word(C, sign * int(c) % C.p, a, slots, mgen, acc)
    sign = -1 if (s + 1) % 2 else 1
    for other, gamma in C._psi_reduced[mgen]:
        _reduce_word(C, sign, a, word_elems + [gamma], other, acc)
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


def test_stable_table_differentiates_no_outer_top_key(flagship, monkeypatch):
    """The flagship source table (inner weight 36) differentiates every
    key below s_max and only the inner keys at s_max; the ranks it caches
    on the way are the full ranks, and the table is the frozen one."""
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
    for s, t in _bidegrees(C):
        keys = C.basis(s, t)
        if s < C.s_max:
            assert visited.issuperset(keys), (s, t)
            pivots, _ = linalg.echelon(
                ((dict(col), None) for col in C.d_columns(s, t)), C.p
            )
            assert C.d_rank(s, t) == len(pivots), (s, t)
        else:
            inner = {k for k in keys if C.key_weight(k) <= 36}
            assert visited.intersection(keys) == inner, t
    assert sum(C.key_weight(k) > 36 for k in C.basis(3, 0)) > 0


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
