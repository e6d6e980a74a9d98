"""The sparse echelon routine and its adapters against the dense
row-by-row loops they replaced, which stay here as the reference: numpy
loops over F_p, Fraction Gauss-Jordan over Q, and the Leibniz
determinant for invertibility over Z, Z_(p) and F_p."""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import example, given, seed
from hypothesis import strategies as st

from hopfalg import linalg
from hopfalg.linalg import (
    apply,
    coordinates,
    echelon,
    is_invertible,
    kernel_fp,
    rank,
    solve,
)
from hopfalg.presentation import BaseMode


def _to_array(rows, p):
    if len(rows) == 0:
        return np.zeros((0, 0), dtype=np.int64)
    return np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64)


def reference_rank_fp(rows, p):
    a = _to_array(rows, p)
    m, n = a.shape
    r = 0
    for col in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i, col] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), -1, p)
        a[r] = (a[r] * inv) % p
        below = a[r + 1 :, col] % p
        nz = np.nonzero(below)[0]
        if nz.size:
            a[r + 1 + nz] = (a[r + 1 + nz] - np.outer(below[nz], a[r])) % p
        r += 1
    return r


def reference_kernel_basis_fp(rows, ncols, p):
    a = _to_array(rows, p)
    if a.size == 0:
        a = np.zeros((0, ncols), dtype=np.int64)
    m = a.shape[0]
    r = 0
    pivots = []
    for col in range(ncols):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i, col] % p:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), -1, p)
        a[r] = (a[r] * inv) % p
        colvals = a[:, col] % p
        nz = [i for i in np.nonzero(colvals)[0] if i != r]
        for i in nz:
            a[i] = (a[i] - colvals[i] * a[r]) % p
        pivots.append(col)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for row, col in enumerate(pivots):
            v[col] = (-int(a[row, free])) % p
        basis.append(v)
    return basis


def reference_solve_fp(rows, rhs, n, p):
    """The augmented-matrix loop `linalg.solve` ran over F_p on dense rows
    with n columns: pivots reduced above and below, free variables set to
    0."""
    m = len(rows)
    a = [[int(x) % p for x in r] + [int(b) % p] for r, b in zip(rows, rhs)]
    r = 0
    pivots = []
    for col in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] % p:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if a[i][n] % p:
            return None
    x = [0] * n
    for row, col in enumerate(pivots):
        x[col] = a[row][n]
    return x


@st.composite
def matrices(draw):
    """(p, rows, ncols): sparse-ish random matrices, entries not reduced."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 9))
    n = draw(st.integers(0, 9))
    entry = st.one_of(st.just(0), st.integers(-7, 7))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    return p, rows, n


@seed(20010513)
@given(matrices())
def test_eliminations_match_reference_loops(case):
    p, rows, ncols = case
    assert linalg.rank_fp(rows, p) == reference_rank_fp(rows, p)
    kernel = linalg.kernel_basis_fp(rows, ncols, p)
    assert kernel == reference_kernel_basis_fp(rows, ncols, p)
    assert all(type(x) is int for v in kernel for x in v)


@st.composite
def systems(draw):
    """(p, rows, ncols, rhs): a matrix and a right-hand side, half the
    time A x for a drawn x, so that consistent systems are common."""
    p, rows, ncols = draw(matrices())
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, p - 1), min_size=ncols,
                          max_size=ncols))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-7, 7), min_size=len(rows),
                            max_size=len(rows)))
    return p, rows, ncols, rhs


def _dicts(rows, p):
    return [{j: x % p for j, x in enumerate(row) if x % p} for row in rows]


@seed(20010517)
@given(systems())
@example((2, [], 0, []))  # empty
@example((3, [[], [], []], 0, [1, 0, 2]))  # zero columns
@example((5, [[0, 0, 0], [0, 5, -10]], 3, [0, 0]))  # all zero mod p
@example((3, [[0, 0], [0, 0]], 2, [0, 4]))  # all zero, inconsistent
def test_echelon_matches_reference_loops(case):
    p, rows, ncols, rhs = case
    pivots, reduced = echelon(((v, None) for v in _dicts(rows, p)), p)
    assert len(pivots) == reference_rank_fp(rows, p)
    assert sum(1 for v, _ in reduced if v) == len(pivots)
    assert all(v[lead] == 1 and min(v) == lead for lead, (v, _) in
               pivots.items())
    columns = _dicts([[row[j] for row in rows] for j in range(ncols)], p)
    kernel = kernel_fp(enumerate(columns), p)
    assert len(kernel) == len(reference_kernel_basis_fp(rows, ncols, p))
    assert all(apply(columns, c, p) == {} for c in kernel)
    mode = BaseMode("fp", p)
    b = {i: x % p for i, x in enumerate(rhs) if x % p}
    assert solve(columns, b, mode) == reference_solve_fp(rows, rhs, ncols, p)
    assert rank(columns, mode.characteristic) == len(pivots)
    # rhs^T A, sparse and dense
    row_dicts = _dicts(rows, p)
    product = [sum(y * row[j] for y, row in zip(rhs, rows)) % p
               for j in range(ncols)]
    assert apply(row_dicts, b, p) == {j: x for j, x in enumerate(product) if x}
    # the rows in the coordinates of a shuffled basis, and back
    basis = list(range(ncols))
    random.Random(ncols * p).shuffle(basis)
    cols, outside = coordinates(row_dicts, basis)
    assert outside is None
    assert [{basis[r]: x for r, x in col.items()} for col in cols] == row_dicts
    assert coordinates(row_dicts + [{ncols: 1}], basis) == (None, ncols)


def _gauss_jordan_frac(a, ncols):
    """Gauss-Jordan elimination over Q, in place, on the first `ncols`
    columns of the rows `a` (lists of Fractions; any further columns are
    carried along).  Each pivot row is scaled to 1 at its pivot column and
    cleared from every other row.  Returns the pivot columns: row k of the
    result is the row of pivot k, and the rows after the last pivot are
    zero on the first `ncols` columns."""
    m = len(a)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return pivots


def reference_solve_q(rows, rhs, ncols):
    """The dense solve over Q: Gauss-Jordan on the augmented matrix, free
    variables set to 0."""
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = _gauss_jordan_frac(a, ncols)
    if any(a[i][ncols] != 0 for i in range(len(pivots), len(a))):
        return None
    x = [Fraction(0)] * ncols
    for row, col in enumerate(pivots):
        x[col] = a[row][ncols]
    return x


@st.composite
def rational_systems(draw):
    """(rows, ncols, rhs) over Q: entries 0 or small fractions whose
    denominators are 1, 2 or 5, the right-hand side half the time A x."""
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    entry = st.one_of(
        st.just(0), st.integers(-4, 4),
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from([2, 5])),
    )
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=n, max_size=n))
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, n, rhs


def _columns_q(rows, ncols):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(ncols)]


@seed(20010521)
@given(rational_systems())
@example(([], 0, []))  # empty
@example(([[0, 0], [0, 0]], 2, [0, 3]))  # all zero, inconsistent
@example(([[2, 1], [0, 3]], 2, [1, 1]))  # solution 1/3, 1/3
def test_echelon_over_q_matches_gauss_jordan(case):
    rows, ncols, rhs = case
    a = [[Fraction(x) for x in r] for r in rows]
    expected_rank = len(_gauss_jordan_frac(a, ncols))
    columns = _columns_q(rows, ncols)
    pivots, reduced = echelon(
        ((dict(col), {j: 1}) for j, col in enumerate(columns)), 0
    )
    assert len(pivots) == expected_rank
    # each reduced column is the combination of inputs its record names
    for v, c in reduced:
        combo = {}
        for j, y in c.items():
            for i, x in columns[j].items():
                combo[i] = combo.get(i, 0) + y * x
        assert {i: x for i, x in combo.items() if x} == v
    assert all(v[lead] == 1 and min(v) == lead for lead, (v, _) in
               pivots.items())
    b = {i: x for i, x in enumerate(rhs) if x}
    x = reference_solve_q(rows, rhs, ncols)
    for mode in (BaseMode("plocal", 5), BaseMode("plocal", 3)):
        assert rank(columns, mode.characteristic) == expected_rank
        in_ring = x is not None and all(y.denominator % mode.p for y in x)
        assert solve(columns, b, mode) == (x if in_ring else None)
    if all(Fraction(y).denominator == 1 for r in rows for y in r):
        integral = x is not None and all(y.denominator == 1 for y in x)
        got = solve(columns, b, BaseMode("int"))
        assert got == (x if integral else None)


def reference_det(rows):
    """The Leibniz determinant of a square matrix of ints and Fractions."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Fraction(math.prod(rows[i][perm[i]] for i in range(n)))
        total += -term if inversions % 2 else term
    return total


def _is_unit(det, mode):
    if mode.kind == "fp":
        return det.denominator % mode.p != 0 and det.numerator % mode.p != 0
    if mode.kind == "plocal":
        return det != 0 and det.numerator % mode.p != 0
    return det in (1, -1)


@st.composite
def square_matrices(draw):
    """Integer square matrices of size 0..4: half of them L * diag * U with
    L, U unitriangular and the diagonal drawn from +-1, +-2, 3, 5, so that
    unit determinants and non-units of full rank are both common."""
    n = draw(st.integers(0, 4))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        return [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(n)]
    diag = draw(st.lists(st.sampled_from([1, -1, 2, -2, 3, 5]),
                         min_size=n, max_size=n))
    L = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)]
         for i in range(n)]
    U = [[1 if i == j else draw(small) if j > i else 0 for j in range(n)]
         for i in range(n)]
    return [
        [sum(L[i][k] * diag[k] * U[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


MODES = [BaseMode("int"), BaseMode("plocal", 2), BaseMode("plocal", 3),
         BaseMode("fp", 2), BaseMode("fp", 3), BaseMode("fp", 5)]


@seed(20010523)
@given(square_matrices())
@example([])  # the empty matrix is invertible
@example([[3, 0], [0, 1]])  # full rank over Q, determinant 3
@example([[2, 1], [1, 1]])  # determinant 1 with a non-unit entry
def test_is_invertible_matches_reference_determinant(rows):
    n = len(rows)
    det = reference_det(rows)
    for mode in MODES:
        p = mode.p if mode.kind == "fp" else None
        cols = [
            {i: (row[j] % p if p else row[j]) for i, row in enumerate(rows)
             if (row[j] % p if p else row[j])}
            for j in range(n)
        ]
        assert is_invertible(cols, n, mode) == _is_unit(det, mode), mode
        # a non-square matrix is never invertible
        assert not is_invertible(cols + [{}], n, mode)


def test_is_invertible_over_plocal_fractions():
    """Entries with denominators prime to p: the determinant 5/2 is a
    unit of Z_(3) and not of Z_(5)."""
    cols = [{0: Fraction(1, 2)}, {0: Fraction(1, 4), 1: 5}]
    assert is_invertible(cols, 2, BaseMode("plocal", 3))
    assert not is_invertible(cols, 2, BaseMode("plocal", 5))
