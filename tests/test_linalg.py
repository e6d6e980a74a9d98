"""The sparse F_p echelon routine and its dense adapters against the
dense row-by-row loops they replaced, which stay here as the reference."""
import numpy as np
from hypothesis import example, given, seed
from hypothesis import strategies as st

from hopfalg.linalg import (
    echelon_fp,
    kernel_basis_fp,
    kernel_fp,
    rank_fp,
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


def reference_solve_fp(rows, rhs, p):
    """The augmented-matrix loop `linalg.solve` ran over F_p: pivots
    reduced above and below, free variables set to 0."""
    m = len(rows)
    n = len(rows[0]) if m else 0
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
    assert rank_fp(rows, p) == reference_rank_fp(rows, p)
    kernel = kernel_basis_fp(rows, ncols, p)
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
    pivots, reduced = echelon_fp(((v, None) for v in _dicts(rows, p)), p)
    assert len(pivots) == reference_rank_fp(rows, p)
    assert sum(1 for v, _ in reduced if v) == len(pivots)
    assert all(v[lead] == 1 and min(v) == lead for lead, (v, _) in
               pivots.items())
    columns = _dicts([[row[j] for row in rows] for j in range(ncols)], p)
    kernel = kernel_fp(enumerate(columns), p)
    assert len(kernel) == len(reference_kernel_basis_fp(rows, ncols, p))
    for c in kernel:
        for row in rows:
            assert sum(row[j] * x for j, x in c.items()) % p == 0
    mode = BaseMode("fp", p)
    assert solve(rows, rhs, mode) == reference_solve_fp(rows, rhs, p)
