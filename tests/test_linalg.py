"""The vectorized F_p eliminations against the row-by-row loops they
replaced, which stay here as the reference."""
import numpy as np
from hypothesis import given, seed
from hypothesis import strategies as st

from hopfalg.linalg import kernel_basis_fp, rank_fp


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
