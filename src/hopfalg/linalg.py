"""Exact linear algebra: Gaussian elimination mod p (vectorized) and over
the rationals (Fraction).  Deterministic first-nonzero pivoting throughout."""
from __future__ import annotations

from fractions import Fraction

import numpy as np


def _to_fp_array(rows, p):
    if len(rows) == 0:
        return np.zeros((0, 0), dtype=np.int64)
    a = np.array([[int(x) % p for x in r] for r in rows], dtype=np.int64)
    return a


def rank_fp(rows, p):
    """Rank of a matrix (list of rows) over F_p."""
    a = _to_fp_array(rows, p)
    m, n = a.shape
    r = 0
    for col in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, col] % p)
        if not nz.size:
            continue
        piv = r + int(nz[0])
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


def kernel_basis_fp(rows, ncols, p):
    """Basis of the null space of the matrix over F_p, as vectors of
    length ncols.  Deterministic: free coordinates in increasing order."""
    a = _to_fp_array(rows, p)
    if a.size == 0:
        a = np.zeros((0, ncols), dtype=np.int64)
    m = a.shape[0]
    r = 0
    pivots = []
    for col in range(ncols):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, col] % p)
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), -1, p)
        a[r] = (a[r] * inv) % p
        colvals = a[:, col] % p
        colvals[r] = 0
        nz = np.flatnonzero(colvals)
        if nz.size:
            a[nz] = (a[nz] - np.outer(colvals[nz], a[r])) % p
        pivots.append(col)
        r += 1
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-a[:r, free].T) % p
    return basis.tolist()


def rank_frac(rows):
    if not rows or not rows[0]:
        return 0
    a = [[Fraction(x) for x in r] for r in rows]
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(r + 1, m):
            f = a[i][col]
            if f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def rank(rows, mode):
    if mode.kind == "fp":
        return rank_fp(rows, mode.p)
    return rank_frac(rows)


def kernel_dim(rows, ncols, mode):
    return ncols - rank(rows, mode)


def is_invertible(rows, mode):
    if not rows:
        return True
    m = len(rows)
    n = len(rows[0]) if rows else 0
    return m == n and rank(rows, mode) == n


def solve(rows, rhs, mode):
    """One solution x of A x = b, or None if inconsistent.

    Works over Q; in fp mode over F_p; in int mode the rational solution is
    required to be integral."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if mode.kind == "fp":
        p = mode.p
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
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    r = 0
    pivots = []
    for col in range(n):
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
        r += 1
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row, col in enumerate(pivots):
        x[col] = a[row][n]
    if mode.kind == "int":
        if any(v.denominator != 1 for v in x):
            return None
        x = [v.numerator for v in x]
    return x
