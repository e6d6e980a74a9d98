"""Exact linear algebra: one elimination routine per field.

Everything over F_p goes through `echelon_fp`, which works on dict
vectors {index: residue} and pivots on the leading (smallest) index.
`reduce_fp` takes a vector to its normal form modulo those pivots;
`kernel_fp`, `rank_fp`, `kernel_basis_fp` and the F_p branch of `solve`
are adapters over `echelon_fp`, the last three taking dense lists of
rows.  Everything over Q (Fraction) goes through `_gauss_jordan_frac`:
`rank` counts its pivots and `solve` reads its solution off them."""
from __future__ import annotations

from fractions import Fraction


def _scale(v, f, p):
    """v *= f over F_p, in place; f is a unit."""
    for i in v:
        v[i] = v[i] * f % p


def _axpy(v, f, w, p):
    """v += f * w over F_p, in place; zero entries are dropped."""
    for i, x in w.items():
        y = (v.get(i, 0) + f * x) % p
        if y:
            v[i] = y
        else:
            del v[i]


def echelon_fp(vectors, p, pivots=None):
    """Sparse incremental echelon form over F_p.

    Each item of `vectors` is a pair (v, c): v is a dict vector {index:
    nonzero residue}, and c is None or a dict that records which inputs v
    combines.  v is reduced leading index first: while a pivot sits at
    v's smallest index, v loses the multiple of that pivot that clears
    the index, and c the same multiple of the pivot's record.  A v that is
    not cleared becomes the pivot of its leading index, scaled with its c
    to leading entry 1.  Both dicts are reduced in place.

    `pivots` maps each leading index to its pair (v, c); pass the pivots
    of an earlier call to continue its echelon form (they are extended in
    place).  Returns (pivots, reduced), where reduced lists each input
    pair after reduction: its v is empty exactly when the input lies in
    the span of the pivots present before it."""
    if pivots is None:
        pivots = {}
    reduced = []
    for v, c in vectors:
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(v[lead], -1, p)
                if inv != 1:
                    _scale(v, inv, p)
                    if c is not None:
                        _scale(c, inv, p)
                pivots[lead] = (v, c)
                break
            f = p - v[lead]
            _axpy(v, f, pivot[0], p)
            if c is not None:
                _axpy(c, f, pivot[1], p)
        reduced.append((v, c))
    return pivots, reduced


def reduce_fp(v, pivots, p):
    """Clear the dict vector v, in place, at every index of `pivots` (as
    built by `echelon_fp`), in increasing order, and return it.  A pivot
    vanishes below its leading index, so an index once cleared stays
    clear: the result is the unique representative of v modulo the
    pivots' span that is zero at every pivot index, the normal form of
    the reduced row echelon form."""
    for lead in sorted(pivots):
        x = v.get(lead)
        if x:
            _axpy(v, p - x, pivots[lead][0], p)
    return v


def kernel_fp(columns, p):
    """Null-space basis of the matrix whose columns are the (label, dict
    vector) pairs of `columns`: one dict {label: residue} for each column
    that depends on the columns before it, in column order.  The kernel
    vector of column j is e_j minus a combination of the earlier
    independent columns, so in increasing label order these are the
    canonical null-space vectors of the reduced row echelon form.  The
    column dicts are copied, not consumed."""
    _, reduced = echelon_fp(
        ((dict(col), {label: 1}) for label, col in columns), p
    )
    return [c for v, c in reduced if not v]


def _row_dicts(rows, p):
    return [
        {j: x for j, x in enumerate(int(y) % p for y in row) if x}
        for row in rows
    ]


def _column_dicts(rows, ncols, p):
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(_row_dicts(rows, p)):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def rank_fp(rows, p):
    """Rank of a matrix (list of rows) over F_p."""
    pivots, _ = echelon_fp(((v, None) for v in _row_dicts(rows, p)), p)
    return len(pivots)


def kernel_basis_fp(rows, ncols, p):
    """Basis of the null space of the matrix over F_p, as vectors of
    length ncols: the canonical basis of the reduced row echelon form,
    one vector per free coordinate in increasing order."""
    out = []
    for c in kernel_fp(enumerate(_column_dicts(rows, ncols, p)), p):
        v = [0] * ncols
        for j, x in c.items():
            v[j] = x
        out.append(v)
    return out


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


def rank(rows, mode):
    if mode.kind == "fp":
        return rank_fp(rows, mode.p)
    a = [[Fraction(x) for x in r] for r in rows]
    return len(_gauss_jordan_frac(a, len(a[0]) if a else 0))


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
        pivots, _ = echelon_fp(
            (
                (col, {j: 1})
                for j, col in enumerate(_column_dicts(rows, n, p))
            ),
            p,
        )
        b = {i: x for i, x in enumerate(int(y) % p for y in rhs) if x}
        _, [(rest, comb)] = echelon_fp([(b, {})], p, pivots)
        if rest:
            return None
        # b + A comb = 0, and comb lives on the pivot columns only
        x = [0] * n
        for j, y in comb.items():
            x[j] = -y % p
        return x
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    pivots = _gauss_jordan_frac(a, n)
    r = len(pivots)
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
