"""Exact linear algebra: one elimination routine over two fields.

The one vector format is the dict vector {index: nonzero entry}, and a
matrix is a list of such columns.  `apply` is the one sparse product of
a matrix and a vector over F_p, and `coordinates` the one projection of
labelled vectors {label: entry} onto a basis, a list of labels.
`echelon` pivots on the leading (smallest) index, over F_p when its
characteristic is a prime p and over Q (ints and Fractions) when it is
0.  `reduce_fp` takes a vector to its normal form modulo its pivots;
`kernel_fp`, `rank_fp` and `kernel_basis_fp` are F_p adapters over it,
the last two taking dense lists of rows.  `rank(cols, char)` is the one
rank front end: the rank of copies of dict vectors over F_p or Q, which
every rank in the package goes through (`rank_fp` included).  `solve`
and `is_invertible` take sparse columns with entries in a `BaseMode` and
eliminate over the mode's field: F_p, or Q for the modes over Z and
Z_(p).

A square matrix over the mode's ring is invertible when its determinant
is a unit there: nonzero in F_p, prime to p in Z_(p), +-1 in Z.  Full
rank over Q is not enough (x -> 3x is not invertible over Z_(3)), so
`is_invertible` reads the determinant off the elimination and asks
`BaseMode.inv` about it."""
from __future__ import annotations

from fractions import Fraction

from .errors import SolveFailure


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


def _scale_q(v, f, _):
    """v *= f over Q, in place; f is nonzero."""
    for i in v:
        v[i] = v[i] * f


def _axpy_q(v, f, w, _):
    """v += f * w over Q, in place; zero entries are dropped."""
    for i, x in w.items():
        y = v.get(i, 0) + f * x
        if y:
            v[i] = y
        else:
            del v[i]


def echelon(vectors, char, pivots=None):
    """Sparse incremental echelon form over F_p (char = p) or Q (char = 0).

    Each item of `vectors` is a pair (v, c): v is a dict vector {index:
    nonzero entry} (residues mod p, or ints and Fractions), and c is None
    or a dict that records which inputs v combines.  v is reduced leading
    index first: while a pivot sits at v's smallest index, v loses the
    multiple of that pivot that clears the index, and c the same multiple
    of the pivot's record.  A v that is not cleared becomes the pivot of
    its leading index, scaled with its c to leading entry 1.  Both dicts
    are reduced in place.

    `pivots` maps each leading index to its pair (v, c); pass the pivots
    of an earlier call to continue its echelon form (they are extended in
    place).  Returns (pivots, reduced), where reduced lists each input
    pair after reduction: its v is empty exactly when the input lies in
    the span of the pivots present before it."""
    if pivots is None:
        pivots = {}
    axpy, scale = (_axpy, _scale) if char else (_axpy_q, _scale_q)
    reduced = []
    for v, c in vectors:
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(v[lead], -1, char) if char else 1 / Fraction(v[lead])
                if inv != 1:
                    scale(v, inv, char)
                    if c is not None:
                        scale(c, inv, char)
                pivots[lead] = (v, c)
                break
            f = char - v[lead]
            axpy(v, f, pivot[0], char)
            if c is not None:
                axpy(c, f, pivot[1], char)
        reduced.append((v, c))
    return pivots, reduced


def apply(cols, x, p):
    """sum_k x_k cols[k] over F_p for the dict vectors x and cols[k]:
    the matrix with dict columns `cols` applied to x, zero entries
    dropped."""
    out = {}
    for k, xk in x.items():
        for i, y in cols[k].items():
            out[i] = (out.get(i, 0) + xk * y) % p
    return {i: y for i, y in out.items() if y}


def coordinates(vectors, basis):
    """The dict vectors {label: entry} of `vectors` in the coordinates of
    `basis`, a list of labels: one dict {position in basis: entry} per
    vector, and None; or None and the first label that `basis` lacks."""
    pos = {m: r for r, m in enumerate(basis)}
    cols = []
    for x in vectors:
        col = {}
        for m, c in x.items():
            r = pos.get(m)
            if r is None:
                return None, m
            col[r] = c
        cols.append(col)
    return cols, None


def reduce_fp(v, pivots, p):
    """Clear the dict vector v, in place, at every index of `pivots` (as
    built by `echelon` over F_p), in increasing order, and return it.  A
    pivot vanishes below its leading index, so an index once cleared
    stays clear: the result is the unique representative of v modulo the
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
    _, reduced = echelon(
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
    return rank(_row_dicts(rows, p), p)


def kernel_basis_fp(rows, ncols, p):
    """Basis of the null space of the matrix over F_p, as vectors of
    length ncols: the canonical basis of the reduced row echelon form,
    one vector per free coordinate in increasing order.

    Nothing in the package calls this dense form: it stays as a test
    reference and as an entry point that `perfbench/tracing.py` times,
    until the tracer times `echelon` instead."""
    out = []
    for c in kernel_fp(enumerate(_column_dicts(rows, ncols, p)), p):
        v = [0] * ncols
        for j, x in c.items():
            v[j] = x
        out.append(v)
    return out


def _column_pivots(cols, char):
    """`echelon` over copies of the dict columns, column j recording
    {j: 1}: a column is a pivot exactly when it is independent of the
    columns before it."""
    pivots, _ = echelon(((dict(col), {j: 1}) for j, col in enumerate(cols)), char)
    return pivots


def rank(cols, char):
    """Rank over F_p (char = p) or Q (char = 0) of the dict vectors
    `cols`, which are copied, not consumed."""
    return len(echelon(((dict(col), None) for col in cols), char)[0])


def is_invertible(cols, n, mode):
    """Whether the matrix with dict columns `cols` and n rows is
    invertible over the mode's ring: square, of full rank, with a
    determinant that `mode.inv` accepts as a unit.

    Column j's record holds, at j, the inverse of the lead it had before
    scaling, and only earlier columns elsewhere; the reduced columns are
    the matrix times a unitriangular one, with distinct leads, so the
    determinant is +-1 over the product of those entries."""
    if len(cols) != n:
        return False
    pivots = _column_pivots(cols, mode.characteristic)
    if len(pivots) != n:
        return False
    if mode.characteristic:
        return True
    det = Fraction(1)
    for _, c in pivots.values():
        det /= c[max(c)]
    try:
        mode.inv(det)
    except SolveFailure:
        return False
    return True


def _in_ring(x, mode):
    """Whether the rational x lies in the mode's ring Z or Z_(p)."""
    den = Fraction(x).denominator
    return den == 1 if mode.kind == "int" else den % mode.p != 0


def solve(cols, rhs, mode):
    """One solution x (a list) of A x = b, or None if there is none.

    A has the dict columns `cols` and b is the dict vector `rhs`, both
    with entries in the mode.  Eliminates over the mode's field and sets
    the free variables to 0; over Z and Z_(p) that solution must lie in
    the mode's ring, None otherwise."""
    char = mode.characteristic
    pivots = _column_pivots(cols, char)
    _, [(rest, comb)] = echelon([(dict(rhs), {})], char, pivots)
    if rest:
        return None
    # b + A comb = 0, and comb lives on the pivot columns only
    x = [0] * len(cols)
    for j, y in comb.items():
        x[j] = -y % char if char else -y
    if not char and not all(_in_ring(y, mode) for y in x):
        return None
    return x
