"""Exact rational linear algebra: row reduction, rank, nullspace.

Small dense systems only (the constraint-counting and plane-wave symbol
computations never exceed 48x32).  The elimination is fraction-free: each
row is cleared of denominators once, rows are combined by integer
cross-multiplication and divided by their content (the gcd of their
entries).  A row of plain ints, the form of every plane-wave symbol the
suites build, is taken as it is.  ``rank`` reads the pivot columns of that
integer elimination and builds no Fraction; ``rref`` builds Fractions only
for the rows it returns.  The reduced row echelon form is unique, so its
result equals that of Gauss-Jordan over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_row(row):
    """The row times the lcm of its denominators, divided by its content."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        vals = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        den = lcm(*(v.denominator for v in vals))
        ints = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def _eliminate(matrix, above):
    """(rows, pivot_columns) of the integer elimination of the matrix.

    Each pivot column is cleared below its pivot, and above it too when
    ``above``.  The pivot columns are the same either way: clearing above a
    pivot changes only rows that already hold a pivot.
    """
    rows = [_integer_row(row) for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(0 if above else r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if i == r or not f:
                continue
            # row * pv - f * prow clears column c and stays integral
            new = [a * pv - f * b for a, b in zip(row, prow)]
            g = gcd(*new)
            rows[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    The rows are lists of Fractions, as many as the matrix has.
    """
    rows, pivots = _eliminate(matrix, True)
    if not rows:
        return rows, pivots
    ncols = len(rows[0])
    # rows below the rank are zero; each pivot row is divided by its pivot,
    # and its zeros, most of its entries, share one Fraction
    out = [[Fraction(a, rows[i][c]) if a else _ZERO for a in rows[i]]
           for i, c in enumerate(pivots)]
    out += [[_ZERO] * ncols for _ in range(len(rows) - len(pivots))]
    return out, pivots


def rank(matrix) -> int:
    return len(_eliminate(matrix, False)[1])


def nullspace(matrix):
    """Basis of the rational nullspace, as lists of Fractions."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x = rows[r][fc]
            if x:
                vec[pc] = -x
        basis.append(vec)
    return basis


def solve(matrix, rhs):
    """Solve A x = b exactly; returns one solution or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    rows, pivots = rref(aug)
    for row in rows:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            sol[pc] = rows[r][ncols]
    return sol
