"""Exact rational linear algebra: row reduction, rank, nullspace.

Small dense systems only (the constraint-counting and plane-wave symbol
computations never exceed 48x32).  ``rref`` is a fraction-free
Gauss-Jordan elimination: each row is cleared of denominators once, rows
are combined by integer cross-multiplication and divided by their content
(the gcd of their entries), and Fractions are built only for the rows it
returns.  The reduced row echelon form is unique, so the result equals that
of Gauss-Jordan over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row):
    """The row times the lcm of its denominators, divided by its content."""
    vals = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def rref(matrix):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    The rows are lists of Fractions, as many as the matrix has.
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
        for i, row in enumerate(rows):
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
    # rows below the rank are zero; each pivot row is divided by its pivot
    out = [[Fraction(a, rows[i][c]) for a in rows[i]] for i, c in enumerate(pivots)]
    out += [[Fraction(0)] * ncols for _ in range(len(rows) - len(pivots))]
    return out, pivots


def rank(matrix) -> int:
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace(matrix):
    """Basis of the rational nullspace, as lists of Fractions."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
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
