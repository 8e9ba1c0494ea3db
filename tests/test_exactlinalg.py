import random
from fractions import Fraction

from bqspin.exactlinalg import nullspace, rank, rref, solve


def _reference_rref(matrix):
    """Gauss-Jordan over Fractions: the reference the integer rref must match."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _entry(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return Fraction(rng.choice((-1, 1)) * 2 ** rng.randint(60, 80), rng.choice((7, 9, 3**41)))


def _random_matrix(rng, nrows, ncols, rank_bound):
    """A mixed int/Fraction matrix of rank at most rank_bound, with zero rows
    and columns mixed in."""
    base = [[_entry(rng) for _ in range(ncols)] for _ in range(rank_bound)]
    rows = []
    for _ in range(nrows):
        if base and rng.random() < 0.8:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in base]
            rows.append([sum((cf * b[j] for cf, b in zip(coeffs, base)), Fraction(0))
                         for j in range(ncols)])
        else:
            rows.append([0] * ncols)
    for j in rng.sample(range(ncols), k=min(ncols, rng.randint(0, 2))):
        for row in rows:
            row[j] = 0
    # put back ints where the value is integral, so rows mix the two types
    return [[int(x) if Fraction(x).denominator == 1 and rng.random() < 0.5 else x
             for x in row] for row in rows]


def test_rref_matches_fraction_gauss_jordan():
    rng = random.Random(1601)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(0, 9)
        matrix = _random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        got_rows, got_pivots = rref(matrix)
        want_rows, want_pivots = _reference_rref(matrix)
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        assert all(type(x) is Fraction for row in got_rows for x in row)
        assert rank(matrix) == len(want_pivots)


def test_rref_edge_cases():
    assert rref([]) == ([], [])
    assert nullspace([]) == []
    assert rref([[]]) == ([[]], [])
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    wide = Fraction(2**70, 7)
    matrix = [[wide, 1, Fraction(1, 3)], [2 * wide, 2, Fraction(2, 3)], [0, 5, 0]]
    assert rref(matrix) == _reference_rref(matrix)
    assert rank(matrix) == 2
    # floats are read exactly, as Fraction(x) reads them
    assert rref([[0.5, 0.25], [1.0, 3.0]]) == _reference_rref([[0.5, 0.25], [1.0, 3.0]])


def test_nullspace_vectors_are_annihilated():
    rng = random.Random(1602)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        matrix = _random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        basis = nullspace(matrix)
        assert len(basis) == ncols - rank(matrix)
        for vec in basis:
            assert all(sum(Fraction(a) * v for a, v in zip(row, vec)) == 0
                       for row in matrix)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(1603)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = _random_matrix(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)))
        x = [_entry(rng) for _ in range(ncols)]
        rhs = [sum((Fraction(a) * v for a, v in zip(row, x)), Fraction(0)) for row in matrix]
        sol = solve(matrix, rhs)
        assert sol is not None
        assert [sum((Fraction(a) * v for a, v in zip(row, sol)), Fraction(0))
                for row in matrix] == rhs
    # x + y = 1 and 2x + 2y = 3 have no common solution
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    assert solve([[0, 0]], [Fraction(1, 2)]) is None
    assert solve([[Fraction(2**70, 7), 0], [0, 3]], [1, 1]) == [Fraction(7, 2**70),
                                                                Fraction(1, 3)]
