"""Independent oracle: biquaternions as exact 2x2 Gaussian-rational matrices.

The algebra is isomorphic to M2(C) under e_n -> -i sigma_n, so

    w + x e1 + y e2 + z e3  ->  [[w - i z, -i x - y], [y - i x, w + i z]].

Under this map the Hamilton product is the matrix product, ``norm`` is the
determinant and ``bar`` is the adjugate.  The arithmetic here uses
``fractions`` only (a complex number is a pair of Fractions), so it shares
no code with the library's scalar or algebra layers.
"""

from __future__ import annotations

from fractions import Fraction


def _c(value):
    return (Fraction(value.real), Fraction(value.imag))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _neg(a):
    return (-a[0], -a[1])


_I = (Fraction(0), Fraction(1))


def to_matrix(q):
    w, x, y, z = (_c(c) for c in q.components())
    iz, ix = _mul(_I, z), _mul(_I, x)
    return ((_sub(w, iz), _sub(_neg(ix), y)),
            (_sub(y, ix), _add(w, iz)))


def _matmul(a, b):
    return tuple(tuple(_add(_mul(a[r][0], b[0][c]), _mul(a[r][1], b[1][c]))
                       for c in range(2)) for r in range(2))


def _det(m):
    return _sub(_mul(m[0][0], m[1][1]), _mul(m[0][1], m[1][0]))


def _adjugate(m):
    return ((m[1][1], _neg(m[0][1])), (_neg(m[1][0]), m[0][0]))


def check(elements, pairs):
    """Compare the library with the matrix model.

    Returns (number of checks made, list of mismatch descriptions).
    """
    problems = []
    checks = 0
    for n, q in enumerate(elements):
        m = to_matrix(q)
        checks += 2
        if _c(q.norm()) != _det(m):
            problems.append(f"norm != det for element {n}: {q!r}")
        if to_matrix(q.bar()) != _adjugate(m):
            problems.append(f"bar != adjugate for element {n}: {q!r}")
    for n, (a, b) in enumerate(pairs):
        checks += 1
        if to_matrix(a * b) != _matmul(to_matrix(a), to_matrix(b)):
            problems.append(f"product != matrix product for pair {n}: {a!r}, {b!r}")
    return checks, problems


def fixtures(bq, rng, n_random):
    """Exact fixtures: the real basis, the default frame and random elements.

    ``bq`` is the library's biquaternion module; random elements come from
    its own generator, seeded by ``rng``.
    """
    basis = bq.basis_elements(exact=True)
    frame = bq.DEFAULT_FRAME
    elements = list(basis) + [frame.nu, frame.tau, *frame.basis()]
    randoms = [bq.random_rational_biquaternion(rng) for _ in range(2 * n_random)]
    elements += randoms
    pairs = [(a, b) for a in basis for b in basis]
    pairs += list(zip(randoms[::2], randoms[1::2]))
    pairs += [(a, b) for a in frame.basis() for b in frame.basis()]
    return elements, pairs
