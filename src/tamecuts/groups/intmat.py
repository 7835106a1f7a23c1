"""Exact integer matrix arithmetic for the semidirect-product families.

Matrices are tuples of tuples of Python ints so that every product, power,
and inverse is computed without rounding.  The only floating-point output is
the certified operator norm, which is deliberately rounded *up*.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from ..errors import InputError

IntMatrix = tuple[tuple[int, ...], ...]


def as_int_matrix(rows) -> IntMatrix:
    try:
        mat = tuple(tuple(int(x) for x in row) for row in rows)
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix entries must be integers: {exc}") from exc
    d = len(mat)
    if d == 0 or any(len(row) != d for row in mat):
        raise InputError("matrix must be square and non-empty")
    return mat


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def mat_vec(a: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def identity_matrix(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def det(a: IntMatrix) -> int:
    """Cofactor expansion; the matrices here are small (d rarely above 3)."""
    d = len(a)
    if d == 1:
        return a[0][0]
    if d == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    for j in range(d):
        minor = tuple(row[:j] + row[j + 1:] for row in a[1:])
        total += (-1) ** j * a[0][j] * det(minor)
    return total


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1."""
    d = len(a)
    dt = det(a)
    if dt not in (1, -1):
        raise ValueError(f"matrix determinant is {dt}, expected +-1")
    if d == 1:
        return ((dt,),)
    adj = []
    for i in range(d):
        row = []
        for j in range(d):
            minor = tuple(
                tuple(a[r][c] for c in range(d) if c != i)
                for r in range(d) if r != j
            )
            row.append((-1) ** (i + j) * det(minor) * dt)
        adj.append(tuple(row))
    return tuple(adj)


@lru_cache(maxsize=4096)
def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if k == 0:
        return identity_matrix(len(a))
    if k < 0:
        return mat_pow(inverse_unimodular(a), -k)
    if k == 1:
        return a
    half = mat_pow(a, k // 2)
    out = mat_mul(half, half)
    if k % 2:
        out = mat_mul(out, a)
    return out


def transpose(a: IntMatrix) -> IntMatrix:
    d = len(a)
    return tuple(tuple(a[j][i] for j in range(d)) for i in range(d))


def _frac_det(sub) -> Fraction:
    k = len(sub)
    if k == 1:
        return sub[0][0]
    total = Fraction(0)
    for j in range(k):
        minor = tuple(tuple(row[:j] + row[j + 1:]) for row in sub[1:])
        sign = -1 if j % 2 else 1
        total += sign * sub[0][j] * _frac_det(minor)
    return total


def _is_psd(u: Fraction, b: IntMatrix) -> bool:
    """Whether u*I - b is positive semidefinite (b symmetric integer).

    Symmetric PSD iff every principal minor is nonnegative; the matrices are
    tiny so enumerating all index subsets is fine.
    """
    d = len(b)
    m = [[(u if i == j else Fraction(0)) - b[i][j] for j in range(d)] for i in range(d)]
    for size in range(1, d + 1):
        for idx in combinations(range(d), size):
            sub = tuple(tuple(m[i][j] for j in idx) for i in idx)
            if _frac_det(sub) < 0:
                return False
    return True


def certified_spectral_sup(a: IntMatrix) -> float:
    """Certified overestimate of the top singular value of ``a``.

    Returns the smallest convenient float C with C**2 >= lambda_max(a^T a),
    verified in exact rational arithmetic, so containment arguments that use
    C stay valid.  When lambda_max is attained exactly by the float seed (for
    instance the identity matrix) the result is exact.
    """
    import numpy as np

    b = mat_mul(transpose(a), a)
    seed = float(np.linalg.eigvalsh(np.array(b, dtype=float)).max())
    u = Fraction(seed)
    bump = Fraction(1, 10 ** 14)
    while not _is_psd(u, b):
        u = u * (1 + bump) + bump
    c = math.sqrt(float(u))
    while Fraction(c) * Fraction(c) < u:
        c = math.nextafter(c, math.inf)
    return c


def certified_operator_norm_pair(a: IntMatrix) -> float:
    """max(||a||, ||a^{-1}||) as a certified float overestimate."""
    return max(certified_spectral_sup(a), certified_spectral_sup(inverse_unimodular(a)))
