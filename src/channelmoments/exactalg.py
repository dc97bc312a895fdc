"""Dense exact linear algebra on numpy object arrays of Fractions.

Two independent inversion routines are provided: plain Gauss-Jordan over
Fractions, and the fraction-free Bareiss/Montante scheme on a denominator
cleared integer matrix.  They cross-check each other in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when an exact inverse does not exist."""


def frac_array(rows) -> np.ndarray:
    return np.array(
        [[Fraction(x) for x in row] for row in rows], dtype=object
    )


def identity_exact(n: int) -> np.ndarray:
    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def solve_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b over Fractions by Gauss-Jordan with row pivoting."""
    n = a.shape[0]
    b = b.reshape(n, -1)
    m = [[Fraction(a[i, j]) for j in range(n)] + [Fraction(x) for x in b[i]]
         for i in range(n)]
    width = n + b.shape[1]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("zero pivot column in exact solve")
        m[col], m[piv] = m[piv], m[col]
        inv_p = 1 / m[col][col]
        m[col] = [x * inv_p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                row = m[r]
                ref = m[col]
                m[r] = [row[j] - f * ref[j] for j in range(width)]
    return np.array([row[n:] for row in m], dtype=object)


def invert_exact(a: np.ndarray) -> np.ndarray:
    return solve_exact(a, identity_exact(a.shape[0]))


def invert_bareiss(a: np.ndarray) -> np.ndarray:
    """Exact inverse via fraction-free Gauss-Jordan (Montante/Bareiss).

    Denominators are cleared first, so every intermediate value is an
    integer and every division in the elimination is exact.
    """
    n = a.shape[0]
    denom = lcm(*[Fraction(a[i, j]).denominator for i in range(n) for j in range(n)])
    m = [
        [int(Fraction(a[i, j]) * denom) for j in range(n)]
        + [denom if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    width = 2 * n
    prev = 1
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("zero pivot column in Bareiss elimination")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col]
            row = m[r]
            ref = m[col]
            for j in range(width):
                num = p * row[j] - f * ref[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact division in Bareiss step")
                row[j] = q
        prev = p
    det = m[n - 1][n - 1]
    if det == 0:
        raise SingularMatrixError("zero determinant")
    return np.array(
        [[Fraction(m[i][n + j], det) for j in range(n)] for i in range(n)],
        dtype=object,
    )


def mat_eq(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact entrywise equality of two object matrices."""
    return a.shape == b.shape and all(
        a[i, j] == b[i, j] for i in range(a.shape[0]) for j in range(a.shape[1])
    )


def product_is_identity(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact check that a @ b == I, done over cleared-denominator integers.

    Integer matmul avoids per-operation gcd reduction, which makes the
    120x120 case roughly two orders of magnitude faster than Fractions.
    """
    n = a.shape[0]
    da = lcm(*[Fraction(a[i, j]).denominator for i in range(n) for j in range(n)])
    db = lcm(*[Fraction(b[i, j]).denominator for i in range(n) for j in range(n)])
    ai = np.array([[int(Fraction(a[i, j]) * da) for j in range(n)] for i in range(n)],
                  dtype=object)
    bi = np.array([[int(Fraction(b[i, j]) * db) for j in range(n)] for i in range(n)],
                  dtype=object)
    prod = ai.dot(bi)
    scale = da * db
    return all(
        prod[i, j] == (scale if i == j else 0)
        for i in range(n)
        for j in range(n)
    )
