"""Exact numbers and dense exact linear algebra on numpy object arrays.

The entries say whether a value is exact: object arrays of ints or
Fractions are, float64 arrays are not (``is_exact``).  ``split`` and
``join`` are the one boundary: ``split`` gives integer numerators over one
common denominator (``to_integer``), or a float array over 1, and ``join``
turns a result back into reduced Fractions (``from_integer``) or divides
the floats.  Integer matmul skips the per-operation gcd reduction of
Fraction arithmetic, which makes a 120 x 120 product about 60 times faster.

``solve_exact`` is plain Gauss-Jordan over Fractions; the tests cross-check
it against an independent fraction-free Bareiss/Montante inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when an exact inverse does not exist."""


def is_exact(a) -> bool:
    """True for an object array or a rational scalar, False for floats."""
    return a.dtype == object if isinstance(a, np.ndarray) else isinstance(a, Rational)


def split(a: np.ndarray) -> tuple:
    """(numerators, denominator): ``to_integer(a)`` if ``a`` is exact, else (a, 1)."""
    return to_integer(a) if is_exact(a) else (a, 1)


def split_all(*arrays) -> list:
    """``split`` of each operand; all must be exact or all float."""
    if len({is_exact(a) for a in arrays}) > 1:
        raise ValueError("operands mix exact (object) and float entries")
    return [split(a) for a in arrays]


def join(nums, denom: int):
    """nums / denom for a scalar or array: reduced Fractions when ``nums``
    holds exact integers, else a float division."""
    if not is_exact(nums):
        return nums / denom
    if isinstance(nums, np.ndarray):
        return from_integer(nums, denom)
    return Fraction(int(nums), denom)


def to_integer(m: np.ndarray) -> tuple:
    """Split a rational matrix into (integer object matrix, denominator).

    The denominator is the least common multiple of the distinct entry
    denominators, so ``m == ints / denom`` entrywise with every entry a
    Python int.  Ints, numpy ints and Fractions all have ``numerator`` and
    ``denominator``.
    """
    entries = m.ravel().tolist()
    dens = {x.denominator for x in entries}
    denom = lcm(*map(int, dens))
    scale = {q: denom // int(q) for q in dens}
    ints = np.empty(m.shape, dtype=object)
    # int() turns numpy integers into unbounded Python ints.
    ints.flat[:] = [int(x.numerator) * scale[x.denominator] for x in entries]
    return ints, denom


def from_integer(ints: np.ndarray, denom: int) -> np.ndarray:
    """Fraction object matrix ints / denom in lowest terms, reducing each
    distinct numerator once (transfer matrices hold few distinct values)."""
    entries = ints.ravel().tolist()
    value = {x: Fraction(int(x), denom) for x in set(entries)}
    out = np.empty(ints.shape, dtype=object)
    out.flat[:] = [value[x] for x in entries]
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


def mat_eq(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact entrywise equality of two object matrices."""
    return np.array_equal(a, b)


def product_is_identity(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact check that a @ b == I, done over cleared-denominator integers."""
    (ai, da), (bi, db) = to_integer(a), to_integer(b)
    return np.array_equal(ai.dot(bi), np.eye(a.shape[0], dtype=object) * (da * db))
