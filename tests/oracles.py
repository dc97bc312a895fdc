"""Reference implementations that only the tests use.

Each one computes by a route independent of (or more literal than) the
package code it checks: a quadruple-sum norm, two exact matrix inverses,
a reordered two-copy superoperator and an explicit depolarizing Kraus set.
"""

from fractions import Fraction

import numpy as np

from channelmoments import channels as ch
from channelmoments.exactalg import SingularMatrixError, identity_exact, solve_exact, to_integer


def norm_squared_quad(tm, gram_matrix: np.ndarray):
    """Literal quadruple sum over basis labels; oracle for norm_squared."""
    m = tm.matrix
    n = m.shape[0]
    total = Fraction(0) if tm.exact else 0.0
    for p in range(n):
        for s in range(n):
            if m[p, s] == 0:
                continue
            for q in range(n):
                for t_ in range(n):
                    total += m[p, s] * m[q, t_] * gram_matrix[p, q] * gram_matrix[s, t_]
    return total


def invert_exact(a: np.ndarray) -> np.ndarray:
    return solve_exact(a, identity_exact(a.shape[0]))


def invert_bareiss(a: np.ndarray) -> np.ndarray:
    """Exact inverse via fraction-free Gauss-Jordan (Montante/Bareiss).

    Denominators are cleared first, so every intermediate value is an
    integer and every division in the elimination is exact.
    """
    n = a.shape[0]
    ints, denom = to_integer(a)
    m = [list(ints[i]) + [denom if j == i else 0 for j in range(n)] for i in range(n)]
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


def super_tensor_square(s1: np.ndarray) -> np.ndarray:
    """Two-copy superoperator from a single-copy one, by leg reordering of
    kron(s1, s1) into the (out-kets, out-bras; in-kets, in-bras) layout."""
    return ch._super_tensor(s1, s1)


def depolarizing_kraus(d: int) -> list:
    """Kraus set of the maximally depolarizing channel X -> Tr[X] I/d."""
    scale = 1 / np.sqrt(d)
    out = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = scale
            out.append(k)
    return out
