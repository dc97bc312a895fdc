"""Exact Gram and Weingarten matrices of the permutation overlap form.

The Gram matrix has entries d^(-size(inv(sigma)*pi)).  Its inverse exists
exactly when d >= t.  Because the Gram entries depend only on the cycle
type of inv(sigma)*pi, the matrix is multiplication by a central element of
the group algebra, so its inverse is again of that form: it suffices to
solve a p(t) x p(t) class-function system instead of inverting the full
t! x t! matrix, and ``symmgroup.class_matrix`` gathers either matrix from
its class values.  A generic Bareiss inverse in the tests cross-checks this.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np

from . import symmgroup as sg
from .exactalg import SingularMatrixError, solve_exact


class SingularGramError(ValueError):
    """The permutation overlaps are linearly dependent (d < t)."""


def _pair_class_table(t: int) -> np.ndarray:
    """Class of inv(sigma_i) sigma_j for all pairs; only perfbench calls it."""
    el = sg.elements(t)
    return sg.class_matrix(t, el.cls[el.reps])


def inverse_powers(base: int, count: int, exact: bool) -> np.ndarray:
    """[base^0, base^-1, ..., base^-(count-1)]: Fractions, or floats.

    Indexed by ``symmgroup.elements(t).size`` (with count = t) it is
    the vector base^(-size(sigma)) over S_t.  A dimension beyond the float
    range raises ValueError on the float path.
    """
    if exact:
        return np.array([Fraction(1, base**s) for s in range(count)], dtype=object)
    try:
        b = float(base)
    except OverflowError:
        raise ValueError(f"dimension {base} exceeds the float path's range") from None
    return np.array([b**-s for s in range(count)])


@lru_cache(maxsize=None)
def weingarten_function(t: int, d: int):
    """Class function w with sum_u d^(-|u|) w(class(inv(u) g)) = delta_{g,e},
    i.e. w * x = e_0 for x = d^(-size), solved on ``symmgroup.convolution``.

    Returns a read-only vector of Fractions in ``conjugacy_classes`` order.
    Raises ValueError unless t, d >= 1, and SingularGramError when the
    overlap form is degenerate.
    """
    if t < 1 or d < 1:
        raise ValueError("t and d must be >= 1")
    el = sg.elements(t)
    a = sg.convolution(t, inverse_powers(d, t, exact=True)[el.size[el.reps]])
    try:
        # Right-hand side e_0: class 0 is the identity.
        sol = solve_exact(a, np.eye(len(a), 1, dtype=object))[:, 0]
    except SingularMatrixError as exc:
        raise SingularGramError(
            f"Gram matrix of S_{t} overlaps is singular at d={d} (need d >= t)"
        ) from exc
    sol.flags.writeable = False
    return sol


def gram_matrix(t: int, d: int, exact: bool = True) -> np.ndarray:
    """Normalized overlap matrix, entry (sigma, pi) = d^(-size(inv(sigma) pi))."""
    if t < 1 or d < 1:
        raise ValueError("t and d must be >= 1")
    el = sg.elements(t)
    return sg.class_matrix(t, inverse_powers(d, t, exact)[el.size[el.reps]])


def weingarten_values(t: int, d: int, exact: bool = True) -> np.ndarray:
    """A writable copy of ``weingarten_function(t, d)``: Fractions, or floats."""
    return weingarten_function(t, d).astype(object if exact else float)


def weingarten_matrix(t: int, d: int, exact: bool = True) -> np.ndarray:
    """Exact inverse of ``gram_matrix(t, d)``.  Requires d >= t."""
    return sg.class_matrix(t, weingarten_values(t, d, exact))


def jucys_murphy_sum(t: int, d: int) -> Fraction:
    """Closed form for sum over S_t of d^(-size): binom(d+t-1, t) t! / d^t."""
    if t < 1 or d < 1:
        raise ValueError("t and d must be >= 1")
    return Fraction(comb(d + t - 1, t) * factorial(t), d**t)


def character_sum(t: int, d: int) -> Fraction:
    """Direct summation of d^(-size) over the group (oracle for the closed form)."""
    return sum((Fraction(1, d**s) for s in sg.elements(t).size.tolist()), Fraction(0))

