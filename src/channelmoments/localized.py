"""Localized permutation basis: Möbius change of basis and transport.

The character-normalized permutation operators expand as a zeta sum of
localized operators over the sub-permutation order; the inverse transform
has Möbius coefficients.  Localized operators have definite support and are
orthogonal across different supports, which block-diagonalizes the
unitary-invariant transfer matrix and block-lower-triangularizes the
Stinespring-dilated one.  All matrices here are indexed by the canonical
order of ``symmgroup.symmetric_group(t)``.

Both the transport and the localized Gram matrix are products L M L^T with
L supported on the sub-permutation order and L and M fixed by simultaneous
conjugation of S_t, so ``symmgroup.class_product`` takes them from the
class rows of L, on the exact or float numerators of ``exactalg.split``
alike.  L is read from one cached table each: for the transport, zeta^T
from the boolean ``_subperm_table``; for the Gram, the int16 Möbius matrix
of ``_order_matrix``.  numpy's dot casts either to the number type of M.
The transport reads and writes the class rows of
``specs.TransferMatrix``; only the right operand M is gathered in full.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import log

import numpy as np

from . import symmgroup as sg
from .exactalg import join, split
from .specs import LOCALIZED, PERMUTATION, EnsembleSpec, TransferMatrix


@lru_cache(maxsize=None)
def _subperm_table(t: int) -> np.ndarray:
    """Boolean matrix of the partial order: entry (i, j) iff sigma_j <= sigma_i."""
    tab = sg.product_table(t)
    return tab.size[tab.prod.T] == tab.size[:, None] - tab.size[None, :]


def phi_inverse(t: int) -> np.ndarray:
    """Zeta matrix of the sub-permutation order, entries 0/1."""
    table = _subperm_table(t)
    n = table.shape[0]
    out = np.full((n, n), 0, dtype=object)
    out[table] = 1
    return out


@lru_cache(maxsize=None)
def _order_matrix(t: int) -> np.ndarray:
    """The Möbius matrix L of the localized Gram L R L^T, in int16."""
    tab = sg.product_table(t)
    out = np.where(_subperm_table(t), tab.mobius[tab.prod.T], 0)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def phi_matrix(t: int) -> np.ndarray:
    """Möbius matrix: entry (sigma, pi) = mobius(inv(pi) sigma) on the order.

    Python ints; cached and read-only, since every caller shares it.
    """
    out = _order_matrix(t).astype(object)
    out.flags.writeable = False
    return out


def localized_gram(t: int, d: int, exact: bool = True) -> np.ndarray:
    """Normalized overlaps of the localized operators; block-diagonal in support.

    Computed as phi . R . phi^T with R(eta, kappa) =
    d^(size(eta) + size(kappa) - size(inv(eta) kappa)), which is a
    non-negative power of d by the triangle inequality of the size metric:
    Python ints on the exact path, floats otherwise.
    """
    if t < 1 or d < 1:
        raise ValueError("t and d must be >= 1")
    tab = sg.product_table(t)
    expo = tab.size[:, None] + tab.size[None, :] - tab.size[tab.prod]
    lower = _order_matrix(t)
    # The class rows of L R first, so that R is freed before L^T is cast.
    rows = lower[tab.reps].dot(
        np.array([d**e for e in range(2 * t - 1)], dtype=object if exact else float)[expo])
    return sg.from_class_rows(t, sg.class_product(rows, lower.T))


def to_localized(tm: TransferMatrix) -> TransferMatrix:
    """Transport a permutation-basis transfer matrix to the localized basis.

    With zeta the sub-permutation indicator and chi the system characters,
    the localized coefficients are zeta^T (chi tau chi) zeta: each entry
    sums the character-weighted permutation coefficients over all pairs of
    sup-permutations.  With tau = A / a (``exactalg.split``) and
    chi = c / d^(t-1), c = d^(t-1-size) integral, this is the matrix
    zeta^T (c A c) zeta over a d^(2t-2), in the number type of A, split and
    joined on the class rows; c A c is gathered in full from its rows.
    """
    if tm.basis != PERMUTATION:
        raise ValueError("input transfer matrix is not in the permutation basis")
    t, d = tm.t, tm.d
    tab = sg.product_table(t)
    nums, denom = split(tm.rows)
    c = np.array([d ** (t - 1 - s) for s in range(t)], dtype=nums.dtype)[tab.size]
    order = _subperm_table(t)
    cac = sg.from_class_rows(t, nums * c[tab.reps][:, None] * c[None, :])
    out = sg.class_product(order[:, tab.reps].T, cac, order)
    return replace(tm, rows=join(out, denom * d ** (2 * t - 2)), basis=LOCALIZED)


def support_pattern(t: int):
    """(same_support, contains) boolean matrices over the canonical order."""
    mask = sg.product_table(t).mask
    same = mask[:, None] == mask[None, :]
    contains = (mask[:, None] & mask[None, :]) == mask[None, :]
    return same, contains


@dataclass(frozen=True)
class ExponentReport:
    """Per-entry leading 1/d exponents of a transfer matrix.

    ``exponents`` holds the rounded integer exponent where defined,
    ``structural_zero`` marks entries exactly zero at both probe dimensions,
    and ``mixed_order`` marks entries whose estimate is further than 0.1
    from an integer (or zero at only one probe dimension).
    """

    exponents: np.ndarray
    structural_zero: np.ndarray
    mixed_order: np.ndarray
    d_pair: tuple


def _resolve_dE(rule, d: int) -> int:
    """Environment dimension of a rule at system dimension d: an integer,
    "d", "d2" (d^2), or None (1).  Rejects a rule that gives dE < 1."""
    if isinstance(rule, int):
        dE = rule
    elif rule is None:
        dE = 1
    elif rule == "d":
        dE = d
    elif rule == "d2":
        dE = d * d
    elif isinstance(rule, str) and rule.isdigit():
        dE = int(rule)
    else:
        raise ValueError(f"unknown environment-dimension rule {rule!r}")
    if dE < 1:
        raise ValueError(f"environment-dimension rule {rule!r} gives dE = {dE}, need dE >= 1")
    return dE


def scaling_exponents(
    ensemble_kind: str,
    t: int,
    d_pair: tuple,
    dE_rule="d2",
    basis: str = LOCALIZED,
) -> ExponentReport:
    """Estimate per-entry power laws in 1/d from two probe dimensions.

    Entries exactly zero at both dimensions are structural zeros; nonzero
    entries get l = log(|v1|/|v2|) / log(d2/d1), flagged as mixed order when
    not within 0.1 of an integer.
    """
    from . import moments

    d1, d2 = d_pair
    if d2 <= d1:
        raise ValueError("d_pair must be increasing")
    mats = []
    for d in (d1, d2):
        spec = EnsembleSpec(ensemble_kind, d=d, t=t, dE=_resolve_dE(dE_rule, d))
        tm = moments.transfer(spec, basis=basis, exact=True)
        mats.append(tm.matrix)
    zero1, zero2 = mats[0] == 0, mats[1] == 0
    live = ~(zero1 | zero2)
    est = np.zeros(zero1.shape)
    est[live] = np.log((np.abs(mats[0][live]) / np.abs(mats[1][live])).astype(float))
    est /= log(d2 / d1)
    rounded = np.rint(est)
    near = np.abs(est - rounded) < 0.1
    expo = np.where(live & near, rounded, 0).astype(int)
    return ExponentReport(expo, zero1 & zero2, (zero1 ^ zero2) | (live & ~near), (d1, d2))
