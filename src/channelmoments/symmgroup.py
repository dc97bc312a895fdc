"""Permutation algebra for the symmetric group S_t, on int8 image arrays.

Conventions used throughout the package:

- a permutation is a row of images, ``sigma(i) = images[i]``, and
  ``symmetric_group(t)`` holds all of S_t as a (t!, t) int8 array in
  canonical order;
- a product applies its right factor first, ``(a b)(i) = a(b(i))``;
- a cycle ``(c0, c1, ..., ck)`` maps ``c0 -> c1 -> ... -> ck -> c0``;
- the size of sigma is the minimal number of transpositions in a
  factorization of sigma, equal to ``t`` minus the number of orbits (fixed
  points count as orbits).

Every table over S_t is an array indexed by canonical position: the
per-element size, class, Möbius value and support mask, and the product
table of inv(sigma_i) sigma_j.  The sub-permutation partial order
``pi <= sigma`` is additivity of the size metric,
``size(inv(pi) * sigma) == size(sigma) - size(pi)``.  Below a fixed cycle
this order is the lattice of non-crossing partitions of the cycle's index
sequence, so the count below sigma is a product of Catalan numbers over
its cycles, and its Möbius value one of signed Catalan numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import permutations
from math import comb
from typing import NamedTuple

import numpy as np

from .exactalg import mat_eq

DEFAULT_MAX_ORDER = 6
MAX_ORDER_ENV = "CHANNEL_MOMENTS_MAX_T"


def max_order() -> int:
    """Largest allowed copy count t (720 permutations by default)."""
    raw = os.environ.get(MAX_ORDER_ENV, str(DEFAULT_MAX_ORDER))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_ORDER_ENV}={raw!r} is not an integer") from None


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


class _Elements(NamedTuple):
    """S_t in canonical order: ``images`` (t!, t) int8, and per element its
    ``size`` (int8), class ``cls`` (int8, position in ``classes``), Möbius
    value ``mobius`` (int16) and support bitmask ``mask`` (int64);
    ``classes`` is the value of ``conjugacy_classes``."""

    images: np.ndarray
    size: np.ndarray
    cls: np.ndarray
    mobius: np.ndarray
    mask: np.ndarray
    classes: tuple


@lru_cache(maxsize=None)
def _elements(t: int) -> _Elements:
    """The ``_Elements`` of S_t, read-only, from the image rows alone.

    The canonical order sorts by (support size, support mask, images).
    The cycle length of each point comes from t gathers of the image rows,
    and the rows of lengths, sorted descending, are unique per cycle type;
    their lexicographic order is that of the partitions.
    """
    images = np.array(list(permutations(range(t))), dtype=np.int8).reshape(-1, t)
    moved = images != np.arange(t)
    mask = moved @ (1 << np.arange(t, dtype=np.int64))
    order = np.lexsort((*images.T[::-1], mask, moved.sum(axis=1)))
    images, mask = images[order], mask[order]
    lengths = np.zeros_like(images)
    power = images
    for k in range(1, t + 1):
        lengths[(power == np.arange(t)) & (lengths == 0)] = k
        power = np.take_along_axis(images, power, axis=1)
    rows, cls, counts = np.unique(-np.sort(-lengths, axis=1), axis=0,
                                  return_inverse=True, return_counts=True)
    classes, size, mobius = [], [], []
    for row, count in zip(rows.tolist(), counts.tolist()):
        parts, j = [], 0
        while j < t:
            parts.append(row[j])
            j += row[j]
        classes.append((tuple(parts), count))
        size.append(t - len(parts))
        mobius.append(np.prod([(-1) ** (k - 1) * catalan(k - 1) for k in parts]))
    cls = cls.ravel().astype(np.int8)
    out = _Elements(images, np.array(size, dtype=np.int8)[cls], cls,
                    np.array(mobius, dtype=np.int16)[cls], mask, tuple(classes))
    for a in out[:5]:
        a.flags.writeable = False
    return out


def symmetric_group(t: int) -> np.ndarray:
    """All of S_t as a read-only (t!, t) int8 array of image rows,
    ``sigma(i) = images[i]``, in canonical order (identity first)."""
    if t < 1:
        raise ValueError("order must be >= 1")
    if t > max_order():
        raise ValueError(
            f"t={t} exceeds the cap {max_order()} "
            f"(set {MAX_ORDER_ENV} to raise it)"
        )
    return _elements(t).images


def conjugacy_classes(t: int) -> tuple:
    """Cycle types (partitions of t, parts descending) in sorted order,
    paired with member counts."""
    symmetric_group(t)  # the cap check
    return _elements(t).classes


@dataclass(frozen=True, eq=False)
class ProductTable:
    """Relative products of S_t in canonical order, with per-element data.

    ``prod[i, j]`` is the canonical index of inv(sigma_i) * sigma_j.  Every
    pair table over S_t (Gram, Weingarten, sub-permutation order, Möbius
    matrix, localized Gram) is a per-element vector indexed by ``prod``.
    ``size``, ``cls`` (position in ``conjugacy_classes``), ``mobius`` and
    ``mask`` (support bitmask) are indexed by canonical position.  ``reps``
    is the first canonical index in each class and ``class_sizes`` the
    member count, both in ``conjugacy_classes`` order; ``rep_cls`` holds the
    rows of ``cls[prod]`` there, and ``algebra[r, a, b]`` the count of u with
    inv(rep_r) u in class a and u in class b (see ``convolution``).
    """

    prod: np.ndarray
    size: np.ndarray
    cls: np.ndarray
    mobius: np.ndarray
    mask: np.ndarray
    reps: np.ndarray
    class_sizes: np.ndarray
    rep_cls: np.ndarray
    algebra: np.ndarray

    def __post_init__(self):
        # The cached table is shared by every caller.
        for a in vars(self).values():
            a.flags.writeable = False


@lru_cache(maxsize=None)
def product_table(t: int) -> ProductTable:
    """The cached ``ProductTable`` of S_t, built from int8 image arrays.

    Composition is fancy indexing on the images, and the index of each
    product comes from a lookup on the base-t code of its image row.  Rows
    are built one at a time, so temporaries stay at t! * t entries.
    """
    images = symmetric_group(t)
    el = _elements(t)
    n = len(images)
    inverses = np.argsort(images, axis=1).astype(np.int8)
    weights = t ** np.arange(t - 1, -1, -1, dtype=np.int64)
    codes = images @ weights
    lookup = np.zeros(t**t, dtype=np.int32)
    lookup[codes] = np.arange(n)
    prod = np.empty((n, n), dtype=np.int16 if n <= 2**15 else np.int32)
    for i in range(n):
        prod[i] = lookup[inverses[i][images] @ weights]
    cls, reps = el.cls, np.unique(el.cls, return_index=True)[1]
    rep_cls, p = cls[prod[reps]], len(reps)
    flat = (np.arange(p)[:, None] * p + rep_cls) * p + cls
    return ProductTable(
        prod=prod,
        size=el.size,
        cls=cls,
        mobius=el.mobius,
        mask=el.mask,
        reps=reps,
        class_sizes=np.bincount(cls),
        rep_cls=rep_cls,
        algebra=np.bincount(flat.ravel(), minlength=p**3).reshape(p, p, p),
    )


def convolution(t: int, b: np.ndarray) -> np.ndarray:
    """Convolution by the class function b, a p(t) x p(t) matrix on values by
    class: ``convolution(t, b) @ a`` is a * b = b * a, sum_u a(g inv(u)) b(u)
    at g = rep_r; exact on object arrays, float otherwise."""
    return product_table(t).algebra @ b


@lru_cache(maxsize=None)
def conjugation_table(t: int) -> np.ndarray:
    """``flat[a, b]``: the index into the raveled class rows of the entry at
    (a, b), ``cls[a] * t! + conj[a, b]``, with ``conj[a, b]`` the index of
    g^-1 sigma_b g for one g with g r g^-1 = sigma_a and r the
    representative of sigma_a's class; int16 while p(t) t! < 2^15 (t <= 6),
    else int32.  Gathers on ``prod``."""
    tab = product_table(t)
    inv, n = tab.prod[:, 0], len(tab.cls)
    # Row c is g r_c g^-1 over all g; take the first g that gives each a.
    g = np.unique(tab.prod[inv[tab.prod[inv[:, None], tab.reps].T], inv], return_index=True)[1]
    g %= n
    dtype = np.int16 if len(tab.reps) * n < 2**15 else np.int32
    flat = tab.prod[inv[tab.prod[g]], g[:, None]].astype(dtype)
    flat += n * tab.cls[:, None].astype(dtype)
    flat.flags.writeable = False
    return flat


def from_class_rows(t: int, rows: np.ndarray, at=slice(None)) -> np.ndarray:
    """The conjugation-invariant matrix with these rows at ``product_table(t).reps``,
    or its rows ``at`` (an int gives one row): one gather of the raveled
    rows through ``conjugation_table(t)``."""
    return rows.ravel()[conjugation_table(t)[at]]


def class_product(rows: np.ndarray, *rest) -> np.ndarray:
    """The class rows of F @ rest[0] @ ... for t! x t! matrices fixed by
    simultaneous conjugation, F given by its ``rows`` at the class
    representatives and the right operands in full, in the number type of
    the operands: p(t) x t! by t! x t! products, left to right.  The
    operands are not checked."""
    return reduce(np.dot, rest, rows)


def check_conjugation_invariant(t: int, matrix: np.ndarray) -> np.ndarray:
    """The rows at ``product_table(t).reps`` of ``matrix``; raise ValueError
    unless it is t! x t! and exactly its own ``from_class_rows``."""
    reps, n = product_table(t).reps, len(product_table(t).cls)
    if not (matrix.shape == (n, n) and mat_eq(from_class_rows(t, matrix[reps]), matrix)):
        raise ValueError(f"operand is not a {n} x {n} matrix fixed by simultaneous conjugation")
    return matrix[reps]


class SymmetryBlocks(NamedTuple):
    """The blocks of ``symmetry_blocks``, one per character chi, and their
    orthonormal basis U.

    ``groups`` holds, by block size m, a tuple (cols, reps, stab, weights)
    for the g blocks of that size.  Block i has the basis vectors u_a at the
    columns ``cols[i, a]`` of U, for the orbit representatives
    r_a = ``reps[i, a]`` whose stabilizers H_a lie in the kernel of chi, and
    ``stab[i, a]`` = |H_a| (int64), a divisor of ``order`` = |H|.
    ``weights[i, a, k, b]`` (int8) is the sum of chi(h) over the h in H with
    r_a^-1 (h r_b) in class k, so M = m[prod], for m a class function with
    class values m_cls, has block u_a^T M u_b = s_a s_b (m_cls @ weights)[i, a, b]
    with the scales s_a = 1 / sqrt(|H_a|).
    Row r of U, the lift of block coordinates to S_t, has entry
    ``lift_coef[e]`` in column ``lift_cols[e]`` for
    ``row_starts[r]`` <= e < ``row_starts[r + 1]``, in block order.
    """

    groups: tuple
    lift_cols: np.ndarray
    lift_coef: np.ndarray
    row_starts: np.ndarray
    order: int


@lru_cache(maxsize=None)
def symmetry_blocks(t: int) -> SymmetryBlocks:
    """The ``SymmetryBlocks`` of H, the group generated by inversion J and
    conjugation Ad_g by each of (0 1), (2 3), ....

    H = Z_2^m with m = 1 + t // 2 fixes size and every class function read
    over ``prod``, so it commutes with D = diag(f[size]) and C = c[prod].
    Its characters chi_s(h) = (-1)^popcount(s & h) are real, and the vectors
    u_i = sum_h chi(h) e_{h r_i} / sqrt(|H| |H_i|), over the orbits whose
    stabilizer H_i lies in ker chi, form an orthonormal basis of R^(t!)
    over all chi.  The blocks take the columns in character order.  Images
    are gathers on ``prod``: J = prod[:, 0] and Ad_g(sigma) =
    prod[inv[prod[g, sigma]], g] (g^-1 = g).
    """
    tab = product_table(t)
    n = len(tab.cls)
    inv = tab.prod[:, 0].astype(np.intp)
    gens = [inv]
    for a in range(0, t - 1, 2):
        # (a a+1) is the only element with support {a, a+1}.
        g = np.flatnonzero(tab.mask == 3 << a)[0]
        gens.append(tab.prod[inv[tab.prod[g]], g].astype(np.intp))
    # act[h] for h a bitmask over the generators.
    act = np.empty((1 << len(gens), n), dtype=np.intp)
    act[0] = np.arange(n)
    for b, gen in enumerate(gens):
        act[1 << b:2 << b] = gen[act[:1 << b]]
    bits = np.arange(len(act))
    odd = np.bitwise_count(bits[:, None] & bits) & 1  # chi_s(h) = (-1)^odd[s, h]
    orbit_reps = np.flatnonzero(act.min(axis=0) == act[0])
    stab = act[:, orbit_reps] == orbit_reps  # (h, orbit)
    trivial = odd @ stab == 0  # (s, orbit): chi_s is 1 on all of H_i
    stab_order = np.count_nonzero(stab, axis=0)
    chi = 1.0 - 2.0 * odd
    classes = np.arange(len(tab.reps))[:, None, None, None]
    blocks, lift, start = [], [], 0
    for s in range(len(act)):
        keep = np.flatnonzero(trivial[s])
        if not len(keep):
            continue
        reps = orbit_reps[keep]
        elems = act[:, reps]  # (h, i): h r_i
        rows, first = np.unique(elems, return_index=True)
        h, pos = np.divmod(first, len(reps))
        cls = tab.cls[tab.prod[reps[:, None], elems[:, None, :]]]  # (h, i, j)
        weights = np.einsum("khij,h->ikj", cls == classes, chi[s]).astype(np.int8)
        blocks.append((start + np.arange(len(reps)), reps, stab_order[keep], weights))
        lift.append((rows, start + pos, chi[s, h] * np.sqrt(stab_order[keep][pos] / len(act))))
        start += len(reps)
    groups = []
    for m in sorted({len(b[0]) for b in blocks}):
        # (cols, reps, stab, weights), each stacked over the blocks of size m.
        groups.append(tuple(map(np.array, zip(*(b for b in blocks if len(b[0]) == m)))))
    rows, cols, coef = map(np.concatenate, zip(*lift))
    by_row = np.argsort(rows, kind="stable")
    out = SymmetryBlocks(tuple(groups), cols[by_row], coef[by_row],
                         np.searchsorted(rows[by_row], np.arange(n)), len(act))
    for a in (*out[1:4], *(a for g in groups for a in g)):
        a.flags.writeable = False
    return out
