"""Permutation algebra for the symmetric group S_t.

Conventions used throughout the package:

- a permutation is stored by its image tuple, ``sigma(i) = images[i]``;
- ``compose(a, b)`` applies ``b`` first, i.e. ``compose(a, b)(i) = a(b(i))``;
- a cycle ``(c0, c1, ..., ck)`` maps ``c0 -> c1 -> ... -> ck -> c0``;
- ``sigma.size`` is the minimal number of transpositions in a factorization
  of ``sigma``, equal to ``t`` minus the number of orbits (fixed points count
  as orbits).

The sub-permutation partial order ``pi <= sigma`` is additivity of the size
metric, ``size(inv(pi) * sigma) == size(sigma) - size(pi)``.  Below a fixed
cycle this order is the lattice of non-crossing partitions of the cycle's
index sequence, so ``subpermutation_count`` is a product of Catalan numbers
over the cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, reduce
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


class OrderMismatchError(ValueError):
    """Raised when combining permutations of different order t."""


class Permutation:
    """An element of S_t, with eagerly computed cycle data.

    Instances are immutable and hashable; all derived quantities (cycles,
    size, support) are computed once at construction.
    """

    __slots__ = ("images", "t", "cycles", "size", "support", "_hash")

    def __init__(self, images):
        images = tuple(images)
        t = len(images)
        if sorted(images) != list(range(t)):
            raise ValueError(f"not a bijection on [{t}]: {images!r}")
        self.images = images
        self.t = t

        seen = [False] * t
        cycles = []
        for start in range(t):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = images[j]
            if len(cyc) > 1:
                cycles.append(tuple(cyc))
        self.cycles = tuple(sorted(cycles))
        self.size = sum(len(c) - 1 for c in cycles)
        self.support = frozenset(i for i in range(t) if images[i] != i)
        self._hash = hash(images)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Perm({self.cycle_label()}, t={self.t})"

    def cycle_type(self):
        """Partition of t listing all orbit lengths, fixed points included."""
        lens = [len(c) for c in self.cycles]
        lens += [1] * (self.t - sum(lens))
        return tuple(sorted(lens, reverse=True))

    def cycle_label(self) -> str:
        """Compact text form, e.g. ``e`` or ``(0 1)(2 3 4)``."""
        if not self.cycles:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles)


def identity(t: int) -> Permutation:
    return Permutation(range(t))


def transposition(t: int, i: int, j: int) -> Permutation:
    images = list(range(t))
    images[i], images[j] = j, i
    return Permutation(images)


def from_cycles(t: int, cycles) -> Permutation:
    """Build a permutation from disjoint cycles, each mapping c[k] -> c[k+1]."""
    images = list(range(t))
    for cyc in cycles:
        for k, c in enumerate(cyc):
            images[c] = cyc[(k + 1) % len(cyc)]
    return Permutation(images)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Product a∘b: apply b, then a."""
    if a.t != b.t:
        raise OrderMismatchError(f"order mismatch: {a.t} != {b.t}")
    return Permutation(tuple(a.images[b.images[i]] for i in range(a.t)))


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.t
    for i, x in enumerate(a.images):
        inv[x] = i
    return Permutation(inv)


def support(sigma: Permutation) -> frozenset:
    return sigma.support


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def subpermutation_count(sigma: Permutation) -> int:
    """Catalan-product count of the lattice below sigma (no enumeration)."""
    n = 1
    for cyc in sigma.cycles:
        n *= catalan(len(cyc))
    return n


def mobius(sigma: Permutation) -> int:
    """Product over cycles of (-1)^(len-1) * catalan(len-1)."""
    m = 1
    for cyc in sigma.cycles:
        k = len(cyc) - 1
        m *= (-1) ** k * catalan(k)
    return m


def canonical_key(sigma: Permutation):
    """Sort key grouping permutations by support, smallest supports first."""
    mask = 0
    for i in sigma.support:
        mask |= 1 << i
    return (len(sigma.support), mask, sigma.images)


@lru_cache(maxsize=None)
def _symmetric_group_cached(t: int) -> tuple:
    from itertools import permutations as _perms

    elems = [Permutation(p) for p in _perms(range(t))]
    elems.sort(key=canonical_key)
    return tuple(elems)


def symmetric_group(t: int) -> tuple:
    """All of S_t in canonical block order (identity first)."""
    if t < 1:
        raise ValueError("order must be >= 1")
    if t > max_order():
        raise ValueError(
            f"t={t} exceeds the cap {max_order()} "
            f"(set {MAX_ORDER_ENV} to raise it)"
        )
    return _symmetric_group_cached(t)


@lru_cache(maxsize=None)
def conjugacy_classes(t: int) -> tuple:
    """Cycle types in sorted order, paired with member counts."""
    counts: dict = {}
    for p in symmetric_group(t):
        key = p.cycle_type()
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


@dataclass(frozen=True, eq=False)
class ProductTable:
    """Relative products of S_t in canonical order, with per-element data.

    ``prod[i, j]`` is the canonical index of inv(sigma_i) * sigma_j.  Every
    pair table over S_t (Gram, Weingarten, sub-permutation order, Möbius
    matrix, localized Gram) is a per-element vector indexed by ``prod``.
    ``size``, ``cls`` (position in ``conjugacy_classes``), ``mobius`` and
    ``mask`` (support bitmask) are indexed by canonical position.  ``reps``
    is the first canonical index in each class and ``class_sizes`` the
    member count, both in ``conjugacy_classes`` order; ``rep_cls`` and
    ``rep_size`` are the rows of ``cls[prod]`` and ``size[prod]`` there.
    """

    prod: np.ndarray
    size: np.ndarray
    cls: np.ndarray
    mobius: np.ndarray
    mask: np.ndarray
    reps: np.ndarray
    class_sizes: np.ndarray
    rep_cls: np.ndarray
    rep_size: np.ndarray

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
    group = symmetric_group(t)
    n = len(group)
    images = np.array([p.images for p in group], dtype=np.int8).reshape(n, t)
    inverses = np.argsort(images, axis=1).astype(np.int8)
    weights = t ** np.arange(t - 1, -1, -1, dtype=np.int64)
    codes = images @ weights
    lookup = np.zeros(t**t, dtype=np.int32)
    lookup[codes] = np.arange(n)
    prod = np.empty((n, n), dtype=np.int16 if n <= 2**15 else np.int32)
    for i in range(n):
        prod[i] = lookup[inverses[i][images] @ weights]
    kidx = {key: c for c, (key, _) in enumerate(conjugacy_classes(t))}
    cls = np.array([kidx[p.cycle_type()] for p in group], dtype=np.int8)
    size = np.array([p.size for p in group], dtype=np.int8)
    reps = np.unique(cls, return_index=True)[1]
    return ProductTable(
        prod=prod,
        size=size,
        cls=cls,
        mobius=np.array([mobius(p) for p in group], dtype=np.int16),
        mask=np.array([canonical_key(p)[1] for p in group], dtype=np.int64),
        reps=reps,
        class_sizes=np.bincount(cls),
        rep_cls=cls[prod[reps]],
        rep_size=size[prod[reps]],
    )


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
