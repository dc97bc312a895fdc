"""Permutation algebra for the symmetric group S_t.

Conventions used throughout the package:

- a permutation is stored by its image tuple, ``sigma(i) = images[i]``;
- ``compose(a, b)`` applies ``b`` first, i.e. ``compose(a, b)(i) = a(b(i))``;
- a cycle ``(c0, c1, ..., ck)`` maps ``c0 -> c1 -> ... -> ck -> c0``;
- ``size(sigma)`` is the minimal number of transpositions in a factorization
  of ``sigma``, equal to ``t`` minus the number of orbits (fixed points count
  as orbits).

The sub-permutation partial order ``pi <= sigma`` is additivity of the size
metric, ``size(inv(pi) * sigma) == size(sigma) - size(pi)``.  Below a fixed
cycle this order is the lattice of non-crossing partitions of the cycle's
index sequence, which is what ``enumerate_subpermutations`` exploits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb

import numpy as np

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
        if not self.cycles:
            return f"Perm(e, t={self.t})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in self.cycles)
        return f"Perm({body}, t={self.t})"

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


def size(sigma: Permutation) -> int:
    """Minimal transposition count: t minus the number of orbits."""
    return sigma.size


def support(sigma: Permutation) -> frozenset:
    return sigma.support


def relative_size(pi: Permutation, sigma: Permutation) -> int:
    """size(inv(pi) * sigma), the transposition distance from pi to sigma."""
    return compose(inverse(pi), sigma).size


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def _noncrossing_partitions(items):
    """All non-crossing partitions of an ordered sequence, as block lists.

    Recursion on the block containing the first element: chosen block members
    split the remainder into independent gaps, which keeps every produced
    partition non-crossing by construction.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    m = len(rest)
    for k in range(m + 1):
        for picks in combinations(range(m), k):
            block = [first] + [rest[i] for i in picks]
            bounds = list(picks) + [m]
            gaps = []
            lo = 0
            for b in bounds:
                gaps.append(rest[lo:b])
                lo = b + 1
            for sub in product(*[list(_noncrossing_partitions(g)) for g in gaps]):
                out = [block]
                for part in sub:
                    out.extend(part)
                yield out


def enumerate_subpermutations(sigma: Permutation) -> list:
    """All pi with pi below sigma, built per cycle from non-crossing partitions.

    A block {i1 < i2 < ...} of positions inside a cycle (c0, c1, ...) becomes
    the sub-cycle (c_i1, c_i2, ...) in the same orientation.  The count is the
    product of Catalan numbers of the cycle lengths.
    """
    t = sigma.t
    per_cycle = []
    for cyc in sigma.cycles:
        opts = []
        for part in _noncrossing_partitions(range(len(cyc))):
            blocks = [tuple(cyc[i] for i in block) for block in part if len(block) > 1]
            opts.append(blocks)
        per_cycle.append(opts)
    out = []
    for combo in product(*per_cycle):
        blocks = [b for blocks in combo for b in blocks]
        out.append(from_cycles(t, blocks))
    out.sort(key=canonical_key)
    return out


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


def character(sigma: Permutation, d: int, pi: Permutation | None = None):
    """Normalized overlap d^(-size); two-argument form uses inv(sigma)*pi."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    k = sigma.size if pi is None else relative_size(sigma, pi)
    return Fraction(1, d**k)


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
        mobius=np.array([mobius(p) for p in group], dtype=np.int64),
        mask=np.array([canonical_key(p)[1] for p in group], dtype=np.int64),
        reps=reps,
        class_sizes=np.bincount(cls),
        rep_cls=cls[prod[reps]],
        rep_size=size[prod[reps]],
    )


@lru_cache(maxsize=None)
def conjugation_table(t: int) -> np.ndarray:
    """``conj[a, b]``: the index of g^-1 sigma_b g, for one g with g r g^-1 =
    sigma_a and r the representative of sigma_a's class; gathers on ``prod``."""
    tab = product_table(t)
    inv = tab.prod[:, 0]
    # Row c is g r_c g^-1 over all g; take the first g that gives each a.
    g = np.unique(tab.prod[inv[tab.prod[inv[:, None], tab.reps].T], inv], return_index=True)[1]
    g %= len(inv)
    conj = tab.prod[inv[tab.prod[g]], g[:, None]]
    conj.flags.writeable = False
    return conj


def from_class_rows(t: int, rows: np.ndarray) -> np.ndarray:
    """The conjugation-invariant matrix with these rows at ``product_table(t).reps``."""
    return rows[product_table(t).cls[:, None], conjugation_table(t)]


def check_conjugation_invariant(t: int, *matrices) -> None:
    """Raise ValueError unless each matrix is t! x t! and exactly its own ``from_class_rows``."""
    reps, n = product_table(t).reps, len(product_table(t).cls)
    if not all(m.shape == (n, n) and np.array_equal(from_class_rows(t, m[reps]), m)
               for m in matrices):
        raise ValueError(f"operand is not a {n} x {n} matrix fixed by simultaneous conjugation")


@dataclass(frozen=True, eq=False)
class SymmetryBlock:
    """One character block of ``symmetry_blocks``.

    ``reps`` are the orbit representatives r_i whose stabilizer H_i lies in
    the kernel of the character chi, and ``scale`` is 1 / sqrt(|H_i|).
    ``weights[i, k, j]`` is the sum of chi(h) over the h in H with
    r_i^-1 (h r_j) in class k, so M = m[prod], for m a class function with
    class values m_cls, has block u_i^T M u_j =
    scale_i scale_j (m_cls @ weights)[i, j].  Basis vector u_i has entry
    ``coef`` at element ``rows`` for each row with ``pos`` = i.
    """

    reps: np.ndarray
    scale: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    pos: np.ndarray
    coef: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            a.flags.writeable = False


@lru_cache(maxsize=None)
def symmetry_blocks(t: int) -> tuple:
    """The ``SymmetryBlock`` of each character of H, the group generated by
    inversion J and conjugation Ad_g by each of (0 1), (2 3), ....

    H = Z_2^m with m = 1 + t // 2 fixes size and every class function read
    over ``prod``, so it commutes with D = diag(f[size]) and C = c[prod].
    Its characters chi_s(h) = (-1)^popcount(s & h) are real, and the vectors
    u_i = sum_h chi(h) e_{h r_i} / sqrt(|H| |H_i|), over the orbits whose
    stabilizer H_i lies in ker chi, form an orthonormal basis of R^(t!)
    over all chi.  Images are gathers on ``prod``: J = prod[:, 0] and
    Ad_g(sigma) = prod[inv[prod[g, sigma]], g] (g^-1 = g).
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
    order = np.count_nonzero(stab, axis=0)
    chi = 1.0 - 2.0 * odd
    classes = np.arange(len(tab.reps))[:, None, None, None]
    blocks = []
    for s in range(len(act)):
        keep = np.flatnonzero(trivial[s])
        if not len(keep):
            continue
        reps = orbit_reps[keep]
        elems = act[:, reps]  # (h, i): h r_i
        rows, first = np.unique(elems, return_index=True)
        h, pos = np.divmod(first, len(reps))
        cls = tab.cls[tab.prod[reps[:, None], elems[:, None, :]]]  # (h, i, j)
        blocks.append(SymmetryBlock(
            reps=reps,
            scale=1.0 / np.sqrt(order[keep]),
            weights=np.einsum("khij,h->ikj", cls == classes, chi[s]).astype(np.int8),
            rows=rows,
            pos=pos,
            coef=chi[s, h] * np.sqrt(order[keep][pos] / len(act)),
        ))
    return tuple(blocks)
