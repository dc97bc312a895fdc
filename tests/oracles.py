"""Reference implementations that only the tests use.

Each one computes by a route independent of (or more literal than) the
package code it checks, or is a helper that only the tests call: the
``Permutation`` object layer (the class with its cycles, size, support,
cycle type and cycle label, the identity, transpositions, permutations
from cycles, composition, inverse, support, the Catalan-product count of
the order below an element, its Möbius value, the canonical sort key, and
all of S_t as objects in canonical order), the index
of each element of S_t, the class-algebra structure constants by
composition, the class of each pair of elements, the inverse of
``channels.vectorize``, a channel applied through its superoperator, the
trace-preservation and unitality tests of a superoperator, Fraction
matrices from rows, the relative size and the normalized character of
permutations, the sub-permutation order by
the size metric and by non-crossing partitions of each cycle, the
derangement count, a quadruple-sum norm,
the leading-eigenvector overlap, two exact matrix inverses, a reordered
two-copy superoperator, the t-fold superoperator as a sum over Kraus
tuples, the Pauli transfer matrix as a loop of traces, a one-leg channel
through krons of full-width Kraus operators, an explicit depolarizing
Kraus set, the dense gate twirls, the single-copy input vector, the dense
two-copy circuit evolution, the Pauli-pair twirl of dense coefficient
matrices (a stack of them at once), the evolution over all 16^n Pauli-pair
coefficients, the sparse pair evolution that stores both triangles, the
dense single-generator twirls over strings and string pairs (by Pauli
overlaps and in closed form), the dense Haar pair twirl, the Haar and
single-generator composite norms as powers of dense matrices, the
two-copy weights in closed form, the Monte-Carlo estimators as loops over
single draws, the dilated ensemble's transfer
matrix as t!^2 products, every reference transfer matrix built and
carried in full, the
right eigenpairs of tau X from one dense t! x t! eigensolve, the
reference norms and traces from the rows at the class representatives,
the dense
symmetry-block basis from its lift and the block eigenpairs lifted to a
dense eigenvector matrix with it, the spectral residuals
from dense matrix powers, the localized Gram from its full exponent
table, and the scaling exponents as a loop over matrix entries.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations, permutations, product
from math import factorial, log, sqrt

import numpy as np

from channelmoments import channels as ch
from channelmoments import localized as loc
from channelmoments import moments as mo
from channelmoments import symmgroup as sg
from channelmoments import twirlsim as tw
from channelmoments import weingarten as wg
from channelmoments.exactalg import SingularMatrixError, join, solve_exact, split_all, to_integer
from channelmoments.moments import MCEstimate, leading_right_vector
from channelmoments.specs import CHAAR, DEPOLARIZE, HAAR, LOCALIZED, ZERO_STATE, CircuitSpec


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


def subpermutation_count(sigma: Permutation) -> int:
    """Catalan-product count of the lattice below sigma (no enumeration)."""
    n = 1
    for cyc in sigma.cycles:
        n *= sg.catalan(len(cyc))
    return n


def mobius(sigma: Permutation) -> int:
    """Product over cycles of (-1)^(len-1) * catalan(len-1)."""
    m = 1
    for cyc in sigma.cycles:
        k = len(cyc) - 1
        m *= (-1) ** k * sg.catalan(k)
    return m


def canonical_key(sigma: Permutation):
    """Sort key grouping permutations by support, smallest supports first."""
    mask = 0
    for i in sigma.support:
        mask |= 1 << i
    return (len(sigma.support), mask, sigma.images)


@lru_cache(maxsize=None)
def symmetric_group(t: int) -> tuple:
    """All of S_t as ``Permutation`` objects in canonical order (identity
    first), sorted by ``canonical_key``; oracle for
    ``symmgroup.symmetric_group``."""
    return tuple(sorted(map(Permutation, permutations(range(t))), key=canonical_key))


@lru_cache(maxsize=None)
def group_index(t: int) -> dict:
    """images tuple -> position in the canonical order of S_t."""
    return {p.images: i for i, p in enumerate(symmetric_group(t))}


def class_algebra_counts(t: int) -> np.ndarray:
    """(p(t), p(t), p(t)) counts: entry [r, a, b] is the number of u with
    inv(rep_r) u in class a and u in class b, by composing ``Permutation``
    objects, for classes in sorted cycle-type order and rep_r the first of
    class r in canonical order; oracle for ``symmgroup.elements(t).algebra``."""
    group = symmetric_group(t)
    kinds = {key: i for i, key in enumerate(sorted({p.cycle_type() for p in group}))}
    reps = {}
    for p in group:
        reps.setdefault(kinds[p.cycle_type()], p)
    out = np.zeros((len(kinds),) * 3, dtype=np.int64)
    for r, rep in reps.items():
        for u in group:
            out[r, kinds[compose(inverse(rep), u).cycle_type()], kinds[u.cycle_type()]] += 1
    return out


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Square operator of a row-major vectorization (``channels.vectorize``)."""
    v = np.asarray(v)
    d = round(len(v) ** 0.5)
    if d * d != len(v):
        raise ValueError("vector length is not a perfect square")
    return v.reshape(d, d)


def apply_channel(super_op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The channel of a superoperator applied to the operator x."""
    return unvectorize(super_op @ ch.vectorize(x))


def is_trace_preserving(super_op: np.ndarray, tol: float = 1e-12) -> bool:
    """<<I| S = <<I| up to tol."""
    d = round(super_op.shape[0] ** 0.5)
    bra_i = ch.vectorize(np.eye(d)).conj()
    return bool(np.max(np.abs(bra_i @ super_op - bra_i)) <= tol)


def is_unital(super_op: np.ndarray, tol: float = 1e-12) -> bool:
    """S |I>> = |I>> up to tol."""
    d = round(super_op.shape[0] ** 0.5)
    ket_i = ch.vectorize(np.eye(d))
    return bool(np.max(np.abs(super_op @ ket_i - ket_i)) <= tol)


def frac_array(rows) -> np.ndarray:
    """Object matrix of the entries as Fractions."""
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def relative_size(pi, sigma) -> int:
    """size(inv(pi) * sigma), the transposition distance from pi to sigma."""
    return compose(inverse(pi), sigma).size


def character(sigma, d: int, pi=None) -> Fraction:
    """Normalized overlap d^(-size); two-argument form uses inv(sigma)*pi."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return Fraction(1, d ** (sigma.size if pi is None else relative_size(sigma, pi)))


def is_subpermutation(pi, sigma) -> bool:
    """True iff pi lies below sigma in the sub-permutation order: the size
    metric is additive along pi <= sigma."""
    if pi.t != sigma.t:
        raise OrderMismatchError(f"order mismatch: {pi.t} != {sigma.t}")
    return relative_size(pi, sigma) == sigma.size - pi.size


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


def enumerate_subpermutations(sigma) -> list:
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


def derangement_count(l: int) -> int:
    """Number of fixed-point-free permutations of l elements."""
    return sum((-1) ** k * factorial(l) // factorial(k) for k in range(l + 1))


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


def leading_overlap(spec) -> Fraction:
    """Exact normalized overlap of the leading eigenvector with the identity.

    Equals binom(d^2 dE + t - 1, t) t! / (d^(2t) dE^t) for the dilated
    ensemble.
    """
    psi = leading_right_vector(spec, exact=True)
    row = wg.gram_matrix(spec.t, spec.d)[0, :]
    return sum((row[i] * psi[i] for i in range(len(psi))), Fraction(0))


def chaar_transfer_perm(t: int, d: int, dE: int, exact: bool = True) -> np.ndarray:
    """Permutation-basis coefficients of the Stinespring-dilated ensemble:
    dE^(-size) times the Weingarten matrix of the composite dimension d*dE,
    one product per entry.  dE = 1 is the Haar ensemble.  Oracle for
    moments.transfer."""
    scale = wg.inverse_powers(dE, t, exact)[sg.elements(t).size]
    return scale[:, None] * wg.weingarten_matrix(t, d * dE, exact=exact)


def pair_class_table(t: int) -> np.ndarray:
    """The class of inv(sigma_i) sigma_j for every pair (i, j), read off
    ``symmgroup._product_table`` directly."""
    return sg.elements(t).cls[sg._product_table(t)]


def transfer_full(spec, basis: str, exact: bool) -> np.ndarray:
    """The t! x t! matrix of ``moments.transfer(spec, basis, exact)`` built
    and carried in full: the gather np.multiply.outer(f, w)[size, cls prod],
    then the localized transport zeta^T (c tau c) zeta on the split full
    matrix and the concatenation tau (X tau)^(k-1) with the full Gram matrix,
    each product taken from the rows of its full left operand and gathered
    by ``symmgroup.from_class_rows``.  Oracle for the class-row storage."""
    t, d = spec.t, spec.d
    tab = sg.elements(t)
    f, _, w = mo._tables(spec, exact)
    m = np.multiply.outer(f, w)[tab.size[:, None], pair_class_table(t)]
    if basis == LOCALIZED and spec.kind != DEPOLARIZE:
        (a, da), = split_all(m)
        c = np.array([d ** (t - 1 - s) for s in range(t)], dtype=a.dtype)[tab.size]
        lower = loc._subperm_table(t).T
        rows = sg.class_product(lower[tab.reps], a * c[:, None] * c[None, :], lower.T)
        m = join(sg.from_class_rows(t, rows), da * d ** (2 * t - 2))
    if spec.k > 1:
        (a, da), (b, db) = split_all(m, mo.gram(t, d, basis=basis, exact=exact))
        rows = sg.class_product(a[tab.reps], *(b, a) * (spec.k - 1))
        m = join(sg.from_class_rows(t, rows), da * (da * db) ** (spec.k - 1))
    return m


def invert_exact(a: np.ndarray) -> np.ndarray:
    return solve_exact(a, np.eye(a.shape[0], dtype=object))


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


def kraus_to_super_tuples(kraus, t: int) -> np.ndarray:
    """t-fold superoperator as the sum of kron(K_tuple, conj(K_tuple)) over
    all t-tuples of Kraus operators; oracle for channels.kraus_to_super."""
    d = kraus[0].shape[0]
    dim = d**t
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for tup in product(kraus, repeat=t):
        big = reduce(np.kron, tup)
        out += np.kron(big, big.conj())
    return out


def pauli_transfer_traces(kraus, n: int) -> np.ndarray:
    """(1/d) Tr[P^dag Lambda(Q)] one string pair at a time; oracle for
    channels.pauli_transfer."""
    d = 2**n
    mats = [ch.pauli_string(n, lab) for lab in ch.pauli_labels(n)]
    out = np.zeros((len(mats), len(mats)))
    for j, q in enumerate(mats):
        img = sum(k @ q @ k.conj().T for k in kraus)
        for i, p in enumerate(mats):
            out[i, j] = (np.trace(p.conj().T @ img) / d).real
    return out


def apply_1q_channel_kron(m: np.ndarray, kraus, leg: int) -> np.ndarray:
    """sum_K (I (x) K (x) I) m (I (x) K (x) I)^dag on the last two axes of
    ``m``, K on qubit ``leg`` (leg 0 leftmost); oracle for
    twirlsim.apply_1q_channel."""
    n = m.shape[-1].bit_length() - 1
    out = np.zeros_like(m)
    for k in kraus:
        big = np.kron(np.kron(np.eye(2**leg), k), np.eye(2 ** (n - 1 - leg)))
        out += big @ m @ big.conj().T
    return out


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


# -- dense twirls and two-copy circuit evolution ------------------------------


def _check_involutory(g: np.ndarray, tol: float = 1e-12):
    if np.max(np.abs(g @ g - np.eye(g.shape[0]))) > tol:
        raise ValueError("generator must square to the identity")


def gate_twirl_t1(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Average conjugation by exp(-i theta g) over uniform theta: (x + gxg)/2."""
    _check_involutory(g)
    return (x + g @ x @ g) / 2


def gate_twirl_t2(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Two-copy average conjugation by exp(-i theta g)^(x 2), uniform theta.

    ``g`` is the single-copy generator; ``x`` lives on two copies.
    """
    _check_involutory(g)
    d = g.shape[0]
    if x.shape[0] != d * d:
        raise ValueError("two-copy operand has wrong dimension")
    eye = np.eye(d)
    g2 = np.kron(g, g)
    gs = np.kron(g, eye) + np.kron(eye, g)
    return (3 * (x + g2 @ x @ g2) - (x @ g2 + g2 @ x) + gs @ x @ gs) / 8


# The dense two-copy circuit evolution holds the averaged two-copy state as a
# d^2 x d^2 complex matrix; each gate applies
# T(X) = (3 (X + G2 X G2) - {X, G2} + Gs X Gs) / 8 with G2 = G (x) G and
# Gs = G (x) I + I (x) G through signed-permutation Pauli actions, and noise
# through the Kraus operators on each leg.


@dataclass
class _GateActions:
    name: str
    qubits: tuple
    both: tuple  # G on copy A and copy B
    copy_a: tuple
    copy_b: tuple


def _twirl_state(m: np.ndarray, ga: _GateActions) -> np.ndarray:
    sand_both = tw.pauli_sandwich(m, ga.both)
    right = tw.pauli_right(m, ga.both)
    left = tw.pauli_left(m, ga.both)
    cross = (
        tw.pauli_sandwich(m, ga.copy_a)
        + tw.pauli_sandwich(m, ga.copy_b)
        + tw.pauli_right(tw.pauli_left(m, ga.copy_a), ga.copy_b)
        + tw.pauli_right(tw.pauli_left(m, ga.copy_b), ga.copy_a)
    )
    return (3 * (m + sand_both) - (right + left) + cross) / 8


def initial_vector(spec: CircuitSpec) -> np.ndarray:
    """Single-copy input state vector: |0...0> or |+...+>."""
    if spec.state == ZERO_STATE:
        psi = np.zeros(spec.d, dtype=complex)
        psi[0] = 1.0
        return psi
    return np.full(spec.d, 1 / sqrt(spec.d), dtype=complex)


def initial_two_copy_state(spec) -> np.ndarray:
    psi = initial_vector(spec)
    v = np.kron(psi, psi)
    return np.outer(v, v.conj())


def swap_copies(m: np.ndarray, n: int) -> np.ndarray:
    d = 2**n
    return (
        m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    )


def purity(m: np.ndarray) -> float:
    """Tr[m^2] of a Hermitian m, or sum c^2 of real coefficients."""
    return float(np.vdot(m, m).real)


def evolve_dense(spec) -> list:
    """Purity after each layer from the dense two-copy state; oracle for evolve."""
    n = spec.n
    nlegs = 2 * n
    gates = []
    for name, labels in tw.generators(spec):
        both = dict(labels)
        both.update({q + n: p for q, p in labels.items()})
        gates.append(
            _GateActions(
                name,
                tuple(sorted(labels)),
                tw.pauli_action(nlegs, both),
                tw.pauli_action(nlegs, labels),
                tw.pauli_action(nlegs, {q + n: p for q, p in labels.items()}),
            )
        )
    channel = (
        partial(tw.apply_1q_channel, kraus=ch.standard_noise(spec.noise, spec.gamma))
        if spec.noise
        else None
    )
    m = initial_two_copy_state(spec)
    out = []
    for _ in range(spec.layers):
        for ga in gates:
            m = _twirl_state(m, ga)
            for q in tw.noise_qubits(spec, ga.qubits):
                m = channel(m, leg=q)
                m = channel(m, leg=q + n)
        out.append(purity(m))
    return out


def pauli_channel_leg(c: np.ndarray, r: np.ndarray, leg: int) -> np.ndarray:
    """The 4 x 4 Pauli transfer matrix ``r`` on string digit ``leg`` of ``c``."""
    if c.size == 4 ** (leg + 1):
        # Last digit: one GEMM instead of 4^leg products of shape (4, 4) @ (4, 1).
        return (c.reshape(-1, 4) @ r.T).reshape(c.shape)
    return np.matmul(r, c.reshape(4**leg, 4, -1)).reshape(c.shape)


def twirl_pairs(c: np.ndarray, table: tuple) -> np.ndarray:
    """Uniform-angle gate average of Pauli-pair coefficients (the
    ``twirlsim`` module docstring) on dense coefficient matrices, from a
    ``twirlsim.generator_table``.

    Acts on the last two axes, so a stack of coefficient matrices is
    twirled in one call.
    """
    anti, partner, sign = table
    out = c[..., partner[:, None], partner]
    out *= sign[:, None]
    out *= sign
    out += c
    out *= 0.5
    out *= anti[:, None] == anti
    return out


def evolve_pairs_dense(spec) -> list:
    """Purity after each layer from all 16^n Pauli-pair coefficients c[P, Q]
    (the ``twirlsim`` module docstring); oracle for the sparse evolve."""
    n = spec.n
    gates = [(tuple(sorted(labels)), tw.generator_table(n, labels))
             for _, labels in tw.generators(spec)]
    r = ch.pauli_transfer(ch.standard_noise(spec.noise, spec.gamma), 1) if spec.noise else None
    one = [0.5, 0.0, 0.0, 0.5] if spec.state == ZERO_STATE else [0.5, 0.5, 0.0, 0.0]
    c1 = np.ones(1)
    for _ in range(n):
        c1 = np.kron(c1, one)
    c = np.outer(c1, c1)
    out = []
    for _ in range(spec.layers):
        for qubits, table in gates:
            c = twirl_pairs(c, table)
            for q in tw.noise_qubits(spec, qubits):
                c = pauli_channel_leg(c, r, q)
                c = pauli_channel_leg(c, r, q + n)
        out.append(4**n * purity(c))
    return out


def _twirl_full(keys: np.ndarray, vals: np.ndarray, table: tuple, n: int) -> tuple:
    """``twirl_pairs`` on live coefficients of both triangles, keyed P 4^n + Q."""
    anti, partner, sign = table
    p, q = keys >> 2 * n, keys & (4**n - 1)
    ap, aq = anti[p], anti[q]
    both = ap & aq
    neither = ~(ap | aq)
    p, q = p[both], q[both]
    half = 0.5 * vals[both]
    bk, bv = tw._merge(
        np.concatenate((keys[both], partner[p] << 2 * n | partner[q])),
        np.concatenate((half, sign[p] * sign[q] * half)),
    )
    return np.concatenate((keys[neither], bk)), np.concatenate((vals[neither], bv))


def pair_states_full(spec, first_order=None):
    """The live coefficients c[P, Q] of both triangles (keys P 4^n + Q,
    values) after each gate; oracle for the half storage of
    ``twirlsim._pair_states``.  The first layer runs the gates of
    ``twirlsim.generators`` at the positions ``first_order`` (by default
    ``twirlsim.first_layer_order``, the schedule of ``_pair_states``), and
    later layers in their listed order."""
    n = spec.n
    r = ch.pauli_transfer(ch.standard_noise(spec.noise, spec.gamma), 1) if spec.noise else np.eye(4)
    diag = np.diag(r)
    lift = r[3, 0] / r[0, 0]
    gates = []
    for _, labels in tw.generators(spec):
        targets = tw.noise_qubits(spec, tuple(sorted(labels)))
        factor = reduce(np.kron, [diag if q in targets else np.ones(4) for q in range(n)], np.ones(1))
        shifts = [2 * (n - 1 - q) + copy for q in targets for copy in (2 * n, 0)] if lift else []
        gates.append((tw.generator_table(n, labels), factor, shifts))
    one = [0.5, 0.0, 0.0, 0.5] if spec.state == ZERO_STATE else [0.5, 0.5, 0.0, 0.0]
    c1 = reduce(np.kron, [one] * n, np.ones(1))
    live = np.flatnonzero(c1)
    keys = (live[:, None] << 2 * n | live).ravel()
    vals = np.outer(c1[live], c1[live]).ravel()
    if first_order is None:
        first_order = tw.first_layer_order(spec)
    first = [gates[g] for g in first_order]
    for layer in range(spec.layers):
        for table, factor, shifts in first if layer == 0 else gates:
            keys, vals = _twirl_full(keys, vals, table, n)
            vals *= factor[keys >> 2 * n] * factor[keys & (4**n - 1)]
            live = vals != 0
            keys, vals = keys[live], vals[live]
            for shift in shifts:
                src = (keys >> shift) & 3 == 0
                keys, vals = tw._merge(
                    np.concatenate((keys, keys[src] | 3 << shift)),
                    np.concatenate((vals, lift * vals[src])),
                )
            yield keys, vals


def expand_half_pairs(keys: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """The dense 4^n x 4^n coefficients c of a half-stored pair state: v / 2
    at (P, Q) and at (Q, P) for P < Q, and v at (P, P)."""
    c = np.zeros((4**n, 4**n))
    p, q = np.divmod(keys, 4**n)
    np.add.at(c, (p, q), np.where(p == q, vals, vals / 2))
    np.add.at(c, (q, p), np.where(p == q, 0.0, vals / 2))
    return c


def generator_twirl_matrix_dense(g_labels: str) -> np.ndarray:
    """Single-copy single-generator twirl in the Pauli-string basis: each
    string P_a is twirled as a dense matrix and expanded back by its
    Hilbert-Schmidt overlaps with every string P_c."""
    n = len(g_labels)
    g = ch.pauli_string(n, g_labels)
    mats = [ch.pauli_string(n, lab) for lab in ch.pauli_labels(n)]
    overlap = np.array([p.conj().ravel() for p in mats]) / 2**n
    return np.array([overlap @ gate_twirl_t1(p, g).ravel() for p in mats]).T.real


@lru_cache(maxsize=None)
def generator_twirl_pair_matrix_dense(g_labels: str) -> np.ndarray:
    """Two-copy single-generator twirl in the Pauli-pair basis: each string
    pair P_a (x) P_b is twirled as a dense matrix and expanded back by its
    Hilbert-Schmidt overlaps with every pair P_c (x) P_e.  Cached and
    read-only, since the composite-norm tests share it."""
    n = len(g_labels)
    d = 2**n
    g = ch.pauli_string(n, g_labels)
    mats = [ch.pauli_string(n, lab) for lab in ch.pauli_labels(n)]
    pairs = [np.kron(pa, pb) for pa in mats for pb in mats]
    overlap = np.array([p.conj().ravel() for p in pairs]) / (d * d)
    cols = [overlap @ gate_twirl_t2(p, g).ravel() for p in pairs]
    out = np.array(cols).T.real
    out.flags.writeable = False
    return out


def generator_twirl_closed_form(labels: str, t: int) -> np.ndarray:
    """The dense twirl of the generator with Pauli letters ``labels`` over
    Pauli strings (t = 1) or string pairs (t = 2), from (anti, partner,
    sign) = ``twirlsim.generator_table``: T1 = diag(1 - anti), and T2 at row
    (P, Q) is [anti(P) = anti(Q)] (I + F (x) F) / 2 for the signed partner
    map F[P, partner(P)] = sign(P).  The single-generator branch of
    ``twirlsim.composite_noise_norm`` applies T as a row gather instead of
    forming it."""
    anti, partner, sign = tw.generator_table(len(labels), dict(enumerate(labels)))
    if t == 1:
        return np.diag(1.0 - anti)
    nb = len(anti)
    pairs = np.arange(nb * nb)
    out = np.zeros((nb * nb, nb * nb))
    # Row (P, Q) of F (x) F holds sign(P) sign(Q) at (partner P, partner Q).
    out[pairs, (partner[:, None] * nb + partner).ravel()] = np.outer(sign, sign).ravel()
    out[pairs, pairs] += 1.0
    out *= 0.5 * (anti[:, None] == anti).reshape(-1, 1)
    return out


def haar_twirl_pair_matrix_dense(d: int) -> np.ndarray:
    """Two-copy Haar twirl in the orthonormalized Pauli-pair basis, one
    pair (a, b) at a time from its overlaps Tr[P_a] Tr[P_b] and Tr[P_a P_b]."""
    n = d.bit_length() - 1
    nb = len(ch.pauli_labels(n))
    m = np.zeros((nb * nb, nb * nb))
    denom = d * d - 1
    for a in range(nb):
        for b in range(nb):
            col = a * nb + b
            tr_ab_over_d = 1.0 if a == b else 0.0
            tr_a_tr_b = float(d * d) if (a == 0 and b == 0) else 0.0
            c_i = (tr_a_tr_b - tr_ab_over_d) / denom
            c_s = (d * tr_ab_over_d - tr_a_tr_b / d) / denom
            if c_i != 0.0:
                m[0, col] += c_i
            if c_s != 0.0:
                for c in range(nb):
                    m[c * nb + c, col] += c_s / d
    return m


def haar_composite_norm_dense(noise: ch.NoiseModel, t: int, k: int) -> float:
    """Squared HS norm of k concatenations of (noise after a Haar unitary)
    as the Frobenius norm of the k-th power of the dense matrix over Pauli
    strings (t = 1) or string pairs (t = 2); oracle for the Haar branch of
    twirlsim.composite_noise_norm."""
    m_noise = noise.single_copy_transfer()
    if t == 1:
        m_uni = np.zeros_like(m_noise)
        m_uni[0, 0] = 1.0
    else:
        m_noise = np.kron(m_noise, m_noise)
        m_uni = haar_twirl_pair_matrix_dense(noise.d)
    power = np.linalg.matrix_power(m_noise @ m_uni, k)
    return float(np.sum(power * power))


def generator_composite_norm_dense(noise: ch.NoiseModel, t: int, k: int, g_labels: str) -> float:
    """Squared HS norm of k concatenations of (noise after a uniform-angle
    gate with generator ``g_labels``) as the Frobenius norm of the k-th
    power of the dense matrix over Pauli strings (t = 1) or string pairs
    (t = 2); oracle for the single-generator branch of
    twirlsim.composite_noise_norm."""
    m_noise = noise.single_copy_transfer()
    if t == 1:
        m_uni = generator_twirl_matrix_dense(g_labels)
    else:
        m_noise = np.kron(m_noise, m_noise)
        m_uni = generator_twirl_pair_matrix_dense(g_labels)
    power = np.linalg.matrix_power(m_noise @ m_uni, k)
    return float(np.sum(power * power))


def two_copy_weights_kappa(kind: str, d: int, dE: int, tr_a_tr_b, tr_ab) -> tuple:
    """(a, b) with E[Lambda(A) (x) Lambda(B)] = a I + b SWAP in closed form:
    kappa = 1 / (d^2 (1 - x^2)) with x = 1 / (d dE), dE = 1 for Haar; the
    rank-one reference gives (Tr[A] Tr[B] / d^2, 0).  Oracle for
    twirlsim._two_copy_weights."""
    if kind == DEPOLARIZE:
        return tr_a_tr_b / d**2, Fraction(0)
    dE = dE if kind == CHAAR else 1
    x = Fraction(1, d * dE)
    kappa = Fraction(1, d * d) / (1 - x * x)
    return kappa * (tr_a_tr_b - x * tr_ab), kappa * (tr_ab - x * tr_a_tr_b) / dE


# -- Monte-Carlo estimators, one draw at a time ----------------------------------
#
# Each draw consumes the random stream in the order the stacked samplers of
# the package do, so both give the same estimates up to rounding.


def sample_haar_unitary_once(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar unitary via QR of a complex Ginibre matrix with phase fixing."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[None, :]


def sample_stinespring_kraus_once(d: int, dE: int, rng: np.random.Generator) -> list:
    """Kraus operators of one channel from a Haar unitary on system x environment."""
    u = sample_haar_unitary_once(d * dE, rng)
    u4 = u.reshape(d, dE, d, dE)
    return [u4[:, j, :, 0] for j in range(dE)]


def frame_potential_mc_loop(spec, samples: int, seed: int = 0) -> MCEstimate:
    """Per-draw loop; oracle for moments.frame_potential_mc."""
    rng = np.random.default_rng(seed)
    t = spec.t
    vals = np.empty(samples)
    if spec.kind == DEPOLARIZE:
        vals[:] = 1.0
    elif spec.kind == HAAR:
        for i in range(samples):
            u = sample_haar_unitary_once(spec.d, rng)
            v = sample_haar_unitary_once(spec.d, rng)
            s = abs(np.trace(u.conj().T @ v)) ** 2
            vals[i] = s**t
    else:
        for i in range(samples):
            a = np.stack(sample_stinespring_kraus_once(spec.d, spec.dE, rng))
            b = np.stack(sample_stinespring_kraus_once(spec.d, spec.dE, rng))
            overlaps = np.einsum("aij,bij->ab", a.conj(), b)
            s = float(np.sum(np.abs(overlaps) ** 2))
            vals[i] = s**t
    return MCEstimate(float(np.mean(vals)), float(np.std(vals, ddof=1) / sqrt(samples)), samples)


def run_circuit_once(spec: CircuitSpec, rho: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """One noisy circuit realization on a single d x d state."""
    gates = [
        (tuple(sorted(labels)), tw.pauli_action(spec.n, labels))
        for _, labels in tw.generators(spec)
    ]
    channel = (
        partial(tw.apply_1q_channel, kraus=ch.standard_noise(spec.noise, spec.gamma))
        if spec.noise
        else None
    )
    idx = 0
    for _ in range(spec.layers):
        for qubits, action in gates:
            theta = thetas[idx]
            idx += 1
            c, s = np.cos(theta), np.sin(theta)
            # U rho U^dag with U = cos I - i sin G
            u_rho = c * rho - 1j * s * tw.pauli_left(rho, action)
            rho = c * u_rho + 1j * s * tw.pauli_right(u_rho, action)
            for q in tw.noise_qubits(spec, qubits):
                rho = channel(rho, leg=q)
    return rho


def mc_expectation_moments_loop(spec, rho, obs, samples: int, seed: int = 0) -> tw.MCMoments:
    """Per-draw loop; oracle for twirlsim.mc_expectation_moments."""
    rng = np.random.default_rng(seed)
    d = rho.shape[0]
    vals = np.empty(samples)
    if isinstance(spec, CircuitSpec):
        n_params = spec.layers * len(tw.generators(spec))
        for i in range(samples):
            thetas = rng.uniform(0.0, 2 * np.pi, size=n_params)
            out = run_circuit_once(spec, rho.astype(complex), thetas)
            vals[i] = np.trace(out @ obs).real
    elif spec.kind == HAAR:
        for i in range(samples):
            u = sample_haar_unitary_once(d, rng)
            vals[i] = np.trace(u @ rho @ u.conj().T @ obs).real
    elif spec.kind == CHAAR:
        for i in range(samples):
            kraus = sample_stinespring_kraus_once(spec.d, spec.dE, rng)
            out = sum(k @ rho @ k.conj().T for k in kraus)
            vals[i] = np.trace(out @ obs).real
    else:
        vals[:] = (np.trace(rho) * np.trace(obs)).real / d
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1))
    m4 = float(np.mean((vals - mean) ** 4))
    var_se = sqrt(max(m4 - var**2, 0.0) / samples)
    return tw.MCMoments(mean, sqrt(var / samples), var, var_se, samples)


def right_eigenpairs_dense(spec, f: np.ndarray, c: np.ndarray) -> tuple:
    """Eigenvalues and column-normalized right eigenvectors of tau X = D C
    (``moments._right_eigenpairs``) from one dense ``eigh`` of
    D^(1/2) C D^(1/2) over all of S_t; the rank-one reference in closed form."""
    n = len(f)
    if spec.kind == DEPOLARIZE:
        evals = np.zeros(n)
        evals[0] = 1.0
        evecs = np.eye(n)
        evecs[0, 1:] = -c[1:]
    else:
        half = np.sqrt(f)
        sym = c[sg._product_table(spec.t)]
        sym *= half[:, None]
        sym *= half
        evals, evecs = np.linalg.eigh(sym)
        evecs *= half[:, None]
    evecs /= np.linalg.norm(evecs, axis=0)
    return evals, evecs


def reference_values_rows(spec, ks, exact: bool) -> dict:
    """{k: (norm^2, trace)} of ``moments._reference_values`` by the rows of
    the t! x t! matrices at the class representatives.

    With C = c[pcls] and Q = q[pcls] gathered in full, tau_k X = Y_k C for
    Y_k = D (C D)^(k-1), norm^2 = Tr[Y_k Q Y_k X] and trace = Tr[X Y_k W].
    Both products are fixed by simultaneous conjugation, so each trace is
    sum_r n_r M[r, r] over representatives r of class size n_r; the rows
    there of Y_k (v) and of X Y_k (u, times n_r) follow from
    (v, u) <- (v, u) C D, p(t) x t! by t! x t! products.
    """
    tab, pcls = sg.elements(spec.t), pair_class_table(spec.t)
    (f, df), (x, dx), (w, dw) = split_all(*mo._tables(spec, exact))
    xr, wr, f = x[tab.size][sg._product_table(spec.t)[tab.reps]], w[pcls[tab.reps]], f[tab.size]
    dc = dx * dw
    c = (xr * w[tab.cls]).sum(axis=1)  # (X W)[r, 0] = (W X)[r, 0]
    q, dq = (wr * c[tab.cls]).sum(axis=1), dc * dw
    cd, qm = c[pcls], q[pcls]
    cd *= f
    fr = f[tab.reps, None]
    u, du, dv = xr * f * tab.class_sizes[:, None], dx * df, df
    y_rows = lambda m: fr * m.take(tab.reps, 0)  # rows of Y_k m; Y_1 m = D m
    out = {}
    for k in range(1, max(ks) + 1):
        if k > 1:
            v, u = y_rows(cd), u.dot(cd)
            y_rows = v.dot
            dv, du = dv * dc * df, du * dc * df
        if k in ks:
            out[k] = (join(np.vdot(y_rows(qm), u), dv * dq * du), join(np.vdot(u, wr), du * dw))
    return out


def symmetry_basis(t: int) -> np.ndarray:
    """The t! x t! orthonormal basis U of ``symmgroup.symmetry_blocks(t)``,
    read from its lift as ``moments.spectrum`` reads it: the lift of the
    identity matrix of block coordinates."""
    blocks = sg.symmetry_blocks(t)
    eye = np.eye(len(blocks.row_starts))
    return np.add.reduceat(blocks.lift_coef[:, None] * eye[blocks.lift_cols], blocks.row_starts)


def lifted_eigenpairs(t: int, pairs) -> tuple:
    """The eigenvalues and the t! x t! eigenvector matrix V = U Y of the
    ``moments.BlockPairs`` of ``moments._right_eigenpairs``: Y holds each
    block vector y at its block's columns ``cols``, U is
    ``symmetry_basis(t)``, and there is no normalization."""
    n = factorial(t)
    evals, y = np.empty(n), np.zeros((n, n))
    for p in pairs:
        for cols, lam, vecs in zip(p.cols, p.evals, p.vecs):
            evals[cols] = lam
            y[cols[:, None], cols] = vecs
    return evals, symmetry_basis(t) @ y


def spectrum_residuals_dense(spec) -> dict:
    """The residuals of ``moments.spectrum`` from the dense k-fold matrices
    (tau X)^k and (X tau)^k of ``np.linalg.matrix_power``, applied to the
    column-normalized lifted eigenpairs of ``moments._right_eigenpairs``,
    to psi = f x and to e_0."""
    t, k = spec.t, spec.k
    tab, pcls = sg.elements(t), pair_class_table(t)
    f_s, x, w = mo._tables(spec, exact=False)
    f, xr = f_s[tab.size], x[tab.size][sg._product_table(t)[tab.reps]]
    c = (xr * w[tab.cls]).sum(axis=1)  # (X W)[r, 0] = (W X)[r, 0]
    power = np.linalg.matrix_power(c[pcls] * f[:, None], k)
    evals, evecs = lifted_eigenpairs(t, mo._right_eigenpairs(spec, f, c))
    evecs /= np.linalg.norm(evecs, axis=0)
    pair = power @ evecs - evecs * evals**k
    psi = leading_right_vector(spec)
    dual = np.linalg.matrix_power(x[tab.size][sg._product_table(t)] @ (f[:, None] * w[pcls]), k)
    return {
        "eigenpairs": float(np.linalg.norm(pair, axis=0).max()),
        "leading_right": float(np.abs(power @ psi - psi).max()),
        "leading_left": float(np.abs(dual[0] - np.eye(1, len(f))[0]).max()),
    }


def localized_gram_exponent_table(t: int, d: int, exact: bool) -> np.ndarray:
    """``localized.localized_gram`` with R gathered from its full t! x t!
    exponent table size(eta) + size(kappa) - size(inv(eta) kappa), not from
    its class rows; the same products L[reps] R and then L^T."""
    tab = sg.elements(t)
    expo = tab.size[:, None] + tab.size[None, :] - tab.size[sg._product_table(t)]
    lower = loc._order_matrix(t)
    powers = np.array([d**e for e in range(2 * t - 1)], dtype=object if exact else float)
    return sg.from_class_rows(t, lower[tab.reps].dot(powers[expo]).dot(lower.T))


def scaling_exponents_loop(m1: np.ndarray, m2: np.ndarray, d_pair: tuple) -> tuple:
    """(exponents, structural_zero, mixed_order) of ``localized.scaling_exponents``
    from the exact matrices at the two probe dimensions, one entry at a time."""
    d1, d2 = d_pair
    n = m1.shape[0]
    expo = np.zeros((n, n), dtype=int)
    structural = np.zeros((n, n), dtype=bool)
    mixed = np.zeros((n, n), dtype=bool)
    ratio_base = log(d2 / d1)
    for i in range(n):
        for j in range(n):
            v1, v2 = m1[i, j], m2[i, j]
            if v1 == 0 and v2 == 0:
                structural[i, j] = True
                continue
            if v1 == 0 or v2 == 0:
                mixed[i, j] = True
                continue
            est = log(abs(v1) / abs(v2)) / ratio_base
            rounded = round(est)
            if abs(est - rounded) < 0.1:
                expo[i, j] = rounded
            else:
                mixed[i, j] = True
    return expo, structural, mixed
