"""Reference implementations that only the tests use.

Each one computes by a route independent of (or more literal than) the
package code it checks, or is a helper that only the tests call: the index
of each element of S_t, the inverse of ``channels.vectorize``, a channel
applied through its superoperator, the trace-preservation and unitality
tests of a superoperator, Fraction matrices from rows, the sub-permutation
order by the size metric, the derangement count, a quadruple-sum norm,
the leading-eigenvector overlap, two exact matrix inverses, a reordered
two-copy superoperator, the t-fold superoperator as a sum over Kraus
tuples, the Pauli transfer matrix as a loop of traces, a one-leg channel
through krons of full-width Kraus operators, an explicit depolarizing
Kraus set, the dense gate twirls, the single-copy input vector, the dense
two-copy circuit evolution, the evolution over all 16^n Pauli-pair
coefficients, the sparse pair evolution that stores both triangles, the
dense single-generator and Haar pair twirls, the Haar
composite norm as a power of the dense Pauli-pair matrix, the two-copy
weights in closed form, the Monte-Carlo estimators as loops over single
draws, the dilated ensemble's transfer matrix as t!^2 products, the
right eigenpairs of tau X from one dense t! x t! eigensolve, the
spectral residuals from dense matrix powers, and the scaling exponents
as a loop over matrix entries.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import product
from math import factorial, log, sqrt

import numpy as np

from channelmoments import channels as ch
from channelmoments import moments as mo
from channelmoments import symmgroup as sg
from channelmoments import twirlsim as tw
from channelmoments import weingarten as wg
from channelmoments.exactalg import SingularMatrixError, solve_exact, to_integer
from channelmoments.moments import MCEstimate, leading_right_vector
from channelmoments.specs import CHAAR, DEPOLARIZE, HAAR, ZERO_STATE, CircuitSpec


@lru_cache(maxsize=None)
def group_index(t: int) -> dict:
    """images tuple -> position in the canonical order of S_t."""
    return {p.images: i for i, p in enumerate(sg.symmetric_group(t))}


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


def is_subpermutation(pi, sigma) -> bool:
    """True iff pi lies below sigma in the sub-permutation order: the size
    metric is additive along pi <= sigma."""
    if pi.t != sigma.t:
        raise sg.OrderMismatchError(f"order mismatch: {pi.t} != {sigma.t}")
    return sg.relative_size(pi, sigma) == sigma.size - pi.size


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
    scale = wg.inverse_powers(dE, t, exact)[sg.product_table(t).size]
    return scale[:, None] * wg.weingarten_matrix(t, d * dE, exact=exact)


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
            c = tw.twirl_pairs(c, table)
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


def pair_states_full(spec):
    """The live coefficients c[P, Q] of both triangles (keys P 4^n + Q,
    values) after each gate; oracle for the half storage of
    ``twirlsim._pair_states``."""
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
    for _ in range(spec.layers):
        for table, factor, shifts in gates:
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


def generator_twirl_pair_matrix_dense(g_labels: str) -> np.ndarray:
    """Two-copy single-generator twirl in the Pauli-pair basis: each string
    pair P_a (x) P_b is twirled as a dense matrix and expanded back by its
    Hilbert-Schmidt overlaps with every pair P_c (x) P_e."""
    n = len(g_labels)
    d = 2**n
    g = ch.pauli_string(n, g_labels)
    mats = [ch.pauli_string(n, lab) for lab in ch.pauli_labels(n)]
    pairs = [np.kron(pa, pb) for pa in mats for pb in mats]
    overlap = np.array([p.conj().ravel() for p in pairs]) / (d * d)
    cols = [overlap @ gate_twirl_t2(p, g).ravel() for p in pairs]
    return np.array(cols).T.real


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
        sym = c[sg.product_table(spec.t).prod]
        sym *= half[:, None]
        sym *= half
        evals, evecs = np.linalg.eigh(sym)
        evecs *= half[:, None]
    evecs /= np.linalg.norm(evecs, axis=0)
    return evals, evecs


def spectrum_residuals_dense(spec) -> dict:
    """The residuals of ``moments.spectrum`` from the dense k-fold matrices
    (tau X)^k and (X tau)^k of ``np.linalg.matrix_power``, applied to the
    eigenpairs of ``moments._right_eigenpairs``, to psi = f x and to e_0."""
    t, k = spec.t, spec.k
    tab, pcls = sg.product_table(t), wg._pair_class_table(t)
    f_s, x, w = mo._tables(spec, exact=False)
    f, _, _, c = mo._class_rows(t, f_s, x, w)
    power = np.linalg.matrix_power(c[pcls] * f[:, None], k)
    evals, evecs = mo._right_eigenpairs(spec, f, c)
    pair = power @ evecs - evecs * evals**k
    psi = leading_right_vector(spec)
    dual = np.linalg.matrix_power(x[tab.size][tab.prod] @ (f[:, None] * w[pcls]), k)
    return {
        "eigenpairs": float(np.linalg.norm(pair, axis=0).max()),
        "leading_right": float(np.abs(power @ psi - psi).max()),
        "leading_left": float(np.abs(dual[0] - np.eye(1, len(f))[0]).max()),
    }


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
