"""Reference implementations that only the tests use.

Each one computes by a route independent of (or more literal than) the
package code it checks: a quadruple-sum norm, two exact matrix inverses,
a reordered two-copy superoperator, an explicit depolarizing Kraus set, the
dense two-copy circuit evolution, the dense single-generator pair twirl and
the Monte-Carlo estimators as loops over single draws.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import sqrt

import numpy as np

from channelmoments import channels as ch
from channelmoments import twirlsim as tw
from channelmoments.exactalg import SingularMatrixError, identity_exact, solve_exact, to_integer
from channelmoments.moments import MCEstimate
from channelmoments.specs import CHAAR, DEPOLARIZE, HAAR, CircuitSpec


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


# -- dense two-copy circuit evolution ----------------------------------------
#
# The averaged two-copy state as a d^2 x d^2 complex matrix; each gate
# applies T(X) = (3 (X + G2 X G2) - {X, G2} + Gs X Gs) / 8 with G2 = G (x) G
# and Gs = G (x) I + I (x) G through signed-permutation Pauli actions, and
# noise through the Kraus operators on each leg.


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


def initial_two_copy_state(spec) -> np.ndarray:
    psi = tw.initial_vector(spec)
    v = np.kron(psi, psi)
    return np.outer(v, v.conj())


def swap_copies(m: np.ndarray, n: int) -> np.ndarray:
    d = 2**n
    return (
        m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    )


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
            m = tw.apply_gate_noise(_twirl_state(m, ga), spec, channel, ga.qubits, (0, n))
        out.append(tw.purity(m))
    return out


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
    cols = [overlap @ tw.gate_twirl_t2(p, g).ravel() for p in pairs]
    return np.array(cols).T.real


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
            rho = tw.apply_gate_noise(rho, spec, channel, qubits, (0,))
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
