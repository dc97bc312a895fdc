"""Reference implementations that only the tests use.

Each one computes by a route independent of (or more literal than) the
package code it checks: a quadruple-sum norm, two exact matrix inverses,
a reordered two-copy superoperator, an explicit depolarizing Kraus set, the
dense two-copy circuit evolution and the dense single-generator pair twirl.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from channelmoments import channels as ch
from channelmoments import twirlsim as tw
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
