"""Exact second-moment evolution of noisy layered parametrized circuits.

The two-copy state M = E[rho (x) rho] is a d^2 x d^2 matrix (d = 2^n).  Each
gate with involutory Pauli-string generator G and uniform angle is averaged
in closed form:

    T(X) = (3 (X + G2 X G2) - {X, G2} + Gs X Gs) / 8,
    G2 = G (x) G,  Gs = G (x) I + I (x) G,

and single-qubit noise follows each gate on the gate's support qubits of
both copies.  Pauli-string conjugations are signed index permutations, so a
layer costs O(d^4) memory traffic rather than dense matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from . import channels as ch
from .specs import (
    CHAAR,
    DEPOLARIZE,
    HAAR,
    HEA,
    NOISE_ON_REGISTER,
    ZERO_STATE,
    CircuitSpec,
)
from .moments import MCEstimate, sample_haar_unitary, sample_stinespring_kraus

DEFAULT_QUBIT_CAP = 5


class ResourceCapError(ValueError):
    """Requested register size exceeds the configured cap."""


def generators(spec: CircuitSpec) -> list:
    """Ordered generator list as (name, {qubit: pauli letter}) pairs."""
    n = spec.n
    gens = [(f"X{i}", {i: "X"}) for i in range(n)]
    if spec.ansatz == HEA:
        gens += [(f"Y{i}", {i: "Y"}) for i in range(n)]
    gens += [(f"Z{i}Z{i+1}", {i: "Z", i + 1: "Z"}) for i in range(n - 1)]
    return gens


# -- dense public twirls ----------------------------------------------------


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


# -- signed-permutation Pauli actions ---------------------------------------


def pauli_action(nlegs: int, labels: dict) -> tuple:
    """(perm, phase) with P|i> = phase[i] |perm[i]>; leg 0 is the MSB."""
    dim = 1 << nlegs
    idx = np.arange(dim)
    perm = idx.copy()
    phase = np.ones(dim, dtype=complex)
    for leg, p in labels.items():
        shift = nlegs - 1 - leg
        bit = (idx >> shift) & 1
        if p in ("X", "Y"):
            perm = perm ^ (1 << shift)
        if p == "Y":
            phase = phase * np.where(bit == 0, 1j, -1j)
        elif p == "Z":
            phase = phase * np.where(bit == 0, 1.0, -1.0)
    return perm, phase


def pauli_sandwich(m: np.ndarray, action: tuple) -> np.ndarray:
    """P m P for a Hermitian Pauli-string action."""
    perm, phase = action
    out = np.empty_like(m)
    out[perm, :] = phase[:, None] * m
    return out[:, perm] * phase[None, :]


def pauli_left(m: np.ndarray, action: tuple) -> np.ndarray:
    perm, phase = action
    out = np.empty_like(m)
    out[perm, :] = phase[:, None] * m
    return out


def pauli_right(m: np.ndarray, action: tuple) -> np.ndarray:
    perm, phase = action
    return m[:, perm] * phase[None, :]


def _apply_left_1q(m: np.ndarray, k: np.ndarray, leg: int) -> np.ndarray:
    pre = 1 << leg
    post = m.shape[0] // (2 * pre)
    mr = m.reshape(pre, 2, post * m.shape[1])
    return np.einsum("ij,ajb->aib", k, mr).reshape(m.shape)


def _apply_right_1q(m: np.ndarray, k: np.ndarray, leg: int) -> np.ndarray:
    pre = 1 << leg
    post = m.shape[1] // (2 * pre)
    mr = m.reshape(m.shape[0], pre, 2, post)
    return np.einsum("wajb,ji->waib", mr, k).reshape(m.shape)


def apply_1q_channel(m: np.ndarray, kraus: list, leg: int) -> np.ndarray:
    """sum_j K_j m K_j^dag on one qubit leg of a square-matrix operand."""
    out = np.zeros_like(m)
    for k in kraus:
        out += _apply_right_1q(_apply_left_1q(m, k, leg), k.conj().T, leg)
    return out


# -- two-copy evolution ------------------------------------------------------


@dataclass
class _GateActions:
    name: str
    qubits: tuple
    both: tuple  # G on copy A and copy B
    copy_a: tuple
    copy_b: tuple


def _twirl_state(m: np.ndarray, ga: _GateActions) -> np.ndarray:
    sand_both = pauli_sandwich(m, ga.both)
    right = pauli_right(m, ga.both)
    left = pauli_left(m, ga.both)
    cross = (
        pauli_sandwich(m, ga.copy_a)
        + pauli_sandwich(m, ga.copy_b)
        + pauli_right(pauli_left(m, ga.copy_a), ga.copy_b)
        + pauli_right(pauli_left(m, ga.copy_b), ga.copy_a)
    )
    return (3 * (m + sand_both) - (right + left) + cross) / 8


def initial_vector(spec: CircuitSpec) -> np.ndarray:
    """Single-copy input state vector: |0...0> or |+...+>."""
    if spec.state == ZERO_STATE:
        psi = np.zeros(spec.d, dtype=complex)
        psi[0] = 1.0
        return psi
    return np.full(spec.d, 1 / sqrt(spec.d), dtype=complex)


def initial_two_copy_state(spec: CircuitSpec) -> np.ndarray:
    psi = initial_vector(spec)
    v = np.kron(psi, psi)
    return np.outer(v, v.conj())


def apply_gate_noise(
    m: np.ndarray, spec: CircuitSpec, kraus, qubits: tuple, copies: tuple
) -> np.ndarray:
    """Noise after one gate: the channel on each target qubit of each copy.

    The targets are the gate's qubits, or the whole register under
    register placement; ``copies`` holds the leg offset of each copy of the
    register in ``m``.  Leg q is updated before leg q + offset.
    """
    if kraus is None:
        return m
    targets = range(spec.n) if spec.noise_placement == NOISE_ON_REGISTER else qubits
    for q in targets:
        for offset in copies:
            m = apply_1q_channel(m, kraus, q + offset)
    return m


def purity(m: np.ndarray) -> float:
    return float(np.vdot(m, m).real)


def swap_copies(m: np.ndarray, n: int) -> np.ndarray:
    d = 2**n
    return (
        m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    )


def evolve(spec: CircuitSpec, max_qubits: int = DEFAULT_QUBIT_CAP) -> list:
    """Purity of the averaged two-copy state after each layer."""
    if spec.n > max_qubits:
        raise ResourceCapError(
            f"n={spec.n} exceeds cap {max_qubits}; pass max_qubits to override"
        )
    n = spec.n
    nlegs = 2 * n
    gates = []
    for name, labels in generators(spec):
        both = dict(labels)
        both.update({q + n: p for q, p in labels.items()})
        gates.append(
            _GateActions(
                name,
                tuple(sorted(labels)),
                pauli_action(nlegs, both),
                pauli_action(nlegs, labels),
                pauli_action(nlegs, {q + n: p for q, p in labels.items()}),
            )
        )
    kraus = ch.standard_noise(spec.noise, spec.gamma) if spec.noise else None
    m = initial_two_copy_state(spec)
    out = []
    for _ in range(spec.layers):
        for ga in gates:
            m = apply_gate_noise(_twirl_state(m, ga), spec, kraus, ga.qubits, (0, n))
        out.append(purity(m))
    return out


def reference_purities(n: int, dE: int) -> dict:
    """Purity of the averaged two-copy output of the three reference
    ensembles on a pure input state."""
    d = 2**n
    haar_val = Fraction(2, d * (d + 1))
    dep_val = Fraction(1, d * d)
    kappa = Fraction(1, d * d) / (1 - Fraction(1, d * d * dE * dE))
    a = kappa * (1 - Fraction(1, d * dE))
    b = a / dE
    chaar_val = a * a * d * d + 2 * a * b * d + b * b * d * d
    return {
        "haar": float(haar_val),
        "chaar": float(chaar_val),
        "depolarize": float(dep_val),
    }


# -- composite unitary + noise moment-operator norms -------------------------

HAAR_UNITARIES = "haar_unitaries"
SINGLE_GENERATOR = "single_generator"


def _haar_twirl_pair_matrix(d: int) -> np.ndarray:
    """Two-copy Haar twirl in the orthonormalized Pauli-pair basis."""
    n = d.bit_length() - 1
    if 2**n != d:
        raise ValueError("qubit dimensions only")
    labels = ch.pauli_labels(n)
    nb = len(labels)
    iden = 0  # identity label index
    m = np.zeros((nb * nb, nb * nb))
    denom = d * d - 1
    for a in range(nb):
        for b in range(nb):
            col = a * nb + b
            tr_ab_over_d = 1.0 if a == b else 0.0
            tr_a_tr_b = float(d * d) if (a == iden and b == iden) else 0.0
            c_i = (tr_a_tr_b - tr_ab_over_d) / denom
            c_s = (d * tr_ab_over_d - tr_a_tr_b / d) / denom
            if c_i != 0.0:
                m[iden * nb + iden, col] += c_i
            if c_s != 0.0:
                for c in range(nb):
                    m[c * nb + c, col] += c_s / d
    return m


def _generator_twirl_pair_matrix(g_labels: str) -> np.ndarray:
    """Two-copy single-generator twirl in the Pauli-pair basis (dense route)."""
    n = len(g_labels)
    d = 2**n
    g = ch.pauli_string(n, g_labels)
    labels = ch.pauli_labels(n)
    mats = [ch.pauli_string(n, lab) for lab in labels]
    nb = len(labels)
    m = np.zeros((nb * nb, nb * nb))
    for a in range(nb):
        for b in range(nb):
            img = gate_twirl_t2(np.kron(mats[a], mats[b]), g)
            for c in range(nb):
                pc = mats[c]
                for e in range(nb):
                    val = np.einsum("ij,ji->", np.kron(pc, mats[e]).conj().T, img) / (
                        d * d
                    )
                    if abs(val) > 1e-14:
                        m[c * nb + e, a * nb + b] = val.real
    return m


def composite_noise_norm(
    ensemble: str,
    noise: ch.NoiseModel,
    t: int,
    k: int,
    generator: str | None = None,
) -> float:
    """Squared HS norm of k concatenations of (noise after random unitary).

    Everything is computed in the orthonormalized Pauli-string basis, where
    concatenation is a matrix power and the squared HS norm is a Frobenius
    norm.  Supported for t in {1, 2}; the single-generator ensemble needs an
    involutory Pauli ``generator`` label string.
    """
    if t not in (1, 2):
        raise ValueError("composite norms implemented for t = 1, 2 only")
    d = noise.d
    m_noise_1 = noise.single_copy_transfer()
    if t == 1:
        m_noise = m_noise_1
        if ensemble in (HAAR_UNITARIES, SINGLE_GENERATOR):
            nb = m_noise_1.shape[0]
            m_uni = np.zeros((nb, nb))
            if ensemble == HAAR_UNITARIES:
                m_uni[0, 0] = 1.0
            else:
                lab = ch.pauli_labels(len(generator))
                g = generator
                for i, a in enumerate(lab):
                    # first-order twirl keeps commuting strings, kills the rest
                    anti = sum(1 for x, y in zip(a, g) if x != "I" and y != "I" and x != y)
                    m_uni[i, i] = 1.0 if anti % 2 == 0 else 0.0
        else:
            raise ValueError(f"unknown ensemble {ensemble!r}")
    else:
        m_noise = np.kron(m_noise_1, m_noise_1)
        if ensemble == HAAR_UNITARIES:
            m_uni = _haar_twirl_pair_matrix(d)
        elif ensemble == SINGLE_GENERATOR:
            if generator is None:
                raise ValueError("single-generator ensemble needs a generator label")
            if 2 ** len(generator) != d:
                raise ValueError("generator label length must match the noise dimension")
            m_uni = _generator_twirl_pair_matrix(generator)
        else:
            raise ValueError(f"unknown ensemble {ensemble!r}")
    comp = m_noise @ m_uni
    power = np.linalg.matrix_power(comp, k)
    return float(np.sum(power * power))


# -- reference-ensemble expectation statistics --------------------------------


def variance_reference(rho: np.ndarray, obs: np.ndarray, ref: str, dE: int = 1) -> float:
    """Second moment of Tr[Lambda(rho) O] under a reference ensemble.

    This is the inherent variance term: it upper-bounds the variance and
    equals it exactly for traceless observables (where the mean vanishes).
    Closed forms come from the exact two-copy averages of the reference
    ensembles.
    """
    d = rho.shape[0]
    tr_rho = complex(np.trace(rho)).real
    tr_rho2 = complex(np.trace(rho @ rho)).real
    tr_o = complex(np.trace(obs)).real
    tr_o2 = complex(np.trace(obs @ obs)).real
    if ref == DEPOLARIZE:
        return (tr_rho**2) * (tr_o**2) / d**2
    if ref == CHAAR:
        x = 1.0 / (d * dE)
        kappa = (1.0 / d**2) / (1.0 - x * x)
        a = kappa * (tr_rho**2 - x * tr_rho2)
        b = kappa * (tr_rho2 - x * tr_rho**2) / dE
        return a * tr_o**2 + b * tr_o2
    raise ValueError(f"unknown reference ensemble {ref!r}")


@dataclass(frozen=True)
class MCMoments:
    mean: float
    mean_stderr: float
    variance: float
    variance_stderr: float
    samples: int


class _SingleCopyCircuit:
    """Sampler-side evolution of one noisy circuit realization."""

    def __init__(self, spec: CircuitSpec):
        self.spec = spec
        self.gates = [
            (name, tuple(sorted(labels)), pauli_action(spec.n, labels))
            for name, labels in generators(spec)
        ]
        self.kraus = ch.standard_noise(spec.noise, spec.gamma) if spec.noise else None

    def run(self, rho: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        spec = self.spec
        idx = 0
        for _ in range(spec.layers):
            for name, qubits, action in self.gates:
                theta = thetas[idx]
                idx += 1
                c, s = np.cos(theta), np.sin(theta)
                # U rho U^dag with U = cos I - i sin G
                g_rho = pauli_left(rho, action)
                u_rho = c * rho - 1j * s * g_rho
                rho = c * u_rho + 1j * s * pauli_right(u_rho, action)
                rho = apply_gate_noise(rho, spec, self.kraus, qubits, (0,))
        return rho


def mc_expectation_moments(spec, rho: np.ndarray, obs: np.ndarray, samples: int, seed: int = 0) -> MCMoments:
    """Sample mean and variance of Tr[Lambda(rho) O] over an ensemble.

    Accepts an EnsembleSpec (haar / chaar / depolarize) or a CircuitSpec.
    Error bars are standard errors; the variance error bar uses the
    fourth-moment formula Var[s^2] ~ (m4 - s^4)/N.
    """
    rng = np.random.default_rng(seed)
    d = rho.shape[0]
    vals = np.empty(samples)
    if isinstance(spec, CircuitSpec):
        circuit = _SingleCopyCircuit(spec)
        n_params = spec.layers * len(circuit.gates)
        for i in range(samples):
            thetas = rng.uniform(0.0, 2 * np.pi, size=n_params)
            out = circuit.run(rho.astype(complex), thetas)
            vals[i] = np.trace(out @ obs).real
    elif spec.kind == HAAR:
        for i in range(samples):
            u = sample_haar_unitary(d, rng)
            vals[i] = np.trace(u @ rho @ u.conj().T @ obs).real
    elif spec.kind == CHAAR:
        for i in range(samples):
            kraus = sample_stinespring_kraus(spec.d, spec.dE, rng)
            out = sum(k @ rho @ k.conj().T for k in kraus)
            vals[i] = np.trace(out @ obs).real
    elif spec.kind == DEPOLARIZE:
        vals[:] = (np.trace(rho) * np.trace(obs)).real / d
    else:
        raise ValueError(f"sampling not supported for {spec!r}")
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1)) if samples > 1 else 0.0
    mean_se = sqrt(var / samples) if samples > 1 else 0.0
    centered = vals - mean
    m4 = float(np.mean(centered**4))
    var_se = sqrt(max(m4 - var**2, 0.0) / samples)
    return MCMoments(mean, mean_se, var, var_se, samples)
