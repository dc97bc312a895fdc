"""Dense superoperator representations of channels and noise models.

Vectorization is row-major, |a><b| -> |ab>, so <<X|Y>> = Tr[X^dag Y] and a
channel with Kraus set {K} has the superoperator S = sum_K K (x) conj(K),
formed only in ``kraus_to_super``; every other channel form is read from S.
Its t-fold power is the super-tensor power of S (Wood, Biamonte and Cory,
"Tensor networks and graphical calculus for open quantum systems", 2015).
The n-qubit Pauli basis matrix B has the columns vectorize(P) over the
strings in ``pauli_labels`` order, and B^dag B = d I with d = 2^n.  A Pauli
transfer matrix is S in that basis, R = B^dag S B / d, with entries
(1/d) Tr[P^dag Lambda(Q)]; conversely S = B R B^dag / d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

BIT_FLIP = "bit_flip"
DEPHASING = "dephasing"
LOCAL_DEPOLARIZING = "local_depolarizing"
AMPLITUDE_DAMPING = "amplitude_damping"
NOISE_KINDS = (BIT_FLIP, DEPHASING, LOCAL_DEPOLARIZING, AMPLITUDE_DAMPING)
UNITAL_NOISE_KINDS = (BIT_FLIP, DEPHASING, LOCAL_DEPOLARIZING)

# Largest entry of sum_K K^dag K - I that a Kraus set may leave.
COMPLETENESS_TOL = 1e-12
# Most negative Choi eigenvalue that a noise model may have.
CP_TOL = 1e-10


class CPViolationError(ValueError):
    """A claimed channel is not completely positive."""


class CompletenessError(ValueError):
    """A Kraus set does not resolve the identity."""


def vectorize(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of a square operator."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("operator must be square")
    return x.reshape(-1)


def check_completeness(kraus):
    if len(kraus) == 0:
        raise CompletenessError("the Kraus set is empty")
    d = kraus[0].shape[0]
    acc = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(acc - np.eye(d))) > COMPLETENESS_TOL:
        raise CompletenessError("Kraus operators do not sum to the identity")


def kraus_to_super(kraus, t: int = 1) -> np.ndarray:
    """Superoperator of the t-fold tensor power of a Kraus channel.

    Forms S = sum_K kron(K, conj(K)), the one place a Kraus set becomes a
    channel, and returns its super-tensor power S^(x t), which acts on
    row-major-vectorized operators of B[H^(x t)].  Raises CompletenessError
    unless sum_K K^dag K = I.
    """
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    check_completeness(kraus)
    return _super_power(sum(np.kron(k, k.conj()) for k in kraus), t)


def standard_noise(kind: str, gamma: float) -> list:
    """Single-qubit Kraus sets for the four standard noise channels."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    g = float(gamma)
    if kind == BIT_FLIP:
        return [np.sqrt(1 - g) * I2, np.sqrt(g) * PAULI_X]
    if kind == DEPHASING:
        return [np.sqrt(1 - g) * I2, np.sqrt(g) * PAULI_Z]
    if kind == LOCAL_DEPOLARIZING:
        return [
            np.sqrt(1 - g) * I2,
            np.sqrt(g / 3) * PAULI_X,
            np.sqrt(g / 3) * PAULI_Y,
            np.sqrt(g / 3) * PAULI_Z,
        ]
    if kind == AMPLITUDE_DAMPING:
        k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        k2 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
        return [k1, k2]
    raise ValueError(f"unknown noise kind {kind!r}")


def pauli_string(n: int, labels: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, qubit 0 leftmost."""
    if len(labels) != n:
        raise ValueError("need one label per qubit")
    out = np.array([[1.0 + 0j]])
    for c in labels:
        out = np.kron(out, PAULIS[c])
    return out


def pauli_labels(n: int) -> list:
    """All length-n label strings in lexicographic order, identity first."""
    return ["".join(p) for p in product("IXYZ", repeat=n)]


def _pauli_basis(n: int) -> np.ndarray:
    """B: column j is vectorize(P_j) over the n-qubit strings in
    ``pauli_labels`` order."""
    return np.array([vectorize(pauli_string(n, lab)) for lab in pauli_labels(n)]).T


def pauli_transfer(kraus, n: int) -> np.ndarray:
    """Transfer matrix (1/d) Tr[P^dag Lambda(Q)] over the n-qubit string
    basis: the superoperator of ``kraus_to_super`` in the Pauli basis,
    Re(B^dag S B) / d.  Raises CompletenessError like ``kraus_to_super``."""
    b = _pauli_basis(n)
    return (b.conj().T @ kraus_to_super(kraus) @ b).real / 2**n


@dataclass(frozen=True)
class NoiseModel:
    """Structured noise in an orthogonal operator basis: a unit entry on the
    identity, damping factors 1 - gamma(P) on the diagonal, and non-unital
    first-column entries eta(P).

    ``d`` must be a power of two (the basis is the Pauli string basis);
    labels are strings like "X" or "ZZ" excluding the all-identity label.
    """

    d: int
    gamma: dict
    eta: dict

    def __post_init__(self):
        n = self.n_qubits
        if 2**n != self.d:
            raise ValueError("noise model requires a qubit dimension (d = 2^n)")
        valid = set(pauli_labels(n)) - {"I" * n}
        for label in list(self.gamma) + list(self.eta):
            if label not in valid:
                raise ValueError(f"unknown basis label {label!r}")
        defect = cp_defect(self.single_copy_super())
        if defect < -CP_TOL:
            raise CPViolationError(
                f"noise model is not completely positive (Choi eigenvalue {defect:.3e})"
            )

    @property
    def n_qubits(self) -> int:
        return self.d.bit_length() - 1

    @classmethod
    def uniform(cls, d: int, gamma: float, eta: float = 0.0) -> "NoiseModel":
        n = d.bit_length() - 1
        labels = [lab for lab in pauli_labels(n) if lab != "I" * n]
        return cls(d, {lab: gamma for lab in labels}, {lab: eta for lab in labels})

    def single_copy_transfer(self) -> np.ndarray:
        labels = pauli_labels(self.n_qubits)
        m = np.zeros((len(labels), len(labels)))
        m[0, 0] = 1.0
        for i, lab in enumerate(labels[1:], start=1):
            m[i, 0] = self.eta.get(lab, 0.0)
            m[i, i] = 1.0 - self.gamma.get(lab, 0.0)
        return m

    def single_copy_super(self) -> np.ndarray:
        """Dense superoperator (1/d) sum tau(P,Q) |P>><<Q| = B tau B^dag / d."""
        b = _pauli_basis(self.n_qubits)
        return b @ self.single_copy_transfer() @ b.conj().T / self.d


def choi_matrix(super_op: np.ndarray) -> np.ndarray:
    """Reshuffle of the superoperator; PSD exactly when the map is CP."""
    dim = super_op.shape[0]
    d = round(dim**0.5)
    return super_op.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(dim, dim)


def cp_defect(super_op: np.ndarray) -> float:
    """Most negative Choi eigenvalue (0 for CP maps up to rounding)."""
    ev = np.linalg.eigvalsh(choi_matrix(super_op))
    return float(min(ev.min(), 0.0))


def noise_model_super(model: NoiseModel, t: int):
    """Dense t-fold superoperator and string-basis transfer of a noise model.

    The t-fold transfer over string pairs is the t-fold kron of the single
    copy's: diagonal damping products on the common support, eta factors on
    support-increasing entries.
    """
    single = model.single_copy_transfer()
    return _super_power(model.single_copy_super(), t), reduce(np.kron, [single] * t)


def _super_tensor(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Tensor product of superoperators in two-sided vectorized layout."""
    da = round(sa.shape[0] ** 0.5)
    db = round(sb.shape[0] ** 0.5)
    big = np.kron(sa, sb)
    big = big.reshape(da, da, db, db, da, da, db, db)
    big = big.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    dim = da * db
    return big.reshape(dim * dim, dim * dim)


def _super_power(s: np.ndarray, t: int) -> np.ndarray:
    """Super-tensor power S^(x t), t >= 1."""
    if t < 1:
        raise ValueError(f"need t >= 1, got t = {t}")
    return reduce(_super_tensor, [s] * t)
