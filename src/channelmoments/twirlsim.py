"""Exact second-moment evolution of noisy layered parametrized circuits.

The averaged two-copy state M = E[rho (x) rho] (d = 2^n) is held by its real
coefficients over pairs of Pauli strings,

    M = sum_{P,Q} c[P, Q] P (x) Q.

Strings are ordered "IXYZ" per qubit with qubit 0 most significant, the
order of ``channels.pauli_labels``.  The input |0...0> or |+...+> gives
c = outer(c1, c1), where c1 is the kron of (1, 0, 0, 1)/2 or (1, 1, 0, 0)/2
per qubit, and the purity Tr[M^2] is 4^n sum c^2.

A gate exp(-i theta G) with involutory Pauli-string generator G maps a
string P that anticommutes with G to cos(2 theta) P + sin(2 theta) iPG, where
iPG = s(P) pi(P) for a string pi(P) and a sign s(P) = +-1; it fixes every
other string.  Over a uniform angle the cross terms average to zero, so the
twirl of a coefficient depends only on which of P and Q anticommute with G:

    neither:      c[P, Q] is kept;
    exactly one:  c[P, Q] becomes 0;
    both:         c[P, Q] becomes (c[P, Q] + s(P) s(Q) c[pi P, pi Q]) / 2.

Single-qubit noise with Pauli transfer matrix R (``channels.pauli_transfer``)
acts on one leg, a string digit of one copy, as the 4 x 4 matrix R on that
axis.  R is the channel's superoperator S (``channels.kraus_to_super``) in
the Pauli basis; the Monte-Carlo sampler applies the same S in the
computational basis (``apply_1q_channel``).  The four standard noises have R = (1 + O) D, with D diagonal and O
nonzero only below the I entry of column I (amplitude damping: I -> Z).

Most of the 16^n coefficients stay zero.  The twirl keeps the Pauli
difference P (+) Q (the string product up to phase), diagonal noise keeps P
and Q, and amplitude damping only adds Z digits to the difference; from
|0...0> the difference stays in {I, Z}^n.  M is also symmetric under the
copy swap, c[P, Q] = c[Q, P].  So only the live coefficients of one
triangle are stored, as int64 keys P 4^n + Q with P <= Q and float64
values, in no fixed order.  Each value is the orbit sum over the copy
swap, v = c[P, Q] + c[Q, P] = 2 c[P, Q] for P < Q and v = c[P, P] on the
diagonal, so c = c^T holds by construction and the purity is
4^n (sum_{P=Q} v^2 + sum_{P<Q} v^2 / 2).  Every step of a gate (the lift as
the product over all the gate's noisy legs) is linear and commutes with the
copy swap, so it acts on a stored key in its own orientation, and the
images are folded back to (min, max) and summed.
Per gate, the twirl merges the entries where both strings anticommute with
their partners; the diagonals D of all noisy legs form one factor table over
the strings, applied as one product (which drops the entries that a zero of
D kills); and each noisy leg with O != 0 adds its lifted entries and merges
once more, after which one more merge folds the keys.  A merge sorts, so a
gate costs O(m log m) for m live coefficients.  Over 10 HEA layers at n = 7
from |0...0> with amplitude damping on the gate qubits, m peaks at 0.15 M of
the 134 M unordered pairs; with a unital noise it stays at 16 k.  The first
layer runs its gates in the commuting order of ``first_layer_order``, so a
ZZ gate thins the state between the X gates whose amplitude damping adds Z
digits: over 10 matchgate layers at n = 7 from |+...+>, m peaks at 0.45 M
instead of the listed order's 2.39 M, and peak memory at about 90 MB
instead of 330 MB.

The reference purities, variances and Haar composite norms read the t = 1, 2
transfer matrices of ``moments.transfer``; no Weingarten value is derived here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import sqrt

import numpy as np

from . import channels as ch
from . import moments as mo
from .specs import (
    CHAAR,
    DEPOLARIZE,
    HAAR,
    HEA,
    NOISE_ON_REGISTER,
    ZERO_STATE,
    CircuitSpec,
)

DEFAULT_QUBIT_CAP = 7


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


def first_layer_order(spec: CircuitSpec) -> list:
    """Positions in ``generators(spec)`` in the order ``_pair_states`` runs
    the first layer.

    Under gate-support noise placement, gates on disjoint qubits commute:
    their angles are independent and each gate's noise acts on its own
    qubits.  So each single-qubit gate is held back until the first later
    gate that shares its qubit (X0, X1, Z0Z1, X2, Z1Z2, ... for the
    matchgate layer), and the gates still held go last in listed order.
    Two gates that share a qubit keep their listed order.  Register
    placement keeps the listed order, since its noise acts on every qubit.
    """
    gens = generators(spec)
    if spec.noise_placement == NOISE_ON_REGISTER:
        return list(range(len(gens)))
    order, held = [], {}
    for i, (_, labels) in enumerate(gens):
        order += sorted(held.pop(q) for q in labels if q in held)
        if len(labels) == 1:
            (q,) = labels
            held[q] = i
        else:
            order.append(i)
    return order + sorted(held.values())


# -- signed-permutation Pauli actions ---------------------------------------


def pauli_action(nlegs: int, labels: dict) -> tuple:
    """(perm, phase) with P|i> = phase[i] |perm[i]>; leg 0 is the MSB."""
    p = ch.pauli_string(nlegs, "".join(labels.get(leg, "I") for leg in range(nlegs)))
    perm = np.abs(p).argmax(axis=0)
    return perm, p[perm, np.arange(len(p))]


def pauli_sandwich(m: np.ndarray, action: tuple) -> np.ndarray:
    """P m P for a Hermitian Pauli-string action; only tests and perfbench use it."""
    perm, phase = action
    out = np.empty_like(m)
    out[perm, :] = phase[:, None] * m
    return out[:, perm] * phase[None, :]


def pauli_left(m: np.ndarray, action: tuple) -> np.ndarray:
    """P m on the last two axes of ``m``."""
    perm, phase = action
    out = np.empty_like(m)
    out[..., perm, :] = phase[:, None] * m
    return out


def pauli_right(m: np.ndarray, action: tuple) -> np.ndarray:
    """m P on the last two axes of ``m``."""
    perm, phase = action
    return m[..., perm] * phase


def apply_1q_channel(m: np.ndarray, kraus: list, leg: int) -> np.ndarray:
    """sum_j K_j m K_j^dag on one qubit leg (leg 0 is the MSB) of the square
    matrices on the last two axes of ``m``: the superoperator S of
    ``channels.kraus_to_super``, as S[(i, a), (j, b)], contracted with the
    leg's row bit j and column bit b.  Raises CompletenessError like
    ``kraus_to_super``."""
    s = ch.kraus_to_super(kraus).reshape(2, 2, 2, 2)
    pre = 1 << leg
    post = m.shape[-1] // (2 * pre)
    mr = m.reshape(m.shape[:-2] + (pre, 2, post) * 2)
    return np.einsum("iajb,...xjyubw->...xiyuaw", s, mr).reshape(m.shape)


# -- two-copy evolution in Pauli-pair coordinates ---------------------------

# One-qubit Pauli products over the letters I, X, Y, Z = 0..3: letter a times
# letter b is _PHASE[a, b] times letter a ^ b.
_PHASE = np.array([[1, 1, 1, 1], [1, 1, 1j, -1j], [1, -1j, 1, 1j], [1, 1j, -1j, 1]])


def generator_table(n: int, labels: dict) -> tuple:
    """(anti, partner, sign) over the 4^n strings for the generator G whose
    Pauli letter on qubit q is ``labels[q]``.

    anti[P] says whether string P anticommutes with G; where it does,
    iPG = sign[P] * (string partner[P]).  Elsewhere partner[P] = P and
    sign[P] = 1, so that the twirl rule of the module docstring keeps
    c[P, Q] when neither string anticommutes.
    """
    idx = np.arange(4**n)
    partner = idx.copy()
    phase = np.ones(4**n, dtype=complex)
    for q, p in labels.items():
        shift = 2 * (n - 1 - q)
        g = "IXYZ".index(p)
        phase *= _PHASE[(idx >> shift) & 3, g]
        partner ^= g << shift
    anti = phase.imag != 0
    return anti, np.where(anti, partner, idx), np.where(anti, (1j * phase).real, 1.0)


def noise_qubits(spec: CircuitSpec, qubits: tuple) -> tuple:
    """Qubits that get noise after a gate on ``qubits``: the gate's own, or
    the whole register under register placement; none without noise."""
    if not spec.noise:
        return ()
    return tuple(range(spec.n)) if spec.noise_placement == NOISE_ON_REGISTER else qubits


def _merge(keys: np.ndarray, vals: np.ndarray) -> tuple:
    """Sorted unique keys with the values of equal keys summed, dropping the
    sums that cancel to exactly 0; no key may occur more than twice."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    vals[:-1] += vals[1:] * ~first[1:]
    keep = first & (vals != 0)
    return keys[keep], vals[keep]


def _pair_key(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """The key min(P, Q) 4^n + max(P, Q) of each unordered pair {P, Q};
    overwrites ``p``."""
    key = np.minimum(p, q)
    key <<= 2 * n
    key |= np.maximum(p, q, out=p)
    return key


def _twirl_sparse(keys: np.ndarray, vals: np.ndarray, table: tuple, n: int) -> tuple:
    """The twirl rule of the module docstring on the half-stored orbit sums
    of ``_pair_states``, keyed P 4^n + Q with P <= Q.  The partner pair is
    stored as (min(pi P, pi Q), max(pi P, pi Q)); pi P = pi Q only when
    P = Q, so each key meets at most one partner image."""
    anti, partner, sign = table
    p, q = keys >> 2 * n, keys & (4**n - 1)
    ap, aq = anti[p], anti[q]
    both = ap & aq
    neither = ~(ap | aq)
    p, q = p[both], q[both]
    half = 0.5 * vals[both]
    # The partner pair also anticommutes on both sides, so only this subset merges.
    bk, bv = _merge(
        np.concatenate((keys[both], _pair_key(partner[p], partner[q], n))),
        np.concatenate((half, sign[p] * sign[q] * half)),
    )
    return np.concatenate((keys[neither], bk)), np.concatenate((vals[neither], bv))


def _pair_states(spec: CircuitSpec):
    """The live orbit sums (keys, vals) after each gate, layer by layer, the
    first layer in the order of ``first_layer_order``: each unordered pair of
    strings once, keyed P 4^n + Q with P <= Q, with value c[P, Q] + c[Q, P]
    (c[P, P] on the diagonal)."""
    n = spec.n
    mask = 4**n - 1
    r = ch.pauli_transfer(ch.standard_noise(spec.noise, spec.gamma), 1) if spec.noise else np.eye(4)
    # R = (1 + O) D: the diagonal D first, then O adds lift times the I digit's
    # coefficient to the Z digit's (its one nonzero entry, amplitude damping only).
    diag = np.diag(r)
    lift = r[3, 0] / r[0, 0]
    gates = []
    for _, labels in generators(spec):
        targets = noise_qubits(spec, tuple(sorted(labels)))
        factor = reduce(np.kron, [diag if q in targets else np.ones(4) for q in range(n)], np.ones(1))
        # Digit q of P (the high half of a key), then digit q of Q.
        shifts = [2 * (n - 1 - q) + copy for q in targets for copy in (2 * n, 0)] if lift else []
        gates.append((generator_table(n, labels), factor, shifts))
    one = [0.5, 0.0, 0.0, 0.5] if spec.state == ZERO_STATE else [0.5, 0.5, 0.0, 0.0]
    c1 = reduce(np.kron, [one] * n, np.ones(1))
    live = np.flatnonzero(c1)
    i, j = np.triu_indices(len(live))
    keys = live[i] << 2 * n | live[j]
    vals = np.where(i == j, 1.0, 2.0) * c1[live[i]] * c1[live[j]]
    first = [gates[g] for g in first_layer_order(spec)]
    for layer in range(spec.layers):
        for table, factor, shifts in first if layer == 0 else gates:
            keys, vals = _twirl_sparse(keys, vals, table, n)
            vals *= factor[keys >> 2 * n] * factor[keys & mask]
            # A zero of D (e.g. dephasing at gamma = 1/2) makes exact zeros;
            # dropping them keeps later gates from carrying them.
            live = vals != 0
            keys, vals = keys[live], vals[live]
            # One leg's lift does not commute with the copy swap; the product
            # over all legs does.  So the legs act on the keys as ordered
            # pairs, and one merge after the last folds them back to P <= Q.
            for shift in shifts:
                src = (keys >> shift) & 3 == 0
                keys, vals = _merge(
                    np.concatenate((keys, keys[src] | 3 << shift)),
                    np.concatenate((vals, lift * vals[src])),
                )
            if shifts:
                keys, vals = _merge(_pair_key(keys >> 2 * n, keys & mask, n), vals)
            yield keys, vals


def evolve(
    spec: CircuitSpec, max_qubits: int = DEFAULT_QUBIT_CAP, traces: list | None = None
) -> list:
    """Purity of the averaged two-copy state after each layer.

    The purity is 4^n (sum_{P=Q} v^2 + sum_{P<Q} v^2 / 2) over the orbit
    sums v of ``_pair_states``; c = c^T holds by construction of that
    storage.  A list passed as ``traces`` gets 4^n c[I, I] (1 for a
    trace-preserving evolution) appended after each layer.
    """
    if spec.n > max_qubits:
        raise ResourceCapError(
            f"n={spec.n} exceeds cap {max_qubits}; pass max_qubits (--max-qubits on the "
            "command line) to override"
        )
    size = 4**spec.n
    per_layer = len(generators(spec))
    out = []
    for step, (keys, vals) in enumerate(_pair_states(spec), start=1):
        if step % per_layer == 0:
            diag = vals[keys >> 2 * spec.n == keys & (size - 1)]
            out.append(size * float(vals @ vals + diag @ diag) / 2)
            if traces is not None:
                traces.append(size * float(vals[keys == 0].sum()))
    return out


def _two_copy_weights(kind: str, d: int, dE: int, tr_a_tr_b, tr_ab) -> tuple:
    """(a, b) = tau (Tr[A] Tr[B], Tr[AB]) / d^2, so that E[Lambda(A) (x)
    Lambda(B)] = a I + b SWAP, with tau the exact t = 2 transfer matrix of a
    reference ensemble over (e, SWAP); Fractions stay Fractions."""
    tau = mo.transfer(mo.EnsembleSpec(kind, d, 2, dE)).matrix
    return tuple(tau.dot(np.array([tr_a_tr_b, tr_ab], dtype=object)) / d**2)


def reference_purities(n: int, dE: int) -> dict:
    """Purity Tr[M^2] = a^2 d^2 + 2 a b d + b^2 d^2 of the averaged two-copy
    output M = a I + b SWAP of the reference ensembles on a pure input."""
    d = 2**n
    out = {}
    for kind in (HAAR, CHAAR, DEPOLARIZE):
        a, b = _two_copy_weights(kind, d, dE, Fraction(1), Fraction(1))
        out[kind] = float(a * a * d * d + 2 * a * b * d + b * b * d * d)
    return out


# -- composite unitary + noise moment-operator norms -------------------------

HAAR_UNITARIES = "haar_unitaries"
SINGLE_GENERATOR = "single_generator"
# Entries of one block of columns stepped through the single-generator
# norm (8 MB of float64).
STEP_BLOCK = 1 << 20


def _haar_composite_norm(m: np.ndarray, d: int, t: int, k: int) -> float:
    """Squared HS norm of k concatenations of (noise N with Pauli transfer m
    after a Haar unitary), from t! x t! overlaps (t = 1, 2).

    In the orthonormal Pauli basis the permutation operators A, scaled to
    a = A / d^(t/2), are e_0 at t = 1, and e_0 (x) e_0 and SWAP / d =
    sum_c e_c (x) e_c / d at t = 2; N maps a vector v to m v and a pair
    matrix V to m V m^T.  With G = <a, N(a)> = <A, N(A)> / d^t and
    H = <N(a), N(a)>, the k-fold operator has coefficients R = W (G W)^(k-1)
    over A, W the Haar transfer matrix, and norm^2 = Tr[R^T H R X].
    """
    one = np.eye(len(m))
    if t == 1:
        perms = one[:1]
        noisy = perms @ m.T
    else:
        perms = np.array([np.diag(one[0]), one / d])
        noisy = m @ perms @ m.T
    perms, noisy = perms.reshape(len(perms), -1), noisy.reshape(len(perms), -1)
    r = mo.concatenate(mo.transfer(mo.haar(d, t), exact=False), perms @ noisy.T, k).matrix
    return float(((r.T @ (noisy @ noisy.T) @ r) * mo.gram(t, d, exact=False).T).sum())


def composite_noise_norm(
    ensemble: str,
    noise: ch.NoiseModel,
    t: int,
    k: int,
    generator: str | None = None,
) -> float:
    """Squared HS norm of k concatenations of (noise after random unitary).

    Supported for t in {1, 2}; Haar unitaries via ``_haar_composite_norm``.
    The single-generator ensemble needs a Pauli ``generator`` label string
    over IXYZ and works in the orthonormalized Pauli-string basis, where
    concatenation is a k-fold product of the step N T (noise N after twirl
    T) and the squared HS norm a Frobenius norm.  From (anti, partner,
    sign) = ``generator_table``, the twirl rule of the module docstring is
    the row gather x <- keep (x + s x[pp]) / 2: over strings with
    keep = 1 - anti, pp = partner and s = sign (t = 1), and over string
    pairs with keep = [anti(P) = anti(Q)], pp = (partner P, partner Q) and
    s = sign(P) sign(Q) (t = 2).  N applies the single-copy transfer to
    each copy axis.  The step runs k times on blocks of ``STEP_BLOCK``
    entries of identity columns, whose squared entries sum to the norm, so
    no 16^n x 16^n matrix is formed.
    """
    if t not in (1, 2):
        raise ValueError("composite norms implemented for t = 1, 2 only")
    if k < 1:
        raise ValueError(f"need k >= 1, got k = {k}")
    m_noise = noise.single_copy_transfer()
    if ensemble == HAAR_UNITARIES:
        return _haar_composite_norm(m_noise, noise.d, t, k)
    if ensemble != SINGLE_GENERATOR:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    if generator is None:
        raise ValueError("single-generator ensemble needs a generator label")
    if 2 ** len(generator) != noise.d:
        raise ValueError("generator label length must match the noise dimension")
    if not set(generator) <= set("IXYZ"):
        raise ValueError(f"generator label {generator!r} has a letter outside IXYZ")
    anti, pp, s = generator_table(len(generator), dict(enumerate(generator)))
    nb, keep = len(anti), ~anti
    if t == 2:
        keep, pp = (anti[:, None] == anti).ravel(), (pp[:, None] * nb + pp).ravel()
        s = np.outer(s, s).ravel()
    dim, total = len(keep), 0.0
    cols = max(1, STEP_BLOCK // dim)
    half, half_s = (0.5 * keep)[:, None], (0.5 * keep * s)[:, None]
    for start in range(0, dim, cols):
        x = np.eye(dim, min(cols, dim - start), -start)
        for _ in range(k):
            x = m_noise @ (half * x + half_s * x[pp]).reshape(nb, -1)
            if t == 2:
                x = m_noise @ x.reshape(nb, nb, -1)
            x = x.reshape(dim, -1)
        total += np.vdot(x, x)
    return float(total)


# -- reference-ensemble expectation statistics --------------------------------


def _check_operators(d: int, context: str, **ops) -> None:
    """One ValueError unless every named operator has shape (d, d)."""
    for name, op in ops.items():
        if np.shape(op) != (d, d):
            raise ValueError(f"{name} must be {d} x {d} {context}, got shape {np.shape(op)}")


def variance_reference(rho: np.ndarray, obs: np.ndarray, ref: str, dE: int = 1) -> float:
    """Second moment of Tr[Lambda(rho) O] under a reference ensemble.

    This is the inherent variance term: it upper-bounds the variance and
    equals it exactly for traceless observables (where the mean vanishes).
    With E[Lambda(rho) (x) Lambda(rho)] = a I + b SWAP it is
    a (Tr O)^2 + b Tr[O^2]; Haar ignores ``dE``.
    """
    d = len(rho)
    _check_operators(d, "(d from rho)", rho=rho, obs=obs)
    tr_rho = complex(np.trace(rho)).real
    tr_rho2 = complex(np.trace(rho @ rho)).real
    tr_o = complex(np.trace(obs)).real
    tr_o2 = complex(np.trace(obs @ obs)).real
    a, b = _two_copy_weights(ref, d, dE, tr_rho**2, tr_rho2)
    return a * tr_o**2 + b * tr_o2


@dataclass(frozen=True)
class MCMoments:
    mean: float
    mean_stderr: float
    variance: float
    variance_stderr: float
    samples: int


def _run_circuits(spec: CircuitSpec, rho: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Outputs of the noisy circuit on ``rho``, one per row of gate angles
    ``thetas`` (in gate order, layer by layer), as a (m, d, d) stack."""
    gates = [
        (tuple(sorted(labels)), pauli_action(spec.n, labels)) for _, labels in generators(spec)
    ]
    kraus = ch.standard_noise(spec.noise, spec.gamma) if spec.noise else None
    out = np.broadcast_to(rho.astype(complex), (len(thetas),) + rho.shape)
    for col, (qubits, action) in enumerate(gates * spec.layers):
        c = np.cos(thetas[:, col, None, None])
        s = np.sin(thetas[:, col, None, None])
        # U rho U^dag with U = cos I - i sin G
        u_rho = c * out - 1j * s * pauli_left(out, action)
        out = c * u_rho + 1j * s * pauli_right(u_rho, action)
        for q in noise_qubits(spec, qubits):
            out = apply_1q_channel(out, kraus, q)
    return out


def mc_expectation_moments(spec, rho: np.ndarray, obs: np.ndarray, samples: int, seed: int = 0) -> MCMoments:
    """Sample mean and variance of Tr[Lambda(rho) O] over an ensemble.

    Accepts an EnsembleSpec (haar / chaar / depolarize) or a CircuitSpec;
    ``rho`` and ``obs`` are spec.d x spec.d.  Haar is the dilated ensemble
    with a trivial environment.  Error bars are standard errors; the
    variance error bar uses the fourth-moment formula Var[s^2] ~ (m4 - s^4)/N.
    """
    d = spec.d
    _check_operators(d, f"for {spec!r}", rho=rho, obs=obs)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    rng = np.random.default_rng(seed)
    if isinstance(spec, CircuitSpec):
        n_params = spec.layers * len(generators(spec))

        def draw(m):
            out = _run_circuits(spec, rho, rng.uniform(0.0, 2 * np.pi, size=(m, n_params)))
            return np.trace(out @ obs, axis1=1, axis2=2).real

        vals = mo.stacked_draws(draw, samples, d * d)
    elif spec.kind == DEPOLARIZE:
        vals = np.full(samples, (np.trace(rho) * np.trace(obs)).real / d)
    else:

        def draw(m):
            kraus = mo.sample_stinespring_kraus(d, spec.dE, rng, m)
            out = (kraus @ rho @ kraus.conj().swapaxes(-1, -2)).sum(axis=1)
            return np.trace(out @ obs, axis1=1, axis2=2).real

        vals = mo.stacked_draws(draw, samples, 2 * (d * spec.dE) ** 2)
    mean = float(np.mean(vals))
    var = float(np.var(vals, ddof=1))
    m4 = float(np.mean((vals - mean) ** 4))
    return MCMoments(mean, sqrt(var / samples), var, sqrt(max(m4 - var**2, 0.0) / samples), samples)
