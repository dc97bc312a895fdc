import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channelmoments import channels as ch
from channelmoments import twirlsim as tw
from oracles import (
    apply_1q_channel_kron,
    apply_channel,
    depolarizing_kraus,
    is_trace_preserving,
    is_unital,
    kraus_to_super_tuples,
    pauli_transfer_traces,
    super_tensor_square,
    unvectorize,
)


def test_vectorize_examples():
    assert ch.vectorize(np.eye(2)).tolist() == [1, 0, 0, 1]
    ket01 = np.zeros((2, 2))
    ket01[0, 1] = 1
    assert ch.vectorize(ket01).tolist() == [0, 1, 0, 0]
    with pytest.raises(ValueError):
        ch.vectorize(np.zeros((2, 3)))


def test_vectorize_inner_product_is_trace():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = np.vdot(ch.vectorize(x), ch.vectorize(y))
        rhs = np.trace(x.conj().T @ y)
        assert abs(lhs - rhs) < 1e-12


def test_unvectorize_roundtrip():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3))
    assert np.array_equal(unvectorize(ch.vectorize(x)), x)


def test_kraus_to_super_identity_channel():
    sup = ch.kraus_to_super([np.eye(3)])
    assert np.array_equal(sup, np.eye(9))


def test_kraus_to_super_depolarizing_is_rank_one():
    for d in (2, 3):
        sup = ch.kraus_to_super(depolarizing_kraus(d))
        vec_i = ch.vectorize(np.eye(d))
        want = np.outer(vec_i, vec_i.conj()) / d
        assert np.max(np.abs(sup - want)) < 1e-14


def test_amplitude_damping_full_strength():
    sup = ch.kraus_to_super(ch.standard_noise(ch.AMPLITUDE_DAMPING, 1.0))
    rng = np.random.default_rng(9)
    for _ in range(5):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = np.outer(psi, psi.conj())
        rho /= np.trace(rho)
        out = apply_channel(sup, rho)
        assert abs(out[0, 0] - 1) < 1e-12 and abs(out[1, 1]) < 1e-12


def test_tensor_power_matches_reordered_square():
    for kind in ch.NOISE_KINDS:
        kraus = ch.standard_noise(kind, 0.3)
        s1 = ch.kraus_to_super(kraus)
        s2 = ch.kraus_to_super(kraus, t=2)
        assert np.max(np.abs(s2 - super_tensor_square(s1))) < 1e-12


def test_standard_noise_gamma_zero_is_identity():
    for kind in ch.NOISE_KINDS:
        sup = ch.kraus_to_super(ch.standard_noise(kind, 0.0))
        assert np.max(np.abs(sup - np.eye(4))) < 1e-14
    with pytest.raises(ValueError):
        ch.standard_noise(ch.BIT_FLIP, 1.5)


def test_bit_flip_half_strength_mixes_z_eigenstate():
    sup = ch.kraus_to_super(ch.standard_noise(ch.BIT_FLIP, 0.5))
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = apply_channel(sup, rho)
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12


def test_unitality_by_kind():
    for kind in ch.NOISE_KINDS:
        sup = ch.kraus_to_super(ch.standard_noise(kind, 0.25))
        assert is_trace_preserving(sup)
        assert is_unital(sup) == (kind in ch.UNITAL_NOISE_KINDS)


def test_pauli_string_orthogonality():
    n = 2
    labels = ch.pauli_labels(n)
    mats = {lab: ch.pauli_string(n, lab) for lab in labels}
    assert np.array_equal(mats["II"], np.eye(4))
    assert abs(np.trace(mats["XZ"].conj().T @ mats["XZ"]) - 4) < 1e-14
    for a in labels:
        for b in labels:
            val = np.trace(mats[a].conj().T @ mats[b]) / 4
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-14
    for lab in labels[1:]:
        assert abs(np.trace(mats[lab])) < 1e-14


def test_amplitude_damping_pauli_transfer():
    g = 0.36
    pt = ch.pauli_transfer(ch.standard_noise(ch.AMPLITUDE_DAMPING, g), 1)
    # order I, X, Y, Z
    assert abs(pt[3, 0] - g) < 1e-12  # non-unital first-column entry
    assert abs(pt[1, 1] - np.sqrt(1 - g)) < 1e-12
    assert abs(pt[3, 3] - (1 - g)) < 1e-12
    assert abs(pt[0, 0] - 1) < 1e-12


def test_noise_model_diagonal_case():
    g = 0.2
    model = ch.NoiseModel.uniform(2, g, 0.0)
    sup, tau = ch.noise_model_super(model, 2)
    labels = ch.pauli_labels(1)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            row, col = i * 4 + j, i * 4 + j
            weight = sum(1 for lab in (a, b) if lab != "I")
            assert abs(tau[row, col] - (1 - g) ** weight) < 1e-14
    assert is_trace_preserving(sup, 1e-10)


def test_noise_model_zero_is_identity():
    model = ch.NoiseModel.uniform(2, 0.0, 0.0)
    sup, _ = ch.noise_model_super(model, 1)
    assert np.max(np.abs(sup - np.eye(4))) < 1e-14


def test_noise_model_matches_amplitude_damping():
    g = 0.3
    model = ch.NoiseModel(
        2,
        {"X": 1 - np.sqrt(1 - g), "Y": 1 - np.sqrt(1 - g), "Z": g},
        {"Z": g},
    )
    sup, _ = ch.noise_model_super(model, 1)
    want = ch.kraus_to_super(ch.standard_noise(ch.AMPLITUDE_DAMPING, g))
    assert np.max(np.abs(sup - want)) < 1e-12


def test_noise_model_cp_violation():
    with pytest.raises(ch.CPViolationError):
        ch.noise_model_super(ch.NoiseModel(2, {}, {"Z": 0.4}), 1)


def test_noise_model_rejects_non_cp_at_construction():
    """A model that is not CP fails when it is built, so neither composite
    ensemble (Haar unitaries, a single generator) can read its transfer."""
    for gamma, eta in ((0.1, 0.5), (0.0, 0.4)):
        with pytest.raises(ch.CPViolationError, match="not completely positive"):
            ch.NoiseModel.uniform(2, gamma, eta)
    with pytest.raises(ch.CPViolationError):
        ch.NoiseModel(2, {}, {"Z": 0.4})


def test_noise_model_cp_valid_grid():
    for g in (0.05, 0.2, 0.5):
        for eta in (0.0, g / 2):
            model = ch.NoiseModel.uniform(2, g, 0.0)
            model = ch.NoiseModel(2, dict(model.gamma), {"Z": eta})
            sup, _ = ch.noise_model_super(model, 1)
            assert ch.cp_defect(sup) > -1e-10


def test_completeness_violation_raises():
    with pytest.raises(ch.CompletenessError):
        ch.kraus_to_super([0.5 * np.eye(2)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_channel_trace_preserving(seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0, 1)
    kind = ch.NOISE_KINDS[seed % 4]
    sup = ch.kraus_to_super(ch.standard_noise(kind, g), t=1)
    assert is_trace_preserving(sup, 1e-11)


def test_kraus_to_super_matches_tuple_sum_t3():
    for kind in ch.NOISE_KINDS:
        kraus = ch.standard_noise(kind, 0.3)
        got = ch.kraus_to_super(kraus, t=3)
        assert got.shape == (64, 64)
        assert np.max(np.abs(got - kraus_to_super_tuples(kraus, 3))) < 1e-13


def test_kraus_to_super_rejects_t_below_one():
    with pytest.raises(ValueError, match="t >= 1"):
        ch.kraus_to_super(ch.standard_noise(ch.BIT_FLIP, 0.1), t=0)


def test_pauli_transfer_matches_trace_loop():
    for kind in ch.NOISE_KINDS:
        kraus = ch.standard_noise(kind, 0.3)
        got = ch.pauli_transfer(kraus, 1)
        assert np.max(np.abs(got - pauli_transfer_traces(kraus, 1))) < 1e-13
    for a, b in ((ch.AMPLITUDE_DAMPING, ch.LOCAL_DEPOLARIZING), (ch.BIT_FLIP, ch.DEPHASING)):
        kraus = [np.kron(ka, kb) for ka in ch.standard_noise(a, 0.2)
                 for kb in ch.standard_noise(b, 0.35)]
        got = ch.pauli_transfer(kraus, 2)
        assert got.shape == (16, 16)
        assert np.max(np.abs(got - pauli_transfer_traces(kraus, 2))) < 1e-13
        # The two-qubit transfer of a product channel is the kron of the factors.
        want = np.kron(ch.pauli_transfer(ch.standard_noise(a, 0.2), 1),
                       ch.pauli_transfer(ch.standard_noise(b, 0.35), 1))
        assert np.max(np.abs(got - want)) < 1e-13


def test_pauli_transfer_rejects_incomplete_kraus_set():
    with pytest.raises(ch.CompletenessError):
        ch.pauli_transfer([0.5 * np.eye(2)], 1)


def test_apply_1q_channel_matches_kron_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        m = rng.standard_normal((3, 2**n, 2**n)) + 1j * rng.standard_normal((3, 2**n, 2**n))
        for kind in ch.NOISE_KINDS:
            kraus = ch.standard_noise(kind, 0.3)
            for leg in range(n):
                got = tw.apply_1q_channel(m, kraus, leg)
                assert got.shape == m.shape
                assert np.max(np.abs(got - apply_1q_channel_kron(m, kraus, leg))) < 1e-13
                # One matrix and the stack agree.
                assert np.max(np.abs(tw.apply_1q_channel(m[1], kraus, leg) - got[1])) < 1e-13


def test_apply_1q_channel_rejects_incomplete_kraus_set():
    with pytest.raises(ch.CompletenessError):
        tw.apply_1q_channel(np.eye(4, dtype=complex), [0.5 * np.eye(2)], 0)


def test_empty_kraus_set_raises_completeness_error():
    calls = (
        lambda: ch.check_completeness([]),
        lambda: ch.kraus_to_super([]),
        lambda: ch.pauli_transfer([], 1),
        lambda: tw.apply_1q_channel(np.eye(4, dtype=complex), [], 1),
    )
    for call in calls:
        with pytest.raises(ch.CompletenessError, match="^the Kraus set is empty$"):
            call()
