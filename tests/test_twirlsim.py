from fractions import Fraction
from itertools import product
from math import factorial, log

import numpy as np
import pytest

from channelmoments import channels as ch
from channelmoments import moments as mo
from channelmoments import twirlsim as tw
from channelmoments.specs import (
    CHAAR,
    DEPOLARIZE,
    HAAR,
    HEA,
    MAT,
    NOISE_ON_GATE_SUPPORT,
    NOISE_ON_REGISTER,
    PLUS_STATE,
    ZERO_STATE,
    CircuitSpec,
    EnsembleSpec,
)
from oracles import (
    _GateActions,
    _twirl_state,
    evolve_dense,
    evolve_pairs_dense,
    expand_half_pairs,
    gate_twirl_t1,
    gate_twirl_t2,
    generator_composite_norm_dense,
    generator_twirl_closed_form,
    generator_twirl_matrix_dense,
    generator_twirl_pair_matrix_dense,
    haar_composite_norm_dense,
    initial_two_copy_state,
    initial_vector,
    mc_expectation_moments_loop,
    pair_states_full,
    pauli_channel_leg,
    swap_copies,
    two_copy_weights_kappa,
)


def quadrature_twirl_t2(x, g, npts):
    """Trapezoid average of U x U^dag over the angle grid; oracle."""
    d = g.shape[0]
    eye = np.eye(d)
    acc = np.zeros_like(x, dtype=complex)
    for theta in np.arange(npts) * 2 * np.pi / npts:
        u1 = np.cos(theta) * eye - 1j * np.sin(theta) * g
        u = np.kron(u1, u1)
        acc += u @ x @ u.conj().T
    return acc / npts


def quadrature_twirl_t1(x, g, npts):
    d = g.shape[0]
    eye = np.eye(d)
    acc = np.zeros_like(x, dtype=complex)
    for theta in np.arange(npts) * 2 * np.pi / npts:
        u = np.cos(theta) * eye - 1j * np.sin(theta) * g
        acc += u @ x @ u.conj().T
    return acc / npts


def random_hermitian(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return x + x.conj().T


def test_gate_twirl_t1():
    rng = np.random.default_rng(0)
    g = ch.PAULI_Z
    # commuting operators are left alone
    x = np.diag(rng.standard_normal(2)).astype(complex)
    assert np.max(np.abs(gate_twirl_t1(x, g) - x)) < 1e-14
    # the twirl by Z kills X
    assert np.max(np.abs(gate_twirl_t1(ch.PAULI_X, g))) == 0
    for _ in range(5):
        x = random_hermitian(rng, 2)
        want = quadrature_twirl_t1(x, g, 4096)
        assert np.max(np.abs(gate_twirl_t1(x, g) - want)) < 1e-10


def test_gate_twirl_t1_rejects_non_involutory():
    with pytest.raises(ValueError):
        gate_twirl_t1(np.eye(2), np.diag([1.0, 2.0]))


def test_gate_twirl_t2_identity_is_fixed():
    g = ch.pauli_string(2, "ZZ")
    eye = np.eye(16, dtype=complex)
    assert np.max(np.abs(gate_twirl_t2(eye, g) - eye)) < 1e-13


@pytest.mark.parametrize("labels", ["XI", "YI", "ZZ"])
def test_gate_twirl_t2_matches_quadrature(labels):
    rng = np.random.default_rng(1)
    g = ch.pauli_string(2, labels)
    for _ in range(5):
        x = random_hermitian(rng, 16)
        got = gate_twirl_t2(x, g)
        assert np.max(np.abs(got - quadrature_twirl_t2(x, g, 8))) < 1e-12
        assert np.max(np.abs(got - quadrature_twirl_t2(x, g, 4096))) < 1e-10


def test_angle_grid_exactness_matches_matrix_exponential():
    # the cos/sin closed form for involutory generators agrees with expm
    from scipy.linalg import expm

    g = ch.pauli_string(2, "ZZ")
    for theta in (0.3, 1.7, 4.4):
        direct = np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * g
        assert np.max(np.abs(direct - expm(-1j * theta * g))) < 1e-12


def test_fast_twirl_matches_dense_formula():
    rng = np.random.default_rng(2)
    spec = CircuitSpec(n=2, ansatz=HEA, layers=1)
    nlegs = 2 * spec.n
    m = random_hermitian(rng, 16)
    for name, labels in tw.generators(spec):
        ga = _GateActions(
            name,
            tuple(sorted(labels)),
            tw.pauli_action(nlegs, {**labels, **{q + 2: p for q, p in labels.items()}}),
            tw.pauli_action(nlegs, labels),
            tw.pauli_action(nlegs, {q + 2: p for q, p in labels.items()}),
        )
        dense_g = ch.pauli_string(2, "".join(labels.get(q, "I") for q in range(2)))
        assert np.max(np.abs(_twirl_state(m, ga) - gate_twirl_t2(m, dense_g))) < 1e-12


def test_generators_layout():
    gens = tw.generators(CircuitSpec(n=3, ansatz=HEA, layers=1))
    assert len(gens) == 3 + 3 + 2
    gens = tw.generators(CircuitSpec(n=3, ansatz=MAT, layers=1))
    assert len(gens) == 3 + 2


def test_evolve_state_invariants():
    spec = CircuitSpec(n=2, ansatz=HEA, layers=4, noise=ch.AMPLITUDE_DAMPING, gamma=0.2)
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
    kraus = ch.standard_noise(spec.noise, spec.gamma)
    m = initial_two_copy_state(spec)
    for _ in range(spec.layers):
        for ga in gates:
            m = _twirl_state(m, ga)
            for q in ga.qubits:
                m = tw.apply_1q_channel(m, kraus, q)
                m = tw.apply_1q_channel(m, kraus, q + n)
            assert np.max(np.abs(m - m.conj().T)) < 1e-9
            assert abs(np.trace(m) - 1) < 1e-10
            assert np.max(np.abs(swap_copies(m, n) - m)) < 1e-9
    evals = np.linalg.eigvalsh(m)
    assert evals.min() > -1e-8


def test_circuit_spec_rejects_unknown_initial_state():
    with pytest.raises(ValueError, match="unknown initial state 'foo'"):
        CircuitSpec(n=2, initial_state="foo")


def test_circuit_spec_rejects_unknown_noise():
    with pytest.raises(ValueError, match="unknown noise kind 'foo'"):
        CircuitSpec(n=2, noise="foo")


@pytest.mark.parametrize("kwargs", [{"n": 0}, {"n": -1}, {"n": 2, "layers": -1}])
def test_circuit_spec_rejects_bad_sizes(kwargs):
    with pytest.raises(ValueError, match="need"):
        CircuitSpec(**kwargs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_channel_leg_matches_einsum(n):
    rng = np.random.default_rng(n)
    c = rng.standard_normal((4**n, 4**n))
    r = rng.standard_normal((4, 4))
    for leg in range(2 * n):
        want = np.einsum("ij,ajb->aib", r, c.reshape(4**leg, 4, -1)).reshape(c.shape)
        assert np.max(np.abs(pauli_channel_leg(c, r, leg) - want)) < 1e-13, leg


def test_evolve_qubit_cap():
    with pytest.raises(tw.ResourceCapError):
        tw.evolve(CircuitSpec(n=8, layers=1))


@pytest.mark.parametrize("placement", [NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER])
@pytest.mark.parametrize("noise", [None, *ch.NOISE_KINDS])
@pytest.mark.parametrize("ansatz", [HEA, MAT])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_evolve_matches_dense_oracle(n, ansatz, noise, placement):
    spec = CircuitSpec(
        n=n, ansatz=ansatz, layers=3, noise=noise, gamma=0.1 if noise else 0.0,
        noise_placement=placement,
    )
    want = np.array(evolve_dense(spec))
    got = np.array(tw.evolve(spec))
    assert np.max(np.abs(got - want) / want) < 1e-12


@pytest.mark.parametrize(
    "ansatz, noise, placement",
    [(MAT, ch.AMPLITUDE_DAMPING, NOISE_ON_REGISTER), (HEA, ch.LOCAL_DEPOLARIZING, NOISE_ON_GATE_SUPPORT)],
)
def test_evolve_matches_dense_oracle_n4(ansatz, noise, placement):
    spec = CircuitSpec(n=4, ansatz=ansatz, layers=3, noise=noise, gamma=0.2,
                       noise_placement=placement)
    want = np.array(evolve_dense(spec))
    got = np.array(tw.evolve(spec))
    assert np.max(np.abs(got - want) / want) < 1e-12


@pytest.mark.parametrize("placement", [NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER])
@pytest.mark.parametrize("noise", ch.NOISE_KINDS)
@pytest.mark.parametrize("state", [ZERO_STATE, PLUS_STATE])
@pytest.mark.parametrize(
    "n, ansatz", [(2, HEA), (2, MAT), (3, HEA), (3, MAT), (4, HEA), (4, MAT), (5, MAT)]
)
def test_evolve_matches_dense_pair_oracle(n, ansatz, state, noise, placement):
    # The oracle runs every layer in the listed order.
    spec = CircuitSpec(n=n, ansatz=ansatz, layers=3, noise=noise, gamma=0.1,
                       initial_state=state, noise_placement=placement)
    want = np.array(evolve_pairs_dense(spec))
    got = np.array(tw.evolve(spec))
    assert np.max(np.abs(got - want) / want) < 1e-12


@pytest.mark.parametrize("noise", ch.NOISE_KINDS)
def test_noise_transfer_is_diagonal_plus_z_lift(noise):
    # evolve folds R = (1 + O) D, with O nonzero only at [Z, I]
    r = ch.pauli_transfer(ch.standard_noise(noise, 0.3), 1)
    off = r - np.diag(np.diag(r))
    off[3, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-15
    assert abs(r[0, 0] - 1) < 1e-15


@pytest.mark.parametrize("placement", [NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER])
@pytest.mark.parametrize("state", [ZERO_STATE, PLUS_STATE])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_states_invariants(n, state, placement):
    spec = CircuitSpec(n=n, ansatz=HEA, layers=3, noise=ch.AMPLITUDE_DAMPING, gamma=0.2,
                       initial_state=state, noise_placement=placement)
    size = 4**n
    steps = 0
    for keys, vals in tw._pair_states(spec):
        steps += 1
        assert np.all(vals != 0)  # sums that cancel exactly are dropped
        assert np.all(np.diff(np.sort(keys)) > 0)  # each pair stored once
        p, q = np.divmod(keys, size)
        assert np.all(p <= q)  # one key per unordered pair; c = c^T by construction
        # trace: c[I, I] = 4^-n
        assert vals[keys == 0] == pytest.approx([1 / size], rel=1e-12)
        # orbit sums: c[P, P] on the diagonal, c[P, Q] + c[Q, P] off it
        purity = size * float(np.sum(vals[p == q] ** 2) + np.sum(vals[p < q] ** 2) / 2)
        assert 1 / size - 1e-12 <= purity <= 1 + 1e-12
    assert steps == spec.layers * len(tw.generators(spec))


def _pair_state_cases():
    for n, ansatz, state, placement, noise in product(
        (2, 3, 4), (HEA, MAT), (ZERO_STATE, PLUS_STATE),
        (NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER), ch.NOISE_KINDS,
    ):
        yield n, ansatz, state, placement, noise, 0.1
    # The singular-diagonal gammas of the test below.
    for n, placement, (noise, gamma) in product(
        (2, 3), (NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER),
        ((ch.LOCAL_DEPOLARIZING, 0.75), (ch.DEPHASING, 0.5), (ch.BIT_FLIP, 0.5)),
    ):
        yield n, HEA, PLUS_STATE, placement, noise, gamma


@pytest.mark.parametrize("n, ansatz, state, placement, noise, gamma", _pair_state_cases())
def test_pair_states_expand_to_the_full_storage_oracle(n, ansatz, state, placement, noise, gamma):
    spec = CircuitSpec(n=n, ansatz=ansatz, layers=3, noise=noise, gamma=gamma,
                       initial_state=state, noise_placement=placement)
    steps = 0
    for (keys, vals), (full_keys, full_vals) in zip(
        tw._pair_states(spec), pair_states_full(spec), strict=True
    ):
        steps += 1
        want = np.zeros((4**n, 4**n))
        want[np.divmod(full_keys, 4**n)] = full_vals
        got = expand_half_pairs(keys, vals, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), steps
    assert steps == spec.layers * len(tw.generators(spec))


@pytest.mark.parametrize("placement", [NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER])
@pytest.mark.parametrize("ansatz", [HEA, MAT])
@pytest.mark.parametrize("n", range(1, 7))
def test_first_layer_order_keeps_gates_that_share_a_qubit_in_order(n, ansatz, placement):
    spec = CircuitSpec(n=n, ansatz=ansatz, layers=2, noise=ch.AMPLITUDE_DAMPING, gamma=0.1,
                       noise_placement=placement)
    gens = tw.generators(spec)
    order = tw.first_layer_order(spec)
    assert sorted(order) == list(range(len(gens)))
    if placement == NOISE_ON_REGISTER:
        assert order == list(range(len(gens)))
    at = {g: i for i, g in enumerate(order)}
    for a, b in product(range(len(gens)), repeat=2):
        if a < b and set(gens[a][1]) & set(gens[b][1]):
            assert at[a] < at[b], (gens[a][0], gens[b][0])


@pytest.mark.parametrize(
    "ansatz, names",
    [
        (MAT, "X0 X1 Z0Z1 X2 Z1Z2 X3 Z2Z3"),
        (HEA, "X0 X1 X2 X3 Y0 Y1 Z0Z1 Y2 Z1Z2 Y3 Z2Z3"),
    ],
)
def test_first_layer_order_holds_single_qubit_gates_back(ansatz, names):
    spec = CircuitSpec(n=4, ansatz=ansatz, layers=1)
    gens = tw.generators(spec)
    assert [gens[g][0] for g in tw.first_layer_order(spec)] == names.split()


def _schedule_cases():
    # Every case at n = 5; at n = 6 the densest one, from |+...+> with
    # amplitude damping, under gate-support placement.
    for ansatz, state, placement, noise in product(
        (HEA, MAT), (ZERO_STATE, PLUS_STATE), (NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER),
        ch.NOISE_KINDS,
    ):
        yield 5, ansatz, state, placement, noise
    for ansatz in (HEA, MAT):
        yield 6, ansatz, PLUS_STATE, NOISE_ON_GATE_SUPPORT, ch.AMPLITUDE_DAMPING


def _on_common_keys(keys, vals, other_keys, other_vals):
    """Two sparse states as dense vectors over the union of their keys."""
    union = np.union1d(keys, other_keys)
    a, b = np.zeros(len(union)), np.zeros(len(union))
    a[np.searchsorted(union, keys)] = vals
    b[np.searchsorted(union, other_keys)] = other_vals
    return a, b


@pytest.mark.parametrize("n, ansatz, state, placement, noise", _schedule_cases())
def test_later_layers_run_in_listed_order(n, ansatz, state, placement, noise):
    # From the end of the first layer on, _pair_states visits the states of
    # the listed-order oracle at every gate.
    spec = CircuitSpec(n=n, ansatz=ansatz, layers=2, noise=noise, gamma=0.1,
                       initial_state=state, noise_placement=placement)
    per_layer = len(tw.generators(spec))
    purities = []
    for step, ((keys, vals), (full_keys, full_vals)) in enumerate(
        zip(tw._pair_states(spec), pair_states_full(spec, range(per_layer)), strict=True),
        start=1,
    ):
        if step % per_layer == 0:
            purities.append(4**n * float(full_vals @ full_vals))
        if step >= per_layer:
            # The orbit sums of the full storage: c[P, Q] + c[Q, P], c[P, P].
            half_keys, inverse = np.unique(
                tw._pair_key(full_keys >> 2 * n, full_keys & (4**n - 1), n), return_inverse=True
            )
            got, want = _on_common_keys(keys, vals, half_keys, np.bincount(inverse, full_vals))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), step
    got = np.array(tw.evolve(spec))
    assert np.max(np.abs(got - purities) / purities) < 1e-12


@pytest.mark.parametrize("placement", [NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER])
@pytest.mark.parametrize(
    "noise, gamma",
    [(ch.LOCAL_DEPOLARIZING, 0.75), (ch.DEPHASING, 0.5), (ch.BIT_FLIP, 0.5)],
)
@pytest.mark.parametrize("n", [2, 3])
def test_pair_states_drop_zeros_of_a_singular_noise_diagonal(n, noise, gamma, placement):
    # Each of these noises has a zero on its Pauli-transfer diagonal.
    spec = CircuitSpec(n=n, ansatz=HEA, layers=3, noise=noise, gamma=gamma,
                       initial_state=PLUS_STATE, noise_placement=placement)
    for _, vals in tw._pair_states(spec):
        assert np.all(vals != 0)
    want = np.array(evolve_pairs_dense(spec))
    got = np.array(tw.evolve(spec))
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_evolve_n7_local_depolarizing_between_references():
    refs = tw.reference_purities(7, dE=4**7)
    traj = tw.evolve(
        CircuitSpec(n=7, ansatz=HEA, layers=2, noise=ch.LOCAL_DEPOLARIZING, gamma=0.1)
    )
    assert len(traj) == 2
    assert all(refs["depolarize"] <= p <= refs["haar"] for p in traj), traj


@pytest.mark.parametrize("n", [1, 2])
def test_generator_table_matches_pauli_products(n):
    labels = ch.pauli_labels(n)
    mats = [ch.pauli_string(n, lab) for lab in labels]
    for g_label, g in zip(labels, mats):
        anti, partner, sign = tw.generator_table(n, dict(enumerate(g_label)))
        for i, p in enumerate(mats):
            assert anti[i] == (np.max(np.abs(p @ g + g @ p)) < 1e-12)
            if anti[i]:
                assert np.max(np.abs(1j * p @ g - sign[i] * mats[partner[i]])) < 1e-12
            else:
                assert partner[i] == i and sign[i] == 1.0


@pytest.mark.parametrize("label", ch.pauli_labels(1) + ch.pauli_labels(2))
def test_generator_twirl_pair_matrix_matches_dense(label):
    got = generator_twirl_closed_form(label, 2)
    assert np.max(np.abs(got - generator_twirl_pair_matrix_dense(label))) < 1e-13


@pytest.mark.parametrize("label", ch.pauli_labels(1) + ch.pauli_labels(2))
def test_generator_twirl_matrix_matches_dense(label):
    got = generator_twirl_closed_form(label, 1)
    assert np.max(np.abs(got - generator_twirl_matrix_dense(label))) < 1e-13


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("label", ch.pauli_labels(1) + ch.pauli_labels(2) + ["XYZ"])
def test_generator_composite_norm_gathers_the_dense_product(label, t):
    model = ch.NoiseModel.uniform(2 ** len(label), 0.1, 0.01)
    m_noise = model.single_copy_transfer()
    if t == 2:
        m_noise = np.kron(m_noise, m_noise)
    step = m_noise @ generator_twirl_closed_form(label, t)
    for k in (1, 3):
        power = np.linalg.matrix_power(step, k)
        want = float(np.sum(power * power))
        got = tw.composite_noise_norm(tw.SINGLE_GENERATOR, model, t, k, generator=label)
        assert abs(got - want) <= 1e-12 * want, k


@pytest.mark.parametrize("label", ["xyz", "XA", "Z "])
def test_generator_twirl_rejects_a_letter_outside_ixyz(label):
    model = ch.NoiseModel.uniform(2 ** len(label), 0.1, 0.0)
    for t in (1, 2):
        with pytest.raises(ValueError, match=f"generator label {label!r} has a letter"):
            tw.composite_noise_norm(tw.SINGLE_GENERATOR, model, t, 1, generator=label)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("kind", [HAAR, CHAAR, DEPOLARIZE])
def test_two_copy_weights_equal_kappa_form_exactly(kind, d):
    for dE in (1, 2, 3, d * d):
        for traces in ((Fraction(1), Fraction(1)), (Fraction(9, 4), Fraction(5, 8))):
            got = tw._two_copy_weights(kind, d, dE, *traces)
            assert got == two_copy_weights_kappa(kind, d, dE, *traces)
            assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("dE", [0, -1])
def test_reference_helpers_reject_a_bad_environment(dE):
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="dE"):
        tw.reference_purities(2, dE)
    for ref in (HAAR, CHAAR, DEPOLARIZE):
        with pytest.raises(ValueError, match="dE"):
            tw.variance_reference(rho, ch.PAULI_Z, ref, dE=dE)


def test_variance_reference_rejects_mismatched_shapes():
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="obs must be 2 x 2"):
        tw.variance_reference(rho, np.eye(3), HAAR)
    with pytest.raises(ValueError, match="rho must be 2 x 2"):
        tw.variance_reference(np.ones((2, 3)), ch.PAULI_Z, HAAR)


def test_reference_purities():
    refs = tw.reference_purities(3, dE=64)
    assert refs["depolarize"] == 1 / 64
    assert abs(refs["haar"] - 2 / 72) < 1e-15
    assert abs(tw.reference_purities(3, dE=1)["chaar"] - refs["haar"]) < 1e-15
    assert abs(tw.reference_purities(3, dE=10**6)["chaar"] - refs["depolarize"]) < 1e-9
    assert refs["depolarize"] < refs["chaar"] < refs["haar"]


def test_evolve_noiseless_hea_reaches_haar_floor():
    refs = tw.reference_purities(2, dE=16)
    traj = tw.evolve(CircuitSpec(n=2, ansatz=HEA, layers=25))
    assert abs(traj[-1] - refs["haar"]) / refs["haar"] < 0.02
    assert min(traj) > refs["haar"] - 1e-9


def test_evolve_depolarizing_reaches_floor():
    refs = tw.reference_purities(2, dE=16)
    traj = tw.evolve(
        CircuitSpec(n=2, ansatz=HEA, layers=40, noise=ch.LOCAL_DEPOLARIZING, gamma=0.2)
    )
    assert abs(traj[-1] - refs["depolarize"]) / refs["depolarize"] < 0.02
    tail = traj[25:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))  # eventually monotone


def test_evolve_register_noise_placement():
    spec = CircuitSpec(
        n=2,
        ansatz=HEA,
        layers=5,
        noise=ch.DEPHASING,
        gamma=0.1,
        noise_placement=NOISE_ON_REGISTER,
    )
    traj_register = tw.evolve(spec)
    traj_gate = tw.evolve(
        CircuitSpec(n=2, ansatz=HEA, layers=5, noise=ch.DEPHASING, gamma=0.1)
    )
    # register placement applies strictly more noise
    assert traj_register[-1] < traj_gate[-1]


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_composite_noise_norm_noiseless_is_factorial(d):
    model = ch.NoiseModel.uniform(d, 0.0, 0.0)
    for t, k in ((1, 1), (1, 4), (2, 1), (2, 5)):
        got = tw.composite_noise_norm(tw.HAAR_UNITARIES, model, t, k)
        assert abs(got - factorial(t)) < 1e-12


NOISE_PAIRS = [(0.0, 0.0), (0.05, 0.0), (0.1, 0.01), (0.1, 0.02), (0.3, 0.1)]


@pytest.mark.parametrize("gamma, eta", NOISE_PAIRS)
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("d", [2, 4])
def test_haar_composite_norm_matches_dense_power(d, t, gamma, eta):
    model = ch.NoiseModel.uniform(d, gamma, eta)
    for k in range(1, 7):
        got = tw.composite_noise_norm(tw.HAAR_UNITARIES, model, t, k)
        want = haar_composite_norm_dense(model, t, k)
        assert abs(got - want) <= 1e-12 * want, k


@pytest.mark.parametrize("gamma, eta", NOISE_PAIRS)
@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("label", ch.pauli_labels(1) + ch.pauli_labels(2))
def test_generator_composite_norm_matches_dense_power(label, t, gamma, eta):
    model = ch.NoiseModel.uniform(2 ** len(label), gamma, eta)
    for k in range(1, 5):
        got = tw.composite_noise_norm(tw.SINGLE_GENERATOR, model, t, k, generator=label)
        want = generator_composite_norm_dense(model, t, k, label)
        assert abs(got - want) <= 1e-12 * want, k


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("label", ["Z", "XY"])
def test_generator_composite_norm_sums_uneven_blocks(label, t, monkeypatch):
    # Three columns per block, so the last block of the 4^(n t) columns holds
    # one: the string Z...Z (or its pair), which the twirl keeps for these labels.
    monkeypatch.setattr(tw, "STEP_BLOCK", 3 * 4 ** (len(label) * t))
    model = ch.NoiseModel.uniform(2 ** len(label), 0.1, 0.01)
    for k in (1, 2, 3):
        got = tw.composite_noise_norm(tw.SINGLE_GENERATOR, model, t, k, generator=label)
        want = generator_composite_norm_dense(model, t, k, label)
        assert abs(got - want) <= 1e-12 * want, k


@pytest.mark.parametrize("ensemble", [tw.HAAR_UNITARIES, tw.SINGLE_GENERATOR])
@pytest.mark.parametrize("k", [0, -1])
def test_composite_noise_norm_rejects_k_below_one(ensemble, k):
    model = ch.NoiseModel.uniform(2, 0.1, 0.0)
    with pytest.raises(ValueError, match="k >= 1"):
        tw.composite_noise_norm(ensemble, model, 2, k, generator="Z")


def test_composite_noise_norm_unital_slope():
    for gamma in (0.05, 0.1):
        model = ch.NoiseModel.uniform(2, gamma, 0.0)
        ks = np.arange(1, 7)
        ys = [
            log(tw.composite_noise_norm(tw.HAAR_UNITARIES, model, 2, int(k)) - 1.0)
            for k in ks
        ]
        slope = np.polyfit(ks, ys, 1)[0]
        assert abs(slope / (4 * log(1 - gamma)) - 1) < 0.1


def test_composite_noise_norm_nonunital_floor():
    gamma = 0.1
    floors = {}
    for eta in (0.01, 0.02):
        noisy = ch.NoiseModel.uniform(2, gamma, eta)
        unital = ch.NoiseModel.uniform(2, gamma, 0.0)
        f5 = tw.composite_noise_norm(tw.HAAR_UNITARIES, noisy, 2, 5) - tw.composite_noise_norm(
            tw.HAAR_UNITARIES, unital, 2, 5
        )
        f6 = tw.composite_noise_norm(tw.HAAR_UNITARIES, noisy, 2, 6) - tw.composite_noise_norm(
            tw.HAAR_UNITARIES, unital, 2, 6
        )
        assert abs(f5 / f6 - 1) < 0.02  # k-independent
        floors[eta] = f6
    assert abs(floors[0.02] / floors[0.01] - 4) < 0.15 * 4


def test_composite_noise_norm_single_generator():
    model = ch.NoiseModel.uniform(2, 0.1, 0.0)
    vals = {
        k: tw.composite_noise_norm(tw.SINGLE_GENERATOR, model, 2, k, generator="Z")
        for k in (6, 8, 10)
    }
    # the surviving local commutant decays as (1-gamma)^(2k) per squared norm
    for k in (6, 8):
        ratio = (vals[k] - 1) / (vals[k + 2] - 1)
        assert abs(ratio - (0.9) ** -4) < 0.2 * (0.9) ** -4
    with pytest.raises(ValueError):
        tw.composite_noise_norm(tw.SINGLE_GENERATOR, model, 3, 1, generator="Z")


def test_variance_reference_depolarize():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert tw.variance_reference(rho, ch.PAULI_Z, DEPOLARIZE) == 0.0
    proj = (np.eye(2) + ch.PAULI_Z) / 2
    assert abs(tw.variance_reference(rho, proj, DEPOLARIZE) - 0.25) < 1e-15


def test_variance_reference_chaar_matches_mc():
    rho = np.diag([1.0, 0.0]).astype(complex)
    want = tw.variance_reference(rho, ch.PAULI_Z, CHAAR, dE=4)
    est = tw.mc_expectation_moments(
        EnsembleSpec(CHAAR, d=2, t=2, dE=4), rho, ch.PAULI_Z, 4000, seed=5
    )
    assert abs(est.variance - want) < 3 * est.variance_stderr


def _random_state_and_observable(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real, random_hermitian(rng, d)


def test_variance_reference_haar_is_the_two_design_form():
    d = 3
    rho, obs = _random_state_and_observable(d, 11)
    tr_rho, tr_rho2 = np.trace(rho).real, np.trace(rho @ rho).real
    tr_o, tr_o2 = np.trace(obs).real, np.trace(obs @ obs).real
    want = (
        tr_rho**2 * tr_o**2 + tr_rho2 * tr_o2 - (tr_rho**2 * tr_o2 + tr_rho2 * tr_o**2) / d
    ) / (d * d - 1)
    got = tw.variance_reference(rho, obs, HAAR)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert got == tw.variance_reference(rho, obs, CHAAR, dE=1)


def test_variance_reference_haar_matches_mc():
    rho, obs = _random_state_and_observable(3, 11)
    obs -= np.trace(obs).real / 3 * np.eye(3)  # traceless: the mean vanishes
    want = tw.variance_reference(rho, obs, HAAR)
    est = tw.mc_expectation_moments(EnsembleSpec(HAAR, d=3, t=2), rho, obs, 4000, seed=5)
    assert abs(est.variance - want) < 3 * est.variance_stderr


def test_variance_reference_chaar_limits():
    rho = np.diag([1.0, 0.0]).astype(complex)
    v1 = tw.variance_reference(rho, ch.PAULI_Z, CHAAR, dE=1)
    # trivial environment: unitary value Tr[O^2] (d - 1/d) / (d^2 - 1) / d = 1/3
    assert abs(v1 - 1 / 3) < 1e-14
    v_big = tw.variance_reference(rho, ch.PAULI_Z, CHAAR, dE=10**6)
    assert v_big < 1e-5


def test_mc_expectation_moments_depolarize():
    rho = np.diag([0.5, 0.5]).astype(complex)
    est = tw.mc_expectation_moments(
        EnsembleSpec(DEPOLARIZE, d=2, t=1), rho, ch.PAULI_Z, 500, seed=6
    )
    assert est.variance == 0.0
    assert abs(est.mean) < 1e-15


def test_mc_expectation_moments_haar():
    rho = np.diag([1.0, 0.0]).astype(complex)
    est = tw.mc_expectation_moments(
        EnsembleSpec(HAAR, d=2, t=2), rho, ch.PAULI_Z, 6000, seed=7
    )
    assert abs(est.mean) < 3 * est.mean_stderr + 1e-3
    assert abs(est.variance - 1 / 3) < 3 * est.variance_stderr


# <Z> vanishes on every MAT realization from the plus state, so MAT is
# checked on X, whose second moment does not.
@pytest.mark.parametrize("placement", [NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER])
@pytest.mark.parametrize(
    "ansatz, state, label", [(HEA, ZERO_STATE, "ZI"), (MAT, PLUS_STATE, "XI")]
)
def test_mc_circuit_second_moment_matches_evolve(ansatz, state, label, placement):
    spec = CircuitSpec(
        n=2, ansatz=ansatz, layers=3, noise=ch.LOCAL_DEPOLARIZING, gamma=0.1,
        initial_state=state, noise_placement=placement,
    )
    # exact second moment from the averaged two-copy state
    n, nlegs = spec.n, 2 * spec.n
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
    kraus = ch.standard_noise(spec.noise, spec.gamma)
    m = initial_two_copy_state(spec)
    for _ in range(spec.layers):
        for ga in gates:
            m = _twirl_state(m, ga)
            for q in range(n) if placement == NOISE_ON_REGISTER else ga.qubits:
                m = tw.apply_1q_channel(m, kraus, q)
                m = tw.apply_1q_channel(m, kraus, q + n)
    obs = ch.pauli_string(2, label)
    exact_second = np.trace(m @ np.kron(obs, obs)).real
    psi = initial_vector(spec)
    est = tw.mc_expectation_moments(spec, np.outer(psi, psi.conj()), obs, 3000, seed=8)
    got_second = est.variance + est.mean**2
    se = est.variance_stderr + 2 * abs(est.mean) * est.mean_stderr
    assert abs(got_second - exact_second) < 3 * se + 1e-4


def _same_moments(got, want):
    assert got.samples == want.samples
    for name in ("mean", "mean_stderr", "variance", "variance_stderr"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0), name


@pytest.mark.parametrize(
    "spec",
    [EnsembleSpec(HAAR, d=2, t=2), EnsembleSpec(CHAAR, d=2, t=2, dE=2),
     EnsembleSpec(CHAAR, d=2, t=2, dE=4)],
    ids=lambda s: s.label(),
)
@pytest.mark.parametrize("samples", [mo.MC_CHUNK + 1, 2 * mo.MC_CHUNK + 45])
def test_mc_expectation_moments_matches_single_draw_loop(spec, samples):
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    obs = ch.PAULI_Z + 0.5 * ch.PAULI_X
    _same_moments(
        tw.mc_expectation_moments(spec, rho, obs, samples, seed=19),
        mc_expectation_moments_loop(spec, rho, obs, samples, seed=19),
    )


@pytest.mark.parametrize(
    "spec", [EnsembleSpec(HAAR, d=3, t=2), EnsembleSpec(CHAAR, d=2, t=2, dE=3)],
    ids=lambda s: s.label(),
)
def test_mc_stacks_stay_within_entry_budget(monkeypatch, spec):
    """With the entry budget at 7 frame-potential samples (14 expectation
    samples), both estimators draw uneven stacks of the same stream and give
    the same estimates, and no Ginibre stack holds more entries."""
    w = np.arange(1.0, spec.d + 1)
    rho, obs = np.diag(w / w.sum()), np.diag(w - 2)
    dim, samples = spec.d * spec.dE, 101

    def estimates():
        return (mo.frame_potential_mc(spec, samples, seed=23),
                tw.mc_expectation_moments(spec, rho, obs, samples, seed=23))

    want, counts, draw = estimates(), [], mo.sample_haar_unitary
    monkeypatch.setattr(mo, "MC_ENTRIES", 7 * 4 * dim**2 + 1)
    monkeypatch.setattr(mo, "sample_haar_unitary",
                        lambda dim, rng, count: counts.append(count) or draw(dim, rng, count))
    assert estimates() == want
    # Two unitaries per frame-potential sample, one per expectation sample.
    assert counts == [14] * 14 + [6] + [14] * 7 + [3]
    assert max(counts) * 2 * dim**2 <= mo.MC_ENTRIES


@pytest.mark.parametrize("placement", [NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER])
@pytest.mark.parametrize("ansatz, label", [(HEA, "ZI"), (MAT, "XI")])
def test_mc_circuit_matches_single_draw_loop(ansatz, label, placement):
    spec = CircuitSpec(n=2, ansatz=ansatz, layers=3, noise=ch.AMPLITUDE_DAMPING, gamma=0.1,
                       noise_placement=placement)
    psi = initial_vector(spec)
    rho, obs = np.outer(psi, psi.conj()), ch.pauli_string(2, label)
    _same_moments(
        tw.mc_expectation_moments(spec, rho, obs, mo.MC_CHUNK + 1, seed=20),
        mc_expectation_moments_loop(spec, rho, obs, mo.MC_CHUNK + 1, seed=20),
    )


@pytest.mark.parametrize(
    "spec",
    [EnsembleSpec(HAAR, d=2, t=2), EnsembleSpec(CHAAR, d=2, t=2, dE=2),
     EnsembleSpec(DEPOLARIZE, d=2, t=2), CircuitSpec(n=1, layers=1)],
    ids=["haar", "chaar", "depolarize", "circuit"],
)
def test_mc_expectation_moments_rejects_bad_input(spec):
    good = np.diag([1.0, 0.0]).astype(complex)
    bad = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError, match="rho must be 2 x 2"):
        tw.mc_expectation_moments(spec, bad, ch.PAULI_Z, 100)
    with pytest.raises(ValueError, match="obs must be 2 x 2"):
        tw.mc_expectation_moments(spec, good, np.eye(4), 100)
    for samples in (-1, 0, 1):
        with pytest.raises(ValueError, match="at least 2 samples"):
            tw.mc_expectation_moments(spec, good, ch.PAULI_Z, samples)


def test_mc_error_bars_scale_with_samples():
    rho = np.diag([1.0, 0.0]).astype(complex)
    small = tw.mc_expectation_moments(
        EnsembleSpec(HAAR, d=2, t=2), rho, ch.PAULI_Z, 2000, seed=9
    )
    big = tw.mc_expectation_moments(
        EnsembleSpec(HAAR, d=2, t=2), rho, ch.PAULI_Z, 8000, seed=10
    )
    assert abs(small.mean_stderr / big.mean_stderr - 2) < 0.5
