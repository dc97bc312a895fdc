"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its assertions hold (run with -s to see
them); tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction
from math import comb, factorial, log, sqrt

import numpy as np
import pytest

from channelmoments import channels as ch
from channelmoments import localized as loc
from channelmoments import moments as mo
from channelmoments import twirlsim as tw
from channelmoments import weingarten as wg
from channelmoments.exactalg import mat_eq, product_is_identity
from channelmoments.specs import (
    CHAAR,
    DEPOLARIZE,
    HAAR,
    HEA,
    LOCALIZED,
    MAT,
    CircuitSpec,
    EnsembleSpec,
    chaar,
    depolarize,
    haar,
)
from oracles import gate_twirl_t2, group_index, symmetric_group, unvectorize


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_acceptance_01_weingarten_exactness():
    start = time.time()
    for t in range(1, 6):
        for d in (t, t + 1, 8):
            g = wg.gram_matrix(t, d)
            w = wg.weingarten_matrix(t, d)
            assert product_is_identity(g, w), (t, d)
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"
    _report(1, f"weingarten exactness, {elapsed:.2f} s")


def test_acceptance_02_haar_norms():
    for t in (2, 3, 4):
        for d in (t, t + 1, 8):
            tm = mo.transfer(haar(d, t))
            x = mo.gram(t, d)
            assert mo.norm_squared(tm, x) == factorial(t), (t, d)
    _report(2, "unitary-ensemble norms are t!")


DGRID = (2, 3, 4)
DEGRID = (1, 2, 4, 9)


def test_acceptance_03_chaar_closed_forms():
    for d in DGRID:
        for dE in DEGRID:
            tm = mo.transfer(chaar(d, dE, 2), basis=LOCALIZED)
            den = d * d * dE * dE - 1
            assert tm.matrix[0, 0] == 1
            assert tm.matrix[0, 1] == 0
            assert tm.matrix[1, 0] == Fraction(dE - 1, den)
            assert tm.matrix[1, 1] == Fraction(dE, den)
    _report(3, "dilated-ensemble closed forms")


def test_acceptance_04_concatenation_oracle():
    for d in DGRID:
        for dE in DEGRID:
            x = mo.gram(2, d, basis=LOCALIZED)
            base = mo.transfer(chaar(d, dE, 2), basis=LOCALIZED)
            for k in range(1, 7):
                got = mo.concatenate(base, x, k)
                assert mat_eq(got.matrix, mo.exact_t2_chaar(k, d, dE).matrix), (d, dE, k)
    _report(4, "concatenation matches closed-form oracle")


def test_acceptance_05_spectrum():
    for d in (2, 3, 4, 8):
        for dE in (2, 3, 8):
            rep = mo.spectrum(chaar(d, dE, 2))
            lam = dE * (d * d - 1) / (d * d * dE * dE - 1)
            mods = np.sort(np.abs(rep.eigenvalues))[::-1]
            assert abs(mods[0] - 1) < 1e-10
            assert abs(mods[1] - lam) < 1e-10
    for t in (2, 3, 4):
        for d in (2, 3, 8):
            for dE in (2, 8):
                if d * dE < t:
                    continue
                rep = mo.spectrum(chaar(d, dE, t))
                assert rep.residuals["leading_right"] < 1e-10, (t, d, dE)
                assert rep.residuals["leading_left"] < 1e-10, (t, d, dE)
    _report(5, "spectral formulas and leading eigenpair")


def test_acceptance_06_hierarchy_scan():
    start = time.time()
    res = mo.hierarchy_scan(
        [2, 3, 4], [1, 3], [2, 3, 4, 5, 6, 7, 8], ("1", "2", "d", "d2")
    )
    elapsed = time.time() - start
    assert elapsed < 300.0, f"took {elapsed:.1f} s"
    assert res.violations == (), res.violations[:5]
    for row in res.rows:
        assert 1 - 1e-9 <= row.norm2 <= factorial(row.t) * (1 + 1e-9)
        assert not row.flags
    # spot values: trivial environment gives the unitary norm
    for row in res.rows:
        if row.dE == 1:
            assert abs(row.norm2 - factorial(row.t)) < 1e-8
    _report(6, f"hierarchy scan clean, {elapsed:.1f} s, {len(res.rows)} points")


def test_acceptance_07_block_structure_and_exponents():
    # exact zero patterns at t = 4
    same, contains = loc.support_pattern(4)
    tm_u = mo.transfer(haar(4, 4), basis=LOCALIZED)
    for i in range(24):
        for j in range(24):
            if not same[i, j]:
                assert tm_u.matrix[i, j] == 0
    tm_c = mo.transfer(chaar(2, 2, 4), basis=LOCALIZED)
    for i in range(24):
        for j in range(24):
            if not contains[i, j]:
                assert tm_c.matrix[i, j] == 0
    # power-law classes at the Lebesgue-measure environment scaling; entries
    # whose small-d ratio is polluted by subleading terms carry the
    # mixed-order flag at probes (8, 16) and must resolve at (16, 32)
    for t in (2, 3, 4):
        group = symmetric_group(t)
        idx = group_index(t)
        taus = [idx[p.images] for p in group if p.size == 1]
        for kind, rule, pattern_sel, tau_checks in (
            (HAAR, "1", 0, {(i, i): 2 for i in taus}),
            (CHAAR, "d2", 1, {(i, 0): 4 for i in taus} | {(i, i): 4 for i in taus}),
        ):
            pattern = loc.support_pattern(t)[pattern_sel]
            rep = loc.scaling_exponents(kind, t, (8, 16), dE_rule=rule)
            wide = loc.scaling_exponents(kind, t, (16, 32), dE_rule=rule)
            assert np.array_equal(rep.structural_zero, ~pattern)
            assert np.array_equal(wide.structural_zero, ~pattern)
            assert not wide.mixed_order.any()
            for (i, j), want in tau_checks.items():
                assert rep.exponents[i, j] == want and not rep.mixed_order[i, j]
                assert wide.exponents[i, j] == want
            # every exponent assigned at the small probes is confirmed at the
            # larger ones; flagged entries resolve there
            resolved = ~rep.structural_zero & ~rep.mixed_order
            assert np.array_equal(
                rep.exponents[resolved], wide.exponents[resolved]
            )
    _report(7, "block structure and scaling exponents")


def test_acceptance_08_gate_twirl_quadrature():
    rng = np.random.default_rng(2024)
    n = 2
    dim2 = (2**n) ** 2
    for labels in ("XI", "YI", "ZZ"):
        g = ch.pauli_string(n, labels)
        eye = np.eye(2**n)
        for npts in (8, 4096):
            # quadrature oracle as a superoperator: averaging kron(U, conj(U))
            # over the angle grid, then applied to every random input
            thetas = np.arange(npts) * 2 * np.pi / npts
            acc = np.zeros((dim2 * dim2, dim2 * dim2), dtype=complex)
            for theta in thetas:
                u1 = np.cos(theta) * eye - 1j * np.sin(theta) * g
                u2 = np.kron(u1, u1)
                acc += np.kron(u2, u2.conj())
            acc /= npts
            for _ in range(100):
                x = rng.standard_normal((dim2, dim2)) + 1j * rng.standard_normal(
                    (dim2, dim2)
                )
                x = x + x.conj().T
                want = unvectorize(acc @ ch.vectorize(x))
                got = gate_twirl_t2(x, g)
                assert np.max(np.abs(got - want)) < 1e-10, (labels, npts)
    _report(8, "closed-form gate twirl matches quadrature")


def test_acceptance_09_circuit_experiment():
    refs3 = tw.reference_purities(3, dE=64)
    # noiseless convergence to the unitary-ensemble value
    traj = tw.evolve(CircuitSpec(n=3, ansatz=HEA, layers=30))
    assert abs(traj[-1] - refs3["haar"]) / refs3["haar"] < 0.02
    # unital noise floors
    for gamma in (0.1, 0.2, 0.3):
        traj = tw.evolve(
            CircuitSpec(n=3, ansatz=HEA, layers=50, noise=ch.LOCAL_DEPOLARIZING, gamma=gamma)
        )
        assert abs(traj[-1] - refs3["depolarize"]) / refs3["depolarize"] < 0.02, gamma
    traj = tw.evolve(
        CircuitSpec(n=3, ansatz=HEA, layers=50, noise=ch.DEPHASING, gamma=0.2)
    )
    assert abs(traj[-1] - refs3["depolarize"]) / refs3["depolarize"] < 0.02
    # free-fermion plateau sits above the unitary value
    traj = tw.evolve(CircuitSpec(n=3, ansatz=MAT, layers=50))
    assert traj[-1] > 1.05 * refs3["haar"]
    # non-unital damping is not monotone in strength
    weak = tw.evolve(
        CircuitSpec(n=3, ansatz=HEA, layers=50, noise=ch.AMPLITUDE_DAMPING, gamma=0.1)
    )
    strong = tw.evolve(
        CircuitSpec(n=3, ansatz=HEA, layers=50, noise=ch.AMPLITUDE_DAMPING, gamma=0.3)
    )
    assert strong[-1] > weak[-1]
    # a size-4 spot check of the same behaviors
    refs4 = tw.reference_purities(4, dE=256)
    traj = tw.evolve(CircuitSpec(n=4, ansatz=HEA, layers=30))
    assert abs(traj[-1] - refs4["haar"]) / refs4["haar"] < 0.02
    traj = tw.evolve(
        CircuitSpec(n=4, ansatz=HEA, layers=50, noise=ch.LOCAL_DEPOLARIZING, gamma=0.2)
    )
    assert abs(traj[-1] - refs4["depolarize"]) / refs4["depolarize"] < 0.02
    _report(9, "desk-scale circuit purity experiment")


def test_acceptance_10_monte_carlo():
    est = mo.frame_potential_mc(haar(2, 2), 100_000, seed=101)
    assert abs(est.value - 2.0) <= 3 * est.stderr
    spec = chaar(2, 2, 2)
    exact = float(mo.norm_squared(mo.transfer(spec), mo.gram(2, 2)))
    est = mo.frame_potential_mc(spec, 100_000, seed=102)
    assert abs(est.value - exact) <= 3 * est.stderr
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert tw.variance_reference(rho, ch.PAULI_Z, DEPOLARIZE) == 0.0
    _report(10, "Monte-Carlo cross-validation")


def test_acceptance_11_noise_scaling_fits():
    for gamma in (0.05, 0.1):
        model = ch.NoiseModel.uniform(2, gamma, 0.0)
        ks = np.arange(1, 7)
        ys = [
            log(tw.composite_noise_norm(tw.HAAR_UNITARIES, model, 2, int(k)) - 1.0)
            for k in ks
        ]
        slope = float(np.polyfit(ks, ys, 1)[0])
        assert abs(slope / (4 * log(1 - gamma)) - 1) < 0.10, gamma
    gamma = 0.1
    floors = {}
    for eta in (0.01, 0.02):
        noisy = ch.NoiseModel.uniform(2, gamma, eta)
        unital = ch.NoiseModel.uniform(2, gamma, 0.0)
        f5 = tw.composite_noise_norm(tw.HAAR_UNITARIES, noisy, 2, 5) - \
            tw.composite_noise_norm(tw.HAAR_UNITARIES, unital, 2, 5)
        f6 = tw.composite_noise_norm(tw.HAAR_UNITARIES, noisy, 2, 6) - \
            tw.composite_noise_norm(tw.HAAR_UNITARIES, unital, 2, 6)
        assert abs(f5 / f6 - 1) < 0.05  # the floor is concatenation-independent
        floors[eta] = f6
    assert abs(floors[0.02] / floors[0.01] - 4) <= 0.15 * 4
    _report(11, "noise scaling exponents")


def test_acceptance_12_invariance_suite():
    for t in (1, 2, 3):
        d = max(2, t)  # the unitary-ensemble transfer needs d >= t
        results = mo.invariance_checks(
            EnsembleSpec(HAAR, d=d, t=t), EnsembleSpec(CHAAR, d=d, t=t, dE=2)
        )
        for res in results:
            assert res.passed, f"t={t} {res.name}: {res.detail}"
        if t > 1:
            names = {r.name for r in results}
            assert "chaar_not_idempotent" in names
    _report(12, "composition invariance suite")
