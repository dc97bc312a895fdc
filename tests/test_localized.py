from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from channelmoments import localized as loc
from channelmoments import moments as mo
from channelmoments.exactalg import mat_eq
from channelmoments.specs import CHAAR, DEPOLARIZE, HAAR, LOCALIZED, EnsembleSpec
from oracles import (
    derangement_count,
    from_cycles,
    group_index,
    scaling_exponents_loop,
    symmetric_group,
    transposition,
)


def test_phi_t2():
    assert loc._order_matrix(2).tolist() == [[1, 0], [-1, 1]]
    assert loc.phi_inverse(2).tolist() == [[1, 0], [1, 1]]


def test_phi_three_cycle_entry():
    group = symmetric_group(3)
    idx = group_index(3)
    phi = loc._order_matrix(3)
    i = idx[from_cycles(3, [(0, 1, 2)]).images]
    assert phi[i, 0] == 2  # mobius of a 3-cycle


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_phi_inverts_zeta(t):
    phi = loc._order_matrix(t)
    zeta = loc.phi_inverse(t)
    n = phi.shape[0]
    assert mat_eq(phi.dot(zeta), np.eye(n, dtype=object))
    assert mat_eq(zeta.dot(phi), np.eye(n, dtype=object))


def test_zeta_identity_column_is_all_ones():
    zeta = loc.phi_inverse(4)
    assert all(zeta[i, 0] == 1 for i in range(24))


def test_localized_gram_transposition_block():
    for d in (2, 3, 7):
        lg = loc.localized_gram(2, d)
        assert lg[0, 0] == 1
        assert lg[0, 1] == 0 and lg[1, 0] == 0
        assert lg[1, 1] == d * d - 1
    # distinct transpositions are orthogonal
    lg3 = loc.localized_gram(3, 4)
    idx = group_index(3)
    i = idx[transposition(3, 0, 1).images]
    j = idx[transposition(3, 0, 2).images]
    assert lg3[i, i] == 15 and lg3[i, j] == 0


@pytest.mark.parametrize("t,d", [(2, 8), (3, 8), (4, 8), (4, 16), (5, 8)])
def test_localized_gram_orthogonal_by_support(t, d):
    lg = loc.localized_gram(t, d)
    same, _ = loc.support_pattern(t)
    n = lg.shape[0]
    for i in range(n):
        for j in range(n):
            if not same[i, j]:
                assert lg[i, j] == 0


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_block_size_identity(t):
    # t! = sum over localities l != 1 of binom(t, l) * derangements(l)
    total = sum(
        comb(t, l) * derangement_count(l) for l in range(t + 1) if l != 1
    )
    assert total == factorial(t)
    # and the support multiset of the group matches the block sizes
    by_support = {}
    for p in symmetric_group(t):
        by_support[p.support] = by_support.get(p.support, 0) + 1
    for supp, count in by_support.items():
        assert count == derangement_count(len(supp))


def test_haar_localized_identity_column_and_transpositions():
    for t, d in ((2, 5), (3, 3), (4, 4)):
        tm = mo.transfer(EnsembleSpec(HAAR, d=d, t=t), basis=LOCALIZED)
        group = symmetric_group(t)
        # identity column: delta at the identity
        for i in range(len(group)):
            assert tm.matrix[i, 0] == (1 if i == 0 else 0)
        idx = group_index(t)
        taus = [p for p in group if p.size == 1]
        for a in taus:
            for b in taus:
                i, j = idx[a.images], idx[b.images]
                want = Fraction(1, d * d - 1) if a == b else 0
                assert tm.matrix[i, j] == want


@pytest.mark.parametrize("t,d", [(2, 3), (3, 3), (4, 4)])
def test_haar_localized_block_diagonal(t, d):
    tm = mo.transfer(EnsembleSpec(HAAR, d=d, t=t), basis=LOCALIZED)
    same, _ = loc.support_pattern(t)
    n = tm.matrix.shape[0]
    for i in range(n):
        for j in range(n):
            if not same[i, j]:
                assert tm.matrix[i, j] == 0


@pytest.mark.parametrize("t,d,dE", [(2, 2, 2), (3, 2, 2), (4, 2, 2), (4, 2, 4)])
def test_chaar_localized_block_lower_triangular(t, d, dE):
    tm = mo.transfer(EnsembleSpec(CHAAR, d=d, t=t, dE=dE), basis=LOCALIZED)
    _, contains = loc.support_pattern(t)
    n = tm.matrix.shape[0]
    for i in range(n):
        for j in range(n):
            if not contains[i, j]:
                assert tm.matrix[i, j] == 0


def test_chaar_localized_closed_forms_at_t3():
    # transposition coefficients are locality-2 quantities at any order
    d, dE = 2, 3
    den = d * d * dE * dE - 1
    tm = mo.transfer(EnsembleSpec(CHAAR, d=d, t=3, dE=dE), basis=LOCALIZED)
    idx = group_index(3)
    taus = [p for p in symmetric_group(3) if p.size == 1]
    for a in taus:
        i = idx[a.images]
        assert tm.matrix[i, 0] == Fraction(dE - 1, den)
        for b in taus:
            j = idx[b.images]
            want = Fraction(dE, den) if a == b else 0
            assert tm.matrix[i, j] == want
        assert tm.matrix[0, i] == 0


def test_haar_localized_idempotent_under_concatenation():
    for t, d in ((2, 4), (3, 3), (4, 4)):
        tm = mo.transfer(EnsembleSpec(HAAR, d=d, t=t), basis=LOCALIZED)
        x = mo.gram(t, d, basis=LOCALIZED)
        for k in (2, 3):
            conc = mo.concatenate(tm, x, k)
            assert mat_eq(conc.matrix, tm.matrix)


@pytest.mark.parametrize("t", [2, 3])
def test_norm_invariant_under_basis_transport(t):
    d, dE = 2, 2
    spec = EnsembleSpec(CHAAR, d=d, t=t, dE=dE)
    tm_p = mo.transfer(spec)
    tm_l = mo.transfer(spec, basis=LOCALIZED)
    n_p = mo.norm_squared(tm_p, mo.gram(t, d))
    n_l = mo.norm_squared(tm_l, mo.gram(t, d, basis=LOCALIZED))
    assert n_p == n_l


def test_depolarize_localized_single_entry():
    tm = mo.transfer(EnsembleSpec(DEPOLARIZE, d=3, t=3), basis=LOCALIZED)
    n = tm.matrix.shape[0]
    for i in range(n):
        for j in range(n):
            assert tm.matrix[i, j] == (1 if i == j == 0 else 0)


def test_scaling_exponents_haar():
    rep = loc.scaling_exponents(HAAR, 2, (8, 16), dE_rule="1")
    # transposition diagonal decays as 1/(d^2 - 1)
    assert rep.exponents[1, 1] == 2
    assert rep.structural_zero[0, 1] and rep.structural_zero[1, 0]
    assert not rep.mixed_order.any()


def test_scaling_exponents_chaar_lebesgue():
    rep = loc.scaling_exponents(CHAAR, 2, (8, 16), dE_rule="d2")
    assert rep.exponents[1, 0] == 4  # (dE-1)/(d^2 dE^2 - 1) with dE = d^2
    assert rep.exponents[1, 1] == 4
    assert rep.structural_zero[0, 1]
    assert not rep.mixed_order.any()


@pytest.mark.parametrize("rule", ["1", "d", "d2"])
@pytest.mark.parametrize("kind", [HAAR, CHAAR])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_scaling_exponents_match_entrywise_loop(t, kind, rule):
    d_pair = (8, 16)
    rep = loc.scaling_exponents(kind, t, d_pair, dE_rule=rule)
    m1, m2 = (
        mo.transfer(EnsembleSpec(kind, d=d, t=t, dE=loc._resolve_dE(rule, d)), basis=LOCALIZED).matrix
        for d in d_pair
    )
    want = scaling_exponents_loop(m1, m2, d_pair)
    for got, ref in zip((rep.exponents, rep.structural_zero, rep.mixed_order), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_to_localized_requires_permutation_basis():
    tm = mo.transfer(EnsembleSpec(HAAR, d=3, t=2), basis=LOCALIZED)
    with pytest.raises(ValueError):
        loc.to_localized(tm)


def frac_to_localized(tm):
    """zeta^T (chi tau chi) zeta with Fraction characters and a Fraction matmul."""
    chi = np.array(
        [Fraction(1, tm.d**p.size) for p in symmetric_group(tm.t)], dtype=object
    )
    zeta = loc.phi_inverse(tm.t)
    return zeta.T.dot(tm.matrix * chi[:, None] * chi[None, :]).dot(zeta)


def same_fractions(got, want):
    return got.shape == want.shape and all(
        type(g) is Fraction and g == w for g, w in zip(got.flat, want.flat)
    )


LOCALIZED_GRID = [
    EnsembleSpec(kind, d=d, t=t, dE=dE)
    for t in (1, 2, 3, 4)
    for kind, d, dE in (
        (HAAR, max(t, 2), 1), (HAAR, t + 2, 1), (DEPOLARIZE, 2, 1),
        (CHAAR, max(t, 2), 2), (CHAAR, 2, 3), (CHAAR, 3, 4),
    )
]


@pytest.mark.parametrize("spec", LOCALIZED_GRID, ids=lambda s: f"{s.label()}-t{s.t}")
def test_to_localized_matches_fraction_oracle(spec):
    tm = mo.transfer(spec)
    assert same_fractions(loc.to_localized(tm).matrix, frac_to_localized(tm))


def test_to_localized_t5_matches_definition():
    # Entry (i, j) sums chi tau chi over sigma_p >= sigma_i and sigma_q >= sigma_j,
    # added up in Fractions (a Fraction matmul at t = 5 takes about 8 s).
    tm = mo.transfer(EnsembleSpec(CHAAR, d=2, t=5, dE=3))
    chi = np.array([Fraction(1, 2**p.size) for p in symmetric_group(5)], dtype=object)
    mid = tm.matrix * chi[:, None] * chi[None, :]
    up = loc.phi_inverse(5).astype(bool)  # up[p, i]: sigma_i <= sigma_p
    rows = np.array([mid[up[:, i]].sum(axis=0) for i in range(len(up))])
    want = np.array([[rows[i, up[:, j]].sum() for j in range(len(up))] for i in range(len(up))])
    assert same_fractions(loc.to_localized(tm).matrix, want)


def test_to_localized_float_matches_exact():
    tm = mo.transfer(EnsembleSpec(CHAAR, d=2, t=4, dE=3))
    tf = mo.transfer(EnsembleSpec(CHAAR, d=2, t=4, dE=3), exact=False)
    want = loc.to_localized(tm).matrix.astype(float)
    assert np.allclose(loc.to_localized(tf).matrix, want, rtol=1e-12, atol=1e-15)
