from fractions import Fraction

import numpy as np
import pytest

from channelmoments import symmgroup as sg
from channelmoments import weingarten as wg
from channelmoments.exactalg import (
    mat_eq,
    product_is_identity,
)
from oracles import chaar_transfer_perm, group_index, invert_bareiss, invert_exact


def test_gram_examples():
    assert wg.gram_matrix(1, 5).tolist() == [[1]]
    g = wg.gram_matrix(2, 2)
    assert g.tolist() == [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]
    g3 = wg.gram_matrix(3, 3)
    group = sg.symmetric_group(3)
    i = group_index(3)[sg.from_cycles(3, [(0, 1, 2)]).images]
    assert g3[0, i] == Fraction(1, 9)
    # symmetric with unit diagonal
    assert mat_eq(g3, g3.T)
    assert all(g3[k, k] == 1 for k in range(6))


def test_weingarten_examples():
    assert wg.weingarten_matrix(1, 3).tolist() == [[1]]
    w = wg.weingarten_matrix(2, 2)
    assert w.tolist() == [
        [Fraction(4, 3), Fraction(-2, 3)],
        [Fraction(-2, 3), Fraction(4, 3)],
    ]
    for d in (3, 4):
        w = wg.weingarten_matrix(2, d)
        pref = 1 / (1 - Fraction(1, d * d))
        assert w[0, 0] == pref
        assert w[0, 1] == -pref / d


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_gram_times_weingarten_is_identity(t):
    for d in (t, t + 1, 8):
        g = wg.gram_matrix(t, d)
        w = wg.weingarten_matrix(t, d)
        assert product_is_identity(g, w)


def test_singular_gram_raises():
    with pytest.raises(wg.SingularGramError):
        wg.weingarten_matrix(3, 2)
    with pytest.raises(wg.SingularGramError):
        wg.weingarten_matrix(4, 3)


@pytest.mark.parametrize("t,d", [(2, 2), (3, 3), (3, 5), (4, 4)])
def test_class_solve_agrees_with_generic_inverses(t, d):
    # two independent inversion routes against the structured solve
    g = wg.gram_matrix(t, d)
    w = wg.weingarten_matrix(t, d)
    assert mat_eq(w, invert_exact(g))
    assert mat_eq(w, invert_bareiss(g))


def test_bareiss_detects_singularity():
    from channelmoments.exactalg import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        invert_bareiss(wg.gram_matrix(3, 2))


def test_jucys_murphy_examples():
    assert wg.jucys_murphy_sum(1, 9) == 1
    assert wg.jucys_murphy_sum(2, 2) == Fraction(3, 2)
    assert wg.jucys_murphy_sum(3, 3) == Fraction(20, 9)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
def test_jucys_murphy_matches_direct_sum(t, d):
    assert wg.jucys_murphy_sum(t, d) == wg.character_sum(t, d)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_weingarten_sign_is_mobius_sign_at_large_d(t):
    w = wg.weingarten_matrix(t, 64)
    group = sg.symmetric_group(t)
    for i, p in enumerate(group):
        for j, q in enumerate(group):
            mob = sg.mobius(sg.compose(sg.inverse(p), q))
            assert (w[i, j] > 0) == (mob > 0)
            assert (w[i, j] < 0) == (mob < 0)


def test_haar_transfer_projector_identity():
    # tau (X tau) = tau exactly, with X the normalized Gram
    w = wg.weingarten_matrix(3, 4)
    x = wg.gram_matrix(3, 4)
    prod = w.dot(x).dot(w)
    assert mat_eq(prod, w)


def test_chaar_transfer_limits():
    for t, d in ((1, 2), (2, 3), (3, 4)):
        assert mat_eq(
            chaar_transfer_perm(t, d, 1), wg.weingarten_matrix(t, d)
        )
    assert chaar_transfer_perm(1, 5, 7).tolist() == [[1]]


def test_chaar_transfer_trace_preserving_row():
    # contracting the identity row of the Gram through the transfer gives the
    # identity indicator: trace preservation at the coefficient level
    t, d, dE = 2, 2, 4
    tm = chaar_transfer_perm(t, d, dE)
    g = wg.gram_matrix(t, d)
    vec = g[0, :].dot(tm)
    assert vec[0] == 1 and all(v == 0 for v in vec[1:])


def test_float_path_matches_exact():
    for t, d in ((2, 2), (3, 5)):
        w_exact = wg.weingarten_matrix(t, d)
        w_float = wg.weingarten_matrix(t, d, exact=False)
        err = np.max(np.abs(w_float - np.array([[float(x) for x in r] for r in w_exact])))
        assert err < 1e-12
