"""Every S_t pair table derived from ``symmgroup.product_table`` against
element-wise ``Permutation`` oracles: exact equality, including the entry
types of exact object arrays."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from channelmoments import localized as loc
from channelmoments import moments as mo
from channelmoments import symmgroup as sg
from channelmoments import weingarten as wg
from channelmoments.exactalg import solve_exact
from channelmoments.specs import chaar, haar
from oracles import group_index

ORDERS = [1, 2, 3, 4, 5]


@lru_cache(maxsize=None)
def relative(t):
    """rel[i][j] = inv(sigma_i) * sigma_j by explicit composition."""
    group = sg.symmetric_group(t)
    return [[sg.compose(sg.inverse(p), q) for q in group] for p in group]


def class_index(t):
    return {key: c for c, (key, _) in enumerate(sg.conjugacy_classes(t))}


def phi_oracle(t):
    group = sg.symmetric_group(t)
    idx = group_index(t)
    n = len(group)
    out = np.full((n, n), 0, dtype=object)
    for i, sigma in enumerate(group):
        for pi in sg.enumerate_subpermutations(sigma):
            out[i, idx[pi.images]] = sg.mobius(sg.compose(sg.inverse(pi), sigma))
    return out


def localized_gram_oracle(t, d, exact):
    group = sg.symmetric_group(t)
    rel = relative(t)
    n = len(group)
    raw = np.empty((n, n), dtype=object if exact else float)
    for i in range(n):
        for j in range(n):
            expo = group[i].size + group[j].size - rel[i][j].size
            raw[i, j] = d**expo if exact else float(d) ** expo
    phi = phi_oracle(t)
    if exact:
        return phi.dot(raw).dot(phi.T)
    phi = np.array([[float(x) for x in row] for row in phi])
    return phi @ raw @ phi.T


def assert_same_exact(got, want):
    assert got.shape == want.shape
    for a, b in zip(got.flat, want.flat):
        assert a == b and type(a) is type(b)


@pytest.mark.parametrize("t", ORDERS)
def test_product_table_matches_composition(t):
    group = sg.symmetric_group(t)
    tab = sg.product_table(t)
    rel = relative(t)
    idx = group_index(t)
    want = [[idx[rel[i][j].images] for j in range(len(group))] for i in range(len(group))]
    assert tab.prod.tolist() == want
    kidx = class_index(t)
    assert tab.size.tolist() == [p.size for p in group]
    assert tab.cls.tolist() == [kidx[p.cycle_type()] for p in group]
    assert tab.mobius.tolist() == [sg.mobius(p) for p in group]
    assert tab.mask.tolist() == [sum(1 << i for i in p.support) for p in group]
    cls = tab.cls.tolist()
    assert tab.reps.tolist() == [cls.index(c) for c in range(len(kidx))]
    assert tab.class_sizes.tolist() == [n for _, n in sg.conjugacy_classes(t)]
    rows = [rel[r] for r in tab.reps]
    assert tab.rep_cls.tolist() == [[kidx[p.cycle_type()] for p in row] for row in rows]
    assert tab.rep_size.tolist() == [[p.size for p in row] for row in rows]
    assert not any(a.flags.writeable for a in vars(tab).values())


@pytest.mark.parametrize("t", ORDERS)
def test_conjugation_table_is_inner_automorphism_to_representative(t):
    """Row a is a bijection that keeps classes and relative products (an
    automorphism, inner for t != 6) and takes sigma_a to its representative."""
    tab = sg.product_table(t)
    table = sg.conjugation_table(t)
    assert sg.conjugation_table(t) is table and not table.flags.writeable
    conj = table.astype(np.intp)
    n = len(tab.cls)
    assert np.array_equal(np.sort(conj, axis=1), np.broadcast_to(np.arange(n), (n, n)))
    assert np.array_equal(tab.cls[conj], np.broadcast_to(tab.cls, (n, n)))
    assert np.array_equal(conj[:, tab.prod], tab.prod[conj[:, :, None], conj[:, None, :]])
    assert np.array_equal(np.diagonal(conj), tab.reps[tab.cls])


def conjugation_orbits(t):
    """Label of each pair (a, b) under simultaneous conjugation: the least
    (g a g^-1, g b g^-1) over g, by explicit composition."""
    group = sg.symmetric_group(t)
    idx = group_index(t)
    conj = [[idx[sg.compose(sg.compose(g, p), sg.inverse(g)).images] for p in group]
            for g in group]
    return [[min((c[a], c[b]) for c in conj) for b in range(len(group))]
            for a in range(len(group))]


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("exact", [True, False])
def test_from_class_rows_rebuilds_conjugation_invariant_matrix(t, exact):
    rng = np.random.default_rng(t)
    orbits = conjugation_orbits(t)
    value = {}
    for row in orbits:
        for orbit in row:
            value.setdefault(orbit, Fraction(int(rng.integers(-99, 99)), int(rng.integers(1, 9))))
    m = np.array([[value[o] for o in row] for row in orbits], dtype=object if exact else float)
    got = sg.from_class_rows(t, m[sg.product_table(t).reps])
    assert got.dtype == m.dtype
    if exact:
        assert_same_exact(got, m)
    else:
        assert np.array_equal(got, m)


@pytest.mark.parametrize("t", ORDERS)
def test_pair_class_table(t):
    kidx = class_index(t)
    want = [[kidx[r.cycle_type()] for r in row] for row in relative(t)]
    assert wg._pair_class_table(t).tolist() == want


@pytest.mark.parametrize("t", ORDERS)
def test_subperm_table(t):
    group = sg.symmetric_group(t)
    idx = group_index(t)
    want = np.zeros((len(group), len(group)), dtype=bool)
    for i, sigma in enumerate(group):
        for pi in sg.enumerate_subpermutations(sigma):
            want[i, idx[pi.images]] = True
    assert np.array_equal(loc._subperm_table(t), want)


@pytest.mark.parametrize("t", ORDERS)
def test_phi_matrix(t):
    assert_same_exact(loc.phi_matrix(t), phi_oracle(t))


def test_phi_matrix_is_cached_read_only():
    phi = loc.phi_matrix(4)
    assert loc.phi_matrix(4) is phi and not phi.flags.writeable


@pytest.mark.parametrize("t", ORDERS)
@pytest.mark.parametrize("d", [2, 3])
def test_localized_gram_exact(t, d):
    assert_same_exact(loc.localized_gram(t, d), localized_gram_oracle(t, d, exact=True))


@pytest.mark.parametrize("t", ORDERS)
@pytest.mark.parametrize("d", [2, 7])
def test_localized_gram_float(t, d):
    got = loc.localized_gram(t, d, exact=False)
    assert np.array_equal(got, localized_gram_oracle(t, d, exact=False))


@pytest.mark.parametrize("t", ORDERS)
def test_support_pattern(t):
    group = sg.symmetric_group(t)
    same = [[p.support == q.support for q in group] for p in group]
    contains = [[p.support >= q.support for q in group] for p in group]
    got_same, got_contains = loc.support_pattern(t)
    assert got_same.tolist() == same
    assert got_contains.tolist() == contains


@pytest.mark.parametrize("t", ORDERS + [6])
@pytest.mark.parametrize("dd", [0, 1])
def test_weingarten_function(t, dd):
    d = t + dd
    keys = list(class_index(t))
    kidx = class_index(t)
    group = sg.symmetric_group(t)
    reps = {}
    for p in group:
        reps.setdefault(p.cycle_type(), p)
    a = np.full((len(keys), len(keys)), Fraction(0), dtype=object)
    for r, key in enumerate(keys):
        for u in group:
            c = kidx[sg.compose(sg.inverse(u), reps[key]).cycle_type()]
            a[r, c] += Fraction(1, d**u.size)
    rhs = np.array([[Fraction(int(key == (1,) * t))] for key in keys], dtype=object)
    sol = solve_exact(a, rhs)
    got = wg.weingarten_function(t, d)
    assert not got.flags.writeable
    assert np.array_equal(got, sol[:, 0])


@pytest.mark.parametrize("spec", [chaar(2, 2, 4, k=2), chaar(3, 2, 4), haar(4, 4)])
def test_spectrum_residuals_t4(spec):
    residuals = mo.spectrum(spec).residuals
    assert set(residuals) == {"eigenpairs", "leading_right", "leading_left"}
    assert all(v < 1e-8 for v in residuals.values()), residuals
