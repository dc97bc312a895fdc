"""The class data of ``symmgroup.elements``, the pair table
``symmgroup._product_table`` and every S_t matrix gathered from it by
``symmgroup.class_matrix`` against element-wise ``Permutation`` oracles:
exact equality, including the entry types of exact object arrays."""

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
from oracles import (
    class_algebra_counts,
    compose,
    enumerate_subpermutations,
    group_index,
    inverse,
    localized_gram_exponent_table,
    mobius,
    pair_class_table,
    symmetric_group,
)

ORDERS = [1, 2, 3, 4, 5]


@lru_cache(maxsize=None)
def relative(t):
    """rel[i][j] = inv(sigma_i) * sigma_j by explicit composition."""
    group = symmetric_group(t)
    return [[compose(inverse(p), q) for q in group] for p in group]


def class_index(t):
    return {key: c for c, (key, _) in enumerate(sg.conjugacy_classes(t))}


def phi_oracle(t):
    group = symmetric_group(t)
    idx = group_index(t)
    n = len(group)
    out = np.full((n, n), 0, dtype=object)
    for i, sigma in enumerate(group):
        for pi in enumerate_subpermutations(sigma):
            out[i, idx[pi.images]] = mobius(compose(inverse(pi), sigma))
    return out


def localized_gram_oracle(t, d, exact):
    group = symmetric_group(t)
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
    group = symmetric_group(t)
    tab = sg.elements(t)
    rel = relative(t)
    idx = group_index(t)
    want = [[idx[rel[i][j].images] for j in range(len(group))] for i in range(len(group))]
    assert sg._product_table(t).tolist() == want
    kidx = class_index(t)
    assert tab.size.tolist() == [p.size for p in group]
    assert tab.cls.tolist() == [kidx[p.cycle_type()] for p in group]
    assert tab.mobius.tolist() == [mobius(p) for p in group]
    assert tab.mask.tolist() == [sum(1 << i for i in p.support) for p in group]
    cls = tab.cls.tolist()
    assert tab.reps.tolist() == [cls.index(c) for c in range(len(kidx))]
    assert tab.class_sizes.tolist() == [n for _, n in sg.conjugacy_classes(t)]
    rows = [rel[r] for r in tab.reps]
    assert tab.rep_cls.tolist() == [[kidx[p.cycle_type()] for p in row] for row in rows]
    counts = np.zeros((len(kidx),) * 3, dtype=np.int64)
    for r, row in enumerate(rows):
        for p, u in zip(row, group):
            counts[r, kidx[p.cycle_type()], kidx[u.cycle_type()]] += 1
    assert tab.algebra.tolist() == counts.tolist()
    arrays = [a for a in tab if isinstance(a, np.ndarray)]
    assert len(arrays) == len(tab) - 1  # all but ``classes``
    assert not any(a.flags.writeable for a in arrays + [sg._product_table(t)])


@pytest.mark.parametrize("t", ORDERS)
def test_cycle_codes_of_composed_rows_match_cycle_types(t):
    """The code of each composed image row inv(sigma_i) sigma_j ranks, among
    the distinct codes, as its ``Permutation`` cycle type among the classes."""
    images = sg.symmetric_group(t)
    inverses = np.argsort(images, axis=1).astype(np.int8)
    composed = inverses[:, images]  # (i, j): inv(sigma_i) sigma_j
    codes = sg._cycle_codes(composed.reshape(-1, t))
    assert codes.dtype == np.int64
    distinct = np.unique(codes)
    assert len(distinct) == len(sg.conjugacy_classes(t))
    kidx = class_index(t)
    want = [[kidx[p.cycle_type()] for p in row] for row in relative(t)]
    assert np.searchsorted(distinct, codes).reshape(len(images), -1).tolist() == want


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
def test_class_routes_build_no_pair_table(t, monkeypatch):
    """The Weingarten function and values, the classes, convolution, the
    class rows of a k = 1 permutation-basis transfer and the
    ``TransferMatrix`` constructor read only ``elements``: with
    ``_product_table`` raising and the element and Weingarten caches cleared,
    they give what they gave before."""
    d, spec = t + 1, chaar(2, 3, t)
    w = wg.weingarten_function(t, d)
    classes, rows = sg.conjugacy_classes(t), mo.transfer(spec).rows
    conv = sg.convolution(t, w)

    def no_pair_table(t):
        raise AssertionError("the pair table was built")

    monkeypatch.setattr(sg, "_product_table", no_pair_table)
    sg._elements.cache_clear()
    wg.weingarten_function.cache_clear()
    assert_same_exact(wg.weingarten_function(t, d), w)
    assert np.array_equal(wg.weingarten_values(t, d, exact=False), w.astype(float))
    assert sg.conjugacy_classes(t) == classes
    assert_same_exact(sg.convolution(t, w), conv)
    got = mo.transfer(spec)
    assert_same_exact(got.rows, rows)
    assert mo.TransferMatrix(got.rows, got.basis, got.ensemble).rows is got.rows
    with pytest.raises(ValueError, match="class rows of shape"):
        mo.TransferMatrix(got.rows[1:], got.basis, got.ensemble)


@pytest.mark.parametrize("t", ORDERS)
def test_class_algebra_matches_brute_force_counts(t):
    """The structure constants against counts over ``Permutation`` objects:
    one count off fails.  They are symmetric in the two factor classes (the
    class algebra is commutative), and at the identity, inv(e) u = u, the
    counts are the class sizes on the diagonal."""
    tab = sg.elements(t)
    assert np.array_equal(tab.algebra, class_algebra_counts(t))
    assert np.array_equal(tab.algebra, tab.algebra.transpose(0, 2, 1))
    assert np.array_equal(tab.algebra[0], np.diag(tab.class_sizes))


@pytest.mark.parametrize("t", ORDERS)
def test_convolution_is_row_of_class_function_matrix_product(t):
    """``convolution(t, b) @ a`` is the class values of A B, A = a[cls prod]
    and B = b[cls prod], exactly on ints and Fractions, and commutes."""
    rng = np.random.default_rng(t)
    pcls = pair_class_table(t)
    reps = sg.elements(t).reps
    p = len(reps)
    a = np.array([int(v) for v in rng.integers(-9, 10, p)], dtype=object)
    b = np.array([Fraction(int(n), int(m)) for n, m in rng.integers(1, 10, (p, 2))], dtype=object)
    got = sg.convolution(t, b) @ a
    assert_same_exact(got, a[pcls[reps]].dot(b[pcls[:, 0]]))  # (A B)[reps, 0]
    assert_same_exact(sg.convolution(t, a) @ b, got)


@pytest.mark.parametrize("t", ORDERS)
def test_conjugation_table_is_inner_automorphism_to_representative(t):
    """Row a is a bijection that keeps classes and relative products (an
    automorphism, inner for t != 6) and takes sigma_a to its representative."""
    tab = sg.elements(t)
    table = sg.conjugation_table(t)
    assert sg.conjugation_table(t) is table and not table.flags.writeable
    n = len(tab.cls)
    conj = table - n * tab.cls.astype(np.intp)[:, None]
    assert np.array_equal(np.sort(conj, axis=1), np.broadcast_to(np.arange(n), (n, n)))
    assert np.array_equal(tab.cls[conj], np.broadcast_to(tab.cls, (n, n)))
    prod = sg._product_table(t)
    assert np.array_equal(conj[:, prod], prod[conj[:, :, None], conj[:, None, :]])
    assert np.array_equal(np.diagonal(conj), tab.reps[tab.cls])


def conjugation_orbits(t):
    """Label of each pair (a, b) under simultaneous conjugation: the least
    (g a g^-1, g b g^-1) over g, by explicit composition."""
    group = symmetric_group(t)
    idx = group_index(t)
    conj = [[idx[compose(compose(g, p), inverse(g)).images] for p in group]
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
    got = sg.from_class_rows(t, m[sg.elements(t).reps])
    assert got.dtype == m.dtype
    if exact:
        assert_same_exact(got, m)
    else:
        assert np.array_equal(got, m)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("exact", [True, False])
def test_from_class_rows_reads_the_two_index_gather(t, exact):
    """The one flat index reads what the class vector and the conjugation
    columns read together, ``rows[cls[:, None], conj]``: in full, for one
    row and for a slice of rows."""
    tab, rng = sg.elements(t), np.random.default_rng(t)
    n = len(tab.cls)
    cls = tab.cls.astype(np.intp)
    conj = sg.conjugation_table(t) - n * cls[:, None]
    rows = rng.normal(size=(len(tab.reps), n))
    if exact:
        rows = np.array([[Fraction(int(v * 99), 7) for v in row] for row in rows], dtype=object)
    last = n - 1
    for at, want in ((slice(None), rows[cls[:, None], conj]),
                     (last, rows[cls[last], conj[last]]),
                     (slice(1, n, 2), rows[cls[1::2, None], conj[1::2]])):
        got = sg.from_class_rows(t, rows, at)
        assert got.dtype == rows.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("t", [3, 4])
def test_check_conjugation_invariant_compares_values_not_objects(t):
    """A copy of a Gram matrix with distinct but equal Fractions passes and
    gives the class rows; one bent entry raises."""
    x = mo.gram(t, 2)
    distinct = np.array([[Fraction(v.numerator, v.denominator) for v in row] for row in x],
                        dtype=object)
    rows = sg.check_conjugation_invariant(t, distinct)
    assert rows.tolist() == x[sg.elements(t).reps].tolist()
    distinct[2, 1] = Fraction(distinct[2, 1].numerator + 1, distinct[2, 1].denominator)
    with pytest.raises(ValueError, match="fixed by simultaneous conjugation"):
        sg.check_conjugation_invariant(t, distinct)


@pytest.mark.parametrize("t", ORDERS)
def test_pair_class_table(t):
    kidx = class_index(t)
    want = [[kidx[r.cycle_type()] for r in row] for row in relative(t)]
    assert wg._pair_class_table(t).tolist() == want


@pytest.mark.parametrize("t", ORDERS)
def test_class_matrix(t):
    """Entry (i, j) is b at the class of inv(sigma_i) sigma_j by explicit
    composition, in b's number type: for the class indices themselves and
    for Fraction and float class values, in full and at rows given as a
    slice, an int and an index array."""
    kidx = class_index(t)
    pcls = np.array([[kidx[r.cycle_type()] for r in row] for row in relative(t)])
    p, n = len(kidx), len(pcls)
    whole = sg.class_matrix(t, np.arange(p))
    assert whole.dtype == np.arange(p).dtype and whole.tolist() == pcls.tolist()
    rng = np.random.default_rng(t)
    frac = np.array([Fraction(int(a), int(b)) for a, b in rng.integers(1, 9, (p, 2))],
                    dtype=object)
    for b in (frac, rng.standard_normal(p)):
        for at in (slice(None), slice(1, n, 2), n - 1, np.array([n - 1, 0, n // 2])):
            got, want = sg.class_matrix(t, b, at), b[pcls[at]]
            assert got.dtype == b.dtype
            assert_same_exact(got, want)


@pytest.mark.parametrize("t", ORDERS)
def test_subperm_table(t):
    group = symmetric_group(t)
    idx = group_index(t)
    want = np.zeros((len(group), len(group)), dtype=bool)
    for i, sigma in enumerate(group):
        for pi in enumerate_subpermutations(sigma):
            want[i, idx[pi.images]] = True
    assert np.array_equal(loc._subperm_table(t), want)


@pytest.mark.parametrize("t", ORDERS)
def test_phi_matrix(t):
    assert_same_exact(loc.phi_matrix(t), phi_oracle(t))


@pytest.mark.parametrize("t", ORDERS)
def test_order_matrix(t):
    got = loc._order_matrix(t)
    assert got.dtype == np.int16
    assert got.tolist() == phi_oracle(t).tolist()


def test_order_tables_are_cached_read_only():
    for table in (loc._subperm_table, loc._order_matrix):
        got = table(4)
        assert table(4) is got and not got.flags.writeable


@pytest.mark.parametrize("t", ORDERS)
@pytest.mark.parametrize("d", [2, 3])
def test_localized_gram_exact(t, d):
    assert_same_exact(loc.localized_gram(t, d), localized_gram_oracle(t, d, exact=True))


@pytest.mark.parametrize("t", ORDERS)
@pytest.mark.parametrize("d", [2, 7])
def test_localized_gram_float(t, d):
    got = loc.localized_gram(t, d, exact=False)
    assert np.array_equal(got, localized_gram_oracle(t, d, exact=False))


@pytest.mark.parametrize("d", [2, 7])
def test_localized_gram_t6_float_matches_exponent_table(d):
    got = loc.localized_gram(6, d, exact=False)
    assert np.array_equal(got, localized_gram_exponent_table(6, d, exact=False))


def test_localized_gram_t6_exact_matches_exponent_table():
    assert_same_exact(loc.localized_gram(6, 3), localized_gram_exponent_table(6, 3, exact=True))


@pytest.mark.parametrize("t", ORDERS)
def test_support_pattern(t):
    group = symmetric_group(t)
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
    group = symmetric_group(t)
    reps = {}
    for p in group:
        reps.setdefault(p.cycle_type(), p)
    a = np.full((len(keys), len(keys)), Fraction(0), dtype=object)
    for r, key in enumerate(keys):
        for u in group:
            c = kidx[compose(inverse(u), reps[key]).cycle_type()]
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
