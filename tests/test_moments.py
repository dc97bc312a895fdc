from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import comb, factorial, sqrt

import numpy as np
import pytest

from channelmoments import localized as loc
from channelmoments import moments as mo
from channelmoments import symmgroup as sg
from channelmoments.exactalg import join, mat_eq, split_all
from channelmoments.specs import (
    CHAAR,
    DEPOLARIZE,
    HAAR,
    LOCALIZED,
    PERMUTATION,
    EnsembleSpec,
    TransferMatrix,
    chaar,
    depolarize,
    haar,
)
from oracles import (
    chaar_transfer_perm,
    frame_potential_mc_loop,
    leading_overlap,
    lifted_eigenpairs,
    norm_squared_quad,
    pair_class_table,
    reference_values_rows,
    right_eigenpairs_dense,
    sample_haar_unitary_once,
    spectrum_residuals_dense,
    transfer_full,
)


def test_transfer_depolarize_single_unit_entry():
    for t in (1, 2, 3):
        tm = mo.transfer(depolarize(3, t))
        n = tm.matrix.shape[0]
        assert tm.matrix[0, 0] == 1
        assert sum(1 for i in range(n) for j in range(n) if tm.matrix[i, j] != 0) == 1


def test_transfer_chaar_trivial_environment_is_haar():
    for t, d in ((2, 2), (3, 4)):
        assert mat_eq(
            mo.transfer(chaar(d, 1, t)).matrix, mo.transfer(haar(d, t)).matrix
        )


def test_transfer_first_order_all_identical():
    mats = [mo.transfer(EnsembleSpec(kind, d=4, t=1, dE=3)).matrix
            for kind in (HAAR, CHAAR, DEPOLARIZE)]
    for m in mats:
        assert m.tolist() == [[1]]


def test_concatenate_projectors_are_fixed_points():
    for spec in (haar(4, 3), depolarize(4, 3)):
        tm = mo.transfer(spec)
        x = mo.gram(3, 4)
        for k in (2, 4):
            assert mat_eq(mo.concatenate(tm, x, k).matrix, tm.matrix)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("dE", [1, 2, 8])
def test_concatenation_matches_closed_form(d, dE):
    x = mo.gram(2, d, basis=LOCALIZED)
    base = mo.transfer(chaar(d, dE, 2), basis=LOCALIZED)
    for k in range(1, 7):
        got = mo.concatenate(base, x, k)
        assert mat_eq(got.matrix, mo.exact_t2_chaar(k, d, dE).matrix)


def test_exact_t2_chaar_values():
    tm = mo.exact_t2_chaar(1, 2, 2)
    assert tm.matrix[1, 1] == Fraction(2, 15)
    assert tm.matrix[1, 0] == Fraction(1, 15)
    # trivial environment: invariant under concatenation
    for k in (1, 3, 5):
        tm = mo.exact_t2_chaar(k, 3, 1)
        assert tm.matrix[1, 0] == 0
        assert tm.matrix[1, 1] == Fraction(1, 8)
    # growing environment drives both coefficients to zero
    prev = None
    for dE in (2, 4, 8, 16):
        tm = mo.exact_t2_chaar(2, 2, dE)
        cur = (tm.matrix[1, 0], tm.matrix[1, 1])
        if prev is not None:
            assert cur[0] < prev[0] and cur[1] < prev[1]
        prev = cur


def test_norm_squared_examples():
    assert mo.norm_squared(mo.transfer(haar(4, 3)), mo.gram(3, 4)) == 6
    for t in (1, 2, 3):
        assert mo.norm_squared(mo.transfer(depolarize(5, t)), mo.gram(t, 5)) == 1
    spec = chaar(2, 2, 2)
    got = mo.norm_squared(mo.transfer(spec), mo.gram(2, 2))
    assert got == 1 + Fraction(13, 75)


def test_norm_squared_against_quadruple_sum_oracle():
    for spec, basis in ((chaar(2, 2, 2), "permutation"), (haar(3, 2), "permutation")):
        tm = mo.transfer(spec, basis=basis)
        x = mo.gram(spec.t, spec.d, basis=basis)
        assert mo.norm_squared(tm, x) == norm_squared_quad(tm, x)


def test_trace_examples():
    assert mo.trace(mo.transfer(haar(4, 3)), mo.gram(3, 4)) == 6
    assert mo.trace(mo.transfer(depolarize(3, 2)), mo.gram(2, 3)) == 1
    for d, dE in ((2, 2), (3, 5)):
        got = mo.trace(mo.transfer(chaar(d, dE, 2)), mo.gram(2, d))
        assert got == 1 + Fraction(dE * (d * d - 1), d * d * dE * dE - 1)


def test_spectrum_chaar_t2_eigenvalues():
    for d, dE in ((2, 2), (3, 4), (4, 8)):
        rep = mo.spectrum(chaar(d, dE, 2))
        lam = dE * (d * d - 1) / (d * d * dE * dE - 1)
        mods = sorted(np.abs(rep.eigenvalues), reverse=True)
        assert abs(mods[0] - 1) < 1e-10
        assert abs(mods[1] - lam) < 1e-10


def test_spectrum_haar_unit_eigenvalue_count():
    for t, d in ((2, 2), (3, 4)):
        rep = mo.spectrum(haar(d, t))
        count = int(np.sum(np.abs(np.abs(rep.eigenvalues) - 1) < 1e-8))
        assert count == factorial(t)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_spectrum_leading_pair_residuals(t):
    for d, dE in ((2, 2), (2, 8), (8, 2), (8, 8)):
        if d * dE < t:
            continue
        rep = mo.spectrum(chaar(d, dE, t))
        assert rep.residuals["leading_right"] < 1e-10
        assert rep.residuals["leading_left"] < 1e-10


# Largest difference allowed between the symmetric-eigh spectrum and the
# dense nonsymmetric eig of the same k-fold matrix.
EIG_TOL = 1e-12


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_spectrum_matches_dense_eig(t):
    bases = [haar(t, t), depolarize(2, t)]
    bases += [chaar(max(2, -(-t // dE)), dE, t) for dE in (1, 2, 3)]
    for base in bases:
        x = mo.gram(t, base.d, exact=False)
        tm = mo.transfer(base, exact=False)
        for k in (1, 2, 3):
            rep = mo.spectrum(replace(base, k=k))
            want = np.linalg.eig(mo.concatenate(tm, x, k).matrix @ x)[0]
            want = want[np.argsort(want.real)]
            got = rep.eigenvalues
            assert got.dtype == np.float64 and np.all(np.imag(got) == 0)
            assert np.all(np.diff(np.abs(got)) <= 0), "not sorted by modulus"
            assert np.abs(np.sort(got) - want).max() < EIG_TOL, (base.label(), k)
            assert rep.residuals["eigenpairs"] < 1e-8, rep.residuals
            assert rep.residuals["leading_right"] < 1e-10, rep.residuals
            assert rep.residuals["leading_left"] < 1e-10, rep.residuals


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_blocked_eigenvalues_match_dense_eigh(t):
    cls = sg.elements(t).cls
    for spec in [haar(t, t)] + [chaar(max(2, -(-t // dE)), dE, t) for dE in (1, 2, 3)]:
        f, _, c = mo._class_values(t, *mo._tables(spec, exact=False))
        got = lifted_eigenpairs(t, mo._right_eigenpairs(spec, f, c))[0]
        want = right_eigenpairs_dense(spec, f, c[cls])[0]
        assert np.abs(np.sort(got) - want).max() < 1e-12, spec.label()


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_class_rows_exact_equal_matrix_rows(t):
    tab, pcls = sg.elements(t), pair_class_table(t)
    for spec in (haar(max(2, t), t), chaar(2, 2, t), depolarize(2, t)):
        f, x, w = mo._tables(spec, exact=True)
        f_all, xc, c = mo._class_values(t, f, x, w)
        big_x, big_w = mo.gram(t, spec.d), w[pcls]
        assert np.array_equal(f_all, f[tab.size])
        assert mat_eq(xc, big_x[tab.reps, 0])
        assert np.array_equal(c, big_w.dot(big_x)[tab.reps, 0]), spec.label()
        assert all(type(v) is Fraction for v in c)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_spectrum_leading_residuals_scale_with_w(monkeypatch, t):
    """w scaled by s scales tau, so tau X and X tau, by s.  psi and e_0 are
    fixed by the unscaled matrices and have infinity norm 1, so both
    leading residuals are s^k - 1: a dual row that is skipped or wrong fails."""
    s, tables = 1 + 1e-3, mo._tables

    def scaled(spec, exact):
        f, x, w = tables(spec, exact)
        # spectrum takes c on the exact tables, which need s as a Fraction.
        return f, x, w * (Fraction(s) if exact else s)

    monkeypatch.setattr(mo, "_tables", scaled)
    for spec in (haar(t, t), chaar(2, 3, t)):
        for k in (1, 2, 3):
            res = mo.spectrum(replace(spec, k=k)).residuals
            want = s**k - 1
            for key in ("leading_left", "leading_right"):
                assert abs(res[key] - want) <= 1e-9 * want, (spec.label(), k, key, res[key])


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_spectrum_residuals_match_dense_powers(t):
    """The k-step residuals of ``spectrum`` against (tau X)^k and (X tau)^k
    from dense matrix powers."""
    for spec in (haar(t, t), haar(t + 1, t), chaar(2, 3, t), chaar(3, 2, t), depolarize(2, t)):
        for k in (1, 2, 3):
            got = mo.spectrum(replace(spec, k=k)).residuals
            want = spectrum_residuals_dense(replace(spec, k=k))
            for key in want:
                assert abs(got[key] - want[key]) <= 5e-14, (spec.label(), k, key, got, want)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_spectrum_eigenpair_residual_sees_wrong_pairs(monkeypatch, t):
    """The eigenpair residual of chaar(2, 3, t) exceeds 1e-8 for each defect:
    a ``weights`` entry of the largest block off by 1 at the class of the
    largest |c| (its eigenpairs solve the wrong block exactly, so only the
    probe part sees it), two eigenvector columns of one block swapped, the
    leading eigenvalue (in the largest, trivial block) swapped with the
    largest one of another block, i.e. the eigenvalues of two lifted columns
    in different blocks (t = 2 has a single block), one eigenvalue squared,
    i.e. raised to the wrong power in the k-fold spectrum, and the leading
    eigenvalue scaled by 1 + 1e-3, also on haar(t, t), a projector."""
    spec = chaar(2, 3, t)
    blocks, eigenpairs = sg.symmetry_blocks(t), mo._right_eigenpairs
    c = mo._class_values(t, *mo._tables(spec, exact=False))[2]
    *big, weights = blocks.groups[-1]  # its block 0 is the first of the largest size
    weights = weights.copy()
    weights[0, 0, np.argmax(np.abs(c)), 0] += 1
    bad = blocks._replace(groups=blocks.groups[:-1] + ((*big, weights),))

    def swap_within(pairs):
        vecs, lam = pairs[-1].vecs[0], pairs[-1].evals[0]
        lo, hi = np.argmin(lam), np.argmax(lam)
        vecs[:, [lo, hi]] = vecs[:, [hi, lo]]

    def swap_across(pairs):
        lead, other = pairs[-1].evals[0], pairs[0].evals[-1]
        i, j = np.argmax(lead), np.argmax(other)
        lead[i], other[j] = other[j], lead[i]

    def wrong_power(pairs):
        lam = pairs[-1].evals[0]
        lam[np.argmax(np.abs(lam - lam**2))] **= 2

    def scaled(pairs):
        lam = pairs[-1].evals[0]
        lam[np.argmax(lam)] *= 1 + 1e-3

    def edited(edit):
        def defect(spec, f, c):
            pairs = eigenpairs(spec, f, c)
            edit(pairs)
            return pairs
        return defect

    cases = [("weights", sg, "symmetry_blocks", lambda t: bad, spec)]
    cases += [(e.__name__, mo, "_right_eigenpairs", edited(e), spec)
              for e in (swap_within, wrong_power, scaled) + ((swap_across,) if t > 2 else ())]
    cases.append(("scaled", mo, "_right_eigenpairs", edited(scaled), haar(t, t)))
    for name, module, attr, value, base in cases:
        monkeypatch.setattr(module, attr, value)
        for k in (1, 2, 3):
            res = mo.spectrum(replace(base, k=k)).residuals["eigenpairs"]
            assert res > 1e-8, (name, base.label(), k, res)
        monkeypatch.undo()


def test_float_haar_t6_norm_within_3e12():
    """Haar at d = t = 6 has norm^2 = 720 for every k.  The class values of
    c and q from the class-algebra product put k = 3 off by 1.8e-12; a BLAS
    dot over the class rows put it off by 9.3e-12."""
    got = mo._reference_values(haar(6, 6), (1, 2, 3), exact=False)
    for k, (n2, _) in got.items():
        assert abs(n2 - 720) <= 3e-12, (k, n2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_spectrum_haar_t6_eigenvalues_at_one(k):
    """Haar at d = t = 6 is a projector: every eigenvalue is 1.  A float
    class-algebra product for c left 2.7e-14 at k = 1; a BLAS dot over the
    class rows left 2.9e-13."""
    ev = mo.spectrum(haar(6, 6, k=k)).eigenvalues
    assert np.abs(ev - 1).max() <= 2e-13, k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_spectrum_haar_t6_eigenvalues_within_1e15(k):
    """c = w * x is exactly e_0 for Haar at d >= t.  Taken on exact
    numerators and cast once, it puts the d = t = 6 eigenvalues within
    2.2e-16 k of 1; the float product put them 2.7e-14 k away."""
    ev = mo.spectrum(haar(6, 6, k=k)).eigenvalues
    assert np.abs(ev - 1).max() <= 1e-15, k


def test_spectrum_unique_leading_eigenvalue():
    for t in (2, 3, 4):
        for d, dE in ((2, 2), (3, 2), (2, 4)):
            rep = mo.spectrum(chaar(d, dE, t))
            mods = np.sort(np.abs(rep.eigenvalues))[::-1]
            assert abs(mods[0] - 1) < 1e-8
            assert mods[1] < 1 - 1e-8


def test_leading_right_vector_exact_fixed_point():
    # tau X psi = psi over exact rationals
    for t, d, dE in ((2, 2, 2), (3, 2, 2), (3, 3, 4)):
        spec = chaar(d, dE, t)
        tm = mo.transfer(spec)
        x = mo.gram(t, d)
        psi = mo.leading_right_vector(spec, exact=True)
        out = tm.matrix.dot(x).dot(psi)
        assert all(out[i] == psi[i] for i in range(len(psi)))


def test_spectrum_depolarize_leading_pair():
    rep = mo.spectrum(depolarize(3, 3))
    mods = np.sort(np.abs(rep.eigenvalues))
    assert abs(mods[-1] - 1) < 1e-12 and mods[-2] < 1e-12
    assert rep.residuals["leading_right"] < 1e-12
    assert rep.residuals["leading_left"] < 1e-12


def test_trace_equals_eigenvalue_sum():
    for spec in (chaar(2, 2, 2), chaar(2, 2, 3), haar(4, 3)):
        rep = mo.spectrum(spec)
        tm = mo.transfer(spec, exact=False)
        x = mo.gram(spec.t, spec.d, exact=False)
        assert abs(np.sum(rep.eigenvalues).real - float(mo.trace(tm, x))) < 1e-8


def test_leading_overlap_closed_form():
    for t, d, dE in ((2, 2, 2), (3, 2, 4), (4, 3, 2)):
        got = leading_overlap(chaar(d, dE, t))
        want = Fraction(
            comb(d * d * dE + t - 1, t) * factorial(t), d ** (2 * t) * dE**t
        )
        assert got == want


def test_design_distance():
    assert mo.design_distance_depolarize(depolarize(3, 2)) == 0
    for t, d in ((2, 3), (3, 4)):
        got = mo.design_distance_depolarize(haar(d, t))
        assert abs(got - sqrt(factorial(t) - 1)) < 1e-12
    dists = [mo.design_distance_depolarize(chaar(2, dE, 2)) for dE in (2, 4, 8, 16, 32)]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    scaled = [dE * dist for dE, dist in zip((2, 4, 8, 16, 32), dists)]
    assert max(scaled) < 4 * scaled[-1]  # dE * eps stays bounded


def test_hierarchy_scan_small_grid():
    res = mo.hierarchy_scan([2, 3], [1, 3], [2, 3, 4], ("1", "2", "d", "d2"))
    assert not res.violations
    for row in res.rows:
        assert 1 - 1e-9 <= row.norm2 <= factorial(row.t) + 1e-9
        if row.dE == 1:
            assert abs(row.norm2 - factorial(row.t)) < 1e-9


def test_hierarchy_scan_flags_violations_in_order(monkeypatch):
    # A negative tolerance turns the checks around, so that every kind of
    # violation occurs; k is listed unsorted to exercise the k ordering.
    monkeypatch.setattr(mo, "SCAN_REL_TOL", -0.1)
    res = mo.hierarchy_scan([2, 3], [3, 1], [3], ("1", "2", "d"))
    bd, de, mk = "bounds", "monotone_dE", "monotone_k"
    assert [(r.t, r.k, r.d, r.dE, r.flags) for r in res.rows] == [
        (2, 3, 3, 1, (bd, mk)),
        (2, 3, 3, 2, (bd, mk)),
        (2, 3, 3, 3, (bd, de, mk)),
        (2, 1, 3, 1, (bd,)),
        (2, 1, 3, 2, ()),
        (2, 1, 3, 3, (bd, de)),
        (3, 3, 3, 1, (bd, mk)),
        (3, 3, 3, 2, (bd,)),
        (3, 3, 3, 3, (bd, de)),
        (3, 1, 3, 1, (bd,)),
        (3, 1, 3, 2, ()),
        (3, 1, 3, 3, ()),
    ]
    n2 = {(r.t, r.k, r.d, r.dE): r.norm2 for r in res.rows}
    out_of_bounds = [(2, 3, 3, 1), (2, 3, 3, 2), (2, 3, 3, 3), (2, 1, 3, 1), (2, 1, 3, 3),
                     (3, 3, 3, 1), (3, 3, 3, 2), (3, 3, 3, 3), (3, 1, 3, 1)]
    assert res.violations == (
        *[(bd, p, n2[p]) for p in out_of_bounds],
        *[(de, (t, k, d, 2, 3), (n2[t, k, d, 2], n2[t, k, d, 3]))
          for t, k, d in [(2, 3, 3), (2, 1, 3), (3, 3, 3)]],
        *[(mk, (t, d, dE, 1, 3), (n2[t, 1, d, dE], n2[t, 3, d, dE]))
          for t, d, dE in [(2, 3, 1), (2, 3, 2), (2, 3, 3), (3, 3, 1)]],
    )


def test_hierarchy_scan_exact_path_agrees():
    res_f = mo.hierarchy_scan([2], [1, 2], [2, 3], ("1", "2"))
    res_e = mo.hierarchy_scan([2], [1, 2], [2, 3], ("1", "2"), exact=True)
    for a, b in zip(res_f.rows, res_e.rows):
        assert abs(a.norm2 - b.norm2) < 1e-12


@pytest.mark.parametrize(
    "grid, bad",
    [
        (([2, 0], [1], [2], ("1",)), "t = 0"),
        (([2], [1, 0], [2], ("1",)), "k = 0"),
        (([2], [1], [2, 1], ("1",)), "d = 1"),
        (([2], [1], [2], ("1", "0")), "dE = 0"),
        (([2], [1], [2], ("1", "foo")), "'foo'"),
        (([2, 3, 7], [1], [8], ("1",)), "t = 7"),
        (([2], [1, 1], [2, 2], ("1", "d")), "duplicate k = 1"),
        (([2], [1], [2], ("1", "d", "1")), "duplicate dE rule = 1"),
    ],
)
def test_hierarchy_scan_checks_grid_before_any_matrix(grid, bad, monkeypatch):
    calls = []
    monkeypatch.setattr(mo, "transfer", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(mo, "_reference_values", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="invalid grid") as err:
        mo.hierarchy_scan(*grid)
    assert bad in str(err.value)
    assert calls == []


def test_hierarchy_scan_merges_rules_that_resolve_to_one_dE():
    res = mo.hierarchy_scan([2], [1], [2], ("2", "d"))
    assert [(row.d, row.dE) for row in res.rows] == [(2, 2)]


REFERENCE_SPECS = [
    spec for t in (1, 2, 3) for spec in (haar(max(t, 2), t), chaar(2, 2, t), depolarize(2, t))
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("basis", ["permutation", "localized"])
@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: f"{s.label()}-t{s.t}")
def test_transfer_returns_the_k_fold_operator_of_its_spec(spec, basis, k):
    spec = replace(spec, k=k)
    tm = mo.transfer(spec, basis=basis)
    assert tm.ensemble == spec
    assert (tm.t, tm.d, tm.k) == (spec.t, spec.d, k)
    single = mo.transfer(replace(spec, k=1), basis=basis)
    want = mo.concatenate(single, mo.gram(spec.t, spec.d, basis=basis), k)
    assert same_fractions(tm.matrix, want.matrix)


@pytest.mark.parametrize("spec", [haar(2, 2), chaar(2, 2, 2), depolarize(2, 2)],
                         ids=lambda s: s.kind)
def test_transfer_rejects_unknown_basis(spec):
    with pytest.raises(ValueError, match="unknown basis 'bogus'"):
        mo.transfer(spec, basis="bogus")
    with pytest.raises(ValueError, match="unknown basis 'bogus'"):
        mo.TransferMatrix.from_matrix(mo.transfer(spec).matrix, "bogus", spec)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: f"{s.label()}-t{s.t}")
def test_localized_transfer_is_the_transported_permutation_matrix(spec, exact):
    tm = mo.transfer(spec, basis=LOCALIZED, exact=exact)
    want = loc.to_localized(mo.transfer(spec, exact=exact))
    assert (tm.basis, tm.ensemble, tm.exact) == (want.basis, want.ensemble, want.exact)
    assert (tm.matrix == want.matrix).all()


def test_transfer_matrix_exact_follows_the_matrix_dtype():
    spec = chaar(2, 3, 3)
    exact, approx = mo.transfer(spec), mo.transfer(spec, exact=False)
    assert exact.exact and not approx.exact
    assert not TransferMatrix(exact.rows.astype(float), PERMUTATION, spec).exact
    assert TransferMatrix(approx.rows.astype(object), PERMUTATION, spec).exact
    assert not TransferMatrix.from_matrix(exact.matrix.astype(float), PERMUTATION, spec).exact
    with pytest.raises(TypeError):
        TransferMatrix(exact.rows, PERMUTATION, spec, True)
    with pytest.raises(ValueError, match=r"class rows of shape \(6, 6\), need \(3, 6\)"):
        TransferMatrix(exact.matrix, PERMUTATION, spec)
    # A float matrix is on the float path whatever built it.
    tm = TransferMatrix.from_matrix(approx.matrix, PERMUTATION, spec)
    got = mo.norm_squared(tm, mo.gram(3, 2, exact=False))
    assert type(got) is float
    assert abs(got - float(mo.norm_squared(exact, mo.gram(3, 2)))) < 1e-12


@pytest.mark.parametrize("tm_exact", [True, False])
def test_mixed_exact_and_float_operands_raise(tm_exact):
    spec = chaar(2, 2, 2)
    tm = mo.transfer(spec, exact=tm_exact)
    x = mo.gram(2, 2, exact=not tm_exact)
    for call in (lambda: mo.norm_squared(tm, x), lambda: mo.trace(tm, x),
                 lambda: mo.concatenate(tm, x, 1), lambda: mo.concatenate(tm, x, 3)):
        with pytest.raises(ValueError, match="mix exact"):
            call()


@pytest.mark.parametrize("exact", [True, False])
def test_products_reject_operands_not_fixed_by_conjugation(exact):
    """The class-row products hold only for t! x t! operands fixed by
    simultaneous conjugation; one changed entry or a wrong shape raises
    where the full matrix enters: ``TransferMatrix.from_matrix`` for tau,
    the product itself for X."""
    spec = chaar(2, 3, 3)
    tm = mo.transfer(spec, exact=exact)
    x = mo.gram(3, 2, exact=exact)
    bent, bent_x = tm.matrix.copy(), x.copy()
    bent[1, 2] += 1  # sigma_1, sigma_2 are transpositions: an orbit of 6 pairs
    bent_x[3, 1] += 1
    enter = partial(TransferMatrix.from_matrix, basis=PERMUTATION, ensemble=spec)
    calls = [lambda: loc.to_localized(enter(bent)),
             lambda: loc.to_localized(enter(tm.matrix[:, :5]))]
    for k in (1, 2):
        calls += [lambda k=k: mo.concatenate(enter(bent), x, k),
                  lambda k=k: mo.concatenate(tm, bent_x, k),
                  lambda k=k: mo.concatenate(tm, x[:5, :5], k),
                  lambda k=k: mo.concatenate(enter(tm.matrix[:5]), x, k)]
    calls += [lambda: mo.norm_squared(enter(bent), x),
              lambda: mo.norm_squared(tm, bent_x),
              lambda: mo.norm_squared(tm, x[:5, :5]),
              lambda: mo.trace(tm, bent_x),
              lambda: mo.is_unital_transfer(tm, bent_x)]
    for call in calls:
        with pytest.raises(ValueError, match="not a 6 x 6 matrix fixed by simultaneous"):
            call()


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("basis", [PERMUTATION, LOCALIZED])
@pytest.mark.parametrize("t,d", [(3, 0), (3, -1), (0, 2)])
def test_gram_rejects_t_or_d_below_one(t, d, basis, exact):
    with pytest.raises(ValueError, match="t and d must be >= 1"):
        mo.gram(t, d, basis=basis, exact=exact)


def test_exact_t6_two_fold_trace_equals_reference_values():
    """The k = 2 matrix of ``concatenate`` at t = 6 against the class-row trace."""
    spec = chaar(2, 3, 6, k=2)
    got = mo.trace(mo.transfer(spec), mo.gram(6, 2))
    assert type(got) is Fraction
    assert got == mo._reference_values(spec, (2,), exact=True)[2][1]


def test_exact_t6_norm_squared_equals_reference_values():
    """The class-row norm of a t = 6 transfer matrix against the block route."""
    spec = chaar(2, 3, 6)
    got = mo.norm_squared(mo.transfer(spec), mo.gram(6, 2))
    assert type(got) is Fraction
    assert got == mo._reference_values(spec, (1,), exact=True)[1][0]


@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_invariance_checks(t):
    d = max(2, t)  # the unitary-ensemble transfer needs d >= t
    results = mo.invariance_checks(
        EnsembleSpec(HAAR, d=d, t=t), EnsembleSpec(CHAAR, d=d, t=t, dE=2)
    )
    assert results
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"


def test_frame_potential_depolarize_exact():
    est = mo.frame_potential_mc(depolarize(2, 2), 200, seed=0)
    assert est.value == 1.0 and est.stderr == 0.0


def test_frame_potential_sample_floor():
    with pytest.raises(ValueError):
        mo.frame_potential_mc(haar(2, 2), 50)


def test_frame_potential_rejects_concatenation():
    with pytest.raises(ValueError, match="k = 3"):
        mo.frame_potential_mc(chaar(2, 2, 2, k=3), 1000)


def test_frame_potential_haar_and_chaar():
    est = mo.frame_potential_mc(haar(2, 2), 5000, seed=11)
    assert abs(est.value - 2.0) < 4 * est.stderr
    spec = chaar(2, 2, 2)
    exact = float(mo.norm_squared(mo.transfer(spec), mo.gram(2, 2)))
    est = mo.frame_potential_mc(spec, 5000, seed=12)
    assert abs(est.value - exact) < 4 * est.stderr


def test_frame_potential_error_bar_scaling():
    small = mo.frame_potential_mc(haar(2, 2), 2000, seed=21)
    big = mo.frame_potential_mc(haar(2, 2), 8000, seed=22)
    ratio = small.stderr / big.stderr
    assert 1.5 < ratio < 2.5


def test_haar_sampling_is_unitary():
    rng = np.random.default_rng(3)
    u = mo.sample_haar_unitary(4, rng, 5)
    assert u.shape == (5, 4, 4)
    assert np.max(np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(4))) < 1e-12


def test_stinespring_kraus_complete():
    rng = np.random.default_rng(4)
    kraus = mo.sample_stinespring_kraus(3, 4, rng, 5)
    assert kraus.shape == (5, 4, 3, 3)
    acc = (kraus.conj().swapaxes(2, 3) @ kraus).sum(axis=1)  # sum_j K_j^dag K_j per draw
    assert np.max(np.abs(acc - np.eye(3))) < 1e-12


def test_haar_stack_is_the_single_draw_stream():
    whole = mo.sample_haar_unitary(4, np.random.default_rng(13), 7)
    rng = np.random.default_rng(13)
    split = np.concatenate([mo.sample_haar_unitary(4, rng, 3), mo.sample_haar_unitary(4, rng, 4)])
    rng = np.random.default_rng(13)
    single = np.stack([sample_haar_unitary_once(4, rng) for _ in range(7)])
    assert whole.tobytes() == split.tobytes() == single.tobytes()


@pytest.mark.parametrize("spec", [haar(2, 2), chaar(2, 2, 2), chaar(2, 4, 2), haar(3, 3)],
                         ids=lambda s: s.label())
@pytest.mark.parametrize("samples", [mo.MC_CHUNK + 1, 2 * mo.MC_CHUNK + 45])
def test_frame_potential_matches_single_draw_loop(spec, samples):
    got = mo.frame_potential_mc(spec, samples, seed=17)
    want = frame_potential_mc_loop(spec, samples, seed=17)
    assert got.samples == want.samples
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
    assert got.stderr == pytest.approx(want.stderr, rel=1e-12, abs=0)


def test_environment_dim_is_one_outside_the_dilation():
    assert chaar(2, 3, 2).dE == 3
    assert EnsembleSpec(HAAR, d=2, t=3, dE=5) == haar(2, 3)
    for kind in (HAAR, DEPOLARIZE):
        spec = EnsembleSpec(kind, d=2, t=2, dE=3)
        assert spec.dE == 1
        assert np.array_equal(mo.leading_right_vector(spec),
                              mo.leading_right_vector(replace(spec, dE=1)))


# -- exact path against Fraction matmuls ---------------------------------------
# The oracles below are the Fraction-object formulas the integer path replaces.


def frac_norm_squared(m, x):
    return np.trace(m.dot(x).dot(m.T).dot(x))


def frac_trace(m, x):
    return sum((m[i, j] * x[j, i] for i in range(len(m)) for j in range(len(m))), Fraction(0))


def frac_concatenate(m, x, k):
    out = m
    for _ in range(k - 1):
        out = out.dot(x.dot(m))
    return out


def frac_invariance_checks(spec_a, spec_b):
    t, d = spec_a.t, spec_a.d
    x = mo.gram(t, d)
    dep = mo.transfer(depolarize(d, t)).matrix
    tms = {"a": mo.transfer(spec_a), "b": mo.transfer(spec_b)}
    out = [
        (f"depolarize_right_invariant_under_{name}", mat_eq(dep.dot(x).dot(tm.matrix), dep),
         f"ensemble {tm.ensemble.label()}")
        for name, tm in tms.items()
    ]
    for name, tm in tms.items():
        unital = mo.is_unital_transfer(tm, x)
        left_ok = mat_eq(tm.matrix.dot(x).dot(dep), dep)
        out.append((f"depolarize_left_invariance_matches_unitality_{name}",
                    left_ok == unital, f"unital={unital} left_invariant={left_ok}"))
    if {spec_a.kind, spec_b.kind} == {HAAR, CHAAR}:
        th, tc = (tms["a"], tms["b"]) if spec_a.kind == HAAR else (tms["b"], tms["a"])
        out.append(("chaar_left_invariant_under_haar",
                    mat_eq(th.matrix.dot(x).dot(tc.matrix), tc.matrix), ""))
        out.append(("chaar_right_invariant_under_haar",
                    mat_eq(tc.matrix.dot(x).dot(th.matrix), tc.matrix), ""))
    for tm in tms.values():
        if tm.ensemble.kind == CHAAR and t > 1 and tm.ensemble.dE > 1:
            mod = tm.matrix.dot(x)
            max_dev = max(abs(float(v)) for v in (mod.dot(mod) - mod).flat)
            out.append(("chaar_not_idempotent", max_dev > 1e-6, f"max deviation {max_dev:.3e}"))
    return out


def same_fractions(got, want):
    """Equal in value, and every entry of ``got`` is a Fraction."""
    return got.shape == want.shape and all(
        type(g) is Fraction and g == w for g, w in zip(got.flat, want.flat)
    )


EXACT_GRID = [
    spec
    for t in (1, 2, 3, 4)
    for spec in (
        haar(max(t, 2), t), haar(t + 2, t), depolarize(2, t), depolarize(t + 2, t),
        chaar(2, 3, t), chaar(max(t, 2), 1, t), chaar(max(t, 2), 2, t), chaar(3, 4, t),
    )
]


@pytest.mark.parametrize("spec", EXACT_GRID, ids=lambda s: f"{s.label()}-t{s.t}")
@pytest.mark.parametrize("basis", ["permutation", "localized"])
def test_exact_norm_trace_concatenate_match_fraction_oracle(spec, basis):
    tm = mo.transfer(spec, basis=basis)
    x = mo.gram(spec.t, spec.d, basis=basis)
    n2 = mo.norm_squared(tm, x)
    assert type(n2) is Fraction and n2 == frac_norm_squared(tm.matrix, x)
    tr = mo.trace(tm, x)
    assert type(tr) is Fraction and tr == frac_trace(tm.matrix, x)
    for k in (1, 2, 3):
        got = mo.concatenate(tm, x, k)
        assert got.k == k
        assert same_fractions(got.matrix, frac_concatenate(tm.matrix, x, k))


@pytest.mark.parametrize("spec", [s for s in EXACT_GRID if s.t <= 3],
                         ids=lambda s: f"{s.label()}-t{s.t}")
def test_exact_norm_matches_quadruple_sum(spec):
    for basis in ("permutation", "localized"):
        tm = mo.transfer(spec, basis=basis)
        x = mo.gram(spec.t, spec.d, basis=basis)
        assert mo.norm_squared(tm, x) == norm_squared_quad(tm, x)


@pytest.mark.parametrize(
    "pair",
    [(haar(t, t), chaar(t, 2, t)) for t in (2, 3, 4)]
    + [(chaar(3, 3, t), depolarize(3, t)) for t in (2, 3)]
    + [(chaar(4, 1, 4), haar(4, 4)), (chaar(2, 2, 2), chaar(2, 5, 2))],
    ids=lambda p: f"{p[0].label()}-{p[1].label()}-t{p[0].t}",
)
def test_invariance_checks_match_fraction_oracle(pair):
    got = [(r.name, r.passed, r.detail) for r in mo.invariance_checks(*pair)]
    assert got == frac_invariance_checks(*pair)


def test_exact_t5_chaar_point():
    # 284/147 was computed with frac_norm_squared (about 25 s per basis at t = 5).
    spec = chaar(2, 3, 5)
    tm = mo.transfer(spec)
    x = mo.gram(5, 2)
    n2 = mo.norm_squared(tm, x)
    assert type(n2) is Fraction and n2 == Fraction(284, 147)
    tr = mo.trace(tm, x)
    assert type(tr) is Fraction and tr == frac_trace(tm.matrix, x) == Fraction(17, 3)
    tl = mo.transfer(spec, basis=LOCALIZED)
    xl = mo.gram(5, 2, basis=LOCALIZED)
    assert mo.norm_squared(tl, xl) == n2
    assert mo.trace(tl, xl) == tr


def test_float_norm_and_trace_match_exact():
    for spec in (chaar(2, 3, 4), haar(5, 4), chaar(3, 2, 3)):
        tf = mo.transfer(spec, exact=False)
        xf = mo.gram(spec.t, spec.d, exact=False)
        te, xe = mo.transfer(spec), mo.gram(spec.t, spec.d)
        for f in (mo.norm_squared, mo.trace):
            want = float(f(te, xe))
            got = f(tf, xf)
            assert type(got) is float
            assert abs(got - want) <= 1e-12 * abs(want)


# -- the scan's class-row values against the matrix path ------------------------


def matrix_path_values(spec, k, exact):
    """(norm^2, trace) of the k-fold ``spec`` from its concatenated transfer matrix."""
    tm = mo.transfer(spec, exact=exact)
    x = mo.gram(spec.t, spec.d, exact=exact)
    tk = mo.concatenate(tm, x, k)
    return mo.norm_squared(tk, x), mo.trace(tk, x)


DILATED_GRID = [
    (t, d, dE)
    for t in (1, 2, 3, 4)
    for d in (2, 3, 4)
    for dE in sorted({1, 2, d, d * d})
    if d * dE >= t
] + [(5, 3, 2), (5, 5, 1)]


def grid_id(spec):
    """t-d-dE of a dilated ensemble (Haar is dE = 1), depolarize-t-d of the
    rank-one reference."""
    if spec.kind == DEPOLARIZE:
        return f"depolarize-{spec.t}-{spec.d}"
    return f"{spec.t}-{spec.d}-{spec.dE}"


@pytest.mark.parametrize(
    "spec",
    [haar(d, t) if dE == 1 else chaar(d, dE, t) for t, d, dE in DILATED_GRID]
    + [depolarize(d, t) for t, d in ((1, 2), (2, 2), (3, 2), (4, 3), (5, 2))],
    ids=grid_id,
)
def test_dilated_values_equal_matrix_path_exactly(spec):
    ks = (1, 3) if spec.t == 5 else (1, 2, 3, 4)
    got = mo._reference_values(spec, ks, exact=True)
    assert sorted(got) == list(ks)
    for k in ks:
        want = matrix_path_values(spec, k, exact=True)
        assert all(type(v) is Fraction for v in got[k])
        assert got[k] == want, (k, got[k], want)


@pytest.mark.parametrize(
    "spec",
    [chaar(d, dE, t) for t, d, dE in [(5, 5, 2), (5, 3, 9), (6, 6, 1), (6, 3, 2), (6, 7, 49)]]
    + [depolarize(2, 5), depolarize(3, 6)],
    ids=grid_id,
)
def test_dilated_values_float_match_matrix_path(spec):
    got = mo._reference_values(spec, (1, 3), exact=False)
    for k in (1, 3):
        want = matrix_path_values(spec, k, exact=False)
        for g, w in zip(got[k], want):
            assert abs(g - w) <= 1e-12 * abs(w), (k, g, w)


def test_reference_values_exact_haar_t6():
    """Haar at d >= t is a projector of rank t! for every k: norm^2 = trace = 720."""
    got = mo._reference_values(haar(6, 6), (1, 2, 3), exact=True)
    assert got == {k: (720, 720) for k in (1, 2, 3)}
    assert all(type(v) is Fraction for pair in got.values() for v in pair)


@pytest.mark.parametrize("d", [6, 7, 8])
def test_reference_values_float_haar_t6(d):
    """Within 1e-13 of the exact 720 up to k = 4 (the class-representative
    traces reach 4.8e-14 at d = 8, k = 4)."""
    got = mo._reference_values(haar(d, 6), (1, 2, 3, 4), exact=False)
    for k, pair in got.items():
        for v in pair:
            assert abs(v - 720) <= 1e-13 * 720, (k, v)


@pytest.mark.parametrize("d", [6, 7])
def test_reference_values_blocks_match_rows_t6(d):
    """The symmetry-block route against the rows at the class
    representatives at t = 6, for every dE rule and k = 1..4."""
    ks = (1, 2, 3, 4)
    for rule in ("1", "2", "d", "d2"):
        spec = chaar(d, loc._resolve_dE(rule, d), 6)
        got = mo._reference_values(spec, ks, exact=False)
        want = reference_values_rows(spec, ks, exact=False)
        assert sorted(got) == list(ks)
        for k in ks:
            for g, w in zip(got[k], want[k]):
                assert type(g) is float and abs(g - w) <= 1e-12 * abs(w), (rule, k, g, w)


def test_reference_values_blocks_match_rows_exact_t6():
    got = mo._reference_values(haar(7, 6), (1, 3), exact=True)
    want = reference_values_rows(haar(7, 6), (1, 3), exact=True)
    assert got == want
    assert all(type(v) is Fraction for pair in got.values() for v in pair)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("basis", [PERMUTATION, LOCALIZED])
@pytest.mark.parametrize(
    "spec",
    [s for t in (1, 2, 3, 4, 5) for s in (haar(max(t, 2), t), chaar(2, 3, t), depolarize(2, t))],
    ids=lambda s: f"{s.label()}-t{s.t}",
)
def test_transfer_equals_oracle_in_value_and_entry_type(spec, basis, exact):
    """The gathered diag(f[size]) w[cls prod] against one product per entry;
    the rank-one reference is e_0 e_0^T in both bases."""
    n = factorial(spec.t)
    if spec.kind == DEPOLARIZE:
        zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
        want = np.full((n, n), zero, dtype=object if exact else float)
        want[0, 0] = one
    else:
        want = chaar_transfer_perm(spec.t, spec.d, spec.dE, exact=exact)
        if basis == LOCALIZED:
            want = loc.to_localized(TransferMatrix.from_matrix(want, PERMUTATION, spec)).matrix
    got = mo.transfer(spec, basis=basis, exact=exact).matrix
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if exact:
        assert all(type(g) is type(w) and g == w for g, w in zip(got.flat, want.flat))
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("basis", [PERMUTATION, LOCALIZED])
@pytest.mark.parametrize(
    "spec",
    [s for t in (1, 2, 3, 4, 5) for s in (haar(max(t, 2), t), chaar(2, 3, t), depolarize(2, t))],
    ids=lambda s: f"{s.label()}-t{s.t}",
)
def test_class_row_transfer_matches_full_builder(spec, basis, k, exact):
    """The matrix gathered from the stored class rows against the same
    matrix built and carried in full: exact values and entry types equal,
    floats bit for bit, and the float norm within 1e-12."""
    spec = replace(spec, k=k)
    tm = mo.transfer(spec, basis=basis, exact=exact)
    got, want = tm.matrix, transfer_full(spec, basis, exact)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    x = mo.gram(spec.t, spec.d, basis=basis, exact=exact)
    (a, da), (b, db) = split_all(want, x)
    rows = sg.class_product(a[sg.elements(spec.t).reps], b, a.T)
    n2, want_n2 = mo.norm_squared(tm, x), join((sg.from_class_rows(spec.t, rows) * b.T).sum(),
                                               (da * db) ** 2)
    if exact:
        assert all(type(g) is type(w) and g == w for g, w in zip(got.flat, want.flat))
        assert type(n2) is Fraction and n2 == want_n2
    else:
        assert got.tobytes() == want.tobytes()
        assert type(n2) is float and abs(n2 - want_n2) <= 1e-12 * abs(want_n2)


@pytest.mark.parametrize("exact", [False, True])
def test_hierarchy_scan_builds_no_transfer_matrix(exact, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("matrix path called")

    for name in ("transfer", "concatenate", "norm_squared", "trace"):
        monkeypatch.setattr(mo, name, refuse)
    res = mo.hierarchy_scan([2, 3], [1, 3], [2, 3], exact=exact)
    assert not res.violations
    for row in res.rows:
        if row.dE == 1:
            assert row.norm2 == pytest.approx(factorial(row.t), rel=1e-12)
