"""Moment-operator transfer matrices: construction, concatenation, spectra.

A moment operator is represented by a t! x t! coefficient matrix tau over a
tagged basis together with the normalized Gram matrix X of that basis.  In
this pairing:

- concatenating k copies is tau (X tau)^(k-1),
- the trace is Tr[tau X],
- the squared Hilbert-Schmidt norm is Tr[tau X tau^T X],
- the spectrum equals the spectrum of the modified matrix tau X.

All identities hold in either basis, so exact rational results transport
between the permutation and localized bases unchanged.  The entries say
which path a matrix is on: object arrays of Fractions are exact, float64
arrays are not.  Every product and sum here is taken on the numerators of
``exactalg.split`` (integers over one common denominator, or the floats
over 1) and turned back into a value by ``exactalg.join``, so no code in
this module branches on exactness.

In the permutation basis every reference ensemble has tau = D W with
D = diag(f[size]) and W = w[cls prod], and X = x[size][prod]; ``_tables``
gives (f, x, w) and is the only place that says what an ensemble is.  W and
X are convolutions by class functions: each is fixed by its row 0, and so
are C = W X and Q = W X W.  ``_class_rows`` reads the rows of X and W at
the class representatives and the class values of c = w X, as pairwise
sums; ``spectrum`` and ``hierarchy_scan`` work from these and never build
a transfer matrix, X or W.  tau X = D C, and the k-fold
norm and trace are Tr[Y_k Q Y_k X] and Tr[Y_k W X] with Y_k = D (C D)^(k-1).
All these matrices are fixed by simultaneous conjugation, so the traces
need only the rows at one representative per conjugacy class: 2k - 2
products of a p(t) x t! block with a t! x t! matrix, none at k = 1
(``_reference_values``); ``concatenate`` needs this of tau and X, and checks it.

The spectrum is real.  For the Haar and dilated ensembles tau X is
similar to the symmetric matrix D^(-1/2) (tau X) D^(1/2) = D^(1/2) C D^(1/2),
which commutes with inversion and with conjugation by (0 1), (2 3), ...; in
the basis of ``symmgroup.symmetry_blocks`` it splits into one small
symmetric block per character of that group, each with its own eigensolve.
The rank-one reference has eigenvalues 1 and 0 in closed form.  The k-fold
spectrum is the k-th power of the single one.  Row 0 of the dual matrix
(X tau)^k and the leading vector (tau X)^k psi are class functions too, so
their residuals are taken on class values; the eigenpair residual takes k
products of tau X with the eigenvector matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, sqrt

import numpy as np

from . import localized as loc
from . import symmgroup as sg
from . import weingarten as wg
from .exactalg import join, mat_eq, split, split_all
from .specs import (
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

__all__ = [
    "EnsembleSpec",
    "TransferMatrix",
    "SpectralReport",
    "transfer",
    "gram",
    "concatenate",
    "exact_t2_chaar",
    "norm_squared",
    "trace",
    "spectrum",
    "design_distance_depolarize",
    "hierarchy_scan",
    "invariance_checks",
    "frame_potential_mc",
    "haar",
    "chaar",
    "depolarize",
]


def _tables(spec: EnsembleSpec, exact: bool) -> tuple:
    """(f, x, w) of a reference ensemble, with f and x indexed by size
    0..t-1 and w by conjugacy class (``conjugacy_classes`` order).

    Haar and the dilated ensemble have f = dE^(-size) (dE = 1 for Haar),
    x = d^(-size) and w the Weingarten function of dimension d dE; the
    rank-one reference is their large-dE limit, f and w the identity
    indicators (size 0, class 0).
    """
    t = spec.t
    x = wg.inverse_powers(spec.d, t, exact)
    if spec.kind == DEPOLARIZE:
        # Identity indicators in the number type of x, whose entry 0 is 1.
        f, w = (np.eye(1, n, dtype=x.dtype)[0] * x[0]
                for n in (t, len(sg.conjugacy_classes(t))))
    else:
        f = wg.inverse_powers(spec.environment_dim, t, exact)
        w = wg.weingarten_values(t, spec.d * spec.environment_dim, exact)
    return f, x, w


def transfer(spec: EnsembleSpec, basis: str = PERMUTATION, exact: bool = True) -> TransferMatrix:
    """Transfer matrix of a reference ensemble, concatenated ``spec.k`` times.

    The permutation-basis matrix diag(f[size]) w[cls prod] is gathered from
    the t p(t) products of the ensemble's ``_tables``.  The localized matrix
    is transported from it, except for the rank-one reference e_0 e_0^T,
    which is the same in both bases (zeta[0, j] = delta_j0).
    """
    if basis not in (PERMUTATION, LOCALIZED):
        raise ValueError(f"unknown basis {basis!r}")
    t = spec.t
    f, _, w = _tables(spec, exact)
    m = np.multiply.outer(f, w)[sg.product_table(t).size[:, None], wg._pair_class_table(t)]
    tm = TransferMatrix(m, PERMUTATION, replace(spec, k=1))
    if basis == LOCALIZED:
        tm = replace(tm, basis=LOCALIZED) if spec.kind == DEPOLARIZE else loc.to_localized(tm)
    if spec.k > 1:
        tm = concatenate(tm, gram(t, spec.d, basis=basis, exact=exact), spec.k)
    return tm


def gram(t: int, d: int, basis: str = PERMUTATION, exact: bool = True) -> np.ndarray:
    """Normalized Gram matrix of the requested basis."""
    if basis == PERMUTATION:
        return wg.gram_matrix(t, d, exact=exact)
    if basis == LOCALIZED:
        return loc.localized_gram(t, d, exact=exact)
    raise ValueError(f"unknown basis {basis!r}")


def _class_rows(t: int, f: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple:
    """(f[size], X[reps], W[reps], c) of the ``_tables`` values (f, x, w):
    f over S_t, the rows of X = x[size][prod] and W = w[cls][prod] at the
    class representatives, and c = w X by class, c_r = (W X)[r, 0].

    The values may be Fractions, ``exactalg.split`` numerators or floats.
    c is numpy's pairwise sum of the products, not a BLAS dot: the eigensolve
    weights each class value by its class size (up to 144 at t = 6), and the
    pairwise sum keeps the Haar eigenvalues at t = d = 6 within 2.1e-14 of 1,
    where the dot leaves 2.9e-13.
    """
    tab = sg.product_table(t)
    xr = x[tab.rep_size]
    return f[tab.size], xr, w[tab.rep_cls], (xr * w[tab.cls]).sum(axis=1)


def _reference_values(spec: EnsembleSpec, ks, exact: bool) -> dict:
    """{k: (norm^2, trace)} of the k-fold reference ensemble ``spec``, k in ``ks``.

    C = W X = c[prod] and Q = W C = q[prod] for the class functions c of
    ``_class_rows`` and q = w C, both pairwise sums as there (a BLAS dot
    puts the float Haar norm^2 at t = d = 6, k = 3 off by 9.3e-12, the
    pairwise sums by 2.3e-13).  tau_k X = (D C)^k =
    Y_k C with the symmetric Y_k = D (C D)^(k-1), so norm^2 =
    Tr[Y_k Q Y_k X] and trace = Tr[X Y_k W].
    Both products are fixed by simultaneous conjugation, so each trace is
    sum_r n_r M[r, r] over class representatives r of class size n_r.  The
    rows there of Y_k (v) and of X Y_k (u, times n_r) follow from
    (v, u) <- (v, u) C D, p(t) x t! blocks; the rows of Y_1 = D are
    f_r e_r, so its products are gathers.  Intermediates are (numerators,
    denominator) pairs from ``exactalg.split``, so ``join`` makes the exact
    values Fractions.
    """
    tab, pcls = sg.product_table(spec.t), wg._pair_class_table(spec.t)
    (f, df), (x, dx), (w, dw) = split_all(*_tables(spec, exact))
    f, xr, wr, c = _class_rows(spec.t, f, x, w)
    dc = dx * dw
    q, dq = (wr * c[tab.cls]).sum(axis=1), dc * dw
    cd, qm = c[pcls], q[pcls]
    cd *= f
    fr = f[tab.reps, None]
    u, du, dv = xr * f * tab.class_sizes[:, None], dx * df, df
    y_rows = lambda m: fr * m.take(tab.reps, 0)  # rows of Y_k m; Y_1 m = D m
    out = {}
    for k in range(1, max(ks) + 1):
        if k > 1:
            v, u = y_rows(cd), u.dot(cd)
            y_rows = v.dot
            dv, du = dv * dc * df, du * dc * df
        if k in ks:
            out[k] = (join(np.vdot(y_rows(qm), u), dv * dq * du), join(np.vdot(u, wr), du * dw))
    return out


def trace_of_product(p: np.ndarray, q: np.ndarray):
    """Tr[P Q] as the O(n^2) sum of P * Q^T, without forming P Q."""
    return (p * q.T).sum()


def concatenate(tm: TransferMatrix, gram_matrix: np.ndarray, k: int) -> TransferMatrix:
    """k-fold concatenation tau (X tau)^(k-1), X the normalized Gram, gathered from its
    class rows; tau and X must be t! x t! and fixed by simultaneous conjugation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    (a, da), (b, db) = split_all(tm.matrix, gram_matrix)
    sg.check_conjugation_invariant(tm.t, a, b)
    rows = a[sg.product_table(tm.t).reps]
    for _ in range(k - 1):
        rows = rows.dot(b).dot(a)
    out = join(sg.from_class_rows(tm.t, rows), da * (da * db) ** (k - 1))
    return replace(tm, matrix=out, ensemble=replace(tm.ensemble, k=tm.k * k))


def exact_t2_chaar(k: int, d: int, dE: int) -> TransferMatrix:
    """Closed-form k-concatenated t=2 transfer in the localized basis.

    The identity column is invariant; the transposition-to-identity entry is
    a finite geometric sum in r = dE (d^2-1) / (d^2 dE^2 - 1) and the
    transposition diagonal is r^k / (d^2 - 1).
    """
    if k < 1 or d < 2 or dE < 1:
        raise ValueError("need k >= 1, d >= 2, dE >= 1")
    den = d * d * dE * dE - 1
    r = Fraction(dE * (d * d - 1), den)
    off = Fraction(dE - 1, den) * sum((r**s for s in range(k)), Fraction(0))
    diag = Fraction(1, d * d - 1) * r**k
    m = np.array([[Fraction(1), Fraction(0)], [off, diag]], dtype=object)
    return TransferMatrix(m, LOCALIZED, chaar(d, dE, 2, k=k))


def norm_squared(tm: TransferMatrix, gram_matrix: np.ndarray):
    """Squared Hilbert-Schmidt norm Tr[tau X tau^T X] = Tr[(tau X)(tau^T X)]."""
    (a, da), (b, db) = split_all(tm.matrix, gram_matrix)
    return join(trace_of_product(a.dot(b), a.T.dot(b)), (da * db) ** 2)


def trace(tm: TransferMatrix, gram_matrix: np.ndarray):
    """Trace Tr[tau X] of the represented operator."""
    (a, da), (b, db) = split_all(tm.matrix, gram_matrix)
    return join(trace_of_product(a, b), da * db)


@dataclass(frozen=True)
class SpectralReport:
    """Eigen-data of the modified transfer matrix tau X (float path).

    The spectrum is real: tau X is similar to a symmetric matrix (see
    ``spectrum``), so ``eigenvalues`` is a float64 array sorted by modulus.
    ``leading_right`` is the coefficient vector of the invariant operator,
    (d dE)^(-size(sigma)) for the dilated ensemble; ``leading_left`` is the
    identity-permutation indicator, i.e. trace preservation, and is checked
    against the dual modified matrix X tau.  ``residuals`` are infinity
    norms of (tau X)^k psi - psi and of e_0^T ((X tau)^k - I), and the
    largest column norm of (tau X)^k V - V Lambda^k, all of the
    unsymmetrized k-fold operators.
    """

    eigenvalues: np.ndarray
    leading_right: np.ndarray
    leading_left: np.ndarray
    residuals: dict


def leading_right_vector(spec: EnsembleSpec, exact: bool = False) -> np.ndarray:
    """Coefficient vector f x of the invariant operator over the permutation
    basis, from the ensemble's ``_tables``: (d dE)^(-size) for the dilated
    ensemble, the identity indicator for the rank-one reference."""
    f, x, _ = _tables(spec, exact)
    return (f * x)[sg.product_table(spec.t).size]


def _right_eigenpairs(spec: EnsembleSpec, f: np.ndarray, c: np.ndarray) -> tuple:
    """Real eigenvalues and column-normalized right eigenvectors of
    tau X = D C, with D = diag(f) and C = c[pcls] for c by class (see
    ``_class_rows``).

    The dilated ensemble has f = dE^(-size).  W and X are symmetric right
    multiplications by central elements, so they commute, C = W X is
    symmetric, and so is D^(-1/2) (tau X) D^(1/2) = D^(1/2) C D^(1/2).
    D and C commute with the group H of ``sg.symmetry_blocks``, so in its
    orthonormal basis U that matrix is block diagonal, one block per
    character: B[i, j] = half_i half_j sum_h chi(h) c(r_i^-1 h r_j) /
    sqrt(|H_i| |H_j|), the class values of c times the block's int8
    ``weights``.  Each block has its own ``eigh`` (16 blocks of at most 98
    rows at t = 6), and its eigenvectors v give the right eigenvectors
    D^(1/2) U v.
    Haar is dE = 1.  The rank-one reference tau X = e_0 x_0^T, with
    x_0 = c over S_t, has eigenvalue 1 on e_0 and 0 on e_j - x_0[j] e_0.
    """
    n = len(f)
    if spec.kind == DEPOLARIZE:
        evals = np.zeros(n)
        evals[0] = 1.0
        evecs = np.eye(n)
        evecs[0, 1:] = -c[sg.product_table(spec.t).cls[1:]]
    else:
        half = np.sqrt(f)
        evals, evecs = np.empty(n), np.zeros((n, n))
        start = 0
        for b in sg.symmetry_blocks(spec.t):
            hs = half[b.reps] * b.scale
            block = c @ b.weights
            block *= hs[:, None]
            block *= hs
            cols = slice(start, start + len(hs))
            evals[cols], v = np.linalg.eigh(block)
            evecs[b.rows, cols] = (half[b.rows] * b.coef)[:, None] * v[b.pos]
            start += len(hs)
    evecs /= np.linalg.norm(evecs, axis=0)
    return evals, evecs


def spectrum(spec: EnsembleSpec) -> SpectralReport:
    """Eigenvalues and leading eigenpair of the k-concatenated ensemble.

    Since (tau X)^k = tau_k X, the k-fold eigenvalues are the k-th powers
    of those of tau X, with the same eigenvectors.  Everything comes from
    ``_class_rows``, as the norms of ``_reference_values`` do: tau X = D C
    is one gather of c, and no X or W is built.  x, f[size] and w are class
    functions, and so is a convolution of class functions, so row 0 of the
    dual k-fold matrix (X tau)^k = (X D W)^k is one, and so is
    (D C)^k psi for the class function psi = f x.  One loop of k steps
    applies the k-fold operators: p(t) x t! mat-vecs on the class values of
    the dual row and of psi, and one product of tau X with the eigenvector
    matrix V, so the eigenpair residual is (tau X)^k V - V Lambda^k
    without forming (tau X)^k.
    """
    t = spec.t
    tab = sg.product_table(t)
    f, xr, wr, c = _class_rows(t, *_tables(spec, exact=False))
    fr, e_cls, c_rows = f[tab.reps], np.eye(1, len(c))[0], c[tab.rep_cls]
    psi = leading_right_vector(spec)
    evals, evecs = _right_eigenpairs(spec, f, c)
    evals = evals**spec.k
    tau_x = c[wg._pair_class_table(t)]
    tau_x *= f[:, None]
    # Row 0 of (X D W)^k and (D C)^k psi by class, and (tau X)^k V.
    row, right, pair = e_cls, psi[tab.reps], evecs
    for _ in range(spec.k):
        row = wr.dot((xr.dot(row[tab.cls]) * fr)[tab.cls])
        right = fr * c_rows.dot(right[tab.cls])
        pair = tau_x @ pair
    del tau_x
    pair -= evecs * evals
    return SpectralReport(
        eigenvalues=evals[np.argsort(-np.abs(evals))],
        leading_right=psi / np.linalg.norm(psi),
        leading_left=e_cls[tab.cls],
        residuals={
            "eigenpairs": float(np.linalg.norm(pair, axis=0).max()),
            "leading_right": float(np.abs(right - psi[tab.reps]).max()),
            "leading_left": float(np.abs(row - e_cls).max()),
        },
    )


def design_distance_depolarize(spec: EnsembleSpec) -> float:
    """HS distance to the rank-one trace-preserving reference: sqrt(norm^2 - 1)."""
    n2 = float(_reference_values(spec, (spec.k,), exact=False)[spec.k][0])
    radicand = n2 - 1.0
    if radicand < -1e-9:
        raise ArithmeticError(f"norm^2 = {n2} below 1: inconsistent norm computation")
    return sqrt(max(radicand, 0.0))


@dataclass(frozen=True)
class ScanRow:
    t: int
    k: int
    d: int
    dE: int
    norm2: float | Fraction
    trace: float | Fraction
    eps_dep: float
    flags: tuple = ()


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    violations: tuple


def hierarchy_scan(
    t_list,
    k_list,
    d_list,
    dE_rules=("1", "2", "d", "d2"),
    exact: bool = False,
    rel_tol: float = 1e-9,
) -> ScanResult:
    """Norm and trace over a (t, k, d, dE) grid, with hierarchy checks;
    exact values stay Fractions.

    Checks recorded as violations rather than raised: norm^2 outside
    [1, t!], growth in environment dimension at fixed (t, k, d), and growth
    in concatenation count at fixed (t, d, dE).  The whole grid is checked
    before any matrix is built; points with d * dE < t are left out.
    """
    for name, grid, low in (("t", t_list, 1), ("k", k_list, 1), ("d", d_list, 2)):
        for i, v in enumerate(grid):
            if v < low:
                raise ValueError(f"invalid grid: need {name} >= {low}, got {name} = {v}")
            if v in grid[:i]:
                raise ValueError(f"invalid grid: duplicate {name} = {v}")
    for t in t_list:
        if t > sg.max_order():
            raise ValueError(f"invalid grid: t = {t} exceeds the cap {sg.max_order()} "
                             f"(set {sg.MAX_ORDER_ENV} to raise it)")
    try:
        des = {d: sorted({loc._resolve_dE(rule, d) for rule in dE_rules}) for d in d_list}
    except ValueError as exc:
        raise ValueError(f"invalid grid: {exc}") from None
    points = [
        (t, k, d, dE)
        for t in t_list for k in k_list for d in d_list for dE in des[d] if d * dE >= t
    ]

    # All k of one (t, d, dE) from one set of class rows.
    ks_by_pair: dict = {}
    for t, k, d, dE in points:
        ks_by_pair.setdefault((t, d, dE), []).append(k)
    values = {}
    for (t, d, dE), ks in ks_by_pair.items():
        for k, (n2, tr) in _reference_values(chaar(d, dE, t), ks, exact).items():
            # Exact values stay Fractions; float ones become Python floats.
            values[t, k, d, dE] = (n2, tr) if exact else (float(n2), float(tr))

    # One flag list per point, filled by the bounds check, then by the
    # monotonicity passes in dE at fixed (t, k, d) and in k at fixed (t, d, dE).
    norms = [values[p][0] for p in points]
    flags = [[] for _ in points]
    violations = []
    for i, (p, n2) in enumerate(zip(points, norms)):
        if not (1.0 - rel_tol <= n2 <= factorial(p[0]) * (1 + rel_tol)):
            flags[i].append("bounds")
            violations.append(("bounds", p, n2))
    for name, key_at, var_at in (("monotone_dE", (0, 1, 2), 3), ("monotone_k", (0, 2, 3), 1)):
        groups: dict = {}
        for i, p in enumerate(points):
            groups.setdefault(tuple(p[j] for j in key_at), []).append(i)
        for key, members in groups.items():
            members.sort(key=lambda i: points[i][var_at])
            for a, b in zip(members, members[1:]):
                if norms[b] > norms[a] * (1 + rel_tol) + rel_tol:
                    pair = (points[a][var_at], points[b][var_at])
                    violations.append((name, key + pair, (norms[a], norms[b])))
                    flags[b].append(name)
    rows = [
        ScanRow(*p, n2, values[p][1], sqrt(max(n2 - 1.0, 0.0)), tuple(f))
        for p, n2, f in zip(points, norms, flags)
    ]
    return ScanResult(tuple(rows), tuple(violations))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def is_unital_transfer(tm: TransferMatrix, gram_matrix: np.ndarray) -> bool:
    """Exact test that the identity operator is a fixed point."""
    v = tm.matrix.dot(gram_matrix[:, 0])
    return np.array_equal(v, np.eye(1, len(v), dtype=object)[0])


def invariance_checks(spec_a: EnsembleSpec, spec_b: EnsembleSpec) -> list:
    """Exact composition identities between two ensembles and the
    rank-one reference on the shared (t, d)."""
    if (spec_a.t, spec_a.d) != (spec_b.t, spec_b.d):
        raise ValueError("specs must share (t, d)")
    t, d = spec_a.t, spec_a.d
    x = gram(t, d, basis=PERMUTATION, exact=True)
    dep = transfer(depolarize(d, t), basis=PERMUTATION, exact=True)
    ta = transfer(spec_a, basis=PERMUTATION, exact=True)
    tb = transfer(spec_b, basis=PERMUTATION, exact=True)
    xi, dx = split(x)

    def sandwich(left, right):
        """left X right, exactly."""
        (li, dl), (ri, dr) = split(left.matrix), split(right.matrix)
        return join(li.dot(xi).dot(ri), dl * dx * dr)

    results = []
    for name, tm in (("a", ta), ("b", tb)):
        results.append(
            CheckResult(
                f"depolarize_right_invariant_under_{name}",
                mat_eq(sandwich(dep, tm), dep.matrix),
                f"ensemble {tm.ensemble.label()}",
            )
        )
    for name, tm in (("a", ta), ("b", tb)):
        unital = is_unital_transfer(tm, x)
        left_ok = mat_eq(sandwich(tm, dep), dep.matrix)
        results.append(
            CheckResult(
                f"depolarize_left_invariance_matches_unitality_{name}",
                left_ok == unital,
                f"unital={unital} left_invariant={left_ok}",
            )
        )
    pair = {spec_a.kind, spec_b.kind}
    if pair == {HAAR, CHAAR}:
        th = ta if spec_a.kind == HAAR else tb
        tc = tb if spec_a.kind == HAAR else ta
        results.append(
            CheckResult("chaar_left_invariant_under_haar", mat_eq(sandwich(th, tc), tc.matrix))
        )
        results.append(
            CheckResult("chaar_right_invariant_under_haar", mat_eq(sandwich(tc, th), tc.matrix))
        )
    for tm in (ta, tb):
        if t > 1 and tm.ensemble.environment_dim > 1:
            # mod = tau X = m / dm, and mod^2 - mod = (m^2 - dm m) / dm^2.
            mi, dt = split(tm.matrix)
            m, dm = mi.dot(xi), dt * dx
            dev = join(m.dot(m) - dm * m, dm * dm)
            max_dev = max(abs(float(v)) for v in dev.flat)
            results.append(
                CheckResult(
                    "chaar_not_idempotent",
                    max_dev > 1e-6,
                    f"max deviation {max_dev:.3e}",
                )
            )
    return results


# Samples per stacked draw of the Monte-Carlo estimators.
MC_CHUNK = 256


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int


def sample_haar_unitary(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, dim, dim) stack of Haar unitaries: QR of complex Ginibre
    matrices with the phases of diag(R) moved into Q (Mezzadri 2007).

    Each draw takes its real block, then its imaginary block, from ``rng``,
    so a stack holds the same numbers as ``count`` single draws in turn.
    """
    z = rng.standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def sample_stinespring_kraus(d: int, dE: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, dE, d, d) stack of Kraus sets K_j = (I x <j|) U (I x |0>) of
    Haar unitaries U on system x environment; dE = 1 gives Haar unitaries."""
    u = sample_haar_unitary(d * dE, rng, count).reshape(count, d, dE, d, dE)
    return u[..., 0].transpose(0, 2, 1, 3)


def stacked_draws(draw, samples: int) -> np.ndarray:
    """Concatenation of ``draw(m)`` over chunks of at most ``MC_CHUNK`` samples.

    The chunks bound the memory of a stack; samples are drawn in stream
    order, so the values do not depend on the chunk size.
    """
    sizes = [min(MC_CHUNK, samples - i) for i in range(0, samples, MC_CHUNK)]
    return np.concatenate([draw(m) for m in sizes])


def frame_potential_mc(spec: EnsembleSpec, samples: int, seed: int = 0) -> MCEstimate:
    """Monte-Carlo estimate of the squared HS norm of the moment operator.

    Draws independent channel pairs and averages the t-th power of the
    superoperator overlap sum_{jk} |Tr[K_j^dag M_k]|^2.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if spec.k != 1:
        raise ValueError(f"the sampler draws single channels; k = {spec.k} is not supported")
    rng = np.random.default_rng(seed)
    d, dE = spec.d, spec.environment_dim

    def draw(m):
        pairs = sample_stinespring_kraus(d, dE, rng, 2 * m).reshape(m, 2, dE, d, d)
        overlaps = np.einsum("naij,nbij->nab", pairs[:, 0].conj(), pairs[:, 1])
        return np.sum(np.abs(overlaps) ** 2, axis=(1, 2)) ** spec.t

    vals = np.ones(samples) if spec.kind == DEPOLARIZE else stacked_draws(draw, samples)
    return MCEstimate(float(np.mean(vals)), float(np.std(vals, ddof=1) / sqrt(samples)), samples)
