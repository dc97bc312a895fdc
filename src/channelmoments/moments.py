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
are C = W X and Q = W X W.  Class functions multiply on the class algebra
(``symmgroup.convolution``): ``_class_values`` gives x and c = w * x by
class, and ``spectrum`` and ``hierarchy_scan`` work from these and never
build a transfer matrix, X or W.  tau X = D C, and the k-fold
norm and trace are Tr[Y_k Q Y_k X] and Tr[Y_k C] with Y_k = D (C D)^(k-1).
D and the class-function matrices commute with the group H of
``symmgroup.symmetry_blocks``, so the traces are sums over its small
blocks, read from the class values and the blocks' integer weights by
``_class_blocks``: at k = 1, 3 three stacked block products and no t! x t!
array (``_reference_values``), on Fractions' integer numerators too.
All these matrices are also fixed by simultaneous conjugation, so each is
fixed by its rows at one representative per conjugacy class, p(t) x t!
entries, and so is a product of them.  ``specs.TransferMatrix`` stores only
those rows, and ``symmgroup.class_product`` takes every product here from
them: ``concatenate``, ``norm_squared``, ``trace`` and ``invariance_checks``
split and join rows, and gather integer numerators in full only for a right
operand of a product.  The trace of such a product P Q is
sum_r |K_r| P[r] . Q[:, r] over the class representatives r.  A full Gram
matrix handed in by a caller enters through ``_operands`` only, where
``symmgroup.check_conjugation_invariant`` checks it and gives its rows; a
full transfer matrix enters through ``TransferMatrix.from_matrix`` only.

The spectrum is real.  For the Haar and dilated ensembles tau X is
similar to the symmetric matrix D^(-1/2) (tau X) D^(1/2) = D^(1/2) C D^(1/2),
which commutes with inversion and with conjugation by (0 1), (2 3), ...; in
the basis U of ``symmgroup.symmetry_blocks`` it splits into one small
symmetric block per character of that group.  The blocks come in groups of
one size, each with one stacked product for its blocks and one stacked
eigensolve, and the lift of U there takes block coordinates back to S_t.
The rank-one reference has eigenvalues 1 and 0 in closed form.  The k-fold
spectrum is the k-th power of the single one.  Row 0 of the dual matrix
(X tau)^k and the leading vector (tau X)^k psi are class functions too, so
their residuals are taken on class values; the eigenpair residual is
taken block by block and on a few seeded probe columns, and neither it nor
anything else here forms the eigenvector matrix or tau X in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt
from typing import NamedTuple

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
    check_grid,
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
        f = wg.inverse_powers(spec.dE, t, exact)
        w = wg.weingarten_values(t, spec.d * spec.dE, exact)
    return f, x, w


def transfer(spec: EnsembleSpec, basis: str = PERMUTATION, exact: bool = True) -> TransferMatrix:
    """Transfer matrix of a reference ensemble, concatenated ``spec.k`` times.

    The class rows of the permutation-basis matrix diag(f[size]) w[cls prod]
    are gathered from the t p(t) products of the ensemble's ``_tables``.  The
    localized matrix is transported from it, except for the rank-one
    reference e_0 e_0^T, which is the same in both bases (zeta[0, j] = delta_j0).
    """
    if basis not in (PERMUTATION, LOCALIZED):
        raise ValueError(f"unknown basis {basis!r}")
    t, tab = spec.t, sg.product_table(spec.t)
    f, _, w = _tables(spec, exact)
    rows = np.multiply.outer(f, w)[tab.size[tab.reps][:, None], tab.rep_cls]
    tm = TransferMatrix(rows, PERMUTATION, replace(spec, k=1))
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


def _class_values(t: int, f: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple:
    """(f[size], x by class, c = w * x by class) of the ``_tables`` values
    (f, x, w), from ``sg.convolution``: c holds the class values of C = W X.
    The values may be Fractions, ``exactalg.split`` numerators or floats."""
    tab = sg.product_table(t)
    xc = x[tab.size[tab.reps]]
    return f[tab.size], xc, sg.convolution(t, xc) @ w


def _reference_values(spec: EnsembleSpec, ks, exact: bool) -> dict:
    """{k: (norm^2, trace)} of the k-fold reference ensemble ``spec``, k in ``ks``,
    from the blocks of ``sg.symmetry_blocks``.

    C = W X = c[prod] and Q = W C = q[prod] for the class values c of
    ``_class_values`` and q = w * c, both products on the class algebra
    (``sg.convolution``).  tau_k X = (D C)^k = Y_k C with the
    symmetric Y_k = D (C D)^(k-1), so norm^2 = Tr[Y_k Q Y_k X] and
    trace = Tr[Y_k C].  D, C, Q and X commute with the group H of the
    blocks, so each trace is a sum over blocks.  A class function's block
    is S m S with S = diag(|H_a|^(-1/2)) and m = m_cls @ weights
    (``_class_blocks``), and D's is diag(f[reps]); in each trace a D sits
    between any two class factors, so S^2 folds into
    D~ = diag(f[reps] |H| / |H_a|) / |H|, integers over |H|.  Then
    norm^2 = sum_b Tr[Y~ q Y~ x] and trace = sum_b Tr[Y~ c] with the
    symmetric Y~_k = D~ (c D~)^(k-1); the first is the sum of (Y~ q) times
    (Y~ x)^T = x Y~ entry by entry.
    Y~_1 = D~ and Y~_2 = D~ c D~ are scalings, so the chain Y~_k <-
    Y~_(k-1) (c D~) takes k - 2 stacked block products and each k > 1 in
    ``ks`` two more: three for ks = (1, 3).  Intermediates are (numerators,
    denominator) pairs from ``exactalg.split``, so ``join`` makes the exact
    values Fractions, with no square root.
    """
    t, kmax = spec.t, max(ks)
    blocks = sg.symmetry_blocks(t)
    (f, df), (x, dx), (w, dw) = split_all(*_tables(spec, exact))
    f, x, c = _class_values(t, f, x, w)
    dc, dd = dx * dw, df * blocks.order
    dq, dcd = dc * dw, dc * dd
    values = np.array((c, sg.convolution(t, c) @ w, x))
    n2, tr = dict.fromkeys(ks, 0), dict.fromkeys(ks, 0)
    for _, reps, stab, weights in blocks.groups:
        blk = _class_blocks(values, weights)
        cb, qx = blk[0], blk[1:]
        dt = (f[reps] * (blocks.order // stab))[:, :, None]  # D~ numerators, (g, m, 1)
        cd = cb * dt.mT  # c D~
        y = dt * np.eye(reps.shape[1], dtype=np.int64)  # Y~_1 = D~
        for k in range(1, kmax + 1):
            if k > 1:
                y = dt * cd if k == 2 else y @ cd  # Y~_k = Y~_(k-1) c D~
            if k in n2:
                yq, yx = dt * qx if k == 1 else y @ qx
                n2[k] += np.vdot(yq, yx.mT)  # Tr[Y~ q Y~ x]
                tr[k] += np.vdot(y, cb)
    return {k: (join(n2[k], dd * dd * dcd ** (2 * k - 2) * dq * dx),
                join(tr[k], dd * dcd ** (k - 1) * dc)) for k in ks}


def _operands(tm: TransferMatrix, gram_matrix: np.ndarray) -> tuple:
    """(a, da, b, db): the split class rows of tau, and the split Gram matrix
    X gathered in full from its rows, which ``sg.check_conjugation_invariant``
    takes and checks."""
    (a, da), (b, db) = split_all(tm.rows, sg.check_conjugation_invariant(tm.t, gram_matrix))
    return a, da, sg.from_class_rows(tm.t, b), db


def _class_trace(t: int, rows: np.ndarray, right: np.ndarray):
    """Tr[P Q] for t! x t! matrices P and Q fixed by simultaneous
    conjugation, from the class rows of P and Q in full: the diagonal of P Q
    is a class function, so this is sum_r |K_r| P[r] . Q[:, r]."""
    tab = sg.product_table(t)
    return tab.class_sizes.dot((rows * right[:, tab.reps].T).sum(axis=1))


def concatenate(tm: TransferMatrix, gram_matrix: np.ndarray, k: int) -> TransferMatrix:
    """k-fold concatenation tau (X tau)^(k-1), X the normalized Gram, from the
    class rows of tau; X must be t! x t! and fixed by simultaneous conjugation."""
    if k < 1:
        raise ValueError("k must be >= 1")
    a, da, b, db = _operands(tm, gram_matrix)
    full = sg.from_class_rows(tm.t, a) if k > 1 else None
    out = join(sg.class_product(a, *(b, full) * (k - 1)), da * (da * db) ** (k - 1))
    return replace(tm, rows=out, ensemble=replace(tm.ensemble, k=tm.k * k))


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
    return TransferMatrix.from_matrix(m, LOCALIZED, chaar(d, dE, 2, k=k))


def norm_squared(tm: TransferMatrix, gram_matrix: np.ndarray):
    """Squared Hilbert-Schmidt norm Tr[tau X tau^T X], from the class rows of
    tau X tau^T; X must be t! x t! and fixed by simultaneous conjugation."""
    a, da, b, db = _operands(tm, gram_matrix)
    rows = sg.class_product(a, b, sg.from_class_rows(tm.t, a).T)
    return join(_class_trace(tm.t, rows, b), (da * db) ** 2)


def trace(tm: TransferMatrix, gram_matrix: np.ndarray):
    """Trace Tr[tau X] of the represented operator, from the class rows of
    tau; X must be t! x t! and fixed by simultaneous conjugation."""
    a, da, b, db = _operands(tm, gram_matrix)
    return join(_class_trace(tm.t, a, b), da * db)


@dataclass(frozen=True)
class SpectralReport:
    """Eigen-data of the modified transfer matrix tau X (float path).

    The spectrum is real: tau X is similar to a symmetric matrix (see
    ``spectrum``), so ``eigenvalues`` is a float64 array sorted by modulus.
    ``leading_right`` is the coefficient vector of the invariant operator,
    (d dE)^(-size(sigma)) for the dilated ensemble; ``leading_left`` is the
    identity-permutation indicator, i.e. trace preservation, and is checked
    against the dual modified matrix X tau.  ``residuals`` are infinity
    norms of (tau X)^k psi - psi and of e_0^T ((X tau)^k - I), and for the
    unit eigenvector matrix V the larger of the largest column norm of
    (tau X)^k V - V Lambda^k, taken in the coordinates of the symmetry
    blocks, and of |(tau X)^k V z - V Lambda^k z| over ``PROBES`` seeded
    unit probes z, lifted to S_t; all of the unsymmetrized k-fold
    operators.
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


# Seeded probe columns of the eigenpair residual, and the entries of one
# chunk of a gathered or cast float64 temporary (1 MB).
PROBES = 4
GATHER_CHUNK = 1 << 17


@lru_cache(maxsize=None)
def _probes(t: int) -> tuple:
    """The rows at each ``sg.symmetry_blocks`` group's (g, m) columns of the
    ``PROBES`` probe columns: standard normal draws seeded by t!, each column
    of unit norm, as (g, m, PROBES) arrays."""
    n = factorial(t)
    z = np.random.default_rng(n).standard_normal((n, PROBES))
    z /= np.sqrt((z * z).sum(axis=0))
    return tuple(z[cols] for cols, *_ in sg.symmetry_blocks(t).groups)


class BlockPairs(NamedTuple):
    """Right eigenpairs of tau X on the g blocks of m rows each of one
    ``sg.symmetry_blocks`` group.

    In the orthonormal basis U_b of block b = i of the group,
    tau X U_b = U_b T_b with ``mats[i]`` = T_b = U_b^T (tau X) U_b.
    ``vecs[i]`` holds unit right eigenvectors y of T_b as columns, with
    eigenvalues ``evals[i]``, so U_b y are unit right eigenvectors of tau X.
    ``cols[i]`` are the group's columns of block b: the positions of its
    eigenvalues among the t!, and of its coordinates in U.
    """

    cols: np.ndarray
    mats: np.ndarray
    evals: np.ndarray
    vecs: np.ndarray


def _class_blocks(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """values @ weights for one ``sg.symmetry_blocks`` group: the (r, p(t))
    class values of r class functions times the group's (g, m, p(t), m)
    int8 weights, as (r, g, m, m) blocks, unscaled (see ``SymmetryBlocks``).
    matmul casts all of its int8 operand to the values' type, so the
    (block, row) pairs go in chunks of at most ``GATHER_CHUNK`` weights
    (one chunk per group at t <= 5)."""
    g, m, p, _ = weights.shape
    rows, out = weights.reshape(g * m, p, m), np.empty((len(values), g * m, m), values.dtype)
    step = max(1, GATHER_CHUNK // (p * m))
    for i in range(0, g * m, step):
        np.matmul(values, rows[i:i + step], out=out[:, i:i + step].transpose(1, 0, 2))
    return out.reshape(-1, g, m, m)


def _right_eigenpairs(spec: EnsembleSpec, f: np.ndarray, c: np.ndarray) -> tuple:
    """The ``BlockPairs`` of tau X = D C, one per group of
    ``sg.symmetry_blocks``, with D = diag(f) and C = c[cls][prod] for c by
    class (see ``_class_values``).

    D and C commute with the group H of ``sg.symmetry_blocks``, so tau X is
    block diagonal in its basis, and T_b = F_b C_b with F_b = f[reps] and
    C_b[i, j] = s_i s_j (c @ weights)[i, j], s = 1 / sqrt(stab): the class
    values of c times the block's int8 ``weights``, taken for all of a
    group's blocks at once by ``_class_blocks``.
    The dilated ensemble has f = dE^(-size).  W and X are symmetric right
    multiplications by central elements, so they commute, C = W X is
    symmetric, and so is F^(1/2) C_b F^(1/2), similar to T_b.  Its
    eigenvectors v, from one stacked ``eigh`` per group (12 of the 16
    blocks at t = 6 have 44 rows), give y = F^(1/2) v, i.e. the right
    eigenvectors D^(1/2) U_b v of tau X.  Haar is dE = 1.
    The rank-one reference has D = diag(e_0), so T_b is 0 except for row 0
    of the trivial block, whose first rep is the identity; there T_b has
    eigenvalue 1 on e_0 and 0 on e_j - T_b[0, j] e_0, and elsewhere every
    eigenvalue is 0 on the unit vectors.
    """
    half = np.sqrt(f)
    out = []
    for cols, reps, stab, weights in sg.symmetry_blocks(spec.t).groups:
        sym, scale = _class_blocks(c[None], weights)[0], 1.0 / np.sqrt(stab)
        mats = sym * (f[reps] * scale)[:, :, None]
        mats *= scale[:, None, :]
        if spec.kind == DEPOLARIZE:
            evals, vecs = np.zeros(cols.shape), np.zeros(mats.shape) + np.eye(cols.shape[1])
            first = reps[:, 0] == 0
            evals[first, 0] = 1.0
            vecs[first, 0, 1:] = -mats[first, 0, 1:]
        else:
            hs = half[reps] * scale
            sym *= hs[:, :, None]
            sym *= hs[:, None, :]
            evals, vecs = np.linalg.eigh(sym)
            vecs *= half[reps][:, :, None]
        vecs /= np.sqrt((vecs * vecs).sum(axis=1))[:, None, :]
        out.append(BlockPairs(cols, mats, evals, vecs))
    return tuple(out)


def _class_matvec(v: np.ndarray, prod: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v[prod] @ x for v over S_t and ``prod`` of ``sg.product_table``,
    gathered in row chunks of at most ``GATHER_CHUNK`` entries."""
    rows, out = max(1, GATHER_CHUNK // len(prod)), np.empty_like(x)
    for i in range(0, len(prod), rows):
        np.matmul(v[prod[i:i + rows]], x, out=out[i:i + rows])
    return out


def spectrum(spec: EnsembleSpec) -> SpectralReport:
    """Eigenvalues and leading eigenpair of the k-concatenated ensemble.

    Since (tau X)^k = tau_k X, the k-fold eigenvalues are the k-th powers
    of those of tau X, with the same eigenvectors.  Everything comes from
    ``_class_values``, as the norms of ``_reference_values`` do: tau X = D C
    is read from the class values of c, and no X or W is built.  x, f[size]
    and w are class functions, and so is a convolution of class functions,
    so row 0 of the dual k-fold matrix (X tau)^k = (X D W)^k is one, and so
    is (D C)^k psi for the class function psi = f x.  One loop of k steps
    applies the k-fold operators: ``sg.convolution`` by x, then w, on the
    dual row and by c on psi, and D C on ``PROBES`` seeded probe columns.

    The eigenpair residual is the larger of two parts, and neither forms
    the eigenvector matrix V or tau X.  The block part is the largest
    column norm of T_b^k y - y lambda^k over the unit y of
    ``_right_eigenpairs``; U_b is orthonormal, so that is the column norm
    of (tau X)^k V - V Lambda^k.  The probe part checks the block
    reduction itself (Freivalds' check of a matrix product): V z and
    V Lambda^k z, from the block coordinates by the lift of U in
    ``sg.symmetry_blocks``, and the largest |(tau X)^k V z - V Lambda^k z|
    over the unit probes z, with tau X gathered in row chunks of
    ``GATHER_CHUNK`` entries.
    """
    t, k = spec.t, spec.k
    tab = sg.product_table(t)
    f_s, x, w = _tables(spec, exact=False)
    f, xc, c = _class_values(t, f_s, x, w)
    fr, e_cls = f[tab.reps], np.eye(1, len(c))[0]
    mx, mw, mc = (sg.convolution(t, v) for v in (xc, w, c))
    psi = (f_s * x)[tab.size]  # ``leading_right_vector``, from the same tables
    blocks = sg.symmetry_blocks(t)
    evals, blocked = np.empty(len(f)), np.empty(len(f))
    coords = np.empty((2, len(f), PROBES))
    for p, z in zip(_right_eigenpairs(spec, f, c), _probes(t)):
        lam = p.evals**k
        evals[p.cols] = lam
        r, vl = p.vecs, p.vecs * lam[:, None, :]
        for _ in range(k):
            r = p.mats @ r
        r -= vl
        blocked[p.cols] = (r * r).sum(axis=1)
        coords[0, p.cols] = p.vecs @ z
        coords[1, p.cols] = vl @ z
    # V z and V Lambda^k z: U applied to the block coordinates.
    vz, vlz = np.add.reduceat(blocks.lift_coef[:, None] * coords[:, blocks.lift_cols],
                              blocks.row_starts, axis=1)
    # Row 0 of (X D W)^k and (D C)^k psi by class, and (tau X)^k V z.
    row, right = e_cls, psi[tab.reps]
    for _ in range(k):
        row = mw @ (fr * (mx @ row))
        right = fr * (mc @ right)
        vz = _class_matvec(c[tab.cls], tab.prod, vz)
        vz *= f[:, None]
    vz -= vlz
    return SpectralReport(
        eigenvalues=evals[np.argsort(-np.abs(evals))],
        leading_right=psi / np.sqrt(psi.dot(psi)),
        leading_left=e_cls[tab.cls],
        residuals={
            "eigenpairs": sqrt(max(blocked.max(), (vz * vz).sum(axis=0).max())),
            "leading_right": float(np.abs(right - psi[tab.reps]).max()),
            "leading_left": float(np.abs(row - e_cls).max()),
        },
    )


def design_distance_depolarize(spec: EnsembleSpec) -> float:
    """HS distance to the rank-one trace-preserving reference: sqrt(norm^2 - 1)."""
    n2 = _reference_values(spec, (spec.k,), exact=False)[spec.k][0]
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
    before any matrix is built; points with d * dE < t are left out, and
    their (t, d, dE) are logged in one line at INFO level.  Each finished
    (t, d, dE) group is logged at INFO level.
    """
    import logging

    # A repeated rule is an error; distinct rules that give one dE merge below.
    for name, grid, low in (("t", t_list, 1), ("k", k_list, 1), ("d", d_list, 2),
                            ("dE rule", dE_rules, None)):
        check_grid(name, grid, low)
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
    log = logging.getLogger(__name__)
    left_out = [(t, d, dE) for t in t_list for d in d_list for dE in des[d] if d * dE < t]
    if left_out:
        log.info("left out %d (t, d, dE) with d*dE < t: %s", len(left_out),
                 "; ".join("t=%d d=%d dE=%d" % p for p in left_out))

    # All k of one (t, d, dE) from one chain of block products.
    ks_by_pair: dict = {}
    for t, k, d, dE in points:
        ks_by_pair.setdefault((t, d, dE), []).append(k)
    values = {}
    start = time.perf_counter()
    for i, ((t, d, dE), ks) in enumerate(ks_by_pair.items(), start=1):
        for k, pair in _reference_values(chaar(d, dE, t), ks, exact).items():
            values[t, k, d, dE] = pair
        log.info("t=%d d=%d dE=%d done, %d of %d (%.1f s elapsed)",
                 t, d, dE, i, len(ks_by_pair), time.perf_counter() - start)

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
    """Exact test that the identity operator is a fixed point: column 0 of
    tau X is e_0.  That column is a class function, so it is decided at the
    class representatives, by a p(t) x t! mat-vec on the numerators of the
    class rows of tau and of column 0 of X; X must be t! x t! and fixed by
    simultaneous conjugation."""
    a, da, b, db = _operands(tm, gram_matrix)
    v = a.dot(b[:, 0])
    return v[0] == da * db and not v[1:].any()


def invariance_checks(spec_a: EnsembleSpec, spec_b: EnsembleSpec) -> list:
    """Exact composition identities between two ensembles and the
    rank-one reference on the shared (t, d).

    Each identity is checked on integer numerators of class rows: with
    left = L / dl, X = x / dx, right = R / dr and want = W / dw, left X right
    equals want exactly when the class rows of (L x R) dw and of
    W (dl dx dr) are equal.
    """
    if (spec_a.t, spec_a.d) != (spec_b.t, spec_b.d):
        raise ValueError("specs must share (t, d)")
    t, d = spec_a.t, spec_a.d
    x = gram(t, d, basis=PERMUTATION, exact=True)
    dep = transfer(depolarize(d, t), basis=PERMUTATION, exact=True)
    ta = transfer(spec_a, basis=PERMUTATION, exact=True)
    tb = transfer(spec_b, basis=PERMUTATION, exact=True)
    xi, dx = split(x[sg.product_table(t).reps])
    xi = sg.from_class_rows(t, xi)
    # Split rows, the numerators gathered in full as right operands, and the
    # class rows of each left factor times X.
    nums = {id(tm): split(tm.rows) for tm in (dep, ta, tb)}
    full = {key: sg.from_class_rows(t, ints) for key, (ints, _) in nums.items()}
    lx = {key: sg.class_product(ints, xi) for key, (ints, _) in nums.items()}

    def sandwich_is(left, right, want):
        """left X right == want, exactly."""
        (_, dl), (_, dr), (wi, dw) = nums[id(left)], nums[id(right)], nums[id(want)]
        return mat_eq(sg.class_product(lx[id(left)], full[id(right)]) * dw, wi * (dl * dx * dr))

    results = []
    for name, tm in (("a", ta), ("b", tb)):
        results.append(
            CheckResult(
                f"depolarize_right_invariant_under_{name}",
                sandwich_is(dep, tm, dep),
                f"ensemble {tm.ensemble.label()}",
            )
        )
    for name, tm in (("a", ta), ("b", tb)):
        unital = is_unital_transfer(tm, x)
        left_ok = sandwich_is(tm, dep, dep)
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
        results.append(CheckResult("chaar_left_invariant_under_haar", sandwich_is(th, tc, tc)))
        results.append(CheckResult("chaar_right_invariant_under_haar", sandwich_is(tc, th, tc)))
    for tm in (ta, tb):
        if t > 1 and tm.ensemble.dE > 1:
            # mod = tau X = m / dm, and mod^2 - mod = (m^2 - dm m) / dm^2, by class rows.
            m, dm = lx[id(tm)], nums[id(tm)][1] * dx
            dev = join(sg.class_product(m, sg.from_class_rows(t, m)) - dm * m, dm * dm)
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


def check_mc_samples(samples: int) -> None:
    """Reject a Monte-Carlo run of fewer than 100 samples."""
    if samples < 100:
        raise ValueError("need at least 100 samples")


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
    check_mc_samples(samples)
    if spec.k != 1:
        raise ValueError(f"the sampler draws single channels; k = {spec.k} is not supported")
    rng = np.random.default_rng(seed)
    d, dE = spec.d, spec.dE

    def draw(m):
        pairs = sample_stinespring_kraus(d, dE, rng, 2 * m).reshape(m, 2, dE, d, d)
        overlaps = np.einsum("naij,nbij->nab", pairs[:, 0].conj(), pairs[:, 1])
        return np.sum(np.abs(overlaps) ** 2, axis=(1, 2)) ** spec.t

    vals = np.ones(samples) if spec.kind == DEPOLARIZE else stacked_draws(draw, samples)
    return MCEstimate(float(np.mean(vals)), float(np.std(vals, ddof=1) / sqrt(samples)), samples)
