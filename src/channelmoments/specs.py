"""Shared tagged descriptions: ensembles, bases, transfer matrices, circuits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import symmgroup as sg
from .channels import NOISE_KINDS
from .exactalg import is_exact

PERMUTATION = "permutation"
LOCALIZED = "localized"

HAAR = "haar"
CHAAR = "chaar"
DEPOLARIZE = "depolarize"


@dataclass(frozen=True)
class EnsembleSpec:
    """One of the reference channel ensembles at fixed dimensions.

    ``d`` is the system dimension, ``dE`` the environment dimension of the
    Stinespring dilation (set to 1 outside the dilated ensemble: Haar is the
    trivial dilation), ``t`` the copy count and ``k`` the requested number
    of concatenations.
    """

    kind: str
    d: int
    t: int
    dE: int = 1
    k: int = 1

    def __post_init__(self):
        if self.kind not in (HAAR, CHAAR, DEPOLARIZE):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.d < 2:
            raise ValueError("system dimension must be >= 2")
        if self.dE < 1 or self.t < 1 or self.k < 1:
            raise ValueError("dE, t and k must be positive")
        if self.kind != CHAAR:
            object.__setattr__(self, "dE", 1)

    def label(self) -> str:
        if self.kind == CHAAR:
            return f"chaar(d={self.d},dE={self.dE})"
        return f"{self.kind}(d={self.d})"


def haar(d: int, t: int, k: int = 1) -> EnsembleSpec:
    return EnsembleSpec(HAAR, d=d, t=t, k=k)


def chaar(d: int, dE: int, t: int, k: int = 1) -> EnsembleSpec:
    return EnsembleSpec(CHAAR, d=d, t=t, dE=dE, k=k)


def depolarize(d: int, t: int, k: int = 1) -> EnsembleSpec:
    return EnsembleSpec(DEPOLARIZE, d=d, t=t, k=k)


def check_grid(name: str, grid, low=None) -> None:
    """Raise ValueError at the first value of the list ``grid`` that is
    below ``low`` (when given) or repeats an earlier one."""
    for i, v in enumerate(grid):
        if low is not None and v < low:
            raise ValueError(f"invalid grid: need {name} >= {low}, got {name} = {v}")
        if v in grid[:i]:
            raise ValueError(f"invalid grid: duplicate {name} = {v}")


@dataclass(frozen=True)
class TransferMatrix:
    """t! x t! coefficient matrix of an ensemble's moment operator in a basis,
    stored as its class rows.

    The matrix is fixed by simultaneous conjugation of S_t, so its rows at
    the class representatives ``symmgroup.product_table(t).reps`` fix it.
    ``rows`` holds them, a (p(t), t!) numpy array: an object array of
    Fractions or ints on the exact path, or float64.  Exactness is read from
    it (``exact``), so it cannot disagree with the numbers.  ``matrix``
    gathers the full matrix from ``rows`` on each access
    (``symmgroup.from_class_rows``); its rows and columns are indexed by the
    canonical order of ``symmgroup.symmetric_group(t)``.  A full matrix
    enters only through ``from_matrix``, which checks its invariance.
    ``basis`` is PERMUTATION or LOCALIZED; t, d and the concatenation count
    k are those of ``ensemble``.
    """

    rows: np.ndarray
    basis: str
    ensemble: EnsembleSpec

    def __post_init__(self):
        if self.basis not in (PERMUTATION, LOCALIZED):
            raise ValueError(f"unknown basis {self.basis!r}")
        tab = sg.product_table(self.t)
        if self.rows.shape != (len(tab.reps), len(tab.cls)):
            raise ValueError(f"class rows of shape {self.rows.shape}, "
                             f"need {(len(tab.reps), len(tab.cls))} at t = {self.t}")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, basis: str, ensemble: EnsembleSpec):
        """The transfer matrix of a full t! x t! ``matrix``; raises ValueError
        unless it is fixed by simultaneous conjugation
        (``symmgroup.check_conjugation_invariant``)."""
        return cls(sg.check_conjugation_invariant(ensemble.t, matrix), basis, ensemble)

    @property
    def matrix(self) -> np.ndarray:
        """The full t! x t! matrix, gathered from ``rows``."""
        return sg.from_class_rows(self.t, self.rows)

    @property
    def exact(self) -> bool:
        """True when ``rows`` holds exact numbers (``exactalg.is_exact``)."""
        return is_exact(self.rows)

    @property
    def t(self) -> int:
        return self.ensemble.t

    @property
    def d(self) -> int:
        return self.ensemble.d

    @property
    def k(self) -> int:
        return self.ensemble.k


HEA = "hea"
MAT = "mat"

ZERO_STATE = "zero"
PLUS_STATE = "plus"

NOISE_ON_GATE_SUPPORT = "gate"
NOISE_ON_REGISTER = "register"


@dataclass(frozen=True)
class CircuitSpec:
    """Layered parametrized circuit with per-gate single-qubit noise.

    Angles are uniform on [0, 2pi); noise of strength ``gamma`` follows each
    gate on the gate's support qubits (or the whole register when
    ``noise_placement`` is "register").  ``initial_state`` defaults to the
    computational zero state for HEA and the plus state for MAT.
    """

    n: int
    ansatz: str = HEA
    layers: int = 10
    noise: Optional[str] = None  # channels.BIT_FLIP etc.; None = noiseless
    gamma: float = 0.0
    initial_state: Optional[str] = None
    noise_placement: str = NOISE_ON_GATE_SUPPORT

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1 qubits, got {self.n}")
        if self.layers < 0:
            raise ValueError(f"need layers >= 0, got {self.layers}")
        if self.ansatz not in (HEA, MAT):
            raise ValueError(f"unknown ansatz {self.ansatz!r}")
        if self.noise is not None and self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.noise_placement not in (NOISE_ON_GATE_SUPPORT, NOISE_ON_REGISTER):
            raise ValueError(f"unknown noise placement {self.noise_placement!r}")
        if self.initial_state not in (None, ZERO_STATE, PLUS_STATE):
            raise ValueError(f"unknown initial state {self.initial_state!r}")

    @property
    def state(self) -> str:
        if self.initial_state is not None:
            return self.initial_state
        return ZERO_STATE if self.ansatz == HEA else PLUS_STATE

    @property
    def d(self) -> int:
        return 2**self.n
