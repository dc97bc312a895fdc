"""Moment operators of quantum-channel ensembles.

Exact transfer-matrix calculus over the symmetric group, the localized
permutation basis, dense channel superoperators, and two-copy purity
experiments for noisy layered circuits.
"""

__version__ = "0.1.0"

from .specs import (  # noqa: F401
    CHAAR,
    DEPOLARIZE,
    HAAR,
    LOCALIZED,
    PERMUTATION,
    CircuitSpec,
    EnsembleSpec,
    TransferMatrix,
    chaar,
    depolarize,
    haar,
)
