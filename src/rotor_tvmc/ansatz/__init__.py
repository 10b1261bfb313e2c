"""Trial wavefunctions for lattices of planar rotors."""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .base import AnsatzError, LogPsiNonFinite, VariationalState, log_psi_periodicity_check
from .cnn import PeriodicCNN, zero_final_kernel
from .jastrow import Jastrow
from .rbm import CircularRBM

__all__ = [
    "AnsatzError",
    "CircularRBM",
    "Jastrow",
    "LogPsiNonFinite",
    "PeriodicCNN",
    "VariationalState",
    "log_psi_periodicity_check",
    "make_ansatz",
    "random_alpha",
    "zero_final_kernel",
]

_KINDS = {"jastrow": Jastrow, "rbm": CircularRBM, "cnn": PeriodicCNN}


def make_ansatz(kind: str, lattice: Lattice, **hyper) -> VariationalState:
    """Construct an ansatz by kind name ('jastrow', 'rbm' or 'cnn')."""
    try:
        cls = _KINDS[kind.lower()]
    except KeyError:
        raise AnsatzError(f"unknown ansatz kind {kind!r}") from None
    return cls(lattice, **hyper)


def random_alpha(state: VariationalState, rng: np.random.Generator,
                 scale: float = 0.01) -> np.ndarray:
    """Small complex Gaussian initialization keeping the state near uniform."""
    p = state.n_params
    return scale * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
