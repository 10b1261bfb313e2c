"""Dense-grid torus quadrature: the noiseless counterpart of HMC sampling.

Used as an independent oracle in tests and as the deterministic expectation
engine for small systems (energy-drift checks, residual ordering runs).
"""

from __future__ import annotations

import numpy as np

from .ansatz.base import VariationalState
from .exact import grid_points
from .tdvp import QgtEstimate, estimate_qgt


def born_weights(state: VariationalState, points: np.ndarray,
                 chunk_size: int = 8192) -> np.ndarray:
    """Normalized |psi|^2 weights on the given points."""
    logp = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk_size):
        logp[lo : lo + chunk_size] = state.log_prob(points[lo : lo + chunk_size])
    logp -= np.max(logp)
    w = np.exp(logp)
    return w / np.sum(w)


def quadrature_qgt(state: VariationalState, g: float, J: float, q: int = 16) -> QgtEstimate:
    points = grid_points(state.n_sites, q)
    return estimate_qgt(state, points, g, J, weights=born_weights(state, points))
