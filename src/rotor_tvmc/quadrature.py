"""Dense-grid torus quadrature: the noiseless counterpart of HMC sampling.

The grid and its chunked ln psi evaluation are the exact oracle's
(``exact.grid_points``, ``exact.log_psi_on_points``); here they give a
variational state's Born weights and its QGT.  The runner's quadrature
engine gets the same weights, through ``weights_from_log_psi``, from the ln
psi of its single pass over the grid (``estimate_qgt`` with weights given
as a function of ln psi); ``born_weights`` and ``quadrature_qgt`` evaluate
the grid separately, as references for tests and for small-system checks.
"""

from __future__ import annotations

import numpy as np

from .ansatz.base import VariationalState
from .exact import grid_points, log_psi_on_points
from .tdvp import QgtEstimate, estimate_qgt


def weights_from_log_psi(log_psi: np.ndarray) -> np.ndarray:
    """Normalized |psi|^2 weights from ln psi at the points."""
    logp = 2.0 * np.real(log_psi)  # log_prob, bit for bit
    logp -= np.max(logp)
    w = np.exp(logp)
    return w / np.sum(w)


def born_weights(state: VariationalState, points: np.ndarray) -> np.ndarray:
    """Normalized |psi|^2 weights on the given points."""
    return weights_from_log_psi(log_psi_on_points(state, points))


def quadrature_qgt(state: VariationalState, g: float, J: float, q: int = 16) -> QgtEstimate:
    points = grid_points(state.n_sites, q)
    return estimate_qgt(state, points, g, J, weights=born_weights(state, points))
