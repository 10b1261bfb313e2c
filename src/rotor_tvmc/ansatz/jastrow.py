"""Pairwise Jastrow wavefunction: ln psi = sum_{i<j} w_ij cos(theta_i - theta_j)."""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .base import VariationalState


class Jastrow(VariationalState):
    """One complex parameter per unordered site pair, lexicographic (i<j) order."""

    kind = "jastrow"

    def __init__(self, lattice: Lattice, alpha=None):
        n = lattice.n_sites
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pair_i = np.array([p[0] for p in pairs], dtype=np.int64)
        self.pair_j = np.array([p[1] for p in pairs], dtype=np.int64)
        n_pairs = len(pairs)
        super().__init__(lattice, alpha, [("w", (n_pairs,))])
        # one-hot pair-to-site incidence used to accumulate angle derivatives:
        # real for the HMC gradient, which needs only Re d1, and complex so the
        # local energy's matmuls with complex weights need no cast
        self._inc_i_real = np.zeros((n_pairs, n))
        self._inc_j_real = np.zeros((n_pairs, n))
        self._inc_i_real[np.arange(n_pairs), self.pair_i] = 1.0
        self._inc_j_real[np.arange(n_pairs), self.pair_j] = 1.0
        self._inc_i = self._inc_i_real.astype(np.complex128)
        self._inc_j = self._inc_j_real.astype(np.complex128)
        self._inc_sum = self._inc_i + self._inc_j

    def _pair_diffs(self, theta):
        return theta[:, self.pair_i] - theta[:, self.pair_j]

    def _log_psi(self, theta):
        return np.cos(self._pair_diffs(theta)) @ self.alpha

    def _log_derivatives(self, theta):
        return np.cos(self._pair_diffs(theta)).astype(np.complex128)

    def _d1(self, ws):
        return -ws @ self._inc_i + ws @ self._inc_j

    def _angle_grad(self, theta):
        # Re d1 alone, in real arithmetic: Re(w sin d) = Re(w) sin d
        ws = self.alpha.real * np.sin(self._pair_diffs(theta))
        return -ws @ self._inc_i_real + ws @ self._inc_j_real

    def _angle_derivatives(self, theta):
        d = self._pair_diffs(theta)
        cos_d = np.cos(d)
        w = self.alpha
        logpsi = cos_d @ w
        d1 = self._d1(w * np.sin(d))
        d2 = -(w * cos_d) @ self._inc_sum
        return logpsi, d1, d2
