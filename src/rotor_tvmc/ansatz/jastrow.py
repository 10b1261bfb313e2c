"""Pairwise Jastrow wavefunction: ln psi = sum_{i<j} w_ij cos(theta_i - theta_j)."""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .base import VariationalState


class Jastrow(VariationalState):
    """One complex parameter per unordered site pair, lexicographic (i<j) order.
    One expression, ``_d1``, gives d1 to both the HMC gradient and E_L."""

    kind = "jastrow"

    def __init__(self, lattice: Lattice, alpha=None):
        n = lattice.n_sites
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pair_i = np.array([p[0] for p in pairs], dtype=np.int64)
        self.pair_j = np.array([p[1] for p in pairs], dtype=np.int64)
        self._pair_ij = np.concatenate([self.pair_i, self.pair_j])
        n_pairs = len(pairs)
        super().__init__(lattice, alpha, [("w", (n_pairs,))])
        # one-hot pair-to-site incidence that accumulates the angle
        # derivatives.  It is real: a complex ws times it is ws times its
        # exact complex cast.  The i-end holds -1, since w (-1) is (-w) 1
        inc_i = np.zeros((n_pairs, n))
        inc_j = np.zeros((n_pairs, n))
        inc_i[np.arange(n_pairs), self.pair_i] = 1.0
        inc_j[np.arange(n_pairs), self.pair_j] = 1.0
        self._minus_inc_i, self._inc_j, self._inc_sum = -inc_i, inc_j, inc_i + inc_j

    def _set_alpha(self, alpha):
        super()._set_alpha(alpha)
        # Re w repeated over the columns of a (P, B) batch; ``_angle_grad``
        # builds it for the batch size it is called with, which HMC keeps
        self._w_real_cols = np.empty((alpha.size, 0))

    def _pair_diffs(self, theta):
        # (B, P) differences from one gather of rows of theta.T: the values
        # and the Fortran layout of theta[:, pair_i] - theta[:, pair_j];
        # BLAS rounds the matmuls by operand layout
        n_pairs = self.pair_i.size
        rows = theta.T.take(self._pair_ij, axis=0)
        return (rows[:n_pairs] - rows[n_pairs:]).T

    def _log_psi(self, theta):
        return np.cos(self._pair_diffs(theta)) @ self.alpha

    def _log_derivatives(self, theta):
        return np.cos(self._pair_diffs(theta)).astype(np.complex128)

    def _d1(self, ws):
        # d1 from ws = w sin d (B, P), or Re d1 from real ws
        return ws @ self._minus_inc_i + ws @ self._inc_j

    def _angle_grad(self, theta):
        # Re d1 alone, in real arithmetic: Re(w sin d) = Re(w) sin d, in
        # place on the contiguous (P, B) transpose of the differences
        ws = self._pair_diffs(theta)
        cols = ws.T
        if self._w_real_cols.shape[1] != cols.shape[1]:
            self._w_real_cols = np.repeat(self.alpha.real[:, None], cols.shape[1], axis=1)
        np.sin(cols, out=cols)
        cols *= self._w_real_cols
        return self._d1(ws)

    def _angle_derivatives(self, theta):
        d = self._pair_diffs(theta)
        cos_d = np.cos(d)
        w = self.alpha
        logpsi = cos_d @ w
        d1 = self._d1(w * np.sin(d))
        d2 = -(w * cos_d) @ self._inc_sum
        return logpsi, d1, d2
