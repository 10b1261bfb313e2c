"""Pairwise Jastrow wavefunction: ln psi = sum_{i<j} w_ij cos(theta_i - theta_j)."""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .base import VariationalState


class Jastrow(VariationalState):
    """One complex parameter per unordered site pair, lexicographic (i<j) order.

    One expression, ``_d1``, gives d1 to E_L and 2 Re d1 to the HMC gradient:
    one batched matmul of w sin d, or of 2 Re(w) sin d, with the stacked
    (-inc_i, inc_j) incidence.  ``_kernels`` gathers a chunk's pair
    differences once and takes their cosine once, for ln psi, d2 and O."""

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
        # derivatives, stacked as (-inc_i, inc_j) for one batched matmul.  It
        # is real: a complex ws times it is ws times its exact complex cast.
        # The i-end holds -1, since w (-1) is (-w) 1
        inc_i = np.zeros((n_pairs, n))
        inc_j = np.zeros((n_pairs, n))
        inc_i[np.arange(n_pairs), self.pair_i] = 1.0
        inc_j[np.arange(n_pairs), self.pair_j] = 1.0
        self._inc, self._inc_sum = np.stack([-inc_i, inc_j]), inc_i + inc_j

    def _set_alpha(self, alpha):
        super()._set_alpha(alpha)
        # 2 Re w (an exact doubling) as a (P, 1) column, which scales the
        # columns of a (P, B) batch
        self._w2_real = 2.0 * alpha.real[:, None]

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
        # d1 from ws = w sin d (B, P), or 2 Re d1 from ws = 2 Re(w) sin d: one
        # batched matmul with the stacked incidence, a BLAS call per end
        ends = ws @ self._inc
        return ends[0] + ends[1]

    def _angle_grad(self, theta):
        # 2 Re d1 in real arithmetic: 2 Re(w sin d) = 2 Re(w) sin d, in place
        # on the contiguous (P, B) transpose of the differences
        ws = self._pair_diffs(theta)
        cols = ws.T
        np.sin(cols, out=cols)
        cols *= self._w2_real
        return self._d1(ws)

    def _kernels(self, angles, out):
        """ln psi, d1, d2 and O from one gather of the pair differences and
        one cosine of them, which O is."""
        w = self.alpha
        d = self._pair_diffs(angles.theta)
        cos_d = np.cos(d)
        logpsi = cos_d @ w
        d1 = self._d1(w * np.sin(d))
        d2 = -(w * cos_d) @ self._inc_sum
        if out is None:
            return logpsi, d1, d2, cos_d.astype(np.complex128)
        out[...] = cos_d
        return logpsi, d1, d2, out
