"""Pairwise Jastrow wavefunction: ln psi = sum_{i<j} w_ij cos(theta_i - theta_j),
evaluated as a quadratic form in (cos theta, sin theta) with the dense
symmetric coupling matrix W."""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .base import VariationalState, cos_sin


class Jastrow(VariationalState):
    """One complex parameter per unordered site pair, lexicographic (i<j) order.

    The kernels read W, the symmetric (N, N) matrix with W_ij = W_ji = w_ij
    and a zero diagonal.  With c = cos theta, s = sin theta and m = (W c, W s),
    one (2, B, N) x (N, N) matmul gives

        ln psi = (c.Wc + s.Ws) / 2,   d1 = c Ws - s Wc,   d2 = -(c Wc + s Ws),

    O(N^2) per configuration.  The HMC gradient 2 Re d1 takes the same form
    with 2 Re W in real arithmetic.  Only O, the (B, P) pair cosines
    cos(theta_i - theta_j) = c_i c_j + s_i s_j, reads the pairs."""

    kind = "jastrow"

    def __init__(self, lattice: Lattice, alpha=None):
        self.pair_i, self.pair_j = np.triu_indices(lattice.n_sites, 1)
        super().__init__(lattice, alpha, [("w", (self.pair_i.size,))])

    def _set_alpha(self, alpha):
        super()._set_alpha(alpha)
        n = self.n_sites
        self._w = np.zeros((n, n), dtype=np.complex128)
        self._w[self.pair_i, self.pair_j] = alpha
        self._w[self.pair_j, self.pair_i] = alpha
        self._w2r = 2.0 * self._w.real

    def _pair_cosines(self, cs):
        # cos(theta_i - theta_j) = c_i c_j + s_i s_j, with no cosine of a
        # (B, P) array; in place, so that at most three (B, P) arrays are
        # alive, which sets the peak memory of a quench's QGT pass
        c, s = cs
        o = c[:, self.pair_i]
        o *= c[:, self.pair_j]
        ss = s[:, self.pair_i]
        ss *= s[:, self.pair_j]
        o += ss
        return o

    def _log_psi(self, theta):
        cs = cos_sin(theta)
        c, s = cs
        m = cs @ self._w
        return 0.5 * (np.sum(c * m[0], -1) + np.sum(s * m[1], -1))

    def _log_derivatives(self, theta):
        return self._pair_cosines(cos_sin(theta)).astype(np.complex128)

    def _angle_grad(self, theta):
        # 2 Re d1 = c (2 Re W) s - s (2 Re W) c, in real arithmetic
        cs = cos_sin(theta)
        c, s = cs
        m = cs @ self._w2r
        grad = c * m[1]
        grad -= s * m[0]
        return grad

    def _kernels(self, angles, out):
        """ln psi, d1 and d2 from one matmul with W, and O from the pair
        cosines."""
        cs = angles.cos_sin
        c, s = cs
        m = cs @ self._w
        cwc, sws = c * m[0], s * m[1]
        logpsi = 0.5 * (np.sum(cwc, -1) + np.sum(sws, -1))
        d1 = c * m[1] - s * m[0]
        d2 = -(cwc + sws)
        o = self._pair_cosines(cs)
        if out is None:
            return logpsi, d1, d2, o.astype(np.complex128)
        out[...] = o
        return logpsi, d1, d2, out
