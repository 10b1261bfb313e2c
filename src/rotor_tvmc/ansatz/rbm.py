"""Circular restricted Boltzmann machine with a polynomial ln I0 closed form.

    ln psi = sum_j a_j . n_j + sum_k lnI0(|x_k|),   x_k = b_k + sum_j w_jk n_j

with n_j = (cos theta_j, sin theta_j) and a_j, b_k complex 2-vectors.  The
modulus never appears explicitly: lnI0 is the degree-6 even polynomial, so it
is evaluated at s_k = x_k . x_k and stays holomorphic in every parameter.

Parameter layout (flat, in order): ``a`` with shape (N, 2) row-major, ``b``
with shape (N_h, 2), then the visible-hidden coupling.  The dense variant
stores ``w`` as (N, N_h); the convolutional variant (periodic lattices only)
stores one kernel entry per lattice displacement, so w_jk = kernel[disp(j,k)]
and N_h = N.
"""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .activations import (
    d2_poly_log_I0_of_square,
    d_poly_log_I0_of_square,
    poly_log_I0_of_square,
)
from .base import AnsatzError, VariationalState, _as_batch, check_couplings, check_log_psi


def _displacement_table(lattice: Lattice) -> np.ndarray:
    """disp[j, k] = flat index of the lattice vector from site j to site k."""
    n = lattice.n_sites
    table = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        cj = lattice.site_coords(j)
        for k in range(n):
            ck = lattice.site_coords(k)
            rel = tuple((ck[a] - cj[a]) % lattice.dims[a] for a in range(lattice.ndim))
            table[j, k] = lattice.site_index(rel)
    return table


class CircularRBM(VariationalState):
    kind = "rbm"

    def __init__(self, lattice: Lattice, n_hidden: int | None = None,
                 alpha=None, convolutional: bool = False):
        n = lattice.n_sites
        self.convolutional = bool(convolutional)
        if self.convolutional:
            if not all(lattice.periodic):
                raise AnsatzError("convolutional RBM requires a fully periodic lattice")
            if n_hidden is not None and n_hidden != n:
                raise AnsatzError("convolutional RBM fixes n_hidden = n_sites")
            n_hidden = n
            self._disp = _displacement_table(lattice)
            # row d: the flat indices j * N + k of the pairs at displacement d
            self._by_disp = np.argsort(self._disp, axis=None, kind="stable").reshape(n, n)
            layout = [("a", (n, 2)), ("b", (n_hidden, 2)), ("kernel", (n,))]
        else:
            n_hidden = n if n_hidden is None else int(n_hidden)
            if n_hidden < 1:
                raise AnsatzError("n_hidden must be >= 1")
            layout = [("a", (n, 2)), ("b", (n_hidden, 2)), ("w", (n, n_hidden))]
        self.n_hidden = n_hidden
        if alpha is None:
            alpha = np.zeros(sum(int(np.prod(s)) for _, s in layout), dtype=np.complex128)
        super().__init__(lattice, alpha, layout)

    def _weights(self, blocks):
        if self.convolutional:
            return blocks["kernel"][self._disp]
        return blocks["w"]

    def _forward(self, theta):
        """a, w, cos and sin (B, N), the hidden inputs x_x, x_y (B, N_h) and s = x . x."""
        blocks = self.blocks()
        a, b = blocks["a"], blocks["b"]
        w = self._weights(blocks)
        cos, sin = np.cos(theta), np.sin(theta)
        x_x = b[:, 0] + cos @ w  # (B, N_h)
        x_y = b[:, 1] + sin @ w
        return a, w, cos, sin, x_x, x_y, np.square(x_x) + np.square(x_y)

    @staticmethod
    def _log_psi_of(a, cos, sin, s):
        return cos @ a[:, 0] + sin @ a[:, 1] + np.sum(poly_log_I0_of_square(s), axis=-1)

    def _log_psi(self, theta):
        a, _, cos, sin, _, _, s = self._forward(theta)
        return self._log_psi_of(a, cos, sin, s)

    def _log_derivatives(self, theta):
        _, _, cos, sin, x_x, x_y, s = self._forward(theta)
        return self._log_derivatives_of(cos, sin, x_x, x_y, d_poly_log_I0_of_square(s))

    def _log_derivatives_of(self, cos, sin, x_x, x_y, gp):
        """O from the forward pass and gp = g'(s)."""
        batch, n, n_hidden = cos.shape[0], self.n_sites, self.n_hidden
        gp2 = 2.0 * gp  # (B, N_h)
        out = np.empty((batch, self.n_params), dtype=np.complex128)
        o_a = out[:, : 2 * n].reshape(batch, n, 2)
        o_a[..., 0] = cos
        o_a[..., 1] = sin
        o_b = out[:, 2 * n : 2 * (n + n_hidden)].reshape(batch, n_hidden, 2)
        np.multiply(gp2, x_x, out=o_b[..., 0])
        np.multiply(gp2, x_y, out=o_b[..., 1])
        # O_w[j, k] = n_j . o_b[k]; a kernel entry sums O_w over its displacement
        coupling = out[:, 2 * (n + n_hidden) :]
        if self.convolutional:
            o_w = (o_a @ o_b.transpose(0, 2, 1)).reshape(batch, -1)
            np.sum(o_w[:, self._by_disp], axis=-1, out=coupling)
        else:
            np.matmul(o_a, o_b.transpose(0, 2, 1), out=coupling.reshape(batch, n, n_hidden))
        return out

    def _angle_grad(self, theta):
        a, w, cos, sin, x_x, x_y, s = self._forward(theta)
        gp = 2.0 * d_poly_log_I0_of_square(s)
        # d1_j = a_j . t_j + sum_k gp_k w_jk (x_k . t_j), t_j = (-sin, cos)
        wt = w.T
        return -sin * (a[:, 0] + (gp * x_x) @ wt) + cos * (a[:, 1] + (gp * x_y) @ wt)

    def _angle_derivatives(self, theta):
        a, w, cos, sin, x_x, x_y, s = self._forward(theta)
        return self._angle_derivatives_of(a, w, cos, sin, x_x, x_y, s,
                                          d_poly_log_I0_of_square(s))

    def _angle_derivatives_of(self, a, w, cos, sin, x_x, x_y, s, gp):
        """ln psi, d1 and d2 from the forward pass and gp = g'(s)."""
        logpsi = self._log_psi_of(a, cos, sin, s)
        gpp = d2_poly_log_I0_of_square(s)
        wt, w2t = w.T, np.square(w).T
        # with t_j = (-sin, cos): ds_k/dtheta_j = 2 w_jk (x_k . t_j)
        uw_x = (gp * x_x) @ wt
        uw_y = (gp * x_y) @ wt
        d1 = -sin * (a[:, 0] + 2.0 * uw_x) + cos * (a[:, 1] + 2.0 * uw_y)
        # sum_k gpp_k (ds_k/dtheta_j)^2 + gp_k d2s_k/dtheta_j^2, expanded in sin and cos
        d2 = (
            -(cos * a[:, 0] + sin * a[:, 1])
            + 4.0 * (
                np.square(sin) * ((gpp * np.square(x_x)) @ w2t)
                - 2.0 * sin * cos * ((gpp * x_x * x_y) @ w2t)
                + np.square(cos) * ((gpp * np.square(x_y)) @ w2t)
            )
            + 2.0 * (gp @ w2t - cos * uw_x - sin * uw_y)
        )
        return logpsi, d1, d2

    def local_kernels(self, theta, g: float, J: float):
        """(ln psi, O, E_L) from one ``_forward`` and one g'(s), bit for bit
        the values of the three separate calls."""
        theta, single = _as_batch(theta, self.n_sites)
        a, w, cos, sin, x_x, x_y, s = self._forward(theta)
        gp = d_poly_log_I0_of_square(s)
        logpsi, d1, d2 = self._angle_derivatives_of(a, w, cos, sin, x_x, x_y, s, gp)
        check_log_psi(theta, logpsi)
        check_couplings(g, J)
        o = self._log_derivatives_of(cos, sin, x_x, x_y, gp)
        e = self._local_energy_of(theta, d1, d2, g, J)
        if single:
            return logpsi[0], o[0], e[0]
        return logpsi, o, e
