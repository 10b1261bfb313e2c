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
from .base import AnsatzError, VariationalState


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
        blocks = self.blocks()
        a, b = blocks["a"], blocks["b"]
        w = self._weights(blocks)
        nhat = np.stack([np.cos(theta), np.sin(theta)], axis=-1)  # (B, N, 2)
        x = b[None] + np.einsum("jk,bjc->bkc", w, nhat)  # (B, N_h, 2)
        s = np.einsum("bkc,bkc->bk", x, x)
        visible = np.einsum("jc,bjc->b", a, nhat)
        return blocks, w, nhat, x, s, visible

    def _log_psi(self, theta):
        _, _, _, _, s, visible = self._forward(theta)
        return visible + np.sum(poly_log_I0_of_square(s), axis=-1)

    def _log_derivatives(self, theta):
        blocks, w, nhat, x, s, _ = self._forward(theta)
        batch = theta.shape[0]
        gp = d_poly_log_I0_of_square(s)  # (B, N_h)
        o_a = nhat.astype(np.complex128).reshape(batch, -1)
        o_b = (2.0 * gp[..., None] * x).reshape(batch, -1)
        # dot of x_k with n_j, weighted by d lnI0 / ds
        xdotn = np.einsum("bkc,bjc->bjk", x, nhat)
        o_w_dense = 2.0 * gp[:, None, :] * xdotn  # (B, N, N_h)
        if self.convolutional:
            n = self.n_sites
            o_kernel = np.zeros((batch, n), dtype=np.complex128)
            flat_disp = self._disp.ravel()
            np.add.at(o_kernel, (slice(None), flat_disp), o_w_dense.reshape(batch, -1))
            coupling = o_kernel
        else:
            coupling = o_w_dense.reshape(batch, -1)
        return np.concatenate([o_a, o_b, coupling], axis=-1)

    def _angle_grad(self, theta):
        blocks = self.blocks()
        a, b = blocks["a"], blocks["b"]
        w = self._weights(blocks)
        cos, sin = np.cos(theta), np.sin(theta)
        x_x = b[:, 0] + cos @ w  # (B, N_h)
        x_y = b[:, 1] + sin @ w
        gp = 2.0 * d_poly_log_I0_of_square(np.square(x_x) + np.square(x_y))
        # d1_j = a_j . t_j + sum_k gp_k w_jk (x_k . t_j), t_j = (-sin, cos)
        wt = w.T
        return -sin * (a[:, 0] + (gp * x_x) @ wt) + cos * (a[:, 1] + (gp * x_y) @ wt)

    def _angle_derivatives(self, theta):
        blocks, w, nhat, x, s, visible = self._forward(theta)
        a = blocks["a"]
        logpsi = visible + np.sum(poly_log_I0_of_square(s), axis=-1)
        gp = d_poly_log_I0_of_square(s)
        gpp = d2_poly_log_I0_of_square(s)
        tang = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)  # d nhat / d theta
        a_dot_t = np.einsum("jc,bjc->bj", a, tang)
        a_dot_n = np.einsum("jc,bjc->bj", a, nhat)
        xdott = np.einsum("bkc,bjc->bjk", x, tang)
        xdotn = np.einsum("bkc,bjc->bjk", x, nhat)
        # ds_k/dtheta_j = 2 w_jk (x_k . t_j)
        ds = 2.0 * w[None] * xdott
        d1 = a_dot_t + np.einsum("bk,bjk->bj", gp, ds)
        w2 = np.square(w)[None]
        d2s = 2.0 * (w2 - w[None] * xdotn)  # d2 s_k / d theta_j^2
        d2 = (
            -a_dot_n
            + np.einsum("bk,bjk->bj", gpp, np.square(ds))
            + np.einsum("bk,bjk->bj", gp, d2s)
        )
        return logpsi, d1, d2
