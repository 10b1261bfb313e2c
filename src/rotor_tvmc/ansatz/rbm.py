"""Circular restricted Boltzmann machine with a polynomial ln I0 closed form.

    ln psi = sum_j a_j . n_j + sum_k lnI0(|x_k|),   x_k = b_k + sum_j w_jk n_j

with n_j = (cos theta_j, sin theta_j) and a_j, b_k complex 2-vectors.  The
modulus never appears explicitly: lnI0 is the degree-6 even polynomial, so it
is evaluated at s_k = x_k . x_k and stays holomorphic in every parameter.
The forward pass stacks cos and sin into one (2, B, N) array and the hidden
inputs into one (2, B, N_h) array, each x = [cos; sin] w + b a batched matmul
(one BLAS call per slice).  Every kernel reads g'(s) as gp2 = 2 g'(s), and
the first angle derivative comes from one path, the hidden sums
u = (gp2 x) w^T of ``_hidden_sums``: E_L takes d1 from them (``_d1``), and
the HMC gradient takes 2 Re d1 in real arithmetic, bit for bit twice the real
part of that d1.

Parameter layout (flat, in order): ``a`` with shape (N, 2) row-major, ``b``
with shape (N_h, 2), then the visible-hidden coupling.  The dense variant
stores ``w`` as (N, N_h); the convolutional variant (periodic lattices only)
stores one kernel entry per lattice displacement, so w_jk = kernel[disp(j,k)]
and N_h = N; disp(j, k) is the flat index of the lattice vector d for which
``Lattice.shift`` by d sends site j to site k.
"""

from __future__ import annotations

import numpy as np

from ..lattice import Lattice
from .activations import (
    d2_poly_log_I0_of_square,
    poly_log_I0_of_square,
    twice_d_poly_log_I0_of_square,
)
from .base import Angles, AnsatzError, VariationalState, cos_sin


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
            # row j of shift is the permutation d -> k = j + d; disp[j, k] = d inverts it
            self._disp = np.argsort(lattice.shift(lattice.coords)[0], axis=1)
            # row d: the flat indices j * N + k of the pairs at displacement d
            self._by_disp = np.argsort(self._disp, axis=None, kind="stable").reshape(n, n)
            layout = [("a", (n, 2)), ("b", (n_hidden, 2)), ("kernel", (n,))]
        else:
            n_hidden = n if n_hidden is None else int(n_hidden)
            if n_hidden < 1:
                raise AnsatzError("n_hidden must be >= 1")
            layout = [("a", (n, 2)), ("b", (n_hidden, 2)), ("w", (n, n_hidden))]
        self.n_hidden = n_hidden
        super().__init__(lattice, alpha, layout)

    def _weights(self, blocks):
        """The (N, N_h) coupling matrix w_jk built from the layout blocks."""
        if self.convolutional:
            return blocks["kernel"][self._disp]
        return blocks["w"]

    def _set_alpha(self, alpha):
        """Set alpha and build what the kernels read of it: a, b, w, w^T,
        (w^2)^T, and b and Re a laid out as (2, 1, .) to broadcast against
        the stacked (2, B, .) arrays."""
        super()._set_alpha(alpha)
        blocks = self.blocks()
        self._a, self._b = blocks["a"], blocks["b"]
        self._w = self._weights(blocks)
        self._wt, self._w2t = self._w.T, np.square(self._w).T
        self._b_stack = np.ascontiguousarray(self._b.T)[:, None]
        self._a_re = np.ascontiguousarray(self._a.real.T)[:, None]

    def _forward(self, theta):
        """n = [cos; sin] (2, B, N), the hidden inputs x = [x_x; x_y] (2, B, N_h)
        and s = x . x (B, N_h); x is one batched matmul, a BLAS call per slice.

        ``theta`` is a (B, N) array, or an ``Angles`` batch whose cos and sin
        are read."""
        n = theta.cos_sin if isinstance(theta, Angles) else cos_sin(theta)
        x = n @ self._w
        x += self._b_stack
        return n, x, np.square(x[0]) + np.square(x[1])

    def _log_psi_of(self, n, s):
        a = self._a
        return n[0] @ a[:, 0] + n[1] @ a[:, 1] + np.sum(poly_log_I0_of_square(s), axis=-1)

    def _log_psi(self, theta):
        n, _, s = self._forward(theta)
        return self._log_psi_of(n, s)

    def _log_derivatives(self, theta):
        n, x, s = self._forward(theta)
        return self._log_derivatives_of(n, x, twice_d_poly_log_I0_of_square(s))

    def _log_derivatives_of(self, n, x, gp2, out=None):
        """O from the forward pass and gp2 = 2 g'(s), written into ``out``, a
        complex (B, P) array, when it is given."""
        batch, n_sites, n_hidden = n.shape[1], self.n_sites, self.n_hidden
        if out is None:
            out = np.empty((batch, self.n_params), dtype=np.complex128)
        o_a = out[:, : 2 * n_sites].reshape(batch, n_sites, 2)
        o_a[..., 0] = n[0]
        o_a[..., 1] = n[1]
        o_b = out[:, 2 * n_sites : 2 * (n_sites + n_hidden)].reshape(batch, n_hidden, 2)
        np.multiply(gp2, x[0], out=o_b[..., 0])
        np.multiply(gp2, x[1], out=o_b[..., 1])
        # O_w[j, k] = n_j . o_b[k]; a kernel entry sums O_w over its displacement
        coupling = out[:, 2 * (n_sites + n_hidden) :]
        if self.convolutional:
            o_w = (o_a @ o_b.transpose(0, 2, 1)).reshape(batch, -1)
            np.sum(o_w[:, self._by_disp], axis=-1, out=coupling)
        else:
            np.matmul(o_a, o_b.transpose(0, 2, 1), out=coupling.reshape(batch, n_sites, n_hidden))
        return out

    def _hidden_sums(self, x, gp2):
        """u = (gp2 x) w^T (2, B, N), so that d1_j = a_j . t_j + u_j . t_j with
        t_j = (-sin, cos); one batched matmul, a BLAS call per slice."""
        return (gp2 * x) @ self._wt

    def _d1(self, n, u):
        """d1 from the forward pass's n and the hidden sums u."""
        a = self._a
        return -n[1] * (a[:, 0] + u[0]) + n[0] * (a[:, 1] + u[1])

    def _angle_grad(self, theta):
        # 2 Re d1 in real arithmetic: the real part of a real times a complex
        # is the product of the real parts, and doubling is exact
        n, x, s = self._forward(theta)
        re = self._hidden_sums(x, twice_d_poly_log_I0_of_square(s)).real + self._a_re
        grad = n[0] * re[1]
        grad -= n[1] * re[0]
        grad *= 2.0
        return grad

    def _kernels(self, angles, out):
        """ln psi, d1, d2 and O from one ``_forward`` and one g'(s)."""
        n, x, s = self._forward(angles)
        gp2 = twice_d_poly_log_I0_of_square(s)
        gpp = d2_poly_log_I0_of_square(s)
        a, w2t = self._a, self._w2t
        (cos, sin), (x_x, x_y) = n, x
        u = self._hidden_sums(x, gp2)
        # named squares: NumPy never reuses them in place with the operands
        # swapped, which would round differently in large batches
        xx2, xy2 = np.square(x_x), np.square(x_y)
        # sum_k gpp_k (ds_k/dtheta_j)^2 + gp_k d2s_k/dtheta_j^2, expanded in sin and cos
        d2 = (
            -(cos * a[:, 0] + sin * a[:, 1])
            + 4.0 * (
                np.square(sin) * ((gpp * xx2) @ w2t)
                - 2.0 * sin * cos * ((gpp * x_x * x_y) @ w2t)
                + np.square(cos) * ((gpp * xy2) @ w2t)
            )
            + (gp2 @ w2t - cos * u[0] - sin * u[1])
        )
        d1 = self._d1(n, u)
        del gpp, u, xx2, xy2  # d2's temporaries end before O is written
        return self._log_psi_of(n, s), d1, d2, self._log_derivatives_of(n, x, gp2, out)
