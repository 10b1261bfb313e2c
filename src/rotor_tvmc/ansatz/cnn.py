"""Periodic convolutional ansatz with polynomial activations.

Input features are sines and cosines of multiples of the angles (2K channels),
followed by D-1 hidden convolution layers with the ln I0 polynomial activation
and a final single-channel convolution summed over sites:

    ln psi = (2 K N)^(-1/2) sum_{c,k} [w_final^c * h_{D-1}^c]_k .

Convolutions are centered cross-correlations over lattice sites using circular
padding along periodic directions and zero padding along open ones.  All
gradients (parameters and angles) are hand-derived passes through this fixed
graph; parameters are complex and every operation is holomorphic.

Parameter layout (flat, in order): for each hidden layer d = 1..D-1 the
kernel ``w{d}`` of shape (2K, 2K, n_offsets) then the bias ``b{d}`` of shape
(2K,); finally ``w_final`` of shape (2K, n_offsets).  Kernel offsets are
enumerated row-major over the centered window.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..lattice import Lattice
from .activations import (
    d2_poly_log_I0_of_square,
    d_poly_log_I0_of_square,
    poly_log_I0_of_square,
)
from .base import AnsatzError, VariationalState


class ConvTable:
    """Gather indices realizing a centered convolution window on the lattice."""

    def __init__(self, lattice: Lattice, kernel_shape):
        kernel_shape = tuple(int(s) for s in kernel_shape)
        if len(kernel_shape) != lattice.ndim:
            raise AnsatzError("kernel rank must match lattice dimensionality")
        if any(s < 1 or s % 2 == 0 for s in kernel_shape):
            raise AnsatzError("kernel extents must be odd and >= 1")
        self.kernel_shape = kernel_shape
        offsets = list(
            itertools.product(*[range(-(s // 2), s // 2 + 1) for s in kernel_shape])
        )
        self.n_offsets = len(offsets)
        n = lattice.n_sites
        idx = np.zeros((n, self.n_offsets), dtype=np.int64)
        mask = np.ones((n, self.n_offsets), dtype=np.float64)
        for site in range(n):
            coords = lattice.site_coords(site)
            for j, off in enumerate(offsets):
                target = []
                valid = True
                for axis in range(lattice.ndim):
                    c = coords[axis] + off[axis]
                    if lattice.periodic[axis]:
                        c %= lattice.dims[axis]
                    elif not 0 <= c < lattice.dims[axis]:
                        valid = False
                        c = 0
                    target.append(c)
                idx[site, j] = lattice.site_index(target)
                if not valid:
                    mask[site, j] = 0.0
        self.idx = idx
        self.mask = mask
        # permutation sending each offset to its negation (transposed conv)
        self.flip = np.array(
            [offsets.index(tuple(-o for o in off)) for off in offsets], dtype=np.int64
        )

    def gather(self, h):
        """(..., C, N) -> (..., C, N, J) window view with zero padding applied."""
        return h[..., self.idx] * self.mask

    def apply(self, w, h):
        """Convolution: w (Cout, Cin, J) applied to h (B, Cin, N) -> (B, Cout, N)."""
        return np.einsum("oij,bikj->bok", w, self.gather(h))

    def apply_jet(self, w, t):
        """Same convolution on tangent stacks t of shape (B, Cin, N, T)."""
        gathered = t[:, :, self.idx, :] * self.mask[None, None, :, :, None]
        return np.einsum("oij,bikjt->bokt", w, gathered)

    def transpose_apply(self, w, gout):
        """Cotangent of ``apply`` w.r.t. h: gout (B, Cout, N) -> (B, Cin, N)."""
        gathered = (gout[..., self.idx] * self.mask)[..., self.flip]
        return np.einsum("oij,bomj->bim", w, gathered)

    def weight_grad(self, gout, h):
        """Per-sample kernel cotangent: (B, Cout, N), (B, Cin, N) -> (B, Cout, Cin, J)."""
        return np.einsum("bok,bikj->boij", gout, self.gather(h))


class PeriodicCNN(VariationalState):
    kind = "cnn"

    def __init__(self, lattice: Lattice, alpha=None, depth: int = 2,
                 n_modes: int | None = None, kernel_shape=None):
        if depth < 2:
            raise AnsatzError("depth must be >= 2 (hidden layers plus output)")
        if n_modes is None:
            n_modes = 4 if lattice.n_sites >= 64 else 1
        if kernel_shape is None:
            kernel_shape = (3,) * lattice.ndim
        self.depth = int(depth)
        self.n_modes = int(n_modes)
        self.table = ConvTable(lattice, kernel_shape)
        channels = 2 * self.n_modes
        self.channels = channels
        layout = []
        for d in range(1, self.depth):
            layout.append((f"w{d}", (channels, channels, self.table.n_offsets)))
            layout.append((f"b{d}", (channels,)))
        layout.append(("w_final", (channels, self.table.n_offsets)))
        if alpha is None:
            alpha = np.zeros(sum(int(np.prod(s)) for _, s in layout), dtype=np.complex128)
        super().__init__(lattice, alpha, layout)
        self.prefactor = 1.0 / np.sqrt(channels * lattice.n_sites)

    # -- feature layer --

    def _features(self, theta):
        """(B, N) angles -> (B, 2K, N): (cos n theta, sin n theta), n = 1..K."""
        batch, n = theta.shape
        h0 = np.empty((batch, self.channels, n), dtype=np.complex128)
        for m in range(1, self.n_modes + 1):
            h0[:, 2 * m - 2] = np.cos(m * theta)
            h0[:, 2 * m - 1] = np.sin(m * theta)
        return h0

    def _feature_jets(self, theta):
        """First and second angle derivatives of the features, site-diagonal.

        Returned as dense tangent stacks of shape (B, 2K, N, N) whose last axis
        indexes the angle being differentiated.
        """
        batch, n = theta.shape
        t1 = np.zeros((batch, self.channels, n, n), dtype=np.complex128)
        t2 = np.zeros_like(t1)
        eye = np.arange(n)
        for m in range(1, self.n_modes + 1):
            cos_m, sin_m = np.cos(m * theta), np.sin(m * theta)
            t1[:, 2 * m - 2, eye, eye] = -m * sin_m
            t1[:, 2 * m - 1, eye, eye] = m * cos_m
            t2[:, 2 * m - 2, eye, eye] = -(m * m) * cos_m
            t2[:, 2 * m - 1, eye, eye] = -(m * m) * sin_m
        return t1, t2

    # -- forward/backward --

    def _forward(self, theta):
        blocks = self.blocks()
        h = self._features(theta)
        hidden = [h]
        preacts = []
        for d in range(1, self.depth):
            z = blocks[f"b{d}"][None, :, None] + self.table.apply(blocks[f"w{d}"], h)
            preacts.append(z)
            h = poly_log_I0_of_square(np.square(z))
            hidden.append(h)
        wf = blocks["w_final"][None]  # (1, C, J) single output channel
        out = self.prefactor * np.sum(self.table.apply(wf, h), axis=(-2, -1))
        return blocks, hidden, preacts, out

    def _log_psi(self, theta):
        return self._forward(theta)[-1]

    def _backward(self, theta, to_features: bool = False):
        """Backprop of the scalar output; returns per-sample parameter grads
        in layout order, and optionally the cotangent at the feature layer."""
        blocks, hidden, preacts, _ = self._forward(theta)
        batch = theta.shape[0]
        wf = blocks["w_final"][None]
        g_out = np.full((batch, 1, self.n_sites), self.prefactor, dtype=np.complex128)
        grads = {"w_final": self.table.weight_grad(g_out, hidden[-1])[:, 0]}
        gh = self.table.transpose_apply(wf, g_out)
        for d in range(self.depth - 1, 0, -1):
            z = preacts[d - 1]
            gz = gh * (2.0 * z * d_poly_log_I0_of_square(np.square(z)))
            grads[f"b{d}"] = np.sum(gz, axis=-1)
            grads[f"w{d}"] = self.table.weight_grad(gz, hidden[d - 1])
            gh = self.table.transpose_apply(blocks[f"w{d}"], gz)
        flat = [grads[name].reshape(batch, -1) for name, _ in self.layout]
        stacked = np.concatenate(flat, axis=-1)
        return (stacked, gh) if to_features else (stacked, None)

    def _log_derivatives(self, theta):
        return self._backward(theta)[0]

    def _angle_grad(self, theta):
        _, gh0 = self._backward(theta, to_features=True)
        batch, n = theta.shape
        d1 = np.zeros((batch, n), dtype=np.complex128)
        for m in range(1, self.n_modes + 1):
            d1 += gh0[:, 2 * m - 2] * (-m * np.sin(m * theta))
            d1 += gh0[:, 2 * m - 1] * (m * np.cos(m * theta))
        return d1

    def _angle_derivatives(self, theta):
        blocks = self.blocks()
        h = self._features(theta)
        t1, t2 = self._feature_jets(theta)
        for d in range(1, self.depth):
            w = blocks[f"w{d}"]
            z = blocks[f"b{d}"][None, :, None] + self.table.apply(w, h)
            z1 = self.table.apply_jet(w, t1)
            z2 = self.table.apply_jet(w, t2)
            s = np.square(z)
            gp = d_poly_log_I0_of_square(s)
            fp = (2.0 * z * gp)[..., None]
            fpp = (2.0 * gp + 4.0 * s * d2_poly_log_I0_of_square(s))[..., None]
            h = poly_log_I0_of_square(s)
            t2 = fpp * np.square(z1) + fp * z2
            t1 = fp * z1
        wf = blocks["w_final"][None]
        logpsi = self.prefactor * np.sum(self.table.apply(wf, h), axis=(-2, -1))
        d1 = self.prefactor * np.sum(self.table.apply_jet(wf, t1), axis=(1, 2))
        d2 = self.prefactor * np.sum(self.table.apply_jet(wf, t2), axis=(1, 2))
        return logpsi, d1, d2


def zero_final_kernel(state: PeriodicCNN) -> PeriodicCNN:
    """Copy of the state with the output kernel zeroed (uniform wavefunction)."""
    alpha = state.alpha.copy()
    offset = 0
    for name, shape in state.layout:
        size = int(np.prod(shape))
        if name == "w_final":
            alpha[offset : offset + size] = 0.0
        offset += size
    return state.with_alpha(alpha)
