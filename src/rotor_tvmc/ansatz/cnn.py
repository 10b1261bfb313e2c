"""Periodic convolutional ansatz with polynomial activations.

Input features are sines and cosines of multiples of the angles (2K channels),
followed by D-1 hidden convolution layers with the ln I0 polynomial activation
and a final single-channel convolution summed over sites:

    ln psi = (2 K N)^(-1/2) sum_{c,k} [w_final^c * h_{D-1}^c]_k .

Convolutions are centered cross-correlations over lattice sites using circular
padding along periodic directions and zero padding along open ones; each
site's window is ``Lattice.shift`` at the kernel offsets, masked where an
offset leaves the lattice.  All
gradients (parameters and angles) are hand-derived passes through this fixed
graph; parameters are complex and every operation is holomorphic.  Only O
builds parameter cotangents; the HMC gradient backprops to the features alone.
d1 is the features' cotangent times their angle derivatives, for the HMC
gradient and the local energy alike.  ``local_kernels`` runs one forward pass,
carries the feature jets through its pre-activations for d2 alone, and then
one backward pass gives O and the feature cotangent.

Parameter layout (flat, in order): for each hidden layer d = 1..D-1 the
kernel ``w{d}`` of shape (2K, 2K, n_offsets) then the bias ``b{d}`` of shape
(2K,); finally ``w_final`` of shape (2K, n_offsets).  Kernel offsets are
enumerated row-major over the centered window.
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


class ConvTable:
    """Gather indices realizing a centered convolution window on the lattice."""

    def __init__(self, lattice: Lattice, kernel):
        kernel = tuple(int(s) for s in kernel)
        if len(kernel) != lattice.ndim:
            raise AnsatzError("kernel rank must match lattice dimensionality")
        if any(s < 1 or s % 2 == 0 for s in kernel):
            raise AnsatzError("kernel extents must be odd and >= 1")
        self.kernel = kernel
        window = np.indices(kernel).reshape(lattice.ndim, -1).T
        self.n_offsets = len(window)
        self.idx, inside = lattice.shift(window - np.array(kernel) // 2)
        self.mask = inside.astype(np.float64)
        # permutation sending each offset to its negation (transposed conv): the
        # window is centered and enumerated row-major, so that reverses it
        self.flip = np.arange(self.n_offsets - 1, -1, -1)

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
                 n_modes: int | None = None, kernel=None):
        if depth < 2:
            raise AnsatzError("depth must be >= 2 (hidden layers plus output)")
        if n_modes is None:
            n_modes = 4 if lattice.n_sites >= 64 else 1
        if n_modes < 1:
            raise AnsatzError("n_modes must be >= 1")
        if kernel is None:
            kernel = (3,) * lattice.ndim
        self.depth = int(depth)
        self.n_modes = int(n_modes)
        self.table = ConvTable(lattice, kernel)
        channels = 2 * self.n_modes
        self.channels = channels
        layout = []
        for d in range(1, self.depth):
            layout.append((f"w{d}", (channels, channels, self.table.n_offsets)))
            layout.append((f"b{d}", (channels,)))
        layout.append(("w_final", (channels, self.table.n_offsets)))
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
        """Per-layer activations (features first), pre-activations and ln psi."""
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
        return hidden, preacts, out

    def _log_psi(self, theta):
        return self._forward(theta)[-1]

    def _backward(self, hidden, preacts, params: bool):
        """Backprop of the scalar output from a forward pass's activations and
        pre-activations: the per-sample parameter cotangents (B, P) in layout
        order if ``params``, else None, and the feature cotangent (B, 2K, N)."""
        blocks = self.blocks()
        batch = hidden[0].shape[0]
        g_out = np.full((batch, 1, self.n_sites), self.prefactor, dtype=np.complex128)
        grads = {"w_final": self.table.weight_grad(g_out, hidden[-1])[:, 0]} if params else None
        gh = self.table.transpose_apply(blocks["w_final"][None], g_out)
        for d in range(self.depth - 1, 0, -1):
            z = preacts[d - 1]
            # named factors, which NumPy never reuses in place with the operands
            # swapped: that rounded large batches differently
            s = np.square(z)
            fp = 2.0 * z * d_poly_log_I0_of_square(s)
            gz = gh * fp
            if params:
                grads[f"b{d}"] = np.sum(gz, axis=-1)
                grads[f"w{d}"] = self.table.weight_grad(gz, hidden[d - 1])
            gh = self.table.transpose_apply(blocks[f"w{d}"], gz)
        if not params:
            return None, gh
        return np.concatenate([grads[name].reshape(batch, -1) for name, _ in self.layout], -1), gh

    def _d1(self, gh0, theta):
        """d1 (B, N): the feature cotangent times the features' angle derivatives."""
        d1 = np.zeros(theta.shape, dtype=np.complex128)
        for m in range(1, self.n_modes + 1):
            d1 += gh0[:, 2 * m - 2] * (-m * np.sin(m * theta))
            d1 += gh0[:, 2 * m - 1] * (m * np.cos(m * theta))
        return d1

    def _log_derivatives(self, theta):
        hidden, preacts, _ = self._forward(theta)
        return self._backward(hidden, preacts, params=True)[0]

    def _angle_grad(self, theta):
        hidden, preacts, _ = self._forward(theta)
        gh0 = self._backward(hidden, preacts, params=False)[1]
        return 2.0 * self._d1(gh0, theta).real

    def _kernels(self, angles, out):
        """ln psi from one forward pass; d2 from the feature jets carried
        through its pre-activations, which are dropped before one backward
        pass gives O and the feature cotangent, and d1 from that cotangent."""
        theta = angles.theta
        blocks = self.blocks()
        hidden, preacts, logpsi = self._forward(theta)
        t1, t2 = self._feature_jets(theta)
        for d, z in enumerate(preacts, 1):
            w = blocks[f"w{d}"]
            z1 = self.table.apply_jet(w, t1)
            z2 = self.table.apply_jet(w, t2)
            s = np.square(z)
            gp = d_poly_log_I0_of_square(s)
            fp = (2.0 * z * gp)[..., None]
            fpp = (2.0 * gp + 4.0 * s * d2_poly_log_I0_of_square(s))[..., None]
            t2 = fpp * np.square(z1) + fp * z2
            t1 = fp * z1 if d < len(preacts) else None  # the output layer reads t2 alone
        d2 = self.prefactor * np.sum(self.table.apply_jet(blocks["w_final"][None], t2), axis=(1, 2))
        del t1, t2, z1, z2  # the (B, C, N, N) jets end before the backward pass
        o, gh0 = self._backward(hidden, preacts, params=True)
        d1 = self._d1(gh0, theta)
        if out is None:
            return logpsi, d1, d2, o
        out[...] = o
        return logpsi, d1, d2, out


def zero_final_kernel(state: PeriodicCNN) -> PeriodicCNN:
    """Copy of the state with the output kernel zeroed (uniform wavefunction)."""
    zeroed = state.with_alpha(state.alpha.copy())
    zeroed.blocks()["w_final"][...] = 0.0
    return zeroed
