"""Common interface for trial wavefunctions.

Every ansatz evaluates ln psi(theta) as a holomorphic function of a flat
complex parameter vector ``alpha`` with a documented layout.  All evaluation
methods are pure functions of (alpha, theta) and accept either a single
configuration of shape (N,) or a batch of shape (B, N).

A subclass implements four batched cores: ``_log_psi``, ``_log_derivatives``,
``_angle_derivatives`` (ln psi with its first and second angle derivatives,
for the local energy) and ``_angle_grad`` (the first angle derivative alone,
or only its real part).  ``_angle_grad`` feeds ``grad_log_prob``, which HMC
calls on every leapfrog step, so it must not pay for the second derivatives.
"""

from __future__ import annotations

import math

import numpy as np

from ..lattice import Lattice


class AnsatzError(ValueError):
    pass


def _as_batch(theta, n_sites):
    theta = np.asarray(theta, dtype=np.float64)
    single = theta.ndim == 1
    theta = np.atleast_2d(theta)
    if theta.shape[-1] != n_sites:
        raise AnsatzError(
            f"configuration has {theta.shape[-1]} sites, lattice has {n_sites}"
        )
    return theta, single


class VariationalState:
    """Base class; subclasses set ``kind``, ``layout`` and the evaluation core.

    ``layout`` is a list of (name, shape) blocks describing how the flat
    complex vector ``alpha`` decomposes, in storage order.
    """

    kind: str = ""

    def __init__(self, lattice: Lattice, alpha: np.ndarray, layout):
        self.lattice = lattice
        self.layout = list(layout)
        expected = sum(int(np.prod(shape)) for _, shape in self.layout)
        alpha = np.asarray(alpha, dtype=np.complex128).ravel()
        if alpha.size != expected:
            raise AnsatzError(
                f"{self.kind}: expected {expected} parameters, got {alpha.size}"
            )
        self.alpha = alpha

    @property
    def n_params(self) -> int:
        return self.alpha.size

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def blocks(self) -> dict[str, np.ndarray]:
        """Views of alpha reshaped per layout block."""
        out = {}
        offset = 0
        for name, shape in self.layout:
            size = math.prod(shape)
            out[name] = self.alpha[offset : offset + size].reshape(shape)
            offset += size
        return out

    def with_alpha(self, alpha: np.ndarray) -> "VariationalState":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        alpha = np.asarray(alpha, dtype=np.complex128).ravel()
        if alpha.size != self.alpha.size:
            raise AnsatzError("parameter length mismatch in with_alpha")
        clone.alpha = alpha
        return clone

    # -- evaluation core, implemented by subclasses (batched (B, N) input) --

    def _log_psi(self, theta):  # -> (B,)
        raise NotImplementedError

    def _log_derivatives(self, theta):  # -> (B, P)
        raise NotImplementedError

    def _angle_derivatives(self, theta):  # -> (logpsi (B,), d1 (B,N), d2 (B,N))
        raise NotImplementedError

    def _angle_grad(self, theta):  # -> d1 (B, N) or Re d1, first order only
        raise NotImplementedError

    # -- public API --

    def log_psi(self, theta):
        theta, single = _as_batch(theta, self.n_sites)
        out = self._log_psi(theta)
        if not np.all(np.isfinite(out)):
            bad = np.argwhere(~np.isfinite(out))[0]
            raise AnsatzError(f"non-finite log_psi at theta={theta[bad[0]]}")
        return out[0] if single else out

    def log_derivatives(self, theta):
        theta, single = _as_batch(theta, self.n_sites)
        out = self._log_derivatives(theta)
        return out[0] if single else out

    def angle_derivatives(self, theta):
        theta, single = _as_batch(theta, self.n_sites)
        lp, d1, d2 = self._angle_derivatives(theta)
        if single:
            return lp[0], d1[0], d2[0]
        return lp, d1, d2

    def grad_log_prob(self, theta):
        """Gradient of ln p = 2 Re ln psi with respect to the angles."""
        theta, single = _as_batch(theta, self.n_sites)
        d1 = self._angle_grad(theta)
        out = 2.0 * np.real(d1)
        return out[0] if single else out

    def local_energy(self, theta, g: float, J: float):
        """E_L = -(gJ/2) sum_k [d2_k ln psi + (d1_k ln psi)^2] - J sum_bonds cos."""
        if g <= 0 or J <= 0:
            raise AnsatzError("couplings g and J must be positive")
        theta, single = _as_batch(theta, self.n_sites)
        _, d1, d2 = self._angle_derivatives(theta)
        kinetic = -(g * J / 2.0) * np.sum(d2 + np.square(d1), axis=-1)
        bk, bl = self.lattice.bonds[:, 0], self.lattice.bonds[:, 1]
        potential = -J * np.sum(np.cos(theta[:, bk] - theta[:, bl]), axis=-1)
        out = kinetic + potential
        return out[0] if single else out

    def log_prob(self, theta):
        """ln p(theta) = 2 Re ln psi(theta), up to normalization."""
        return 2.0 * np.real(self.log_psi(theta))


def log_psi_periodicity_check(state: VariationalState, theta, k: int, tol=1e-12):
    """True when shifting angle k by 2 pi leaves the wavefunction unchanged."""
    theta = np.asarray(theta, dtype=np.float64)
    shifted = theta.copy()
    shifted[k] += 2.0 * np.pi
    a = state.log_psi(theta)
    b = state.log_psi(shifted)
    # compare exponentials so a 2 pi i ambiguity in the log cannot trip us up
    return abs(np.exp(a - b) - 1.0) <= tol
