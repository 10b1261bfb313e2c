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

``local_kernels`` returns ln psi, O and E_L together, for the one pass of
``tdvp.estimate_qgt`` over a draw's points.  It takes ln psi from
``_angle_derivatives``, which every ansatz computes bit for bit as
``_log_psi`` does, so it evaluates the wavefunction twice, not three times;
an ansatz whose kernels share one forward pass overrides ``_kernels`` with
that pass, returning the same bits.

A non-finite ln psi raises ``LogPsiNonFinite``: parameters that overflow
are a numerical failure of the run, not an error in its configuration.
"""

from __future__ import annotations

import math

import numpy as np

from ..lattice import Lattice


class AnsatzError(ValueError):
    pass


class LogPsiNonFinite(ArithmeticError):
    """ln psi is inf or nan at some configuration."""

    reason = "log-psi-nonfinite"


def check_log_psi(theta, log_psi) -> None:
    """Raise LogPsiNonFinite at the first configuration of the (B, N) batch
    ``theta`` whose ln psi is not finite."""
    bad = ~np.isfinite(log_psi)
    if np.any(bad):
        raise LogPsiNonFinite(f"non-finite log_psi at theta={theta[np.argmax(bad)]}")


def check_couplings(g: float, J: float) -> None:
    if g <= 0 or J <= 0:
        raise AnsatzError("couplings g and J must be positive")


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
    complex vector ``alpha`` decomposes, in storage order; ``alpha=None``
    gives all zeros.
    """

    kind: str = ""

    def __init__(self, lattice: Lattice, alpha: np.ndarray | None, layout):
        self.lattice = lattice
        self.layout = list(layout)
        expected = sum(int(np.prod(shape)) for _, shape in self.layout)
        if alpha is None:
            alpha = np.zeros(expected, dtype=np.complex128)
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
        check_log_psi(theta, out)
        return out[0] if single else out

    def log_derivatives(self, theta):
        theta, single = _as_batch(theta, self.n_sites)
        out = self._log_derivatives(theta)
        return out[0] if single else out

    def grad_log_prob(self, theta):
        """Gradient of ln p = 2 Re ln psi with respect to the angles."""
        theta, single = _as_batch(theta, self.n_sites)
        d1 = self._angle_grad(theta)
        out = 2.0 * np.real(d1)
        return out[0] if single else out

    def local_energy(self, theta, g: float, J: float):
        """E_L = -(gJ/2) sum_k [d2_k ln psi + (d1_k ln psi)^2] - J sum_bonds cos."""
        check_couplings(g, J)
        theta, single = _as_batch(theta, self.n_sites)
        _, d1, d2 = self._angle_derivatives(theta)
        out = self._local_energy_of(theta, d1, d2, g, J)
        return out[0] if single else out

    def _local_energy_of(self, theta, d1, d2, g, J):
        kinetic = -(g * J / 2.0) * np.sum(d2 + np.square(d1), axis=-1)
        bk, bl = self.lattice.bonds[:, 0], self.lattice.bonds[:, 1]
        potential = -J * np.sum(np.cos(theta[:, bk] - theta[:, bl]), axis=-1)
        return kinetic + potential

    def _kernels(self, theta):  # -> (logpsi (B,), d1 (B, N), d2 (B, N), O (B, P))
        logpsi, d1, d2 = self._angle_derivatives(theta)
        return logpsi, d1, d2, self._log_derivatives(theta)

    def local_kernels(self, theta, g: float, J: float):
        """(ln psi, O, E_L) at the same configurations, bit for bit the values
        of ``log_psi``, ``log_derivatives`` and ``local_energy``, with their
        errors."""
        check_couplings(g, J)
        theta, single = _as_batch(theta, self.n_sites)
        logpsi, d1, d2, o = self._kernels(theta)
        check_log_psi(theta, logpsi)
        e = self._local_energy_of(theta, d1, d2, g, J)
        if single:
            return logpsi[0], o[0], e[0]
        return logpsi, o, e

    def log_prob(self, theta):
        """ln p(theta) = 2 Re ln psi(theta), up to normalization."""
        return 2.0 * np.real(self.log_psi(theta))
