"""Common interface for trial wavefunctions.

Every ansatz evaluates ln psi(theta) as a holomorphic function of a flat
complex parameter vector ``alpha`` with a documented layout.  All evaluation
methods are pure functions of (alpha, theta) and accept either a single
configuration of shape (N,) or a batch of shape (B, N).  The views of alpha
that the kernels read (``blocks()``, and an ansatz's derived weights) are
built where alpha is set, in ``__init__`` and ``with_alpha``, not per call.

A subclass implements one batched core per public quantity: ``_log_psi``
for ``log_psi`` and ``log_prob``, ``_log_derivatives`` for
``log_derivatives``, ``_angle_grad`` for ``grad_log_prob`` and ``_kernels``
for ``local_kernels`` and ``local_energy``.

``_angle_grad`` is the gradient of ln p = 2 Re ln psi, 2 Re d1, from the first
angle derivative alone.  ``grad_log_prob``, which HMC calls on every leapfrog
step, returns it untouched, so the core must not pay for the second
derivatives, and each ansatz takes the real part and the factor 2 where they
cost least.

``_kernels`` is the only core that forms the second angle derivatives.  One
pass gives ln psi, the first and second angle derivatives d1 and d2, and O,
bit for bit the values of ``_log_psi`` and ``_log_derivatives``.
``local_kernels`` turns d1 and d2 into E_L for the one pass of
``tdvp.estimate_qgt`` over a draw's points, and ``local_energy`` is that E_L.
``local_kernels`` also takes an ``Angles`` batch: the configurations with
their angle-only arrays (cos, sin and the bond-cosine sum), which a caller
builds once for all chunks of a draw, or once per run for a fixed grid.

A non-finite ln psi raises ``LogPsiNonFinite``: parameters that overflow
are a numerical failure of the run, not an error in its configuration.
"""

from __future__ import annotations

import math
from functools import cached_property

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
    finite = np.isfinite(log_psi)
    if not finite.all():
        raise LogPsiNonFinite(f"non-finite log_psi at theta={theta[np.argmin(finite)]}")


def check_couplings(g: float, J: float) -> None:
    if g <= 0 or J <= 0:
        raise AnsatzError("couplings g and J must be positive")


def _as_batch(theta, n_sites):
    """(B, N) float64 angles and whether one (N,) configuration was given; a
    float64 (B, N) array is returned untouched."""
    if type(theta) is np.ndarray and theta.dtype == np.float64 and theta.ndim == 2:
        single = False
    else:
        theta = np.asarray(theta, dtype=np.float64)
        single = theta.ndim == 1
        theta = np.atleast_2d(theta)
    if theta.shape[-1] != n_sites:
        raise AnsatzError(
            f"configuration has {theta.shape[-1]} sites, lattice has {n_sites}"
        )
    return theta, single


def _bond_cosines(theta, lattice: Lattice):
    """(B,) sum over the lattice's bonds of cos(theta_k - theta_l)."""
    bk, bl = lattice.bonds[:, 0], lattice.bonds[:, 1]
    return np.sum(np.cos(theta[:, bk] - theta[:, bl]), axis=-1)


def cos_sin(theta):
    """(2, B, N) cos and sin of a (B, N) batch, in one array."""
    out = np.empty((2,) + theta.shape)
    np.cos(theta, out=out[0])
    np.sin(theta, out=out[1])
    return out


class Angles:
    """A (B, N) batch of configurations with its angle-only arrays: each
    configuration's bond-cosine sum, the potential part of E_L, and
    ``cos_sin``, the (2, B, N) cos and sin of every angle, which the RBM's
    forward pass reads.

    The bond-cosine sums are built with the batch, cos and sin when first
    read, so an ansatz that never reads them never pays for them.
    ``angles[rows]`` is a chunk of the batch that reads its rows of the
    arrays built for the whole batch.  Each array is elementwise or a
    reduction within a row, so a chunk holds the bits that it alone would
    give.
    """

    def __init__(self, theta, lattice: Lattice):
        self.theta, _ = _as_batch(theta, lattice.n_sites)  # (B, N)
        self.bond_cos = _bond_cosines(self.theta, lattice)  # (B,)
        self._of = None  # (batch, rows) of a chunk

    @cached_property
    def cos_sin(self) -> np.ndarray:
        return cos_sin(self.theta) if self._of is None else self._of[0].cos_sin[:, self._of[1]]

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, rows) -> "Angles":
        chunk = object.__new__(Angles)
        chunk.theta, chunk.bond_cos = self.theta[rows], self.bond_cos[rows]
        chunk._of = (self, rows)
        return chunk


class VariationalState:
    """Base class; subclasses set ``kind``, ``layout`` and the evaluation core.

    ``layout`` is a list of (name, shape) blocks describing how the flat
    complex vector ``alpha`` decomposes, in storage order; ``alpha=None``
    gives all zeros.  A subclass whose kernels read views derived from alpha
    builds them in ``_set_alpha``.
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
        self._set_alpha(alpha)

    def _set_alpha(self, alpha: np.ndarray) -> None:
        """Set alpha and build the views of it that the kernels read."""
        self.alpha = alpha
        self._blocks = {}
        offset = 0
        for name, shape in self.layout:
            size = math.prod(shape)
            self._blocks[name] = alpha[offset : offset + size].reshape(shape)
            offset += size

    @property
    def n_params(self) -> int:
        return self.alpha.size

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def blocks(self) -> dict[str, np.ndarray]:
        """Views of alpha reshaped per layout block (one dict per alpha)."""
        return self._blocks

    def with_alpha(self, alpha: np.ndarray) -> "VariationalState":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        alpha = np.asarray(alpha, dtype=np.complex128).ravel()
        if alpha.size != self.alpha.size:
            raise AnsatzError("parameter length mismatch in with_alpha")
        clone._set_alpha(alpha)
        return clone

    # -- evaluation core, implemented by subclasses (batched (B, N) input) --

    def _log_psi(self, theta):  # -> (B,)
        raise NotImplementedError

    def _log_derivatives(self, theta):  # -> (B, P)
        raise NotImplementedError

    def _angle_grad(self, theta):  # -> grad ln p = 2 Re d1 (B, N), first order only
        raise NotImplementedError

    def _kernels(self, angles: Angles, out):
        """(logpsi (B,), d1 (B, N), d2 (B, N), O (B, P)) of an ``Angles``
        batch; O is written into ``out`` when it is given."""
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
        out = self._angle_grad(theta)
        return out[0] if single else out

    def local_energy(self, theta, g: float, J: float):
        """E_L = -(gJ/2) sum_k [d2_k ln psi + (d1_k ln psi)^2] - J sum_bonds cos,
        the E_L of ``local_kernels``."""
        return self.local_kernels(theta, g, J)[2]

    def local_kernels(self, theta, g: float, J: float, out=None):
        """(ln psi, O, E_L) at the same configurations, bit for bit the values
        of ``log_psi``, ``log_derivatives`` and ``local_energy``, with their
        errors.

        ``theta`` is an (N,) or (B, N) array, or an ``Angles`` batch whose
        arrays are read instead of computed.  ``out``, a complex (B, P)
        array, receives O and is returned in its place.
        """
        check_couplings(g, J)
        if isinstance(theta, Angles):
            angles, single = theta, False
        else:
            theta, single = _as_batch(theta, self.n_sites)
            angles = Angles(theta, self.lattice)
        logpsi, d1, d2, o = self._kernels(angles, out)
        check_log_psi(angles.theta, logpsi)
        kinetic = -(g * J / 2.0) * np.sum(d2 + np.square(d1), axis=-1)
        e = kinetic - J * angles.bond_cos
        if single:
            return logpsi[0], o[0], e[0]
        return logpsi, o, e

    def log_prob(self, theta):
        """ln p(theta) = 2 Re ln psi(theta), up to normalization."""
        return 2.0 * np.real(self.log_psi(theta))
