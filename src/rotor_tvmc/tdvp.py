"""Quantum geometric tensor estimation and the regularized TDVP right-hand side.

The geometric tensor S and force vector g are centered covariances of the
parameter log-derivatives O over |psi|^2-distributed configurations:

    S_mn = <O_m^* O_n> - <O_m^*><O_n>,   g_m = <O_m^* E_L> - <O_m^*><E_L> .

An estimate keeps the n x P matrix X = sqrt(w) (O - <O>) and the vector
y = sqrt(w) (E_L - <E_L>), so that S = X^dag X, g = X^dag y and
Var H = y^dag y.  The regularized pseudoinverse applies the smooth spectral
filter f(s) = 1 / (1 + (lambda^2 / s)^6) eigenvalue by eigenvalue, with
lambda^2 = max(a_c, r_c * max s).  Each right-hand side makes exactly one
Hermitian eigendecomposition, of the smaller Gram matrix:

- n >= P: S = U diag(s) U^dag, and S_f^+ = U diag(f/s) U^dag;
- n < P: X X^dag = V diag(s) V^dag.  X X^dag and X^dag X share their
  nonzero spectrum, and the remaining P - n eigenvalues of S are zero, which
  f removes.  The eigenvectors of S with s > 0 are X^dag V s^(-1/2), so
  S_f^+ b = X^dag V diag(f/s^2) V^dag X b exactly, and lambda^2, the
  effective rank and the r^2 residual come out the same as in parameter
  space (minSR; Chen & Heyl, arXiv:2302.01941).

Estimation.  ``estimate_qgt`` makes one pass over the samples.  Weights
may be given as a function of ln psi, as quadrature's |psi|^2 weights are;
the pass then gives ln psi too, so a quadrature grid is evaluated once per
estimate.

Memory.  X is the largest array of a step.  ``estimate_qgt`` fills it in
chunks of rows whose log-derivative block fits ``CHUNK_BYTES``, into a new
array or into the caller's stale one (``out``).  The sample-space solve
then holds X, n x n matrices and P-vectors only: X X^dag is summed over
column blocks of X that are no larger than X X^dag itself, and X^dag u is
applied as (u^dag X)^dag, so neither conj(X) nor the P x n basis X^dag V
is formed.

Monte Carlo averages use the 1/n convention throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ansatz.base import VariationalState

CUTOFF_EXPONENT = 6
# estimate_qgt's chunks of rows: at most 512, and a (rows, P) complex block
# of log-derivatives within this many bytes
CHUNK_BYTES = 4 * 2**20


class TdvpError(RuntimeError):
    pass


def _hermitian(m: np.ndarray) -> np.ndarray:
    out = m + m.conj().T
    out *= 0.5
    return out


@dataclass
class QgtEstimate:
    x: np.ndarray  # (n, P) sqrt(w) (O - <O>)
    y: np.ndarray  # (n,) sqrt(w) (E_L - <E_L>)
    e_mean: complex
    n_samples: int

    @cached_property
    def s_matrix(self) -> np.ndarray:
        """(P, P) Hermitian S = X^dag X."""
        return _hermitian(self.x.conj().T @ self.x)

    @cached_property
    def gvec(self) -> np.ndarray:
        """(P,) force vector g = X^dag y."""
        return (self.y.conj() @ self.x).conj()

    @property
    def e_var(self) -> float:
        """<|E_L - <E_L>|^2> = y^dag y >= 0."""
        return float(np.real(np.vdot(self.y, self.y)))


@dataclass
class RegularizationPolicy:
    """Adaptive spectral cutoff: lambda^2 = max(a_c, r_c * max eigenvalue)."""

    a_c: float = 1e-4
    r_c: float = 1e-2

    def __post_init__(self):
        if self.a_c <= 0 or self.r_c <= 0:
            raise ValueError("regularization floors must be positive")


@dataclass
class RegularizedInverse:
    """S_f^+ = W diag(d) W^dag, or X^dag W diag(d) W^dag X in sample space."""

    basis: np.ndarray  # W: (P, P) eigenvectors U of S, or (n, n) V of X X^dag
    spectrum: np.ndarray  # clamped eigenvalues of S, or of X X^dag, ascending
    inv_diag: np.ndarray  # d: f(s)/s, or f(s)/s^2 in sample space
    rho: float  # effective rank sum f(s)
    lambda2: float
    x: np.ndarray | None = None  # the estimate's (n, P) X in sample space, else None

    def _filtered(self, b: np.ndarray) -> np.ndarray:
        w = self.basis
        b_hat = w.conj().T @ b
        scale = self.inv_diag.reshape(-1, *([1] * (b_hat.ndim - 1)))
        return w @ (scale * b_hat)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """S_f^+ b for a (P,) vector or a (P, k) matrix."""
        if self.x is None:
            return self._filtered(b)
        u = self._filtered(self.x @ b)
        return (u.conj().T @ self.x).conj().T  # X^dag u, as gvec forms X^dag y


def estimate_qgt(state: VariationalState, samples: np.ndarray, g: float, J: float,
                 weights=None, chunk_size: int = 512,
                 out: np.ndarray | None = None) -> QgtEstimate:
    """Sampled (or quadrature-weighted) covariance estimate of S, g and Var H.

    ``weights`` defaults to uniform 1/n.  It may be an array, or a function
    of ln psi at the samples that returns their weights, such as a
    quadrature caller's |psi|^2 grid weights: each chunk then makes one
    ``state.local_kernels`` call, which gives ln psi with O and E_L, and
    the function is called once after the pass, before any weight is used.
    Without it a chunk makes a ``log_derivatives`` and a ``local_energy``
    call.  Either way the weights are normalized here.

    The ansatz kernels run on chunks of at most ``chunk_size`` samples,
    fewer when a chunk's (rows, P) log-derivative block would exceed
    ``CHUNK_BYTES``, which bounds their temporaries; the log-derivatives
    fill one preallocated (n, P) array that is then centered and scaled in
    place.  ``out``, an (n, P) complex array whose contents are no longer
    needed, such as the last estimate's X, is filled in place of a new one.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    n = samples.shape[0]
    if n < 2:
        raise TdvpError("need at least 2 samples to estimate covariances")
    if out is None:
        x = np.empty((n, state.n_params), dtype=np.complex128)
    elif out.shape == (n, state.n_params) and out.dtype == np.complex128:
        x = out
    else:
        raise ValueError(f"out must be a complex (n, P) = ({n}, {state.n_params}) array")
    e = np.empty(n, dtype=np.complex128)
    log_psi = np.empty(n, dtype=np.complex128) if callable(weights) else None
    rows = max(1, min(chunk_size, CHUNK_BYTES // x[0].nbytes))
    for lo in range(0, n, rows):
        sl = slice(lo, lo + rows)
        if log_psi is None:
            x[sl] = state.log_derivatives(samples[sl])
            e[sl] = state.local_energy(samples[sl], g, J)
        else:
            log_psi[sl], x[sl], e[sl] = state.local_kernels(samples[sl], g, J)

    if weights is None:
        weights = np.full(n, 1.0 / n)
    else:
        if log_psi is not None:
            weights = weights(log_psi)
        weights = np.asarray(weights, dtype=np.float64)
        weights = weights / np.sum(weights)
    e_mean = weights @ e
    root_w = np.sqrt(weights)
    x -= weights @ x
    x *= root_w[:, None]
    return QgtEstimate(x=x, y=root_w * (e - e_mean), e_mean=complex(e_mean), n_samples=n)


def spectral_filter(spectrum: np.ndarray, lambda2: float) -> np.ndarray:
    """f(s) = 1 / (1 + (lambda^2/s)^6), with f(0) = 0."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    out = np.zeros_like(spectrum)
    pos = spectrum > 0
    out[pos] = 1.0 / (1.0 + (lambda2 / spectrum[pos]) ** CUTOFF_EXPONENT)
    return out


def adaptive_lambda(spectrum: np.ndarray, policy: RegularizationPolicy) -> float:
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.size == 0:
        raise TdvpError("empty spectrum")
    return max(policy.a_c, policy.r_c * float(np.max(spectrum)))


def _clamped_eigh(matrix: np.ndarray):
    """Hermitian eigendecomposition with negative eigenvalues clamped to zero."""
    try:
        spectrum, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise TdvpError(f"eigendecomposition failed: {exc}") from exc
    return np.where(spectrum > 0, spectrum, 0.0), vectors


def _filtered_inverse(spectrum: np.ndarray, basis: np.ndarray, lambda2: float,
                      x: np.ndarray | None = None) -> RegularizedInverse:
    """The filtered inverse of S, or in sample space (``x`` given) of X X^dag."""
    f = spectral_filter(spectrum, lambda2)
    inv_diag = np.zeros_like(spectrum)
    pos = spectrum > 0
    inv_diag[pos] = f[pos] / spectrum[pos] ** (1 if x is None else 2)
    return RegularizedInverse(
        basis=basis,
        spectrum=spectrum,
        inv_diag=inv_diag,
        rho=float(np.sum(f)),
        lambda2=float(lambda2),
        x=x,
    )


def regularized_pseudoinverse(s_matrix: np.ndarray, lambda2: float) -> RegularizedInverse:
    """Hermitian eigendecomposition of S with the smooth cutoff applied.

    Negative eigenvalues (Monte Carlo noise) are clamped to zero and excluded
    from both the inverse and the effective rank.  This is the parameter-space
    reference for the solve inside ``tdvp_rhs``.
    """
    spectrum, u = _clamped_eigh(s_matrix)
    return _filtered_inverse(spectrum, u, lambda2)


def _gram(x: np.ndarray) -> np.ndarray:
    """Hermitian (n, n) X X^dag, summed over (n, n) column blocks of X, so that
    no conjugate copy is larger than the result."""
    n = x.shape[0]
    gram = np.zeros((n, n), dtype=x.dtype)
    for lo in range(0, x.shape[1], n):
        block = x[:, lo:lo + n]
        gram += block @ block.conj().T
    return _hermitian(gram)


def effective_rank(spectrum: np.ndarray, lambda2: float) -> float:
    return float(np.sum(spectral_filter(spectrum, lambda2)))


def tdvp_rhs(qgt: QgtEstimate, policy: RegularizationPolicy, mode: str):
    """Parameter velocity: -i S^-1 g in real time, -S^-1 g in imaginary time.

    Makes one eigendecomposition, of S = X^dag X when there are at least as
    many samples as parameters and of X X^dag otherwise (see the module
    docstring).  Returns (alpha_dot, RegularizedInverse) so callers can log
    the spectrum, lambda^2 and effective rank, and reuse the solve for the
    r^2 residual.
    """
    if mode not in ("real", "imag"):
        raise ValueError(f"mode must be 'real' or 'imag', got {mode!r}")
    n, p = qgt.x.shape
    if n >= p:
        spectrum, basis = _clamped_eigh(qgt.s_matrix)
        x = None
    else:
        spectrum, basis = _clamped_eigh(_gram(qgt.x))
        x = qgt.x
    lambda2 = adaptive_lambda(spectrum, policy)
    pinv = _filtered_inverse(spectrum, basis, lambda2, x)
    solution = pinv.apply(qgt.gvec)
    alpha_dot = -1j * solution if mode == "real" else -solution
    return alpha_dot, pinv


def residual_r2(qgt: QgtEstimate, pinv: RegularizedInverse):
    """Single-step projection residual r^2 = 1 - g^dag S^-1 g / Var H.

    Clamped to [0, 1]; the boolean flag reports whether clamping fired.
    Defined as 0 when Var H vanishes (exact eigenstate).
    """
    if qgt.e_var <= 0:
        return 0.0, False
    raw = 1.0 - float(np.real(qgt.gvec.conj() @ pinv.apply(qgt.gvec))) / qgt.e_var
    clamped = min(1.0, max(0.0, raw))
    return clamped, clamped != raw
