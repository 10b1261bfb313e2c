"""Physical measurements over sampled rotor configurations.

Sample arrays are either flat (n_samples, n_sites) or chain-resolved
(n_chains, n_draws, n_sites).  Error bars come from bootstrap resampling;
when the chain structure is available whole chains are resampled (block
bootstrap) to respect autocorrelation, otherwise draws are treated as
independent.  Given normalized ``weights`` (one per configuration, such as
quadrature Born weights), an average is the weighted sum and its error is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz.base import VariationalState
from .lattice import Lattice, circular_site_stats, wrap_angle

DEFAULT_RESAMPLES = 200
BOOTSTRAP_SEED = 20240817
_LOG_UNDERFLOW = -700.0
# an edge's angle difference this close to +-pi is a tie between two images
_PI_TIE = 1e-9


def _flatten(samples):
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2:
        return samples, None
    if samples.ndim == 3:
        return samples.reshape(-1, samples.shape[-1]), samples.shape[:2]
    raise ValueError("samples must have 2 or 3 dimensions")


def bootstrap_sigma(values, n_resamples: int = DEFAULT_RESAMPLES,
                    rng: np.random.Generator | None = None) -> float:
    """Standard deviation of the resampled mean.

    1D input: i.i.d. bootstrap over entries.  2D input (chains, draws):
    chains are resampled whole.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2) or values.shape[0] < 2:
        raise ValueError("need >= 2 values (or >= 2 chains)")
    if rng is None:
        rng = np.random.default_rng(BOOTSTRAP_SEED)
    n = values.shape[0]
    picks = rng.integers(0, n, size=(n_resamples, n))
    means = values[picks].mean(axis=tuple(range(1, values.ndim + 1)))
    return float(np.std(means))


def _mean_and_sigma(per_sample, chain_shape, weights=None):
    if weights is not None:
        return float(weights @ per_sample), 0.0
    value = float(np.mean(per_sample))
    if chain_shape is not None:
        per_sample = np.reshape(per_sample, chain_shape)
    return value, bootstrap_sigma(per_sample)


def potential_energy_density(samples, lattice: Lattice, J: float, weights=None):
    """eps_p = -(J/N) < sum_bonds cos(theta_k - theta_l) >, with bootstrap sigma."""
    flat, chain_shape = _flatten(samples)
    bk, bl = lattice.bonds[:, 0], lattice.bonds[:, 1]
    per_sample = -(J / lattice.n_sites) * np.sum(
        np.cos(flat[:, bk] - flat[:, bl]), axis=-1
    )
    return _mean_and_sigma(per_sample, chain_shape, weights)


def magnetization(samples, weights=None):
    """Returns (M, M_x, M_y, sigma_M).

    M keeps the modulus inside the sample average (per-sample resultant length
    over N); the components average the unit vectors first.  The two
    definitions are deliberately kept distinct and never interconverted.
    """
    flat, chain_shape = _flatten(samples)
    n = flat.shape[1]
    cos_t, sin_t = np.cos(flat), np.sin(flat)
    per_sample = np.hypot(np.sum(cos_t, axis=1), np.sum(sin_t, axis=1)) / n
    m, sigma = _mean_and_sigma(per_sample, chain_shape, weights)
    if weights is None:
        return m, float(np.mean(cos_t)), float(np.mean(sin_t)), sigma
    return (m, float(weights @ cos_t.mean(axis=1)),
            float(weights @ sin_t.mean(axis=1)), sigma)


def circular_variance_mean(samples, weights=None) -> float:
    """Lattice average of the per-site circular variance -2 ln |<n_k>|."""
    flat, _ = _flatten(samples)
    return float(np.mean(circular_site_stats(flat, weights)))


def _edge_differences(cur):
    """Minimal-image angle differences along the directed edges of loops.

    ``cur`` lists each loop's sites' angles on its last axis.  An edge whose
    difference is +-pi (within _PI_TIE) has no minimal image: it counts as 0,
    the midpoint of the jump, so reversing the edge negates its difference.
    """
    diff = wrap_angle(np.roll(cur, -1, axis=-1) - cur)
    return np.where(np.abs(diff) >= np.pi - _PI_TIE, 0.0, diff)


def vorticity(samples, lattice: Lattice, ell: int, weights=None):
    """Average plaquette circulation v_ell with minimal-image edge differences.

    Per loop, v(A) = (1/ell^2) * sum over directed boundary edges of the
    wrapped angle difference; averaged over all ell x ell loops, then samples.
    """
    if lattice.ndim != 2:
        raise ValueError("vorticity requires a 2D lattice")
    loops = lattice.plaquettes(ell)
    if loops.shape[0] == 0:
        raise ValueError(f"no {ell}x{ell} plaquettes on this lattice")
    flat, chain_shape = _flatten(samples)
    cur = flat[:, loops]  # (B, n_loops, 4*ell)
    circulation = np.sum(_edge_differences(cur), axis=-1) / ell ** 2
    per_sample = np.mean(circulation, axis=-1)
    return _mean_and_sigma(per_sample, chain_shape, weights)


def loop_circulation(theta, loop_sites, ell: int) -> float:
    """Circulation of a single loop on a single configuration."""
    theta = np.asarray(theta, dtype=np.float64)
    return float(np.sum(_edge_differences(theta[np.asarray(loop_sites)])) / ell ** 2)


def _log_mean_exp(z: np.ndarray, weights=None) -> complex:
    """Complex log of the (weighted) mean of exp(z), stabilized by max Re z."""
    shift = float(np.max(np.real(z)))
    if weights is None:
        return complex(np.log(np.mean(np.exp(z - shift))) + shift)
    return complex(np.log(weights @ np.exp(z - shift)) + shift)


@dataclass
class FidelityResult:
    value: float
    sigma: float
    raw: complex
    clamped: bool
    overlap_lost: bool


def fidelity(state_0: VariationalState, state_t: VariationalState,
             samples_0, samples_t, weights_0=None, weights_t=None) -> FidelityResult:
    """Normalization-free overlap estimator

        F = < psi_t/psi_0 >_{|psi_0|^2} * < psi_0/psi_t >_{|psi_t|^2}:

    ``fidelity_of_log_ratios`` of z_0 = ln psi_t - ln psi_0 on ``samples_0``
    and z_t = ln psi_0 - ln psi_t on ``samples_t``.  Weights, if any, are
    given for both sample sets.
    """
    flat0, shape0 = _flatten(samples_0)
    flat_t, shape_t = _flatten(samples_t)
    z0 = state_t.log_psi(flat0) - state_0.log_psi(flat0)
    zt = state_0.log_psi(flat_t) - state_t.log_psi(flat_t)
    if shape0 is not None:
        z0 = z0.reshape(shape0)
    if shape_t is not None:
        zt = zt.reshape(shape_t)
    return fidelity_of_log_ratios(z0, zt, weights_0, weights_t)


def fidelity_of_log_ratios(z0, zt, weights_0=None, weights_t=None) -> FidelityResult:
    """F from the log ratios z_0 (per sample of psi_0) and z_t (of psi_t).

    Both factors are accumulated in log space and the real part of the
    product is clamped to [0, 1].  If both factors underflow (log means
    below -700) the overlap is reported as 0 with ``overlap_lost`` set.
    Without weights, the error bar resamples the first axis of z_0 and z_t:
    whole chains when they are (chains, draws).
    """
    log_f0 = _log_mean_exp(np.ravel(z0), weights_0)
    log_ft = _log_mean_exp(np.ravel(zt), weights_t)
    if np.real(log_f0) < _LOG_UNDERFLOW and np.real(log_ft) < _LOG_UNDERFLOW:
        return FidelityResult(0.0, 0.0, 0.0j, False, True)
    raw = np.exp(log_f0 + log_ft)
    value = float(np.real(raw))
    clamped = not 0.0 <= value <= 1.0
    value = min(1.0, max(0.0, value))
    if weights_0 is not None:
        return FidelityResult(value, 0.0, raw, clamped, False)

    rng = np.random.default_rng(BOOTSTRAP_SEED)
    estimates = np.empty(DEFAULT_RESAMPLES)
    for r in range(DEFAULT_RESAMPLES):
        pick0 = rng.integers(0, z0.shape[0], size=z0.shape[0])
        pick_t = rng.integers(0, zt.shape[0], size=zt.shape[0])
        f = np.exp(_log_mean_exp(z0[pick0].ravel()) + _log_mean_exp(zt[pick_t].ravel()))
        estimates[r] = min(1.0, max(0.0, float(np.real(f))))
    return FidelityResult(value, float(np.std(estimates)), raw, clamped, False)


def half_fidelity_time(times, fids) -> float | None:
    """First crossing of F = 0.5 by linear interpolation; None if never reached."""
    times = np.asarray(times, dtype=np.float64)
    fids = np.asarray(fids, dtype=np.float64)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("need a strictly increasing time series")
    if fids[0] < 0.5:
        raise ValueError("fidelity series starts below 0.5")
    if abs(fids[0] - 1.0) > 0.01:
        raise ValueError("fidelity series must start within 0.01 of 1")
    below = np.nonzero(fids < 0.5)[0]
    if below.size == 0:
        return None
    i = below[0]
    t0, t1 = times[i - 1], times[i]
    f0, f1 = fids[i - 1], fids[i]
    return float(t0 + (0.5 - f0) * (t1 - t0) / (f1 - f0))
