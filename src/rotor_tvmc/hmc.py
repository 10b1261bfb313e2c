"""Hamiltonian Monte Carlo over rotor configurations.

``warmup`` and ``sample`` stack their chains once into a (C, N) batch of
positions and metrics, a (C,) batch of ln p and one step size shared by every
chain; transitions only read and update these arrays, and the chains get
their positions, step size and metric back on exit.  ln p is carried: each
transition evaluates it once, at the proposals, and keeps it for the chains
that accept.

Each chain owns a deterministic RNG stream; a transition consumes draws in a
fixed per-chain order (momenta, trajectory length, accept uniform), so a rerun
from the same streams replays the same draws.
Leapfrog dynamics run on unwrapped angles (the target is 2 pi periodic, so the
unwrapped trajectory is valid and reversibility bookkeeping stays exact);
angles are wrapped once when samples are emitted.

Warmup follows the windowed scheme: one fast window of Nw/12 steps (step-size
adaptation only), Np slow windows starting at Nw/36 steps and doubling (step
size plus diagonal-mass estimation from circular variances), then a final fast
window of Nw/18 steps, after which all kernel hyperparameters are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import circular_site_stats, wrap_angle

DIVERGENCE_THRESHOLD = 1000.0
MASS_FLOOR = 1e-6
MASS_CEILING = 1e6

# dual-averaging constants (shrinkage, stabilization offset, decay exponent)
DA_GAMMA = 0.05
DA_T0 = 10.0
DA_KAPPA = 0.75


class WarmupError(RuntimeError):
    pass


@dataclass
class HmcConfig:
    l0: int = 20  # mean leapfrog steps per proposal
    jitter: float = 0.2  # trajectory-length jitter fraction
    eps0: float = 0.1  # initial step size
    target_accept: float = 0.8
    n_warmup: int = 800
    n_slow_windows: int = 5
    n_samples: int = 2000  # per chain
    n_chains: int = 20

    def __post_init__(self):
        if min(self.l0, self.n_warmup, self.n_slow_windows,
               self.n_samples, self.n_chains) < 1:
            raise ValueError("all counts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target acceptance must lie in (0, 1)")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")


@dataclass
class ChainState:
    theta: np.ndarray
    eps: float
    mass_diag: np.ndarray
    rng: np.random.Generator


def init_chain(n_sites: int, config: HmcConfig, rng: np.random.Generator) -> ChainState:
    theta = rng.uniform(-np.pi, np.pi, size=n_sites)
    return ChainState(
        theta=theta,
        eps=config.eps0,
        mass_diag=np.ones(n_sites),
        rng=rng,
    )


def jittered_length(rng: np.random.Generator, l0: int, jitter: float) -> int:
    """Uniform integer trajectory length in [round((1-j)L0), round((1+j)L0)]."""
    lo = max(1, int(round((1.0 - jitter) * l0)))
    hi = max(lo, int(round((1.0 + jitter) * l0)))
    return int(rng.integers(lo, hi + 1))


def _batched_leapfrog(theta, pi, eps, lengths, mass_diag, grad_log_prob):
    """Half-kick/drift/half-kick leapfrog with a per-chain number of steps.

    ``theta`` and ``pi`` are (B, N) batches, ``eps`` is the step size every
    chain shares and ``lengths`` holds one step count per chain.  Interior
    kicks are fused.  Chains whose trajectory is already finished are frozen:
    they drift by 0 and are kicked by 0, so per-chain results match running
    each chain as its own batch exactly.
    """
    theta = np.array(theta, dtype=np.float64)
    pi = np.array(pi, dtype=np.float64)
    lengths = np.asarray(lengths)
    max_steps = int(np.max(lengths))
    # (max_steps, B, 1) tables of which chains drift and how far each is kicked
    steps = np.arange(max_steps)[:, None, None]
    ends = lengths[None, :, None]
    active = steps < ends
    kicks = np.where(steps < ends - 1, eps,
                     np.where(steps == ends - 1, 0.5 * eps, 0.0))
    with np.errstate(all="ignore"):
        pi = pi + 0.5 * eps * grad_log_prob(theta)
        for step in range(max_steps):
            theta = theta + np.where(active[step], eps * pi / mass_diag, 0.0)
            pi = pi + kicks[step] * grad_log_prob(theta)
    return theta, pi


def _kinetic(pi, mass_diag):
    return 0.5 * np.sum(np.square(pi) / mass_diag, axis=-1)


def _stack(chains: list[ChainState], target):
    """(theta, mass, log_p, eps, rngs) of the chains as one batch."""
    theta = np.stack([c.theta for c in chains])
    with np.errstate(all="ignore"):
        log_p = target.log_prob(theta)
    return (theta, np.stack([c.mass_diag for c in chains]), log_p,
            chains[0].eps, [c.rng for c in chains])


def _unstack(chains: list[ChainState], theta, eps: float, mass) -> None:
    for chain, theta_c, mass_c in zip(chains, theta, mass):
        chain.theta, chain.eps, chain.mass_diag = theta_c, eps, mass_c


def _transition(theta, log_p, mass, eps, rngs, target, config: HmcConfig):
    """One accept/reject HMC update of the batch, in place on theta and log_p.

    Returns the Metropolis statistic min(1, exp(-dH)) per chain (0 for
    divergent proposals), which feeds dual averaging, and the per-chain
    accept and divergence flags.
    """
    pi = np.stack([rng.normal(size=theta.shape[1]) for rng in rngs]) * np.sqrt(mass)
    lengths = np.array([jittered_length(rng, config.l0, config.jitter) for rng in rngs])
    uniforms = np.array([rng.uniform() for rng in rngs])

    with np.errstate(all="ignore"):
        h0 = -log_p + _kinetic(pi, mass)
        theta_new, pi_new = _batched_leapfrog(theta, pi, eps, lengths, mass,
                                              target.grad_log_prob)
        log_p_new = target.log_prob(theta_new)
        dh = -log_p_new + _kinetic(pi_new, mass) - h0
        divergent = ~np.isfinite(dh) | (np.abs(dh) > DIVERGENCE_THRESHOLD)
        alpha = np.where(divergent, 0.0, np.minimum(1.0, np.exp(np.minimum(-dh, 0.0))))
        accept = ~divergent & (uniforms < alpha)
    theta[accept] = theta_new[accept]
    log_p[accept] = log_p_new[accept]
    return alpha, accept, divergent


class _DualAveraging:
    """Nesterov dual averaging of log(eps) toward a target acceptance rate."""

    def __init__(self, eps0: float, delta: float):
        self.delta = delta
        self.mu = np.log(10.0 * eps0)
        self.log_eps = self.log_eps_bar = np.log(eps0)
        self.h_bar = 0.0
        self.count = 0

    def update(self, alpha: float) -> float:
        self.count += 1
        m = self.count
        frac = 1.0 / (m + DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.delta - alpha)
        self.log_eps = self.mu - np.sqrt(m) / DA_GAMMA * self.h_bar
        weight = m ** (-DA_KAPPA)
        self.log_eps_bar = weight * self.log_eps + (1.0 - weight) * self.log_eps_bar
        return float(np.exp(self.log_eps))

    def final(self) -> float:
        return float(np.exp(self.log_eps_bar))


def warmup_windows(n_warmup: int, n_slow: int) -> list[tuple[int, str]]:
    """(length, kind) schedule: fast, then doubling slow windows, then fast."""
    windows = [(max(1, n_warmup // 12), "fast")]
    base = max(1, n_warmup // 36)
    windows += [(base * 2 ** j, "slow") for j in range(n_slow)]
    windows.append((max(1, n_warmup // 18), "fast"))
    return windows


def warmup(chains: list[ChainState], config: HmcConfig, target) -> list[ChainState]:
    """Adapt the step size (all windows) and diagonal masses (slow windows).

    A single dual-averaging run spans all windows and adapts one step size
    shared by every chain, fed with the chain-averaged Metropolis alpha.
    Restarting the averaging per window (or running it per chain on noisy
    single-transition alphas) freezes the averaged step size before the
    iterates settle, which biases the post-warmup acceptance rate well
    above the target.
    """
    theta, mass, log_p, eps, rngs = _stack(chains, target)
    da = _DualAveraging(eps, config.target_accept)
    for window_len, kind in warmup_windows(config.n_warmup, config.n_slow_windows):
        for attempt in range(2):
            draws = np.empty((window_len,) + theta.shape)
            n_accepted = 0
            for step in range(window_len):
                alpha, accept, _ = _transition(theta, log_p, mass, eps, rngs, target, config)
                n_accepted += int(accept.sum())
                eps = da.update(alpha.mean())
                draws[step] = theta
            # rescue only a genuinely stuck sampler: no chain accepted
            # anything in the whole window.  A single chain with an unlucky
            # streak is ordinary noise for the shared, still-adapting step
            # size and is handled by dual averaging itself.
            if n_accepted > 0:
                break
            if attempt == 1:
                raise WarmupError(
                    f"every proposal of a {kind} window was rejected twice"
                )
            eps *= 0.5
            da = _DualAveraging(eps, config.target_accept)
        if kind == "slow":
            # every (chain, site) column is one site's series
            variance = circular_site_stats(draws.reshape(window_len, -1))
            mass = np.clip(variance, MASS_FLOOR, MASS_CEILING).reshape(theta.shape)
    _unstack(chains, theta, da.final(), mass)
    return chains


def split_rhat(series: np.ndarray) -> np.ndarray:
    """Split-R-hat of (..., n_chains, n_draws) scalar series, one per series.

    NaN where a series has fewer than 4 draws or no within-chain variance.
    """
    half = series.shape[-1] // 2
    if half < 2:
        return np.full(series.shape[:-2], np.nan)[()]
    halves = np.concatenate([series[..., :half], series[..., half : 2 * half]], axis=-2)
    means = halves.mean(axis=-1)
    w = halves.var(axis=-1, ddof=1).mean(axis=-1)
    b = half * means.var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(((half - 1) / half * w + b / half) / w)
    return np.where(w > 0, rhat, np.nan)[()]


@dataclass
class SampleDiagnostics:
    acceptance: np.ndarray  # per chain
    divergences: np.ndarray  # per chain
    rhat_max: float
    warnings: list[str] = field(default_factory=list)


def sample(chains: list[ChainState], n_samples: int, target, config: HmcConfig):
    """Draw n_samples per chain, all chains as one batch; returns
    ((Nc*Ns, N) samples ordered by chain, then draw; diagnostics)."""
    theta, mass, log_p, eps, rngs = _stack(chains, target)
    by_chain = np.empty((theta.shape[0], n_samples, theta.shape[1]))
    accepted = np.zeros(theta.shape[0], dtype=int)
    divergences = np.zeros(theta.shape[0], dtype=int)
    for s in range(n_samples):
        _, accept, divergent = _transition(theta, log_p, mass, eps, rngs, target, config)
        accepted += accept
        divergences += divergent
        by_chain[:, s] = wrap_angle(theta)
    _unstack(chains, theta, eps, mass)

    # (2N, Nc, Ns) cos and sin series of every coordinate, draws contiguous
    angles = np.ascontiguousarray(by_chain.transpose(2, 0, 1))
    rhats = split_rhat(np.concatenate([np.cos(angles), np.sin(angles)]))
    rhats = rhats[np.isfinite(rhats)]
    rhat_max = float(rhats.max()) if rhats.size else np.nan
    warnings = []
    if np.isfinite(rhat_max) and rhat_max > 1.1:
        warnings.append(f"split-Rhat {rhat_max:.3f} exceeds 1.1 on some coordinate")
    diag = SampleDiagnostics(
        acceptance=accepted / n_samples,
        divergences=divergences,
        rhat_max=rhat_max,
        warnings=warnings,
    )
    return by_chain.reshape(-1, by_chain.shape[2]), diag
