"""Hamiltonian Monte Carlo over rotor configurations.

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
    accepted: int = 0
    proposed: int = 0
    divergences: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


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


def _batched_leapfrog(theta, pi, eps, lengths, mass_diag, grad_fn):
    """Half-kick/drift/half-kick leapfrog with a per-chain number of steps.

    ``theta`` and ``pi`` are (B, N) batches, ``eps`` and ``lengths`` hold one
    step size and one step count per chain, and ``grad_fn`` returns dV/dtheta
    for V = -ln p.  Interior kicks are fused.  Chains whose trajectory is
    already finished are frozen: they drift by 0 and are kicked by 0, so
    per-chain results match running each chain as its own batch exactly.
    """
    theta = np.array(theta, dtype=np.float64)
    pi = np.array(pi, dtype=np.float64)
    lengths = np.asarray(lengths)
    eps_col = np.asarray(eps, dtype=np.float64)[:, None]
    max_steps = int(np.max(lengths))
    # (max_steps, B, 1) tables of which chains drift and how far each is kicked
    steps = np.arange(max_steps)[:, None, None]
    ends = lengths[None, :, None]
    active = steps < ends
    kicks = np.where(steps < ends - 1, eps_col,
                     np.where(steps == ends - 1, 0.5 * eps_col, 0.0))
    with np.errstate(all="ignore"):
        pi = pi - 0.5 * eps_col * grad_fn(theta)
        for step in range(max_steps):
            theta = theta + np.where(active[step], eps_col * pi / mass_diag, 0.0)
            pi = pi - kicks[step] * grad_fn(theta)
    return theta, pi


def _kinetic(pi, mass_diag):
    return 0.5 * np.sum(np.square(pi) / mass_diag, axis=-1)


def _transition(chains: list[ChainState], target, l0: int, jitter: float):
    """One accept/reject HMC update of every chain; returns accept statistics.

    The returned array holds the Metropolis statistic min(1, exp(-dH)) per
    chain (0 for divergent proposals), which feeds dual averaging.
    """
    theta = np.stack([c.theta for c in chains])
    mass = np.stack([c.mass_diag for c in chains])
    eps = np.array([c.eps for c in chains])
    pi = np.stack([
        c.rng.normal(size=theta.shape[1]) * np.sqrt(c.mass_diag) for c in chains
    ])
    lengths = np.array([jittered_length(c.rng, l0, jitter) for c in chains])
    uniforms = np.array([c.rng.uniform() for c in chains])

    def grad_v(th):
        return -target.grad_log_prob(th)

    with np.errstate(all="ignore"):
        h0 = -target.log_prob(theta) + _kinetic(pi, mass)
        theta_new, pi_new = _batched_leapfrog(theta, pi, eps, lengths, mass, grad_v)
        h1 = -target.log_prob(theta_new) + _kinetic(pi_new, mass)
        dh = h1 - h0
        divergent = ~np.isfinite(dh) | (np.abs(dh) > DIVERGENCE_THRESHOLD)
        alpha = np.where(divergent, 0.0, np.minimum(1.0, np.exp(np.minimum(-dh, 0.0))))
        accept = ~divergent & (uniforms < alpha)

    for i, chain in enumerate(chains):
        chain.proposed += 1
        if divergent[i]:
            chain.divergences += 1
        if accept[i]:
            chain.accepted += 1
            chain.theta = theta_new[i]
    return alpha, accept


class _DualAveraging:
    """Nesterov dual averaging of log(eps) toward a target acceptance rate."""

    def __init__(self, eps0: np.ndarray, delta: float):
        self.delta = delta
        self.mu = np.log(10.0 * eps0)
        self.log_eps = np.log(eps0)
        self.log_eps_bar = np.log(eps0)
        self.h_bar = np.zeros_like(eps0)
        self.count = 0

    def update(self, alpha: np.ndarray) -> np.ndarray:
        self.count += 1
        m = self.count
        frac = 1.0 / (m + DA_T0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.delta - alpha)
        self.log_eps = self.mu - np.sqrt(m) / DA_GAMMA * self.h_bar
        weight = m ** (-DA_KAPPA)
        self.log_eps_bar = weight * self.log_eps + (1.0 - weight) * self.log_eps_bar
        return np.exp(self.log_eps)

    def final(self) -> np.ndarray:
        return np.exp(self.log_eps_bar)


def warmup_windows(n_warmup: int, n_slow: int) -> list[tuple[int, str]]:
    """(length, kind) schedule: fast, then doubling slow windows, then fast."""
    windows = [(max(1, n_warmup // 12), "fast")]
    base = max(1, n_warmup // 36)
    windows += [(base * 2 ** j, "slow") for j in range(n_slow)]
    windows.append((max(1, n_warmup // 18), "fast"))
    return windows


def warmup(chains: list[ChainState], config: HmcConfig, target) -> list[ChainState]:
    """Adapt step sizes (all windows) and diagonal masses (slow windows).

    A single dual-averaging run spans all windows and adapts one step size
    shared by every chain, fed with the chain-averaged Metropolis alpha.
    Restarting the averaging per window (or running it per chain on noisy
    single-transition alphas) freezes the averaged step size before the
    iterates settle, which biases the post-warmup acceptance rate well
    above the target.
    """
    da = _DualAveraging(np.array([chains[0].eps]), config.target_accept)
    for window_len, kind in warmup_windows(config.n_warmup, config.n_slow_windows):
        for attempt in range(2):
            draws = np.empty((window_len, len(chains), chains[0].theta.size))
            accept_count = np.zeros(len(chains), dtype=int)
            for step in range(window_len):
                alpha, accepted = _transition(chains, target, config.l0, config.jitter)
                accept_count += accepted
                eps_new = float(da.update(np.array([alpha.mean()]))[0])
                for i, c in enumerate(chains):
                    c.eps = eps_new
                    draws[step, i] = c.theta
            # rescue only a genuinely stuck sampler: no chain accepted
            # anything in the whole window.  A single chain with an unlucky
            # streak is ordinary noise for the shared, still-adapting step
            # size and is handled by dual averaging itself.
            if accept_count.sum() > 0:
                break
            if attempt == 1:
                raise WarmupError(
                    f"every proposal of a {kind} window was rejected twice"
                )
            for c in chains:
                c.eps *= 0.5
            da = _DualAveraging(np.array([chains[0].eps]), config.target_accept)
        if kind == "slow":
            for i, c in enumerate(chains):
                _, _, variance = circular_site_stats(draws[:, i])
                c.mass_diag = np.clip(variance, MASS_FLOOR, MASS_CEILING)
    eps_final = float(da.final()[0])
    for c in chains:
        c.eps = eps_final
    return chains


def split_rhat(per_chain: np.ndarray) -> float:
    """Split-R-hat of a (n_chains, n_draws) scalar series."""
    n_chains, n_draws = per_chain.shape
    half = n_draws // 2
    if half < 2:
        return np.nan
    halves = np.concatenate([per_chain[:, :half], per_chain[:, half : 2 * half]])
    means = halves.mean(axis=1)
    variances = halves.var(axis=1, ddof=1)
    w = variances.mean()
    b = half * means.var(ddof=1)
    if w <= 0:
        return np.nan
    var_plus = (half - 1) / half * w + b / half
    return float(np.sqrt(var_plus / w))


@dataclass
class SampleDiagnostics:
    acceptance: np.ndarray  # per chain
    divergences: np.ndarray  # per chain
    rhat_max: float
    warnings: list[str] = field(default_factory=list)


def sample(chains: list[ChainState], n_samples: int, target, config: HmcConfig):
    """Draw n_samples per chain, all chains as one batch; returns
    ((Nc*Ns, N) samples ordered by chain, then draw; diagnostics)."""
    for c in chains:
        c.accepted = c.proposed = c.divergences = 0
    by_chain = np.empty((len(chains), n_samples, chains[0].theta.size))
    for s in range(n_samples):
        _transition(chains, target, config.l0, config.jitter)
        for i, c in enumerate(chains):
            by_chain[i, s] = wrap_angle(c.theta)

    rhats = []
    for k in range(by_chain.shape[2]):
        rhats.append(split_rhat(np.cos(by_chain[:, :, k])))
        rhats.append(split_rhat(np.sin(by_chain[:, :, k])))
    rhats = [r for r in rhats if np.isfinite(r)]
    rhat_max = max(rhats) if rhats else np.nan
    warnings = []
    if np.isfinite(rhat_max) and rhat_max > 1.1:
        warnings.append(f"split-Rhat {rhat_max:.3f} exceeds 1.1 on some coordinate")
    diag = SampleDiagnostics(
        acceptance=np.array([c.acceptance_rate for c in chains]),
        divergences=np.array([c.divergences for c in chains]),
        rhat_max=rhat_max,
        warnings=warnings,
    )
    return by_chain.reshape(-1, by_chain.shape[2]), diag
