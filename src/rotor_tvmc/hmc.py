"""Hamiltonian Monte Carlo over rotor configurations.

The chains are one batch, ``Chains``, from their first position to their last
sample: its target and ``HmcConfig``, (C, N) positions, metrics and gradients
of ln p, a (C,) batch of ln p, one shared step size and per-chain generators.
``Chains`` evaluates ln p and its gradient once, at the start angles;
``warmup(chains)`` and ``sample(chains)`` read the target and settings from
the batch, update it in place and never evaluate either on entry.
ln p and its gradient are carried: each transition evaluates ln p once, at the
proposals, and its leapfrog starts from the carried gradient and leaves the
gradient at the proposals, and both are kept for the chains that accept.  A
trajectory of L leapfrog steps makes L gradient calls, so a draw makes
1 + sum of L_max gradient calls.  The carry returns the bits of a recomputed
gradient because every ansatz's gradient of a row does not depend on the
other rows of a batch of fixed shape.

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
DIVERGENCE_WARNING = "divergent transitions after warmup"
MASS_FLOOR = 1e-6
MASS_CEILING = 1e6
# the first slow window, n_warmup // 36 transitions, needs two draws for a variance
MIN_WARMUP = 72

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
        if min(self.l0, self.n_slow_windows, self.n_samples, self.n_chains) < 1:
            raise ValueError("all counts must be >= 1")
        if self.n_warmup < MIN_WARMUP:
            raise ValueError(f"n_warmup must be >= {MIN_WARMUP}, got {self.n_warmup}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target acceptance must lie in (0, 1)")
        if self.eps0 <= 0:
            raise ValueError("eps0 must be positive")


def length_bounds(l0: int, jitter: float) -> tuple[int, int]:
    """The trajectory-length range [round((1-j)L0), round((1+j)L0)], at least 1."""
    lo = max(1, int(round((1.0 - jitter) * l0)))
    return lo, max(lo, int(round((1.0 + jitter) * l0)))


def _batched_leapfrog(theta, pi, eps, lengths, mass_diag, grad_log_prob, grad):
    """Half-kick/drift/half-kick leapfrog with a per-chain number of steps.

    ``theta`` and ``pi`` are (B, N) batches, ``eps`` is the step size every
    chain shares and ``lengths`` holds one step count per chain.  Interior
    kicks are fused.  Chains whose trajectory is already finished are frozen:
    they drift by 0 and are kicked by 0, so per-chain results match running
    each chain as its own batch exactly.  Steps on which every chain is
    active drift without the mask.

    ``grad`` holds the gradient of ln p at ``theta``, which is not
    evaluated again; on return it holds the gradient at the end of each
    chain's trajectory.  A trajectory of L steps thus makes L gradient calls.
    """
    theta = np.array(theta, dtype=np.float64)
    pi = np.array(pi, dtype=np.float64)
    lengths = np.asarray(lengths)
    max_steps = int(np.max(lengths))
    # (max_steps, B, 1) tables of which chains drift and how far each is kicked
    steps = np.arange(max_steps)[:, None, None]
    ends = lengths[None, :, None]
    active = steps < ends
    all_active = active.all(axis=(1, 2))
    kicks = np.where(steps < ends - 1, eps,
                     np.where(steps == ends - 1, 0.5 * eps, 0.0))
    move = np.empty_like(theta)
    with np.errstate(all="ignore"):
        pi += np.multiply(0.5 * eps, grad, out=move)
        for step in range(max_steps):
            np.multiply(eps, pi, out=move)
            move /= mass_diag
            theta += move if all_active[step] else np.where(active[step], move, 0.0)
            g = grad_log_prob(theta)
            pi += np.multiply(kicks[step], g, out=move)
    grad[...] = g
    return theta, pi


def _kinetic(pi, mass_diag):
    return 0.5 * np.sum(np.square(pi) / mass_diag, axis=-1)


class Chains:
    """The chains as one batch: the target and ``HmcConfig`` that every
    transition reads, (C, N) positions, metric (with its square root) and
    gradient of ln p, (C,) ln p, the step size every chain shares, the
    per-chain generators and the batched gradient calls made so far.

    Each chain draws its start angles uniformly from its own generator; ε
    starts at ``eps0`` and the metric at 1.  ln p and its gradient are
    evaluated once, here, and then only by the transitions, which keep them
    where a chain accepts.  The transitions draw into arrays allocated here.
    """

    def __init__(self, target, n_sites: int, config: HmcConfig, rngs):
        self.target, self.config = target, config
        self.rngs = list(rngs)
        self.theta = np.stack([rng.uniform(-np.pi, np.pi, size=n_sites) for rng in self.rngs])
        self.eps = config.eps0
        self.set_mass(np.ones_like(self.theta))
        with np.errstate(all="ignore"):
            self.log_p = target.log_prob(self.theta)
            self.grad = target.grad_log_prob(self.theta)
        self.grad_calls = 1
        # each transition's momenta, trajectory lengths and accept uniforms
        self._momenta = np.empty_like(self.theta)
        self._lengths = np.empty(len(self.rngs), dtype=np.int64)
        self._uniforms = np.empty(len(self.rngs))

    def set_mass(self, mass) -> None:
        self.mass, self.sqrt_mass = mass, np.sqrt(mass)


def _transition(chains: Chains):
    """One accept/reject HMC update of the chains, in place on their positions,
    ln p and gradient, under their target.

    One loop over the chains draws each chain's momenta, trajectory length
    (uniform in ``length_bounds`` of the batch's ``l0`` and ``jitter``) and
    accept uniform from its own generator, in that order, into arrays of
    ``chains``: the values of ``rng.normal``, ``rng.integers`` and
    ``rng.uniform``.

    Returns the Metropolis statistic min(1, exp(-dH)) per chain (0 for
    divergent proposals), which feeds dual averaging, and the per-chain
    accept and divergence flags.
    """
    pi, lengths, uniforms = chains._momenta, chains._lengths, chains._uniforms
    target = chains.target
    lo, hi = length_bounds(chains.config.l0, chains.config.jitter)
    for c, rng in enumerate(chains.rngs):
        rng.standard_normal(out=pi[c])
        lengths[c] = rng.integers(lo, hi + 1)
        uniforms[c] = rng.random()
    pi *= chains.sqrt_mass

    grad_new = chains.grad.copy()
    with np.errstate(all="ignore"):
        h0 = -chains.log_p + _kinetic(pi, chains.mass)
        theta_new, pi_new = _batched_leapfrog(chains.theta, pi, chains.eps, lengths,
                                              chains.mass, target.grad_log_prob, grad_new)
        log_p_new = target.log_prob(theta_new)
        dh = -log_p_new + _kinetic(pi_new, chains.mass) - h0
        divergent = ~np.isfinite(dh) | (np.abs(dh) > DIVERGENCE_THRESHOLD)
        alpha = np.where(divergent, 0.0, np.minimum(1.0, np.exp(np.minimum(-dh, 0.0))))
        accept = ~divergent & (uniforms < alpha)
    chains.theta[accept] = theta_new[accept]
    chains.log_p[accept] = log_p_new[accept]
    chains.grad[accept] = grad_new[accept]
    chains.grad_calls += int(lengths.max())
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
    windows = [(n_warmup // 12, "fast")]
    windows += [(n_warmup // 36 * 2 ** j, "slow") for j in range(n_slow)]
    windows.append((n_warmup // 18, "fast"))
    return windows


def warmup(chains: Chains) -> None:
    """Adapt the step size (all windows) and diagonal masses (slow windows)
    of the chains, in place, on the schedule of their ``HmcConfig``.

    A single dual-averaging run spans all windows and adapts one step size
    shared by every chain, fed with the chain-averaged Metropolis alpha.
    Restarting the averaging per window (or running it per chain on noisy
    single-transition alphas) freezes the averaged step size before the
    iterates settle, which biases the post-warmup acceptance rate well
    above the target.
    """
    config = chains.config
    da = _DualAveraging(chains.eps, config.target_accept)
    for window_len, kind in warmup_windows(config.n_warmup, config.n_slow_windows):
        for attempt in range(2):
            draws = np.empty((window_len,) + chains.theta.shape)
            n_accepted = 0
            for step in range(window_len):
                alpha, accept, _ = _transition(chains)
                n_accepted += int(accept.sum())
                chains.eps = da.update(alpha.mean())
                draws[step] = chains.theta
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
            chains.eps *= 0.5
            da = _DualAveraging(chains.eps, config.target_accept)
        if kind == "slow":
            # every (chain, site) column is one site's series
            variance = circular_site_stats(draws.reshape(window_len, -1))
            chains.set_mass(
                np.clip(variance, MASS_FLOOR, MASS_CEILING).reshape(chains.theta.shape))
    chains.eps = da.final()


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


def sample(chains: Chains):
    """Draw the batch's ``n_samples`` per chain, advancing the chains in
    place; returns ((C, n_samples, N) samples, diagnostics).  The angles are
    wrapped once, when the draw is complete."""
    n_chains, n_sites = chains.theta.shape
    n_samples = chains.config.n_samples
    by_chain = np.empty((n_chains, n_samples, n_sites))
    accepted = np.zeros(n_chains, dtype=int)
    divergences = np.zeros(n_chains, dtype=int)
    for s in range(n_samples):
        _, accept, divergent = _transition(chains)
        accepted += accept
        divergences += divergent
        by_chain[:, s] = chains.theta
    by_chain = wrap_angle(by_chain)

    # (2N, Nc, Ns) cos and sin series of every coordinate, draws contiguous
    angles = np.ascontiguousarray(by_chain.transpose(2, 0, 1))
    rhats = split_rhat(np.concatenate([np.cos(angles), np.sin(angles)]))
    rhats = rhats[np.isfinite(rhats)]
    rhat_max = float(rhats.max()) if rhats.size else np.nan
    warnings = []
    if np.isfinite(rhat_max) and rhat_max > 1.1:
        warnings.append(f"split-Rhat {rhat_max:.3f} exceeds 1.1 on some coordinate")
    if divergences.any():
        warnings.append(DIVERGENCE_WARNING)
    diag = SampleDiagnostics(
        acceptance=accepted / n_samples,
        divergences=divergences,
        rhat_max=rhat_max,
        warnings=warnings,
    )
    return by_chain, diag
