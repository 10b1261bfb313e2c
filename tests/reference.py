"""Reference helpers that only the tests call.

Exact-basis states, operators and expectations built the simple way (the
ladder operators as Kronecker products of one-site matrices), and noiseless
grid averages of a variational state.  They serve as independent
oracles for the program's own (faster) code paths.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from rotor_tvmc import exact, hmc, observables
from rotor_tvmc.exact import TruncatedBasis, angle_grid, grid_points
from rotor_tvmc.quadrature import born_weights


def flat_index(basis: TruncatedBasis, m_multi) -> int:
    """Flat index of the basis state |m_0 ... m_{N-1}>, site 0 most significant."""
    idx = 0
    for m in m_multi:
        if abs(m) > basis.m_cut:
            raise ValueError(f"|m| > {basis.m_cut}")
        idx = idx * basis.local_dim + (m + basis.m_cut)
    return idx


def initial_product_state(basis: TruncatedBasis) -> np.ndarray:
    """Coherent superposition of all |theta>: the m = 0 product state."""
    c = np.zeros(basis.dim, dtype=np.complex128)
    c[flat_index(basis, (0,) * basis.n_sites)] = 1.0
    return c


def evolve_exact(hamiltonian, c: np.ndarray, t: float) -> np.ndarray:
    return exact.ExactEvolver(hamiltonian).evolve(c, t)


def dense_evolver(hamiltonian):
    """(state, t) -> exp(-i H t) c, from one eigendecomposition of the whole dense H."""
    h = hamiltonian.toarray() if hasattr(hamiltonian, "toarray") else hamiltonian
    energies, modes = np.linalg.eigh(h)

    def evolve(c: np.ndarray, t: float) -> np.ndarray:
        c = modes.conj().T @ c
        return modes @ (np.exp(-1j * energies * t) * c)

    return evolve


def expectation(op, c: np.ndarray) -> complex:
    return complex(c.conj() @ (op @ c)) / float(np.real(c.conj() @ c))


def ladder_operators(basis: TruncatedBasis, site: int):
    """(L+_k, L-_k) as Kronecker products of identities and the one-site ladders."""
    d = basis.local_dim
    left = sp.identity(d ** site, format="csr")
    right = sp.identity(d ** (basis.n_sites - site - 1), format="csr")
    return tuple(
        sp.kron(sp.kron(left, sp.diags([np.ones(d - 1)], [offset])), right, format="csr")
        for offset in (-1, 1)  # |m+1><m| and |m-1><m|
    )


def kron_bond_coupling(basis: TruncatedBasis, k: int, l: int):
    """n_k . n_l = (L+_k L-_l + L-_k L+_l) / 2 from the Kronecker ladders."""
    rk, lk = ladder_operators(basis, k)
    rl, ll = ladder_operators(basis, l)
    return 0.5 * (rk @ ll + lk @ rl)


def kron_hamiltonian(basis: TruncatedBasis, lattice, g: float, J: float):
    """H = (g J / 2) sum_k L_k^2 - J sum_<kl> n_k . n_l, sparse, from Kronecker products."""
    d = basis.local_dim
    kinetic = sum(
        sp.kron(sp.kron(sp.identity(d ** k),
                        sp.diags([np.arange(-basis.m_cut, basis.m_cut + 1.0) ** 2], [0])),
                sp.identity(d ** (basis.n_sites - k - 1)), format="csr")
        for k in range(basis.n_sites)
    )
    h = (g * J / 2.0) * kinetic
    for k, l in lattice.bonds:
        h = h - J * kron_bond_coupling(basis, int(k), int(l))
    return h.tocsr()


def cos_sin_operators(basis: TruncatedBasis, site: int):
    """(cos theta_k, sin theta_k); exp(i theta) lowers m in this convention."""
    rk, lk = ladder_operators(basis, site)
    return 0.5 * (rk + lk), 0.5j * (rk - lk)


def dense_grid_weights(c: np.ndarray, basis: TruncatedBasis, q: int) -> np.ndarray:
    """Normalized |psi|^2 of a basis state on the points of ``grid_points(N, q)``.

    psi on the grid is the inverse transform of the coefficients, one axis per
    site, with <theta|m> = exp(-i m theta) up to 1/sqrt(2 pi).
    """
    n = basis.n_sites
    m_local = np.arange(-basis.m_cut, basis.m_cut + 1)
    dft = np.exp(-1j * np.outer(angle_grid(q), m_local))
    psi = c.reshape((basis.local_dim,) * n)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(dft, psi, axes=(1, axis)), 0, axis)
    prob = np.abs(psi.ravel()) ** 2
    return prob / prob.sum()


def dense_magnetization_quadrature(c: np.ndarray, basis: TruncatedBasis,
                                   q: int = 32) -> float:
    """Eq.-17-style magnetization (modulus inside the average) via a theta grid."""
    thetas = grid_points(basis.n_sites, q)
    resultant = np.hypot(np.sum(np.cos(thetas), axis=-1), np.sum(np.sin(thetas), axis=-1))
    return float(dense_grid_weights(c, basis, q) @ resultant / basis.n_sites)


def quadrature_mean(state, values_fn, q: int = 16):
    """Weighted mean of an arbitrary per-configuration quantity."""
    points = grid_points(state.n_sites, q)
    weights = born_weights(state, points)
    return np.tensordot(weights, values_fn(points), axes=(0, 0))


def quadrature_energy(state, g: float, J: float, q: int = 16) -> complex:
    return complex(quadrature_mean(state, lambda pts: state.local_energy(pts, g, J), q))


def loop_circulation(theta, loop_sites, ell: int) -> float:
    """Circulation of one loop on one configuration, edge by edge: the sum of
    the minimal-image angle differences along the directed edges, over
    ell^2.  A difference of +-pi (within 1e-9) has no minimal image and
    counts as 0."""
    sites = list(loop_sites)
    total = 0.0
    for a, b in zip(sites, sites[1:] + sites[:1]):
        diff = (theta[b] - theta[a] + np.pi) % (2 * np.pi) - np.pi
        if abs(diff) < np.pi - 1e-9:
            total += diff
    return total / ell ** 2


def jastrow_pair_sums(state, theta):
    """(ln psi, d1, d2, O) of a Jastrow at a (B, N) batch, pair by pair:
    ln psi = sum_p w_p cos(theta_i - theta_j), and each pair adds its
    angle derivatives to its two sites with ``np.add.at``."""
    i, j, w = state.pair_i, state.pair_j, state.alpha
    diff = theta[:, i] - theta[:, j]
    cos_d, sin_d = np.cos(diff), np.sin(diff)
    log_psi = np.sum(w * cos_d, axis=-1)
    d1 = np.zeros(theta.shape, dtype=np.complex128)
    d2 = np.zeros(theta.shape, dtype=np.complex128)
    rows = slice(None)
    np.add.at(d1, (rows, i), -w * sin_d)
    np.add.at(d1, (rows, j), w * sin_d)
    np.add.at(d2, (rows, i), -w * cos_d)
    np.add.at(d2, (rows, j), -w * cos_d)
    return log_psi, d1, d2, cos_d.astype(np.complex128)


def log_psi_periodicity_check(state, theta, k: int, tol=1e-12) -> bool:
    """True when shifting angle k by 2 pi leaves the wavefunction unchanged."""
    theta = np.asarray(theta, dtype=np.float64)
    shifted = theta.copy()
    shifted[k] += 2.0 * np.pi
    # compare exponentials so a 2 pi i ambiguity in the log cannot trip us up
    return abs(np.exp(state.log_psi(theta) - state.log_psi(shifted)) - 1.0) <= tol


def masked_leapfrog(theta, pi, eps, lengths, mass_diag, grad_log_prob):
    """The batched leapfrog with the gradient evaluated at its start and a
    drift mask on every step."""
    theta = np.array(theta, dtype=np.float64)
    pi = np.array(pi, dtype=np.float64)
    lengths = np.asarray(lengths)
    max_steps = int(np.max(lengths))
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


def recomputing_transition(batch):
    """The plain form of ``hmc._transition``: each trajectory evaluates the
    gradient of ln p afresh at its start (``masked_leapfrog``), the momenta
    scale by sqrt(M) taken per transition, the lengths are drawn one chain at
    a time over ``length_bounds`` and the accept uniforms come from
    ``uniform()``.  Updates the batch's positions and ln p in place; its
    gradient is left as it is."""
    rngs, target, config = batch.rngs, batch.target, batch.config
    pi = np.stack([rng.normal(size=batch.theta.shape[1]) for rng in rngs])
    pi = pi * np.sqrt(batch.mass)
    lo, hi = hmc.length_bounds(config.l0, config.jitter)
    lengths = np.array([rng.integers(lo, hi + 1) for rng in rngs])
    uniforms = np.array([rng.uniform() for rng in rngs])
    with np.errstate(all="ignore"):
        h0 = -batch.log_p + hmc._kinetic(pi, batch.mass)
        theta_new, pi_new = masked_leapfrog(batch.theta, pi, batch.eps, lengths,
                                            batch.mass, target.grad_log_prob)
        log_p_new = target.log_prob(theta_new)
        dh = -log_p_new + hmc._kinetic(pi_new, batch.mass) - h0
        divergent = ~np.isfinite(dh) | (np.abs(dh) > hmc.DIVERGENCE_THRESHOLD)
        alpha = np.where(divergent, 0.0, np.minimum(1.0, np.exp(np.minimum(-dh, 0.0))))
        accept = ~divergent & (uniforms < alpha)
    batch.theta[accept] = theta_new[accept]
    batch.log_p[accept] = log_p_new[accept]
    return alpha, accept, divergent


def fidelity_sigma_by_replicate(z0, zt) -> float:
    """The fidelity's bootstrap error bar, one replicate at a time: each
    draws its picks of z_0's rows, then of z_t's, and clamps its estimate
    to [0, 1]."""
    rng = np.random.default_rng(observables.BOOTSTRAP_SEED)
    estimates = np.empty(observables.DEFAULT_RESAMPLES)
    for r in range(observables.DEFAULT_RESAMPLES):
        pick0 = rng.integers(0, z0.shape[0], size=z0.shape[0])
        pick_t = rng.integers(0, zt.shape[0], size=zt.shape[0])
        f = np.exp(observables._log_mean_exp(z0[pick0].ravel())
                   + observables._log_mean_exp(zt[pick_t].ravel()))
        estimates[r] = min(1.0, max(0.0, float(np.real(f))))
    return float(np.std(estimates))
