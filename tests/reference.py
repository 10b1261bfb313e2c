"""Reference helpers that only the tests call.

Exact-basis states, operators and expectations built the simple way (the
ladder operators as Kronecker products of one-site matrices), and noiseless
grid averages of a variational state.  They serve as independent
oracles for the program's own (faster) code paths.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from rotor_tvmc import exact
from rotor_tvmc.exact import TruncatedBasis, angle_grid, grid_points
from rotor_tvmc.quadrature import born_weights


def initial_product_state(basis: TruncatedBasis) -> np.ndarray:
    """Coherent superposition of all |theta>: the m = 0 product state."""
    c = np.zeros(basis.dim, dtype=np.complex128)
    c[basis.flat_index((0,) * basis.n_sites)] = 1.0
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
