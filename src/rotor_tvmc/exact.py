"""Exact small-system reference in the truncated angular-momentum basis.

Per site the basis is |m>, m in [-M, M], with <theta|m> = exp(-i m theta) /
sqrt(2 pi).  Multi-indices map to flat indices with site 0 most significant,
matching the row-major grid layout used by the quadrature conversion, and
every operator here is an index shift on that flat basis.  Ladder operators
act as L+|m> = |m+1>, L-|m> = |m-1>, truncated so L+|M> = L-|-M> = 0, giving
the bond coupling

    n_k . n_l = (L+_k L-_l + L-_k L+_l) / 2 .

Each bond term moves one quantum between two sites, so the Hamiltonian
conserves the total angular momentum m_1 + ... + m_N and splits into
2 N M + 1 sectors, one per total.  ``build_hamiltonian`` makes H directly as
these dense sector blocks, one at a time, and ``ExactEvolver`` diagonalizes
each on its own; the dense limit applies to the largest sector (total 0), not
to the whole basis.  States are plain coefficient vectors in the flat basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .ansatz.base import VariationalState
from .lattice import Lattice

# largest sector diagonalized densely: at this size its real Hamiltonian and
# its eigenvectors take 200 MB each
DIM_GUARD = 5_000
GRID_GUARD = 10_000_000
# grid points per ln psi call: bounds the ansatz kernels' temporaries
GRID_CHUNK = 8192


class OracleGuardError(RuntimeError):
    """Requested basis or quadrature grid exceeds the desk-scale guard."""


def check_dim(dim: int) -> None:
    """Raise OracleGuardError for a sector too large for dense evolution."""
    if dim > DIM_GUARD:
        raise OracleGuardError(
            f"dense eigendecomposition guard: sector of dim {dim} > {DIM_GUARD}"
        )


def check_grid(n_sites: int, q: int) -> None:
    """Raise OracleGuardError for a q^n_sites grid beyond the guard."""
    if q ** n_sites > GRID_GUARD:
        raise OracleGuardError(f"grid size {q}^{n_sites} exceeds guard {GRID_GUARD}")


def projection_points(m_cut: int) -> int:
    """Points per site of ``vqs_to_dense``'s default grid."""
    return max(2 * m_cut + 1, 16)


def largest_sector(n_sites: int, m_cut: int) -> int:
    """Size of the largest sector (total 0), without enumerating the basis.

    This is the central coefficient of (1 + x + ... + x^(2 m_cut))^n_sites,
    in exact integers.
    """
    local = np.ones(2 * m_cut + 1, dtype=object)
    counts = np.ones(1, dtype=object)
    for _ in range(n_sites):
        counts = np.convolve(counts, local)
    return int(counts[n_sites * m_cut])


@dataclass
class TruncatedBasis:
    n_sites: int
    m_cut: int = 5

    def __post_init__(self):
        if self.m_cut < 1:
            raise ValueError("m_cut must be >= 1")
        self.local_dim = 2 * self.m_cut + 1
        self.dim = self.local_dim ** self.n_sites

    def m_values(self) -> np.ndarray:
        """(dim, n_sites) array of m_k for every basis state."""
        local = np.arange(-self.m_cut, self.m_cut + 1)
        grids = np.meshgrid(*([local] * self.n_sites), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass(frozen=True)
class BondCoupling:
    """n_k . n_l = (L+_k L-_l + L-_k L+_l) / 2 on a basis of ``dim`` states.

    The hop L+_k L-_l maps state src[i] to state dst[i]; the other term is
    its transpose.  Every element of the coupling is 1/2.
    """

    dim: int
    src: np.ndarray
    dst: np.ndarray

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        out[self.dst, self.src] = 0.5
        out[self.src, self.dst] = 0.5
        return out


def bond_coupling(basis: TruncatedBasis, k: int, l: int,
                  m: np.ndarray | None = None) -> BondCoupling:
    """The k-l bond coupling, from ``m = basis.m_values()`` when given.

    The hop L+_k L-_l maps |m> to |m + e_k - e_l>, a flat-index step of
    stride_k - stride_l, unless m_k = m_cut or m_l = -m_cut.
    """
    if m is None:
        m = basis.m_values()
    stride_k, stride_l = basis.local_dim ** (basis.n_sites - 1 - np.array([k, l]))
    src = np.flatnonzero((m[:, k] < basis.m_cut) & (m[:, l] > -basis.m_cut))
    return BondCoupling(basis.dim, src, src + stride_k - stride_l)


def build_hamiltonian(basis: TruncatedBasis, lattice: Lattice, g: float, J: float):
    """H = (g J / 2) sum_k m_k^2 - J sum_<kl> n_k . n_l, one dense block per sector.

    Returns an iterator of (flat indices, block) pairs in ascending total M,
    with block[i, j] = <indices[i]|H|indices[j]> and each sector's indices
    ascending.  The blocks are made as the iterator is consumed, so a caller
    that keeps only their eigendecompositions never holds all of H.  The
    guard and the site count are checked at the call.
    """
    check_dim(largest_sector(basis.n_sites, basis.m_cut))
    if basis.n_sites != lattice.n_sites:
        raise ValueError("basis and lattice disagree on site count")
    return _sector_blocks(basis, lattice, g, J)


def _sector_blocks(basis: TruncatedBasis, lattice: Lattice, g: float, J: float):
    m = basis.m_values()
    sector = m.sum(axis=-1) + basis.n_sites * basis.m_cut  # total M, from 0
    # states grouped by sector, ascending flat indices within each
    order = np.argsort(sector, kind="stable")
    sizes = np.bincount(sector)
    position = np.empty(basis.dim, dtype=np.intp)
    position[order] = np.arange(basis.dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    diagonal = (g * J / 2.0) * np.sum(m ** 2, axis=-1).astype(np.float64)
    # every bond's hops, grouped by sector (a hop keeps total M), in bond order
    hops = [bond_coupling(basis, int(k), int(l), m) for k, l in lattice.bonds]
    src = np.concatenate([np.empty(0, dtype=np.intp)] + [hop.src for hop in hops])
    dst = np.concatenate([np.empty(0, dtype=np.intp)] + [hop.dst for hop in hops])
    by_sector = np.argsort(sector[src], kind="stable")
    hop_ends = np.cumsum(np.bincount(sector[src], minlength=sizes.size))[:-1]
    rows = np.split(position[dst[by_sector]], hop_ends)
    cols = np.split(position[src[by_sector]], hop_ends)
    value = J * 0.5
    for indices, r, c in zip(np.split(order, np.cumsum(sizes)[:-1]), rows, cols):
        block = np.diag(diagonal[indices])
        np.subtract.at(block, (r, c), value)
        np.subtract.at(block, (c, r), value)
        yield indices, block


class ExactEvolver:
    """Unitary evolution by one dense Hermitian eigendecomposition per block.

    ``hamiltonian`` yields (basis indices, dense block) pairs that partition
    the basis, as ``build_hamiltonian`` does.  ``blocks`` holds (basis
    indices, energies, modes) for each block.
    """

    def __init__(self, hamiltonian):
        self.blocks = [(idx, *np.linalg.eigh(block)) for idx, block in hamiltonian]

    def evolve(self, coefficients: np.ndarray, t: float) -> np.ndarray:
        out = np.empty(coefficients.shape, dtype=np.complex128)
        for idx, energies, modes in self.blocks:
            # modes^H c without forming modes^H
            c = _matvec(modes.T, coefficients[idx].conj()).conj()
            out[idx] = _matvec(modes, np.exp(-1j * energies * t) * c)
        return out


def _matvec(m, c):
    """m @ c for a contiguous complex vector c; in real arithmetic when m is real."""
    if np.iscomplexobj(m):
        return m @ c
    return (m @ c.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def angle_grid(q: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(q) / q


def grid_points(n_sites: int, q: int) -> np.ndarray:
    """(q^N, N) points of the uniform product grid, site 0 most significant."""
    check_grid(n_sites, q)
    grid = angle_grid(q)
    meshes = np.meshgrid(*([grid] * n_sites), indexing="ij")
    return np.stack([m.ravel() for m in meshes], axis=-1)


def log_psi_on_points(state: VariationalState, points: np.ndarray) -> np.ndarray:
    """ln psi at every point, GRID_CHUNK points per call."""
    logs = np.empty(points.shape[0], dtype=np.complex128)
    for lo in range(0, points.shape[0], GRID_CHUNK):
        logs[lo : lo + GRID_CHUNK] = state.log_psi(points[lo : lo + GRID_CHUNK])
    return logs


def vqs_to_dense(state: VariationalState, basis: TruncatedBasis, q: int | None = None):
    """Project a variational state onto the truncated basis by grid Fourier sums.

    c_m = (2 pi)^(-N/2) Int dtheta psi(theta) exp(+i m . theta), evaluated with
    q uniform points per site (exact up to aliasing beyond the grid band).
    Returns (normalized coefficients, aliasing_mass) where aliasing_mass is
    the squared-amplitude fraction carried by the top grid Fourier shell.
    """
    n = state.n_sites
    if q is None:
        q = projection_points(basis.m_cut)
    if q < 2 * basis.m_cut + 1:
        raise ValueError("need q >= 2 m_cut + 1 grid points per site")
    logs = log_psi_on_points(state, grid_points(n, q))
    # psi scaled by exp(-max Re ln psi); the scale cancels in the normalization
    tensor = np.exp(logs - np.max(logs.real)).reshape((q,) * n)
    # q * ifft gives sum_j psi_j exp(+2 pi i m j / q); the grid starts at -pi,
    # which contributes the (-1)^m phase per axis.
    for axis in range(n):
        tensor = q * np.fft.ifft(tensor, axis=axis)
    power = np.abs(tensor) ** 2
    total = float(np.sum(power))
    alias_mass = 0.0
    if total > 0:
        top = np.abs(np.fft.fftfreq(q, d=1.0 / q)) >= q // 2
        alias_mass = float(np.sum(power[reduce(np.logical_or.outer, [top] * n)]) / total)

    m_local = np.arange(-basis.m_cut, basis.m_cut + 1)
    phase = reduce(np.multiply.outer, [(-1.0) ** np.abs(m_local)] * n)
    c = (tensor[np.ix_(*[np.mod(m_local, q)] * n)] * phase).ravel()
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError("variational state projects to the zero vector")
    return c / norm, alias_mass


def _shifted_overlap(c, shifts: dict) -> complex:
    """<psi|O|psi> for O|m> = |m + shifts[k]> on each listed site k (truncated).

    c is the coefficient tensor, one axis per site; a shift of -1 is L-, +1 is
    L+, so the sum pairs each coefficient with the one shifted along each axis.
    """
    kept, moved = [slice(None)] * c.ndim, [slice(None)] * c.ndim
    for axis, step in shifts.items():
        kept[axis] = slice(max(0, -step), c.shape[axis] - max(0, step))
        moved[axis] = slice(max(0, step), c.shape[axis] - max(0, -step))
    return complex(np.vdot(c[tuple(moved)], c[tuple(kept)]))


def exact_observables(coefficients: np.ndarray, basis: TruncatedBasis, lattice: Lattice,
                      J: float = 1.0) -> dict:
    """Potential energy density, magnetization components and circular variance.

    With z_k = <L-_k> = <exp(i theta_k)>, <cos theta_k> = Re z_k and
    <sin theta_k> = Im z_k; the bond term <n_k . n_l> is Re <L-_k L+_l>.
    """
    n = lattice.n_sites
    c = coefficients.reshape((basis.local_dim,) * n)
    norm = float(np.real(np.vdot(c, c)))
    e_bonds = sum(
        _shifted_overlap(c, {int(k): -1, int(l): 1}).real for k, l in lattice.bonds
    ) / norm
    z = np.array([_shifted_overlap(c, {k: -1}) for k in range(n)]) / norm
    with np.errstate(divide="ignore"):
        var_sites = -2.0 * np.log(np.abs(z))
    return {
        "e_pot": -J * e_bonds / n,
        "mag_x": float(np.mean(z.real)),
        "mag_y": float(np.mean(z.imag)),
        "var_mean": float(np.mean(var_sites)),
    }


def exact_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    ca = a / np.linalg.norm(a)
    cb = b / np.linalg.norm(b)
    return float(np.abs(ca.conj() @ cb) ** 2)
