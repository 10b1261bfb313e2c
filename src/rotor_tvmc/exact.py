"""Exact small-system reference in the truncated angular-momentum basis.

Per site the basis is |m>, m in [-M, M], with <theta|m> = exp(-i m theta) /
sqrt(2 pi).  Ladder operators act as L+|m> = |m+1>, L-|m> = |m-1>, truncated
so L+|M> = L-|-M> = 0, giving the bond coupling

    n_k . n_l = (L+_k L-_l + L-_k L+_l) / 2 .

Each bond term moves one quantum between two sites, so the Hamiltonian
conserves the total angular momentum m_1 + ... + m_N and splits into
2 N M + 1 sectors, one per total.  ``ExactEvolver`` diagonalizes each sector
on its own, and the dense limit applies to the largest sector (total 0), not
to the whole basis.

Multi-indices map to flat indices with site 0 most significant, matching the
row-major grid layout used by the quadrature conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ansatz.base import VariationalState
from .lattice import Lattice

# largest sector diagonalized densely: at this size its real Hamiltonian and
# its eigenvectors take 200 MB each
DIM_GUARD = 5_000
GRID_GUARD = 10_000_000


class OracleGuardError(RuntimeError):
    """Requested basis or quadrature grid exceeds the desk-scale guard."""


def check_dim(dim: int) -> None:
    """Raise OracleGuardError for a sector too large for dense evolution."""
    if dim > DIM_GUARD:
        raise OracleGuardError(
            f"dense eigendecomposition guard: sector of dim {dim} > {DIM_GUARD}"
        )


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

    def flat_index(self, m_multi) -> int:
        idx = 0
        for m in m_multi:
            if abs(m) > self.m_cut:
                raise ValueError(f"|m| > {self.m_cut}")
            idx = idx * self.local_dim + (m + self.m_cut)
        return idx

    def multi_index(self, flat: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n_sites):
            flat, rem = divmod(flat, self.local_dim)
            out.append(rem - self.m_cut)
        return tuple(reversed(out))

    def m_values(self) -> np.ndarray:
        """(dim, n_sites) array of m_k for every basis state."""
        local = np.arange(-self.m_cut, self.m_cut + 1)
        grids = np.meshgrid(*([local] * self.n_sites), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def total_m(self) -> np.ndarray:
        """(dim,) total angular momentum sum_k m_k of each state: its sector."""
        return self.m_values().sum(axis=-1)


@dataclass
class DenseState:
    coefficients: np.ndarray


def _local_ladder(m_cut: int):
    d = 2 * m_cut + 1
    raise_op = sp.diags([np.ones(d - 1)], [-1], format="csr")  # |m+1><m|
    lower_op = sp.diags([np.ones(d - 1)], [1], format="csr")  # |m-1><m|
    return raise_op, lower_op


def _site_operator(basis: TruncatedBasis, site: int, local: sp.spmatrix) -> sp.spmatrix:
    d = basis.local_dim
    left = sp.identity(d ** site, format="csr")
    right = sp.identity(d ** (basis.n_sites - site - 1), format="csr")
    return sp.kron(sp.kron(left, local), right, format="csr")


def ladder_operators(basis: TruncatedBasis, site: int):
    """(L+_k, L-_k) embedded into the full truncated Hilbert space."""
    raise_loc, lower_loc = _local_ladder(basis.m_cut)
    return (
        _site_operator(basis, site, raise_loc),
        _site_operator(basis, site, lower_loc),
    )


def bond_coupling(basis: TruncatedBasis, k: int, l: int) -> sp.spmatrix:
    """n_k . n_l = (L+_k L-_l + L-_k L+_l) / 2 as a sparse matrix."""
    rk, lk = ladder_operators(basis, k)
    rl, ll = ladder_operators(basis, l)
    return 0.5 * (rk @ ll + lk @ rl)


def build_hamiltonian(basis: TruncatedBasis, lattice: Lattice, g: float, J: float) -> sp.spmatrix:
    check_dim(largest_sector(basis.n_sites, basis.m_cut))
    if basis.n_sites != lattice.n_sites:
        raise ValueError("basis and lattice disagree on site count")
    m2 = np.sum(basis.m_values() ** 2, axis=-1).astype(np.float64)
    h = sp.diags([(g * J / 2.0) * m2], [0], format="csr")
    for k, l in lattice.bonds:
        h = h - J * bond_coupling(basis, int(k), int(l))
    return h.tocsr()


class ExactEvolver:
    """Unitary evolution by one dense Hermitian eigendecomposition per sector.

    ``sectors`` labels every basis state with a conserved quantum number, such
    as ``TruncatedBasis.total_m()`` for ``build_hamiltonian``'s H; H must have
    no element between different labels.  Without labels H is one block.
    ``blocks`` holds (basis indices, energies, modes) for each sector.
    """

    def __init__(self, hamiltonian, sectors=None):
        if sectors is None:
            sectors = np.zeros(hamiltonian.shape[0], dtype=np.int64)
        sectors = np.asarray(sectors)
        order = np.argsort(sectors, kind="stable")
        _, starts = np.unique(sectors[order], return_index=True)
        indices = np.split(order, starts[1:])
        check_dim(max(idx.size for idx in indices))
        h = sp.coo_matrix(hamiltonian)
        if np.any(sectors[h.row] != sectors[h.col]):
            raise ValueError("the Hamiltonian couples different sectors")
        h = h.tocsr()
        self.blocks = []
        for idx in indices:
            energies, modes = np.linalg.eigh(h[idx][:, idx].toarray())
            self.blocks.append((idx, energies, modes))

    def evolve(self, state: DenseState, t: float) -> DenseState:
        out = np.empty(state.coefficients.shape, dtype=np.complex128)
        for idx, energies, modes in self.blocks:
            # modes^H c without forming modes^H
            c = _matvec(modes.T, state.coefficients[idx].conj()).conj()
            out[idx] = _matvec(modes, np.exp(-1j * energies * t) * c)
        return DenseState(out)


def _matvec(m, c):
    """m @ c for a contiguous complex vector c; in real arithmetic when m is real."""
    if np.iscomplexobj(m):
        return m @ c
    return (m @ c.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def angle_grid(q: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(q) / q


def grid_points(n_sites: int, q: int) -> np.ndarray:
    """(q^N, N) points of the uniform product grid, site 0 most significant."""
    if q ** n_sites > GRID_GUARD:
        raise OracleGuardError(f"grid size {q}^{n_sites} exceeds guard {GRID_GUARD}")
    grid = angle_grid(q)
    meshes = np.meshgrid(*([grid] * n_sites), indexing="ij")
    return np.stack([m.ravel() for m in meshes], axis=-1)


def evaluate_on_grid(state: VariationalState, q: int, chunk_size: int = 8192):
    """psi on the uniform product grid, shape (q,) * N, scaled by exp(-shift).

    Returns (tensor, shift) with shift = max Re ln psi, so the caller can undo
    the overall scale when it matters (it cancels in normalized quantities).
    """
    n = state.n_sites
    points = grid_points(n, q)
    logs = np.empty(points.shape[0], dtype=np.complex128)
    for lo in range(0, points.shape[0], chunk_size):
        logs[lo : lo + chunk_size] = state.log_psi(points[lo : lo + chunk_size])
    shift = float(np.max(np.real(logs)))
    return np.exp(logs - shift).reshape((q,) * n), shift


def vqs_to_dense(state: VariationalState, basis: TruncatedBasis, q: int | None = None):
    """Project a variational state onto the truncated basis by grid Fourier sums.

    c_m = (2 pi)^(-N/2) Int dtheta psi(theta) exp(+i m . theta), evaluated with
    q uniform points per site (exact up to aliasing beyond the grid band).
    Returns (DenseState normalized, aliasing_mass) where aliasing_mass is the
    squared-amplitude fraction carried by the top grid Fourier shell.
    """
    n = state.n_sites
    if q is None:
        q = max(2 * basis.m_cut + 1, 16)
    if q < 2 * basis.m_cut + 1:
        raise ValueError("need q >= 2 m_cut + 1 grid points per site")
    tensor, _ = evaluate_on_grid(state, q)
    # q * ifft gives sum_j psi_j exp(+2 pi i m j / q); the grid starts at -pi,
    # which contributes the (-1)^m phase per axis.
    for axis in range(n):
        tensor = q * np.fft.ifft(tensor, axis=axis)
    power = np.abs(tensor) ** 2
    total = float(np.sum(power))
    top = q // 2
    alias_mass = 0.0
    if total > 0:
        any_top = np.zeros(tensor.shape, dtype=bool)
        for axis in range(n):
            modes = np.fft.fftfreq(q, d=1.0 / q).astype(int)
            sel = np.abs(modes) >= top
            shape = [1] * n
            shape[axis] = q
            any_top |= sel.reshape(shape)
        alias_mass = float(np.sum(power[any_top]) / total)

    m_local = np.arange(-basis.m_cut, basis.m_cut + 1)
    take = np.mod(m_local, q)
    phase = (-1.0) ** np.abs(m_local)
    coeff = tensor
    for axis in range(n):
        coeff = np.take(coeff, take, axis=axis)
        shape = [1] * n
        shape[axis] = basis.local_dim
        coeff = coeff * phase.reshape(shape)
    c = coeff.ravel()
    norm = np.linalg.norm(c)
    if norm == 0:
        raise ValueError("variational state projects to the zero vector")
    return DenseState(c / norm), alias_mass


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


def exact_observables(state: DenseState, basis: TruncatedBasis, lattice: Lattice,
                      J: float = 1.0) -> dict:
    """Potential energy density, magnetization components and circular variance.

    With z_k = <L-_k> = <exp(i theta_k)>, <cos theta_k> = Re z_k and
    <sin theta_k> = Im z_k; the bond term <n_k . n_l> is Re <L-_k L+_l>.
    """
    n = lattice.n_sites
    c = state.coefficients.reshape((basis.local_dim,) * n)
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


def exact_fidelity(a: DenseState, b: DenseState) -> float:
    ca = a.coefficients / np.linalg.norm(a.coefficients)
    cb = b.coefficients / np.linalg.norm(b.coefficients)
    return float(np.abs(ca.conj() @ cb) ** 2)
