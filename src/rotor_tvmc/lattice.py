"""Lattice geometry and circular statistics for planar-rotor configurations.

Site indexing is row-major: on a 2D lattice with ``dims = [rows, cols]`` the
site at ``(r, c)`` has flat index ``r * cols + c``.  All other modules
(convolution kernels, the exact oracle) rely on this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class LatticeError(ValueError):
    pass


@dataclass
class Lattice:
    """Nearest-neighbor geometry of a 1D chain or 2D square lattice.

    ``bonds`` holds one entry per (site, positive direction) pair, stored as
    ``(k, l)`` with ``k < l``.  On periodic lattices of extent 2 the same
    unordered pair therefore appears twice, which is the physically correct
    double coupling.  Self-bonds (extent 1) are never emitted.
    """

    dims: tuple[int, ...]
    periodic: tuple[bool, ...]
    n_sites: int
    bonds: np.ndarray  # (n_bonds, 2) int
    _plaquettes: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def site_index(self, coords) -> int:
        coords = tuple(coords)
        if self.ndim == 1:
            return coords[0]
        return coords[0] * self.dims[1] + coords[1]

    def site_coords(self, index: int) -> tuple[int, ...]:
        if self.ndim == 1:
            return (index,)
        return divmod(index, self.dims[1])

    def plaquettes(self, ell: int) -> np.ndarray:
        """Site loops around all ell x ell squares, shape (n_loops, 4*ell).

        Each row lists the perimeter sites in positive orientation starting
        from the lower-left corner; consecutive entries (cyclically) are the
        4*ell directed edges of the loop.  Enumerated lazily and cached.
        """
        if self.ndim != 2:
            raise LatticeError("plaquettes require a 2D lattice")
        if ell < 1:
            raise LatticeError("plaquette edge length must be >= 1")
        if ell not in self._plaquettes:
            self._plaquettes[ell] = _enumerate_plaquettes(self, ell)
        return self._plaquettes[ell]


def build_lattice(dims, periodic) -> Lattice:
    """Build a chain or square lattice with the requested boundary conditions."""
    dims = tuple(int(d) for d in dims)
    periodic = tuple(bool(p) for p in periodic)
    if len(dims) not in (1, 2):
        raise LatticeError(f"only 1 or 2 dimensions supported, got {len(dims)}")
    if len(periodic) != len(dims):
        raise LatticeError("periodic flags must match the number of dimensions")
    if any(d < 1 for d in dims):
        raise LatticeError(f"extents must be >= 1, got {dims}")

    n_sites = int(np.prod(dims))
    bonds = []
    for flat in range(n_sites):
        coords = (flat,) if len(dims) == 1 else divmod(flat, dims[1])
        for axis in range(len(dims)):
            extent = dims[axis]
            nxt = list(coords)
            nxt[axis] += 1
            if nxt[axis] >= extent:
                if not periodic[axis] or extent < 2:
                    continue
                nxt[axis] = 0
            if len(dims) == 1:
                other = nxt[0]
            else:
                other = nxt[0] * dims[1] + nxt[1]
            bonds.append((min(flat, other), max(flat, other)))
    bond_arr = np.array(sorted(bonds), dtype=np.int64).reshape(-1, 2)
    return Lattice(dims=dims, periodic=periodic, n_sites=n_sites, bonds=bond_arr)


def _enumerate_plaquettes(lat: Lattice, ell: int) -> np.ndarray:
    rows, cols = lat.dims
    max_r = rows if lat.periodic[0] else rows - ell
    max_c = cols if lat.periodic[1] else cols - ell
    if max_r <= 0 or max_c <= 0 or ell >= max(rows, cols) + 1:
        return np.zeros((0, 4 * ell), dtype=np.int64)

    loops = []
    for r0 in range(max_r):
        for c0 in range(max_c):
            path = []
            # bottom edge, +col direction
            for s in range(ell):
                path.append((r0, c0 + s))
            # right edge, +row direction
            for s in range(ell):
                path.append((r0 + s, c0 + ell))
            # top edge, -col direction
            for s in range(ell):
                path.append((r0 + ell, c0 + ell - s))
            # left edge, -row direction
            for s in range(ell):
                path.append((r0 + ell - s, c0))
            idx = [((r % rows) * cols + (c % cols)) for r, c in path]
            loops.append(idx)
    return np.array(loops, dtype=np.int64)


def wrap_angle(x):
    """Map angles to [-pi, pi), elementwise; idempotent for in-range values."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("wrap_angle requires finite input")
    wrapped = np.mod(x + np.pi, TWO_PI) - np.pi
    # keep already-canonical values bit-exact so wrapping is idempotent
    out = np.where((x >= -np.pi) & (x < np.pi), x, wrapped)
    return out if out.ndim else float(out)


def circular_site_stats(samples: np.ndarray, weights: np.ndarray | None = None):
    """Per-site circular statistics of a (n_samples, n_sites) angle array.

    Returns ``(mean_dir, resultant, variance)`` where ``mean_dir`` has shape
    (n_sites, 2) and holds the normalized mean of (cos, sin) per site,
    ``resultant`` is R_k = |<n_k>| in [0, 1] and ``variance`` is -2 ln R_k.
    A site whose resultant vanishes exactly gets ``mean_dir = (0, 0)`` and a
    +inf variance sentinel (legitimate for antipodal or fully disordered
    samples, not an error).  Normalized ``weights`` make the means weighted.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] < 1:
        raise ValueError("need at least one sample")
    if weights is None:
        cx = np.mean(np.cos(samples), axis=0)
        sx = np.mean(np.sin(samples), axis=0)
    else:
        cx = weights @ np.cos(samples)
        sx = weights @ np.sin(samples)
    resultant = np.hypot(cx, sx)
    mean_dir = np.zeros((samples.shape[1], 2))
    nonzero = resultant > 0
    mean_dir[nonzero, 0] = cx[nonzero] / resultant[nonzero]
    mean_dir[nonzero, 1] = sx[nonzero] / resultant[nonzero]
    with np.errstate(divide="ignore"):
        variance = -2.0 * np.log(resultant)
    return mean_dir, resultant, variance
