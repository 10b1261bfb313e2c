"""Lattice geometry and circular statistics for planar-rotor configurations.

Site indexing is row-major: on a 2D lattice with ``dims = [rows, cols]`` the
site at ``(r, c)`` has flat index ``r * cols + c``.  ``Lattice.shift`` is the
one place that turns lattice coordinates into flat indices; the bonds, the
plaquette loops and the other modules (RBM displacements, convolution
windows) take their indices from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class LatticeError(ValueError):
    pass


@dataclass
class Lattice:
    """Nearest-neighbor geometry of a 1D chain or 2D square lattice.

    ``bonds`` holds one entry per (site, positive direction) pair, stored as
    ``(k, l)`` with ``k < l`` in sorted order.  On periodic lattices of extent
    2 the same unordered pair therefore appears twice, which is the physically
    correct double coupling.  Self-bonds (extent 1) are never emitted.
    Lattices compare by ``dims`` and ``periodic``, from which the rest derives.
    """

    dims: tuple[int, ...]
    periodic: tuple[bool, ...]
    n_sites: int = field(init=False, compare=False)
    bonds: np.ndarray = field(init=False, compare=False)  # (n_bonds, 2) int
    _plaquettes: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.n_sites = math.prod(self.dims)
        site = np.arange(self.n_sites)[:, None]
        index, inside = self.shift(np.eye(self.ndim, dtype=np.int64))
        keep = inside & (index != site)  # a periodic extent-1 axis wraps onto the site
        lo, hi = np.minimum(site, index)[keep], np.maximum(site, index)[keep]
        self.bonds = np.stack([lo, hi], axis=1)[np.lexsort((hi, lo))]

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def coords(self) -> np.ndarray:
        """(n_sites, ndim) coordinates of every site, in flat-index order."""
        return np.indices(self.dims).reshape(self.ndim, -1).T

    def shift(self, offsets):
        """The site at each lattice vector of ``offsets`` (n_offsets, ndim)
        from every site: its flat index, and whether it lies on the lattice,
        both of shape (n_sites, n_offsets).  Periodic axes wrap; an open axis
        that an offset leaves reads coordinate 0."""
        target = self.coords[:, None, :] + np.asarray(offsets)
        inside = np.asarray(self.periodic) | ((target >= 0) & (target < self.dims))
        target = np.moveaxis(np.where(inside, target, 0), -1, 0)
        return np.ravel_multi_index(target, self.dims, mode="wrap"), inside.all(axis=-1)

    def plaquettes(self, ell: int) -> np.ndarray:
        """Site loops around all ell x ell squares, shape (n_loops, 4*ell).

        Each row lists the perimeter sites in positive orientation starting
        from the lower-left corner; consecutive entries (cyclically) are the
        4*ell directed edges of the loop.  A corner starts a loop when every
        step of it lies on the lattice, in flat order of the corners; loops
        longer than the lattice (ell > max(dims)) are not enumerated.
        Enumerated lazily and cached.
        """
        if self.ndim != 2:
            raise LatticeError("plaquettes require a 2D lattice")
        if ell < 1:
            raise LatticeError("plaquette edge length must be >= 1")
        if ell not in self._plaquettes:
            s = np.arange(ell)
            # rows of the +col, +row, -col, -row edges; the columns run one edge ahead
            rows = np.concatenate([np.zeros_like(s), s, np.full(ell, ell), ell - s])
            index, inside = self.shift(np.stack([rows, np.roll(rows, -ell)], axis=1))
            loops = index[inside.all(axis=1)]
            self._plaquettes[ell] = loops if ell <= max(self.dims) else loops[:0]
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
    return Lattice(dims=dims, periodic=periodic)


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
    """Per-site circular variance -2 ln R_k of a (n_samples, n_sites) angle array.

    R_k = |<n_k>| in [0, 1] is the length of the site's mean unit vector.  A
    site whose R_k vanishes exactly gets a +inf variance sentinel (legitimate
    for antipodal or fully disordered samples, not an error).  Normalized
    ``weights`` make the means weighted.
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
    with np.errstate(divide="ignore"):
        return -2.0 * np.log(np.hypot(cx, sx))
