import numpy as np
import pytest

from rotor_tvmc.ansatz import CircularRBM
from rotor_tvmc.ansatz.cnn import ConvTable
from rotor_tvmc.lattice import (
    Lattice,
    LatticeError,
    build_lattice,
    circular_site_stats,
    wrap_angle,
)


class TestBuildLattice:
    def test_open_chain_bond_count(self):
        lat = build_lattice((5,), (False,))
        assert lat.n_sites == 5
        assert lat.bonds.shape == (4, 2)

    def test_periodic_chain_bond_count(self):
        lat = build_lattice((5,), (True,))
        assert lat.bonds.shape == (5, 2)

    def test_open_square_bond_count(self):
        lat = build_lattice((4, 4), (False, False))
        # 2 * 4 * 3 horizontal + vertical
        assert lat.bonds.shape == (24, 2)

    def test_periodic_square_bond_count(self):
        lat = build_lattice((4, 4), (True, True))
        assert lat.bonds.shape == (32, 2)

    def test_mixed_boundaries(self):
        lat = build_lattice((3, 4), (True, False))
        assert lat.bonds.shape == (3 * 3 + 3 * 4, 2)

    def test_bonds_sorted_within_pair(self):
        lat = build_lattice((4, 4), (True, True))
        assert np.all(lat.bonds[:, 0] < lat.bonds[:, 1])

    def test_extent_two_periodic_doubles_bonds(self):
        # wrap and interior bond coincide; both are kept (double coupling)
        lat = build_lattice((2,), (True,))
        assert lat.bonds.shape == (2, 2)

    def test_invalid_dims_raise(self):
        with pytest.raises(LatticeError):
            build_lattice((0,), (True,))
        with pytest.raises(LatticeError):
            build_lattice((2, 2), (True,))

    def test_three_dimensional_rejected(self):
        with pytest.raises(LatticeError):
            build_lattice((2, 2, 2), (True, True, True))


class TestPlaquettes:
    def test_unit_plaquette_count_periodic(self):
        lat = build_lattice((4, 4), (True, True))
        assert lat.plaquettes(1).shape == (16, 4)

    def test_unit_plaquette_count_open(self):
        lat = build_lattice((4, 4), (False, False))
        assert lat.plaquettes(1).shape == (9, 4)

    def test_loop_length(self):
        lat = build_lattice((6, 6), (True, True))
        assert lat.plaquettes(2).shape[1] == 8

    def test_loop_sites_are_neighbors(self):
        lat = build_lattice((4, 4), (True, True))
        bond_set = {tuple(b) for b in lat.bonds}
        for loop in lat.plaquettes(1):
            for a, b in zip(loop, np.roll(loop, -1)):
                assert tuple(sorted((a, b))) in bond_set


class TestRowMajorTables:
    """Index tables written out by hand from the definition: site (r, c) of a
    lattice with ``cols`` columns has flat index r * cols + c."""

    def test_bonds_periodic_along_rows(self):
        # sites 0 1 2 / 3 4 5; the row axis has extent 2, so each column
        # bond is there twice (interior and wrap)
        lat = build_lattice((2, 3), (True, False))
        expected = [[0, 1], [0, 3], [0, 3], [1, 2], [1, 4], [1, 4],
                    [2, 5], [2, 5], [3, 4], [4, 5]]
        assert np.array_equal(lat.bonds, expected)

    def test_unit_plaquettes_periodic_along_rows(self):
        lat = build_lattice((2, 3), (True, False))
        expected = [[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 1, 0], [4, 5, 2, 1]]
        assert np.array_equal(lat.plaquettes(1), expected)

    def test_conv_window_at_corners_of_open_lattice(self):
        # 3x4 open lattice, offsets (-1,-1), (-1,0), ..., (1,1); an offset
        # that leaves an open axis reads coordinate 0 there and is masked
        table = ConvTable(build_lattice((3, 4), (False, False)), (3, 3))
        assert np.array_equal(table.idx[0], [0, 0, 1, 0, 0, 1, 4, 4, 5])
        assert np.array_equal(table.mask[0], [0, 0, 0, 0, 1, 1, 0, 1, 1])
        assert np.array_equal(table.idx[11], [6, 7, 4, 10, 11, 8, 2, 3, 0])
        assert np.array_equal(table.mask[11], [1, 1, 0, 1, 1, 0, 0, 0, 0])

    def test_displacement_table_periodic(self):
        # disp[j, k] = flat index of (coords(k) - coords(j)) mod (2, 3)
        state = CircularRBM(build_lattice((2, 3), (True, True)), convolutional=True)
        expected = [[0, 1, 2, 3, 4, 5],
                    [2, 0, 1, 5, 3, 4],
                    [1, 2, 0, 4, 5, 3],
                    [3, 4, 5, 0, 1, 2],
                    [5, 3, 4, 2, 0, 1],
                    [4, 5, 3, 1, 2, 0]]
        assert np.array_equal(state._disp, expected)


class TestWrapAngle:
    def test_range(self):
        x = np.linspace(-20, 20, 2001)
        w = wrap_angle(x)
        assert np.all(w >= -np.pi) and np.all(w < np.pi)

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-50, 50, size=1000)
        w = wrap_angle(x)
        assert np.array_equal(wrap_angle(w), w)

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 2.9])
        assert np.allclose(wrap_angle(x + 2 * np.pi), wrap_angle(x))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(np.array([np.nan]))


class TestCircularStats:
    def test_concentrated_cloud(self):
        rng = np.random.default_rng(0)
        samples = 0.01 * rng.standard_normal((5000, 3)) + 1.0
        assert np.all(circular_site_stats(samples) < 1e-3)

    def test_uniform_angles_high_variance(self):
        rng = np.random.default_rng(1)
        samples = rng.uniform(-np.pi, np.pi, size=(20000, 2))
        assert np.all(circular_site_stats(samples) > 5.0)

    def test_variance_matches_definition(self):
        rng = np.random.default_rng(2)
        samples = rng.vonmises(0.0, 2.0, size=(4000, 1))
        variance = circular_site_stats(samples)
        r = np.hypot(np.cos(samples).mean(), np.sin(samples).mean())
        assert np.isclose(variance[0], -2 * np.log(r))
