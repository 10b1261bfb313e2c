import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from reference import (
    cos_sin_operators,
    dense_evolver,
    dense_magnetization_quadrature,
    evolve_exact,
    expectation,
    initial_product_state,
    kron_bond_coupling,
    ladder_operators,
    quadrature_energy,
)

from rotor_tvmc import exact
from rotor_tvmc.ansatz import make_ansatz, random_alpha
from rotor_tvmc.lattice import build_lattice


class TestBasis:
    def test_dimensions(self):
        basis = exact.TruncatedBasis(3, 2)
        assert basis.local_dim == 5
        assert basis.dim == 125

    def test_flat_index_roundtrip(self):
        basis = exact.TruncatedBasis(3, 2)
        for multi in itertools.product(range(-2, 3), repeat=3):
            assert basis.multi_index(basis.flat_index(multi)) == multi

    def test_site_zero_most_significant(self):
        basis = exact.TruncatedBasis(2, 1)
        # incrementing site 0 moves by local_dim entries
        a = basis.flat_index((0, 0))
        b = basis.flat_index((1, 0))
        assert b - a == basis.local_dim

    def test_hamiltonian_dim_guard(self):
        lat = build_lattice((8,), (True,))
        basis = exact.TruncatedBasis(8, 5)  # 11^8 states
        with pytest.raises(exact.OracleGuardError):
            exact.build_hamiltonian(basis, lat, g=3.0, J=1.0)


class TestLadderOperators:
    @pytest.mark.parametrize("m_cut", [1, 2, 5])
    def test_single_site_matrix_elements(self, m_cut):
        basis = exact.TruncatedBasis(1, m_cut)
        raise_op, lower_op = ladder_operators(basis, 0)
        raise_dense = raise_op.toarray()
        ms = list(range(-m_cut, m_cut + 1))
        for i, m_row in enumerate(ms):
            for j, m_col in enumerate(ms):
                expected = 1.0 if m_row == m_col + 1 else 0.0
                assert raise_dense[i, j] == expected
        assert np.array_equal(lower_op.toarray(), raise_dense.T)

    @pytest.mark.parametrize("m_cut", [1, 2, 5])
    def test_bond_coupling_matrix_elements(self, m_cut):
        # n_k . n_l has elements (1/2)(delta_{m'_k, m_k+1} delta_{m'_l, m_l-1}
        #                             + delta_{m'_k, m_k-1} delta_{m'_l, m_l+1})
        basis = exact.TruncatedBasis(2, m_cut)
        coupling = exact.bond_coupling(basis, 0, 1).toarray()
        ms = list(range(-m_cut, m_cut + 1))
        states = list(itertools.product(ms, repeat=2))
        for r, (mk_p, ml_p) in enumerate(states):
            for c, (mk, ml) in enumerate(states):
                expected = 0.5 * (
                    (mk_p == mk + 1) * (ml_p == ml - 1)
                    + (mk_p == mk - 1) * (ml_p == ml + 1)
                )
                assert coupling[r, c] == expected

    def test_cos_sin_consistency(self):
        basis = exact.TruncatedBasis(1, 3)
        raise_op, lower_op = ladder_operators(basis, 0)
        cos_op, sin_op = cos_sin_operators(basis, 0)
        assert np.allclose(cos_op.toarray(),
                           0.5 * (raise_op + lower_op).toarray())
        assert np.allclose(sin_op.toarray(),
                           (0.5j * (raise_op - lower_op)).toarray())


class TestHamiltonian:
    def test_hermitian(self):
        lat = build_lattice((3,), (True,))
        basis = exact.TruncatedBasis(3, 2)
        h = exact.build_hamiltonian(basis, lat, g=4.0, J=1.0)
        assert (h != h.getH()).nnz == 0

    def test_kinetic_diagonal(self):
        lat = build_lattice((2,), (False,))
        basis = exact.TruncatedBasis(2, 2)
        # the bond coupling is purely off-diagonal, so the diagonal is the
        # kinetic term (g J / 2) sum_k m_k^2 alone
        h = exact.build_hamiltonian(basis, lat, g=4.0, J=1.0)
        diag = h.diagonal()
        for idx in range(basis.dim):
            multi = basis.multi_index(idx)
            assert diag[idx] == pytest.approx(2.0 * sum(m * m for m in multi))

    def test_large_g_ground_state_is_m_zero(self):
        lat = build_lattice((2,), (False,))
        basis = exact.TruncatedBasis(2, 2)
        h = exact.build_hamiltonian(basis, lat, g=500.0, J=1.0).toarray()
        _, vecs = np.linalg.eigh(h)
        gs = np.abs(vecs[:, 0])
        assert gs[basis.flat_index((0, 0))] > 0.999


class TestEvolution:
    def test_unitarity(self):
        lat = build_lattice((2,), (True,))
        basis = exact.TruncatedBasis(2, 3)
        h = exact.build_hamiltonian(basis, lat, g=3.0, J=1.0)
        psi = initial_product_state(basis)
        evolver = exact.ExactEvolver(h)
        for t in (0.1, 1.0, 5.0):
            evolved = evolver.evolve(psi, t)
            assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-10)

    def test_zero_time_identity(self):
        lat = build_lattice((2,), (False,))
        basis = exact.TruncatedBasis(2, 2)
        h = exact.build_hamiltonian(basis, lat, g=3.0, J=1.0)
        psi = initial_product_state(basis)
        evolved = evolve_exact(h, psi, 0.0)
        assert np.allclose(evolved, psi, atol=1e-12)

    def test_eigendecomposition_guard(self):
        # the guard fires before densifying: a dense 6000 x 6000 copy is 288 MB;
        # a tridiagonal H is connected, so it is one block of 6000 states
        big = sp.diags([np.ones(5999), np.arange(6000.0), np.ones(5999)], [-1, 0, 1],
                       format="csr")
        tracemalloc.start()
        try:
            with pytest.raises(exact.OracleGuardError):
                exact.ExactEvolver(big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_one_dense_limit(self):
        # 5 rotors at m_cut = 5: 11^5 = 161051 states, 8801 of them with M = 0;
        # refused before the basis is enumerated
        lat = build_lattice((5,), (True,))
        basis = exact.TruncatedBasis(5, 5)
        tracemalloc.start()
        try:
            with pytest.raises(exact.OracleGuardError, match="8801 > 5000"):
                exact.build_hamiltonian(basis, lat, g=3.0, J=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestConversion:
    def test_uniform_state_maps_to_product_state(self):
        lat = build_lattice((2,), (False,))
        basis = exact.TruncatedBasis(2, 3)
        state = make_ansatz("jastrow", lat)  # zero parameters: psi = 1
        dense, alias = exact.vqs_to_dense(state, basis)
        expected = initial_product_state(basis)
        overlap = abs(np.vdot(dense, expected))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert alias < 1e-12

    def test_single_mode_sign_convention(self):
        # psi(theta) = exp(-i theta) must land on the m = +1 coefficient,
        # fixing the <theta|m> = exp(-i m theta) convention
        lat = build_lattice((1,), (False,))

        class SingleMode:
            n_sites = 1

            def log_psi(self, theta):
                return -1j * np.atleast_2d(theta)[:, 0]

            def log_prob(self, theta):
                return np.zeros(np.atleast_2d(theta).shape[0])

        basis = exact.TruncatedBasis(1, 2)
        dense, _ = exact.vqs_to_dense(SingleMode(), basis)
        weights = np.abs(dense) ** 2
        assert weights[basis.flat_index((1,))] == pytest.approx(1.0, abs=1e-12)

    def test_energy_agreement_with_quadrature(self):
        lat = build_lattice((2,), (False,))
        state = make_ansatz("jastrow", lat)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(1), 0.2))
        basis = exact.TruncatedBasis(2, 5)
        dense, _ = exact.vqs_to_dense(state, basis, q=32)
        h = exact.build_hamiltonian(basis, lat, g=3.0, J=1.0)
        e_dense = np.real(expectation(h, dense))
        e_quad = np.real(quadrature_energy(state, g=3.0, J=1.0, q=32))
        assert e_dense == pytest.approx(e_quad, abs=1e-8)

    def test_grid_too_coarse_rejected(self):
        lat = build_lattice((2,), (False,))
        state = make_ansatz("jastrow", lat)
        basis = exact.TruncatedBasis(2, 5)
        with pytest.raises(ValueError):
            exact.vqs_to_dense(state, basis, q=7)


def _rebuilt_observables(state, basis, lattice, J):
    """exact_observables from sparse operators built for this one call."""
    e_bonds = sum(
        np.real(expectation(exact.bond_coupling(basis, int(k), int(l)), state))
        for k, l in lattice.bonds
    )
    mx_sites, my_sites = [], []
    for k in range(lattice.n_sites):
        cos_op, sin_op = cos_sin_operators(basis, k)
        mx_sites.append(np.real(expectation(cos_op, state)))
        my_sites.append(np.real(expectation(sin_op, state)))
    return {
        "e_pot": -J * e_bonds / lattice.n_sites,
        "mag_x": float(np.mean(mx_sites)),
        "mag_y": float(np.mean(my_sites)),
        "var_mean": float(np.mean(-2.0 * np.log(np.hypot(mx_sites, my_sites)))),
    }


class TestAgainstRebuiltOperators:
    """Observables from shifted coefficient slices, and evolve without modes^H."""

    def test_three_rotor_trajectory(self):
        lat = build_lattice((3,), (True,))
        state = make_ansatz("rbm", lat, n_hidden=4)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(3), 0.4))
        basis = exact.TruncatedBasis(3, 3)
        dense0, _ = exact.vqs_to_dense(state, basis)
        h = exact.build_hamiltonian(basis, lat, g=4.5, J=1.0)
        evolver = exact.ExactEvolver(h)
        assert not any(np.iscomplexobj(modes) for _, _, modes in evolver.blocks)
        reference = dense_evolver(h)
        for t in np.linspace(0.0, 1.0, 9):
            dense_t = evolver.evolve(dense0, t)
            ref = reference(dense0, t)
            assert np.max(np.abs(dense_t - ref)) <= 1e-12
            got = exact.exact_observables(dense_t, basis, lat, J=1.3)
            want = _rebuilt_observables(dense_t, basis, lat, J=1.3)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-12)

    def test_complex_hamiltonian_evolve(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        h = h + h.conj().T
        evolver = exact.ExactEvolver(h)
        reference = dense_evolver(h)
        c = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        state = c / np.linalg.norm(c)
        for t in (0.0, 0.3, 2.0):
            got = evolver.evolve(state, t)
            assert np.max(np.abs(got - reference(state, t))) <= 1e-12


def _random_state(dim, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return c / np.linalg.norm(c)


def _lattices():
    return {
        "chain-2": build_lattice((2,), (True,)),
        "chain-3": build_lattice((3,), (True,)),
        "open-chain-3": build_lattice((3,), (False,)),
        "open-2x2": build_lattice((2, 2), (False, False)),
        "periodic-2x2": build_lattice((2, 2), (True, True)),
    }


def _total_m(basis):
    """Total angular momentum sum_k m_k of every basis state: its sector."""
    return basis.m_values().sum(axis=-1)


class TestBondCoupling:
    @pytest.mark.parametrize("m_cut", [1, 3])
    @pytest.mark.parametrize("name", sorted(_lattices()))
    def test_equals_kronecker_reference(self, name, m_cut):
        lat = _lattices()[name]
        basis = exact.TruncatedBasis(lat.n_sites, m_cut)
        for k, l in lat.bonds:
            got = exact.bond_coupling(basis, int(k), int(l))
            want = kron_bond_coupling(basis, int(k), int(l))
            assert (got != want).nnz == 0
            assert np.all(got.data == 0.5)


class TestSectors:
    """One eigendecomposition per total-M sector."""

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_evolution_matches_dense_eigh(self, n_sites):
        lat = build_lattice((n_sites,), (True,))
        basis = exact.TruncatedBasis(n_sites, 5)
        h = exact.build_hamiltonian(basis, lat, g=6.0, J=1.0)
        evolver = exact.ExactEvolver(h)
        assert len(evolver.blocks) == 2 * n_sites * 5 + 1
        reference = dense_evolver(h)
        state = _random_state(basis.dim, n_sites)
        for t in (0.0, 0.05, 0.5, 1.0, 7.3):
            got = evolver.evolve(state, t)
            assert np.max(np.abs(got - reference(state, t))) <= 1e-12

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_spectra_union_is_the_dense_spectrum(self, n_sites):
        lat = build_lattice((n_sites,), (True,))
        basis = exact.TruncatedBasis(n_sites, 5)
        h = exact.build_hamiltonian(basis, lat, g=3.0, J=1.0)
        evolver = exact.ExactEvolver(h)
        union = np.sort(np.concatenate([e for _, e, _ in evolver.blocks]))
        dense = np.linalg.eigvalsh(h.toarray())
        assert np.max(np.abs(union - dense)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(_lattices()))
    def test_no_element_between_sectors(self, name):
        lat = _lattices()[name]
        basis = exact.TruncatedBasis(lat.n_sites, 3)
        labels = _total_m(basis)
        h = exact.build_hamiltonian(basis, lat, g=3.0, J=1.0).tocoo()
        assert h.nnz > basis.dim  # the bonds are there
        assert np.array_equal(labels[h.row], labels[h.col])

    @pytest.mark.parametrize("m_cut", [1, 2])
    @pytest.mark.parametrize("name", sorted(_lattices()))
    def test_blocks_are_the_sectors(self, name, m_cut):
        lat = _lattices()[name]
        basis = exact.TruncatedBasis(lat.n_sites, m_cut)
        labels = _total_m(basis)
        evolver = exact.ExactEvolver(exact.build_hamiltonian(basis, lat, g=3.0, J=1.0))
        blocks = sorted(idx.tolist() for idx, _, _ in evolver.blocks)
        sectors = sorted(np.flatnonzero(labels == m).tolist() for m in np.unique(labels))
        assert blocks == sectors

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    @pytest.mark.parametrize("m_cut", [1, 2, 3])
    def test_largest_sector_count(self, n_sites, m_cut):
        counts = np.bincount(_total_m(exact.TruncatedBasis(n_sites, m_cut)) + n_sites * m_cut)
        assert exact.largest_sector(n_sites, m_cut) == counts.max()
        assert counts[n_sites * m_cut] == counts.max()  # the M = 0 sector

    def test_two_by_two_admitted(self):
        lat = build_lattice((2, 2), (False, False))
        basis = exact.TruncatedBasis(4, 5)
        assert basis.dim == 14641
        assert exact.largest_sector(4, 5) == 891
        h = exact.build_hamiltonian(basis, lat, g=6.0, J=1.0)
        evolver = exact.ExactEvolver(h)
        assert max(idx.size for idx, _, _ in evolver.blocks) == 891
        psi = initial_product_state(basis)
        evolved = evolver.evolve(psi, 0.4)
        assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-12)
        # the m = 0 product state lives in the M = 0 sector alone
        assert np.all(evolved[_total_m(basis) != 0] == 0)

    def test_guard_applies_to_the_largest_sector(self):
        # 5001 connected states among small blocks are refused; 300 states
        # that H does not connect are 300 blocks of one state each
        chain = sp.diags([np.ones(5000), np.ones(5000)], [-1, 1])
        with pytest.raises(exact.OracleGuardError, match="5001 > 5000"):
            exact.ExactEvolver(sp.block_diag([sp.eye(3), chain, sp.eye(3)]))
        assert len(exact.ExactEvolver(sp.eye(300, format="csr")).blocks) == 300


class TestObservables:
    def test_product_state_observables(self):
        lat = build_lattice((2,), (False,))
        basis = exact.TruncatedBasis(2, 3)
        psi = initial_product_state(basis)
        obs = exact.exact_observables(psi, basis, lat, J=1.0)
        # independent uniform angles: <cos(theta_k - theta_l)> = 0, <n_k> = 0
        assert obs["e_pot"] == pytest.approx(0.0, abs=1e-12)
        assert obs["mag_x"] == pytest.approx(0.0, abs=1e-12)
        assert obs["mag_y"] == pytest.approx(0.0, abs=1e-12)
        assert obs["var_mean"] == np.inf

    def test_fidelity_bounds(self):
        lat = build_lattice((2,), (True,))
        basis = exact.TruncatedBasis(2, 3)
        h = exact.build_hamiltonian(basis, lat, g=6.0, J=1.0)
        psi = initial_product_state(basis)
        evolved = evolve_exact(h, psi, 0.7)
        f = exact.exact_fidelity(psi, evolved)
        assert 0.0 <= f <= 1.0
        assert exact.exact_fidelity(psi, psi) == pytest.approx(1.0)

    def test_quadrature_magnetization_uniform_state(self):
        lat = build_lattice((2,), (False,))
        basis = exact.TruncatedBasis(2, 2)
        psi = initial_product_state(basis)
        m = dense_magnetization_quadrature(psi, basis, q=24)
        # two-site resultant-length average of a flat distribution
        assert 0.5 < m < 0.9
