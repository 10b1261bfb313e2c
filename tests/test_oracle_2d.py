"""The exact oracle on a 2x2 open lattice: 4 bonds and one plaquette.

The quench of c1 (g 3 -> 6 from a descended RBM state), on a 2D lattice whose
14641-state basis the oracle evolves one total-M sector at a time.  Unlike a
periodic lattice, the open 2x2 has a plaquette whose circulation is not zero
configuration by configuration, so ``vort_1`` is checked against the exact
state's grid vorticity too.
"""

import numpy as np
import pytest
from reference import dense_grid_weights

from rotor_tvmc import exact, observables
from rotor_tvmc.config import GroundStateConfig, PhysicsConfig, RunConfig
from rotor_tvmc.lattice import build_lattice
from rotor_tvmc.runner import run_ground_state, run_oracle_benchmark
from rotor_tvmc.tdvp import RegularizationPolicy

J = 1.0
Q = 12
M_CUT = 5


def test_open_two_by_two_tracks_exact_evolution():
    lattice = build_lattice((2, 2), (False, False))
    assert lattice.bonds.shape[0] == 4 and lattice.plaquettes(1).shape[0] == 1
    config = RunConfig(
        lattice=lattice,
        ansatz_kind="rbm",
        ansatz_hyper={"n_hidden": 4},
        physics=PhysicsConfig(g_initial=3.0, g_final=6.0, j=J, t_max=0.5),
        # a tolerance this loose ends the descent after 100 iterations
        ground_state=GroundStateConfig(tau=0.02, tolerance=1e3, window=99,
                                       max_iters=100),
        # the chain floors: the 2D defaults (1e-4, 1e-2) miss the exact curves
        regularization=RegularizationPolicy(a_c=1e-5, r_c=1e-4),
        seed=7,
        sampling="quadrature",
        quadrature_points=Q,
        m_cut=M_CUT,
    )
    gs = run_ground_state(config)
    record, exact_rows, summary = run_oracle_benchmark(config, initial_state=gs.state)
    assert summary["alias_mass"] < 1e-6, "initial state leaks past m_cut"
    assert record.times[-1] == pytest.approx(0.5)

    # the exact state's vorticity on the quadrature engine's grid
    basis = exact.TruncatedBasis(lattice.n_sites, M_CUT)
    hamiltonian = exact.build_hamiltonian(basis, lattice, g=6.0, J=J)
    evolver = exact.ExactEvolver(hamiltonian, basis.total_m())
    dense0, _ = exact.vqs_to_dense(gs.state, basis)
    points = exact.grid_points(lattice.n_sites, Q)

    for row, ref in zip(record.rows, exact_rows):
        # c1's tolerances
        e_tol = max(0.02 * J, 3.0 * row["e_pot_sigma"])
        f_tol = max(0.03, 3.0 * row["fidelity_sigma"])
        assert abs(row["e_pot"] - ref["e_pot"]) <= e_tol, row["t"]
        assert abs(row["fidelity"] - ref["fidelity"]) <= f_tol, row["t"]
        weights = dense_grid_weights(evolver.evolve(dense0, row["t"]), basis, Q)
        vort_exact, _ = observables.vorticity(points, lattice, 1, weights=weights)
        assert np.isfinite(row["vort_1"])
        assert abs(row["vort_1"] - vort_exact) <= 0.02, row["t"]
