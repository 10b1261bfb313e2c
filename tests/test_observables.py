import numpy as np
import pytest

from rotor_tvmc.ansatz import make_ansatz, random_alpha
from rotor_tvmc.exact import grid_points
from rotor_tvmc.lattice import build_lattice
from rotor_tvmc.observables import (
    bootstrap_sigma,
    circular_variance_mean,
    fidelity,
    fidelity_of_log_ratios,
    half_fidelity_time,
    loop_circulation,
    magnetization,
    potential_energy_density,
    vorticity,
)


class TestPotentialEnergy:
    def test_aligned_configuration(self):
        lat = build_lattice((4,), (True,))
        samples = np.zeros((10, 4))
        e, sigma = potential_energy_density(samples, lat, J=1.0)
        # 4 bonds, all cos = 1, density -J * 4 / 4
        assert e == pytest.approx(-1.0)
        assert sigma == pytest.approx(0.0)

    def test_staggered_configuration(self):
        lat = build_lattice((4,), (True,))
        samples = np.tile([0.0, np.pi, 0.0, np.pi], (5, 1))
        e, _ = potential_energy_density(samples, lat, J=2.0)
        assert e == pytest.approx(2.0)


class TestMagnetization:
    def test_aligned(self):
        samples = np.full((20, 6), 0.3)
        m, mx, my, sigma = magnetization(samples)
        assert m == pytest.approx(1.0)
        assert mx == pytest.approx(np.cos(0.3))
        assert my == pytest.approx(np.sin(0.3))

    def test_antipodal_pair_components_vanish(self):
        # |.| inside the average vs outside: components cancel, M does not
        samples = np.array([[0.0, 0.0], [np.pi, np.pi]])
        m, mx, my, _ = magnetization(samples)
        assert abs(mx) < 1e-12 and abs(my) < 1e-12
        assert m == pytest.approx(1.0)

    def test_uniform_samples_small_m(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-np.pi, np.pi, size=(4000, 64))
        m, _, _, _ = magnetization(samples)
        assert m < 0.2


class TestCircularVariance:
    def test_concentrated(self):
        rng = np.random.default_rng(1)
        samples = 0.05 * rng.standard_normal((2000, 3))
        assert circular_variance_mean(samples) < 0.01


class TestVorticity:
    def test_uniform_field_has_no_vorticity(self):
        lat = build_lattice((4, 4), (True, True))
        samples = np.full((4, 16), 0.7)
        v, sigma = vorticity(samples, lat, 1)
        assert v == pytest.approx(0.0)

    def test_single_vortex_loop(self):
        # four sites winding once around the circle: circulation 2 pi / ell^2
        theta = np.array([0.0, np.pi / 2, np.pi, -np.pi / 2])
        assert loop_circulation(theta, [0, 1, 2, 3], 1) == pytest.approx(2 * np.pi)

    def test_requires_2d(self):
        lat = build_lattice((5,), (True,))
        with pytest.raises(ValueError):
            vorticity(np.zeros((3, 5)), lat, 1)

    def test_pi_edge_counts_zero(self):
        # every edge differs by pi: no minimal image, so no circulation (each
        # edge would otherwise wrap to -pi in both directions, giving -4 pi)
        theta = np.array([0.0, np.pi, 0.0, np.pi])
        assert loop_circulation(theta, [0, 1, 2, 3], 1) == 0.0
        # a tie up to rounding: reversing the loop negates the circulation
        theta = np.array([0.3, 0.3 + np.pi, 0.3 + np.pi / 2, -0.2])
        forward = loop_circulation(theta, [0, 1, 2, 3], 1)
        assert forward == pytest.approx(-np.pi)
        assert loop_circulation(theta, [3, 2, 1, 0], 1) == pytest.approx(-forward)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("q", [12, 16])
    def test_uniform_grid_has_no_vorticity(self, periodic, q):
        # on an even grid 23-29 % of the 2x2 points have an edge at +-pi
        lat = build_lattice((2, 2), (periodic, periodic))
        points = grid_points(4, q)
        weights = np.full(points.shape[0], 1.0 / points.shape[0])
        v, _ = vorticity(points, lat, 1, weights=weights)
        assert abs(v) <= 1e-12


class TestBootstrap:
    def test_scaling_with_sample_size(self):
        rng = np.random.default_rng(2)
        sigmas = []
        for n in (400, 1600, 6400):
            values = rng.standard_normal(n)
            sigmas.append(bootstrap_sigma(values, rng=np.random.default_rng(0)))
        # sigma ~ n^(-1/2): each quadrupling halves the error bar
        assert sigmas[0] / sigmas[1] == pytest.approx(2.0, rel=0.25)
        assert sigmas[1] / sigmas[2] == pytest.approx(2.0, rel=0.25)

    def test_chain_block_shape(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((8, 250))
        sigma = bootstrap_sigma(values, rng=np.random.default_rng(0))
        assert 0 < sigma < 0.1

    def test_deterministic_default_rng(self):
        values = np.arange(100, dtype=float)
        assert bootstrap_sigma(values) == bootstrap_sigma(values)


class TestFidelity:
    def _states(self):
        lat = build_lattice((3,), (True,))
        state = make_ansatz("jastrow", lat)
        a = state.with_alpha(random_alpha(state, np.random.default_rng(4), 0.2))
        b = a.with_alpha(a.alpha + 0.05)
        return a, b

    def test_self_overlap_is_one(self):
        a, _ = self._states()
        rng = np.random.default_rng(5)
        samples = rng.uniform(-np.pi, np.pi, size=(2000, 3))
        result = fidelity(a, a, samples, samples)
        assert result.value == pytest.approx(1.0)
        assert not result.overlap_lost

    def test_distinct_states_below_one(self):
        # purely imaginary pair couplings change only the phase of psi, so
        # |psi|^2 stays uniform and uniform draws ARE the Born distribution
        lat = build_lattice((3,), (True,))
        base = make_ansatz("jastrow", lat)
        a = base.with_alpha(np.zeros(3, dtype=complex))
        b = base.with_alpha(np.array([0.6j, 0.0, 0.0]))
        rng = np.random.default_rng(6)
        s0 = rng.uniform(-np.pi, np.pi, size=(4000, 3))
        st = rng.uniform(-np.pi, np.pi, size=(4000, 3))
        result = fidelity(a, b, s0, st)
        assert 0.0 < result.value < 0.99
        assert result.sigma >= 0.0

    def test_log_ratios_on_one_grid(self):
        # a quadrature quench reads ln psi on the grid from its two draws
        a, b = self._states()
        grid = grid_points(3, 10)
        la, lb = a.log_psi(grid), b.log_psi(grid)
        w0, wt = np.exp(2.0 * la.real), np.exp(2.0 * lb.real)
        w0, wt = w0 / w0.sum(), wt / wt.sum()
        ref = fidelity(a, b, grid, grid, weights_0=w0, weights_t=wt)
        assert fidelity_of_log_ratios(lb - la, la - lb, w0, wt) == ref
        assert 0.9 < ref.value < 1.0

    def test_value_clamped_to_unit_interval(self):
        a, b = self._states()
        rng = np.random.default_rng(7)
        s = rng.uniform(-np.pi, np.pi, size=(50, 3))
        result = fidelity(a, b, s, s)
        assert 0.0 <= result.value <= 1.0


class TestHalfFidelityTime:
    def test_linear_interpolation(self):
        times = np.array([0.0, 1.0, 2.0])
        fids = np.array([1.0, 0.6, 0.4])
        assert half_fidelity_time(times, fids) == pytest.approx(1.5)

    def test_no_crossing(self):
        times = np.array([0.0, 1.0])
        fids = np.array([1.0, 0.8])
        assert half_fidelity_time(times, fids) is None

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            half_fidelity_time(np.array([0.0, 1.0]), np.array([0.4, 0.3]))


class TestWeightedExpectations:
    """With weights, every observable is the weighted sum with sigma 0."""

    LATTICE = build_lattice((3, 3), (True, True))

    def _samples(self):
        return np.random.default_rng(8).uniform(-np.pi, np.pi, size=(40, 9))

    def _values(self, samples, weights):
        lat = self.LATTICE
        e, e_sigma = potential_energy_density(samples, lat, 1.5, weights=weights)
        m, mx, my, m_sigma = magnetization(samples, weights=weights)
        v, v_sigma = vorticity(samples, lat, 1, weights=weights)
        var = circular_variance_mean(samples, weights=weights)
        return (e, m, mx, my, v, var), (e_sigma, m_sigma, v_sigma)

    def test_uniform_weights_match_sample_means(self):
        samples = self._samples()
        uniform = np.full(samples.shape[0], 1.0 / samples.shape[0])
        weighted, sigmas = self._values(samples, uniform)
        plain, _ = self._values(samples, None)
        np.testing.assert_allclose(weighted, plain, rtol=0.0, atol=1e-12)
        assert sigmas == (0.0, 0.0, 0.0)

    def test_one_hot_weights_pick_one_configuration(self):
        lat = self.LATTICE
        samples = self._samples()
        i = 17
        one_hot = np.zeros(samples.shape[0])
        one_hot[i] = 1.0
        (e, m, mx, my, v, var), sigmas = self._values(samples, one_hot)
        theta = samples[i]
        bk, bl = lat.bonds[:, 0], lat.bonds[:, 1]
        assert e == pytest.approx(-1.5 / 9 * np.sum(np.cos(theta[bk] - theta[bl])),
                                  abs=1e-12)
        assert mx == pytest.approx(np.mean(np.cos(theta)), abs=1e-12)
        assert my == pytest.approx(np.mean(np.sin(theta)), abs=1e-12)
        assert m == pytest.approx(np.hypot(mx, my), abs=1e-12)
        # a single configuration has a unit resultant on every site
        assert var == pytest.approx(0.0, abs=1e-12)
        loops = lat.plaquettes(1)
        expected_v = np.mean([loop_circulation(theta, loop, 1) for loop in loops])
        assert v == pytest.approx(expected_v, abs=1e-12)
        assert sigmas == (0.0, 0.0, 0.0)

    def test_fidelity_uniform_weights_match_unweighted(self):
        lat = build_lattice((3,), (True,))
        state = make_ansatz("jastrow", lat)
        a = state.with_alpha(random_alpha(state, np.random.default_rng(4), 0.2))
        b = a.with_alpha(a.alpha + 0.05)
        rng = np.random.default_rng(9)
        s0 = rng.uniform(-np.pi, np.pi, size=(300, 3))
        st = rng.uniform(-np.pi, np.pi, size=(200, 3))
        plain = fidelity(a, b, s0, st)
        weighted = fidelity(a, b, s0, st, weights_0=np.full(300, 1 / 300),
                            weights_t=np.full(200, 1 / 200))
        assert weighted.value == pytest.approx(plain.value, abs=1e-12)
        assert weighted.raw == pytest.approx(plain.raw, abs=1e-12)
        assert weighted.sigma == 0.0
        assert plain.sigma > 0.0
