import numpy as np
import pytest
from reference import recomputing_transition
from scipy.special import i0, i1

from rotor_tvmc import hmc
from rotor_tvmc.ansatz import make_ansatz, random_alpha, zero_final_kernel
from rotor_tvmc.lattice import build_lattice, wrap_angle


class VonMises:
    """exp(kappa sum_k cos theta_k), the standard smooth periodic target."""

    def __init__(self, kappa=2.0):
        self.kappa = kappa

    def log_prob(self, theta):
        return self.kappa * np.cos(np.atleast_2d(theta)).sum(axis=1)

    def grad_log_prob(self, theta):
        return -self.kappa * np.sin(np.atleast_2d(theta))


class Quadratic:
    """Gaussian target: leapfrog is near-exact, acceptance is near 1."""

    def log_prob(self, theta):
        return -0.5 * np.sum(np.atleast_2d(theta) ** 2, axis=1)

    def grad_log_prob(self, theta):
        return -np.atleast_2d(theta)


def _chains(target, n_sites, cfg, seed):
    rngs = [np.random.default_rng([seed, c]) for c in range(cfg.n_chains)]
    return hmc.Chains(target, n_sites, cfg, rngs)


def _run(target, n_sites, cfg, seed=7):
    chains = _chains(target, n_sites, cfg, seed)
    hmc.warmup(chains)
    samples, diag = hmc.sample(chains)
    return samples, diag, chains


class TestWarmupWindows:
    def test_default_schedule(self):
        windows = hmc.warmup_windows(800, 5)
        assert windows == [
            (66, "fast"), (22, "slow"), (44, "slow"), (88, "slow"),
            (176, "slow"), (352, "slow"), (44, "fast"),
        ]
        total = sum(w for w, _ in windows)
        # integer rounding of Nw/12, Nw/36*2^j, Nw/18 loses a few steps
        assert abs(total - 800) <= 10

    def test_fast_slow_fast_structure(self):
        kinds = [k for _, k in hmc.warmup_windows(360, 3)]
        assert kinds[0] == "fast" and kinds[-1] == "fast"
        assert all(k == "slow" for k in kinds[1:-1])

    def test_slow_windows_double(self):
        lengths = [w for w, k in hmc.warmup_windows(720, 4) if k == "slow"]
        assert lengths == [20, 40, 80, 160]


class TestLeapfrog:
    def test_reversibility(self):
        target = VonMises()
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, size=3)
        pi = rng.standard_normal(3)
        mass = np.array([1.0, 0.7, 1.3])
        grad = target.grad_log_prob

        t1, p1 = hmc._batched_leapfrog(theta[None], pi[None], 0.1, [25], mass, grad,
                                       grad(theta[None]))
        t2, p2 = hmc._batched_leapfrog(t1, -p1, 0.1, [25], mass, grad, grad(t1))
        assert np.allclose(t2[0], theta, atol=1e-10)
        assert np.allclose(-p2[0], pi, atol=1e-10)

    def test_energy_error_scaling(self):
        # leapfrog is second order: Delta H ~ eps^2 per unit trajectory time
        target = VonMises()
        rng = np.random.default_rng(1)
        theta = rng.uniform(-np.pi, np.pi, size=2)
        pi = rng.standard_normal(2)
        mass = np.ones(2)

        def dh(eps, n):
            h0 = -target.log_prob(theta)[0] + 0.5 * np.sum(pi ** 2)
            t1, p1 = hmc._batched_leapfrog(theta[None], pi[None], eps, [n], mass,
                                           target.grad_log_prob,
                                           target.grad_log_prob(theta[None]))
            return abs(-target.log_prob(t1)[0] + 0.5 * np.sum(p1 ** 2) - h0)

        errs = [float(dh(eps, int(round(2.0 / eps)))) for eps in (0.2, 0.1, 0.05)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(2.5 < r < 6.0 for r in ratios)

    def test_mixed_lengths_match_one_chain_batches(self):
        # finished chains are frozen, so batching never changes a chain's path
        target = VonMises()
        rng = np.random.default_rng(2)
        lengths = [1, 7, 3, 12, 1, 5]
        theta = rng.uniform(-np.pi, np.pi, size=(6, 4))
        pi = rng.standard_normal((6, 4))
        mass = rng.uniform(0.5, 1.5, size=(6, 4))
        grad = target.grad_log_prob

        t_all, p_all = hmc._batched_leapfrog(theta, pi, 0.17, lengths, mass, grad,
                                             grad(theta))
        for c, n in enumerate(lengths):
            t1, p1 = hmc._batched_leapfrog(theta[c:c + 1], pi[c:c + 1], 0.17,
                                           [n], mass[c:c + 1], grad, grad(theta[c:c + 1]))
            assert np.array_equal(t_all[c], t1[0])
            assert np.array_equal(p_all[c], p1[0])


class TestTransitions:
    def test_quadratic_target_high_acceptance(self):
        cfg = hmc.HmcConfig(l0=10, eps0=0.05, n_warmup=72, n_slow_windows=1,
                            n_samples=200, n_chains=2)
        target = Quadratic()
        _, diag = hmc.sample(_chains(target, 2, cfg, 3))
        assert np.all(diag.acceptance > 0.97)
        assert hmc.DIVERGENCE_WARNING not in diag.warnings

    def test_uniform_target_every_proposal_accepted(self):
        lat = build_lattice((3, 3), (True, True))
        state = make_ansatz("cnn", lat, depth=2, n_modes=1)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(2), 0.1))
        state = zero_final_kernel(state)
        cfg = hmc.HmcConfig(l0=5, eps0=0.5, n_warmup=72, n_slow_windows=1,
                            n_samples=100, n_chains=2)
        _, diag = hmc.sample(_chains(state, 9, cfg, 4))
        assert np.all(diag.acceptance == 1.0)

    def test_divergence_auto_reject(self):
        # a huge step size on a steep target produces divergent trajectories
        target = VonMises(kappa=200.0)
        cfg = hmc.HmcConfig(l0=20, eps0=50.0, n_warmup=72, n_slow_windows=1,
                            n_samples=50, n_chains=1)
        _, diag = hmc.sample(_chains(target, 2, cfg, 5))
        assert diag.divergences[0] > 0
        assert diag.acceptance[0] < 0.5
        # one fixed-text warning per draw, however many transitions diverged
        assert diag.warnings.count(hmc.DIVERGENCE_WARNING) == 1

    def test_length_bounds(self):
        assert hmc.length_bounds(20, 0.2) == (16, 24)
        assert hmc.length_bounds(20, 0.0) == (20, 20)

    def test_drawn_lengths_stay_in_bounds_and_vary(self):
        cfg = hmc.HmcConfig(l0=20, jitter=0.2, eps0=0.1, n_warmup=72,
                            n_slow_windows=1, n_samples=10, n_chains=4)
        chains = _chains(VonMises(), 2, cfg, 6)
        drawn = set()
        for _ in range(100):
            hmc._transition(chains)
            drawn.update(int(n) for n in chains._lengths)
        assert min(drawn) >= 16 and max(drawn) <= 24
        assert len(drawn) > 3

    def test_samples_are_chain_shaped(self):
        cfg = hmc.HmcConfig(l0=5, n_warmup=72, n_slow_windows=1,
                            n_samples=30, n_chains=3)
        samples, _, chains = _run(VonMises(1.0), 2, cfg)
        assert samples.shape == (3, 30, 2)
        # the last sample of each chain is its wrapped position
        assert np.array_equal(samples[:, -1], wrap_angle(chains.theta))


class TestStatistics:
    def test_von_mises_moment(self):
        cfg = hmc.HmcConfig(l0=10, n_warmup=400, n_samples=1500, n_chains=4)
        samples, diag, _ = _run(VonMises(2.0), 2, cfg)
        expected = i1(2.0) / i0(2.0)
        assert abs(np.cos(samples).mean() - expected) < 0.02
        assert diag.rhat_max < 1.05

    def test_post_warmup_acceptance_near_target(self):
        cfg = hmc.HmcConfig(l0=10, n_warmup=800, n_samples=800, n_chains=6)
        _, diag, _ = _run(VonMises(2.0), 1, cfg, seed=13)
        # module-level band; the tighter 0.05 band runs in the acceptance suite
        assert abs(np.mean(diag.acceptance) - 0.8) < 0.1

    def test_masses_adapted_toward_circular_variance(self):
        cfg = hmc.HmcConfig(l0=10, n_warmup=400, n_samples=10, n_chains=2)
        _, _, chains = _run(VonMises(2.0), 2, cfg)
        # circular variance of von Mises(2) is -2 ln(I1/I0) ~ 0.72
        assert np.all(chains.mass > 0.3) and np.all(chains.mass < 1.5)

    def test_samples_wrapped(self):
        cfg = hmc.HmcConfig(l0=5, n_warmup=80, n_samples=200, n_chains=2)
        samples, _, _ = _run(VonMises(0.5), 3, cfg)
        assert np.all(samples >= -np.pi) and np.all(samples < np.pi)


class TestDeterminism:
    def test_seed_changes_draws(self):
        cfg = hmc.HmcConfig(l0=5, n_warmup=80, n_samples=50, n_chains=2)
        a = _run(VonMises(1.0), 2, cfg, seed=1)[0]
        b = _run(VonMises(1.0), 2, cfg, seed=2)[0]
        assert not np.array_equal(a, b)

    def test_rerun_identical(self):
        cfg = hmc.HmcConfig(l0=5, n_warmup=80, n_samples=50, n_chains=2)
        a = _run(VonMises(1.0), 2, cfg, seed=3)[0]
        b = _run(VonMises(1.0), 2, cfg, seed=3)[0]
        assert np.array_equal(a, b)


class TestWarmupFailure:
    def test_hopeless_chain_raises(self):
        class Wall:
            def log_prob(self, theta):
                return np.full(np.atleast_2d(theta).shape[0], -np.inf)

            def grad_log_prob(self, theta):
                return np.zeros_like(np.atleast_2d(theta))

        cfg = hmc.HmcConfig(l0=5, n_warmup=72, n_slow_windows=1,
                            n_samples=10, n_chains=1)
        chains = _chains(Wall(), 2, cfg, 6)
        with pytest.raises(hmc.WarmupError):
            hmc.warmup(chains)


class CountingVonMises(VonMises):
    def __init__(self, kappa=2.0):
        super().__init__(kappa)
        self.log_prob_calls = 0
        self.grad_calls = 0

    def log_prob(self, theta):
        self.log_prob_calls += 1
        return super().log_prob(theta)

    def grad_log_prob(self, theta):
        self.grad_calls += 1
        return super().grad_log_prob(theta)


class TestCarriedLogProb:
    def test_one_log_prob_per_transition(self):
        # ln p is evaluated once at the start angles and then only at the
        # proposals; neither warmup nor sample evaluates it on entry
        cfg = hmc.HmcConfig(l0=5, n_warmup=80, n_slow_windows=2,
                            n_samples=30, n_chains=3)
        target = CountingVonMises()
        chains = _chains(target, 2, cfg, 8)
        assert target.log_prob_calls == 1
        target.log_prob_calls = 0
        hmc.warmup(chains)
        assert target.log_prob_calls == sum(w for w, _ in hmc.warmup_windows(80, 2))
        target.log_prob_calls = 0
        hmc.sample(chains)
        assert target.log_prob_calls == 30


def _workload_jastrow():
    """The 4x4 quench workload's initial state: nearest-neighbour couplings
    of 0.4 on top of ``random_alpha`` noise."""
    state = make_ansatz("jastrow", build_lattice((4, 4), (True, True)))
    pair = {(i, j): p for p, (i, j) in enumerate(zip(state.pair_i, state.pair_j))}
    alpha = random_alpha(state, np.random.default_rng(31))
    for k, l in state.lattice.bonds:
        alpha[pair[(int(k), int(l))]] += 0.4
    return state.with_alpha(alpha)


def _rbm_2x2():
    state = make_ansatz("rbm", build_lattice((2, 2), (True, True)), n_hidden=4)
    return state.with_alpha(random_alpha(state, np.random.default_rng(32), 0.7))


def _flat_cnn():
    """c6's chi^2 target: a 3-site CNN with a zeroed final kernel."""
    state = make_ansatz("cnn", build_lattice((3,), (True,)), depth=2, n_modes=1)
    return zero_final_kernel(state.with_alpha(random_alpha(state, np.random.default_rng(5))))


CARRY_TARGETS = {
    "jastrow_4x4": (_workload_jastrow, 16),
    "rbm_2x2": (_rbm_2x2, 4),
    "cnn_chi2": (_flat_cnn, 3),
    "von_mises": (lambda: VonMises(2.0), 3),
}


class TestCarriedGradient:
    # one chain makes one-row batches, whose stacked matmuls take other BLAS
    # paths than the four chains' four-row batches
    @pytest.mark.parametrize("name,n_chains", [
        pytest.param(name, n, id=name if n == 4 else f"{name}-1chain")
        for n in (4, 1) for name in CARRY_TARGETS])
    def test_replays_the_recomputed_gradient(self, name, n_chains, monkeypatch):
        # the gradient kept from the end of the last accepted trajectory is
        # the one a fresh evaluation at its start gives, bit for bit
        build, n_sites = CARRY_TARGETS[name]
        target = build()
        cfg = hmc.HmcConfig(l0=5, n_warmup=72, n_slow_windows=2,
                            n_samples=40, n_chains=n_chains)

        def run():
            chains = _chains(target, n_sites, cfg, 33)
            hmc.warmup(chains)
            samples, diag = hmc.sample(chains)
            return samples, diag, chains

        samples, diag, chains = run()
        monkeypatch.setattr(hmc, "_transition", recomputing_transition)
        ref_samples, ref_diag, ref_chains = run()
        assert np.array_equal(samples, ref_samples)
        assert np.array_equal(diag.acceptance, ref_diag.acceptance)
        assert np.array_equal(diag.divergences, ref_diag.divergences)
        assert chains.eps == ref_chains.eps
        assert np.array_equal(chains.mass, ref_chains.mass)
        assert np.array_equal(chains.theta, ref_chains.theta)

    @pytest.mark.parametrize("name", list(CARRY_TARGETS))
    def test_carry_across_calls(self, name):
        # what warmup hands to sample is what a fresh evaluation gives
        build, n_sites = CARRY_TARGETS[name]
        target = build()
        cfg = hmc.HmcConfig(l0=5, n_warmup=72, n_slow_windows=2,
                            n_samples=40, n_chains=4)
        chains = _chains(target, n_sites, cfg, 34)
        hmc.warmup(chains)
        assert np.array_equal(chains.log_p, target.log_prob(chains.theta))
        assert np.array_equal(chains.grad, target.grad_log_prob(chains.theta))

    def test_one_gradient_per_leapfrog_step(self, monkeypatch):
        cfg = hmc.HmcConfig(l0=5, n_warmup=80, n_slow_windows=2,
                            n_samples=30, n_chains=3)
        target = CountingVonMises()
        steps = []
        real_leapfrog = hmc._batched_leapfrog

        def recording(theta, pi, eps, lengths, *args):
            steps.append(int(np.max(lengths)))
            return real_leapfrog(theta, pi, eps, lengths, *args)

        monkeypatch.setattr(hmc, "_batched_leapfrog", recording)
        chains = _chains(target, 2, cfg, 9)
        assert target.grad_calls == chains.grad_calls == 1
        hmc.warmup(chains)
        assert target.grad_calls == 1 + sum(steps)
        target.grad_calls, warmup_steps, steps[:] = 0, sum(steps), []
        hmc.sample(chains)
        assert len(steps) == 30
        # none on entry: sample starts from the gradient warmup carried
        assert target.grad_calls == sum(steps)
        assert chains.grad_calls == 1 + warmup_steps + sum(steps)


def split_rhat_one(per_chain):
    """Reference: split-R-hat of one (n_chains, n_draws) series."""
    half = per_chain.shape[1] // 2
    halves = np.concatenate([per_chain[:, :half], per_chain[:, half : 2 * half]])
    w = halves.var(axis=1, ddof=1).mean()
    if w <= 0:
        return np.nan
    b = half * halves.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((half - 1) / half * w + b / half) / w))


class TestSplitRhat:
    def test_stacked_equals_per_series(self):
        # same reductions in the same order: equal to the last bit
        rng = np.random.default_rng(9)
        series = rng.standard_normal((5, 4, 51))
        series[1] += np.arange(4)[:, None]  # chains that disagree
        series[2, :, :] = 1.0  # no within-chain variance
        stacked = hmc.split_rhat(series)
        assert stacked.shape == (5,)
        for k in range(5):
            assert np.array_equal(stacked[k], split_rhat_one(series[k]), equal_nan=True)
            assert np.array_equal(stacked[k], hmc.split_rhat(series[k]), equal_nan=True)
        assert np.isnan(stacked[2]) and stacked[1] > 1.1

    def test_too_few_draws(self):
        assert np.all(np.isnan(hmc.split_rhat(np.ones((3, 2, 3)))))


class TestConfigValidation:
    def test_bad_jitter(self):
        with pytest.raises(ValueError):
            hmc.HmcConfig(jitter=1.0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            hmc.HmcConfig(target_accept=0.0)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            hmc.HmcConfig(n_chains=0)

    def test_warmup_shorter_than_two_first_slow_draws(self):
        # at n_warmup < 72 the first slow window holds one draw, whose
        # circular variance of 0 floors every metric entry
        with pytest.raises(ValueError, match="n_warmup must be >= 72"):
            hmc.HmcConfig(n_warmup=71)
        hmc.HmcConfig(n_warmup=72)
        assert hmc.warmup_windows(72, 5)[1] == (2, "slow")
