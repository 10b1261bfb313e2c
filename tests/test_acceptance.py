"""Acceptance gate: one test per release criterion.

Each test emits a single pass/fail line under ``pytest -v``.  Criterion 9
(qualitative 4x4 dynamics) carries the ``experimental`` marker and is excluded
from the default run; its failure calls for review rather than blocking CI.

Reference values come from independent oracles computed inside each test
(truncated-basis evolution, finite differences, quadrature, closed forms) —
never from hard-coded outputs of the code under test.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from rotor_tvmc import exact, observables
from rotor_tvmc.ansatz import make_ansatz, random_alpha, zero_final_kernel
from rotor_tvmc.config import GroundStateConfig, PhysicsConfig, RunConfig
from rotor_tvmc.hmc import Chains, HmcConfig, sample, warmup
from rotor_tvmc.integrator import StepController, rk32_step
from rotor_tvmc.lattice import build_lattice
from rotor_tvmc.runner import (
    run_ground_state,
    run_oracle_benchmark,
    run_quench,
    run_sampler_check,
)
from rotor_tvmc.tdvp import (
    RegularizationPolicy,
    effective_rank,
    regularized_pseudoinverse,
    spectral_filter,
)

J = 1.0


def chain_config(n_sites, ansatz_kind, hyper, g_i, g_f, t_max, *, seed=7,
                 sampling="quadrature", q=16, **kwargs):
    return RunConfig(
        lattice=build_lattice((n_sites,), (True,)),
        ansatz_kind=ansatz_kind,
        ansatz_hyper=hyper,
        physics=PhysicsConfig(g_initial=g_i, g_final=g_f, j=J, t_max=t_max),
        ground_state=GroundStateConfig(tau=0.02, tolerance=1e-7,
                                       window=20, max_iters=4000),
        seed=seed,
        sampling=sampling,
        quadrature_points=q,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# 1. oracle dynamics agreement


def test_c1_oracle_dynamics_agreement(tmp_path):
    """Quench g 3 -> 6 from a converged RBM ground state tracks the truncated
    angular-momentum-basis evolution: |e_pot| within 0.02 J and fidelity
    within 0.03 for Jt in [0, 1], for both 2- and 3-rotor chains.

    The noiseless quadrature engine is used, so the Monte Carlo error-bar
    branch of the tolerance is zero and the fixed floors apply.
    """
    for n_sites, n_hidden in ((2, 4), (3, 6)):
        config = chain_config(n_sites, "rbm", {"n_hidden": n_hidden},
                              g_i=3.0, g_f=6.0, t_max=1.0, m_cut=5)
        gs = run_ground_state(config)
        assert gs.converged
        record, exact_rows, summary = run_oracle_benchmark(
            config, initial_state=gs.state,
            out_dir=tmp_path / f"bench-{n_sites}",
        )
        assert summary["alias_mass"] < 1e-6, "initial state leaks past m_cut"
        assert record.times[-1] == pytest.approx(1.0)
        for row, ref in zip(record.rows, exact_rows):
            e_tol = max(0.02 * J, 3.0 * row["e_pot_sigma"])
            f_tol = max(0.03, 3.0 * row["fidelity_sigma"])
            assert abs(row["e_pot"] - ref["e_pot"]) <= e_tol, (
                f"N={n_sites}, t={row['t']:.3f}: e_pot deviation "
                f"{abs(row['e_pot'] - ref['e_pot']):.3e} > {e_tol:.3e}"
            )
            assert abs(row["fidelity"] - ref["fidelity"]) <= f_tol, (
                f"N={n_sites}, t={row['t']:.3f}: fidelity deviation "
                f"{abs(row['fidelity'] - ref['fidelity']):.3e} > {f_tol:.3e}"
            )


# ---------------------------------------------------------------------------
# 2. matrix-element fidelity


def test_c2_bond_matrix_elements():
    """The assembled bond coupling equals
    (1/2)(delta_{m'k,mk+1} delta_{m'l,ml-1} + delta_{m'k,mk-1} delta_{m'l,ml+1})
    exactly, for every index pair at m_cut in {1, 2, 5}."""
    for m_cut in (1, 2, 5):
        basis = exact.TruncatedBasis(2, m_cut)
        coupling = exact.bond_coupling(basis, 0, 1).toarray()
        ms = range(-m_cut, m_cut + 1)
        states = list(itertools.product(ms, repeat=2))
        for r, (mk_p, ml_p) in enumerate(states):
            for c, (mk, ml) in enumerate(states):
                expected = 0.5 * (
                    (mk_p == mk + 1) * (ml_p == ml - 1)
                    + (mk_p == mk - 1) * (ml_p == ml + 1)
                )
                assert coupling[r, c] == expected, (m_cut, r, c)


# ---------------------------------------------------------------------------
# 3. gradient suite


def _fd_param_derivatives(state, theta, h=1e-6):
    """Central differences of log psi along the real direction of each
    parameter; holomorphy of log psi in alpha is checked separately in the
    unit suite, so the real direction determines the complex derivative."""
    out = np.empty(state.n_params, dtype=np.complex128)
    for p in range(state.n_params):
        step = np.zeros(state.n_params, dtype=np.complex128)
        step[p] = h
        plus = state.with_alpha(state.alpha + step).log_psi(theta)[0]
        minus = state.with_alpha(state.alpha - step).log_psi(theta)[0]
        out[p] = (plus - minus) / (2 * h)
    return out


def _fd_angle_derivatives(state, theta, h=1e-3):
    """Five-point stencils for d log psi / d theta_k and the diagonal of the
    angle Hessian (O(h^4) truncation)."""
    n = theta.shape[-1]
    d1 = np.empty(n, dtype=np.complex128)
    d2 = np.empty(n, dtype=np.complex128)
    f0 = state.log_psi(theta)[0]
    for k in range(n):
        f = {}
        for s in (-2, -1, 1, 2):
            shifted = theta.copy()
            shifted[0, k] += s * h
            f[s] = state.log_psi(shifted)[0]
        d1[k] = (f[-2] - 8 * f[-1] + 8 * f[1] - f[2]) / (12 * h)
        d2[k] = (-f[-2] + 16 * f[-1] - 30 * f0 + 16 * f[1] - f[2]) / (12 * h * h)
    return d1, d2


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


def test_c3_gradient_suite():
    """log_derivatives, grad_log_prob and the local-energy Laplacian match
    finite-difference oracles to relative error <= 1e-5 on 100 random probes
    spread over the three ansatz kinds."""
    cases = [
        ("jastrow", build_lattice((4,), (True,)), {}),
        ("rbm", build_lattice((3,), (True,)), {"n_hidden": 4}),
        ("cnn", build_lattice((3, 3), (True, True)),
         {"depth": 2, "n_modes": 1}),
    ]
    rng = np.random.default_rng(20240903)
    n_probes = 100
    g = 3.0
    for probe in range(n_probes):
        kind, lattice, hyper = cases[probe % len(cases)]
        state = make_ansatz(kind, lattice, **hyper)
        state = state.with_alpha(random_alpha(state, rng, scale=0.1))
        theta = rng.uniform(-np.pi, np.pi, size=(1, lattice.n_sites))

        fd_params = _fd_param_derivatives(state, theta)
        assert _rel_err(state.log_derivatives(theta)[0], fd_params) <= 1e-5

        fd_d1, fd_d2 = _fd_angle_derivatives(state, theta)
        fd_grad = 2.0 * np.real(fd_d1)
        assert _rel_err(state.grad_log_prob(theta)[0], fd_grad) <= 1e-5

        cos_sum = sum(
            np.cos(theta[0, k] - theta[0, l]) for k, l in lattice.bonds
        )
        fd_e_loc = (
            -0.5 * g * J * np.sum(fd_d2 + fd_d1 ** 2) - J * cos_sum
        )
        assert _rel_err(state.local_energy(theta, g, J)[0], fd_e_loc) <= 1e-5


# ---------------------------------------------------------------------------
# 4. regularization algebra


def test_c4_regularization_algebra():
    """Spectral filter is exactly 1/2 at the cutoff; the regularized inverse
    recovers the true inverse as lambda^2 -> 0 on a well-conditioned Hermitian
    matrix to 1e-8 (max norm); the effective rank is monotone in lambda^2
    across a 20-point sweep."""
    assert spectral_filter(np.array([2.5]), 2.5)[0] == 0.5

    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    s = a @ a.conj().T + 8.0 * np.eye(8)  # eigenvalues well away from zero
    pinv = regularized_pseudoinverse(s, 1e-30)
    identity_residual = pinv.apply(s) - np.eye(8)
    assert np.max(np.abs(identity_residual)) <= 1e-8

    spectrum = np.linalg.eigvalsh(s)
    lambdas = np.geomspace(1e-6 * spectrum.min(), 1e3 * spectrum.max(), 20)
    ranks = [effective_rank(spectrum, lam2) for lam2 in lambdas]
    assert all(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:]))
    assert ranks[0] == pytest.approx(8.0, abs=1e-6)
    assert ranks[-1] == pytest.approx(0.0, abs=1e-6)


# ---------------------------------------------------------------------------
# 5. integrator order


def test_c5_integrator_order():
    """Embedded 3(2) pair: global error slope 3.0 +/- 0.2 on the oscillator
    alpha' = -i alpha over a unit time window, and the controller maps an
    error norm of 8 to a step-size factor of 0.45."""
    def rhs(t, y):
        return -1j * y

    y0 = np.array([1.0 + 0.0j])
    errors, steps = [], (20, 40, 80, 160, 320)
    for n in steps:
        dt = 1.0 / n
        y, t = y0, 0.0
        for _ in range(n):
            y, _, _, _ = rk32_step(rhs, y, t, dt, atol=1.0, rtol=0.0)
            t += dt
        errors.append(abs(y[0] - np.exp(-1j)))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert -slope == pytest.approx(3.0, abs=0.2)

    controller = StepController(atol=1e-3, rtol=1e-3)
    assert controller.next_dt(0.1, 8.0) == pytest.approx(0.045)


# ---------------------------------------------------------------------------
# 6. sampler statistics


class _VonMises:
    """exp(kappa cos theta) per site: a smooth standard target."""

    def __init__(self, n_sites, kappa=2.0):
        self.n_sites = n_sites
        self.kappa = kappa

    def log_prob(self, theta):
        return self.kappa * np.sum(np.cos(theta), axis=-1)

    def grad_log_prob(self, theta):
        return -self.kappa * np.sin(theta)


def _run_chains(target, n_sites, config, seed, tag):
    rngs = [np.random.default_rng([seed, tag, c]) for c in range(config.n_chains)]
    chains = Chains(target, n_sites, config, rngs)
    warmup(chains)
    flat, diag = sample(chains)
    return flat, diag


def test_c6_sampler_statistics():
    """Post-warmup acceptance 0.8 +/- 0.05 on a smooth target; magnetization
    error bar scales as n_samples^(-1/2) with fitted slope -0.5 +/- 0.1;
    variance at 10 leapfrog steps <= variance at 1 step with 95% bootstrap
    confidence; samples of a flat target pass a chi^2 uniformity test at
    significance 0.01."""
    # acceptance on the von Mises target at the default-sized configuration
    hmc = HmcConfig(l0=10, n_samples=500, n_chains=20)
    _, diag = _run_chains(_VonMises(3), 3, hmc, seed=7, tag=0)
    assert abs(float(np.mean(diag.acceptance)) - 0.8) <= 0.05

    # error-bar scaling and leapfrog-length comparison on a frozen state with
    # sizable ferromagnetic couplings, so the magnetization decorrelates
    # slowly at one leapfrog step and long trajectories genuinely help
    config = chain_config(
        4, "jastrow", {}, g_i=3.0, g_f=3.0, t_max=1.0, seed=7,
        sampling="hmc",
        hmc=HmcConfig(l0=10, n_samples=500, n_chains=16, n_warmup=400,
                      eps0=0.05),
    )
    frozen = make_ansatz("jastrow", config.lattice)
    frozen = frozen.with_alpha(
        np.full(frozen.n_params, 0.6, dtype=np.complex128)
    )
    report = run_sampler_check(config, state=frozen)
    assert report["sigma_slope"] == pytest.approx(-0.5, abs=0.1)
    assert report["variance_reduction_confident"]

    # chi^2 uniformity: a zeroed final kernel makes |psi|^2 exactly flat
    lattice = build_lattice((3,), (True,))
    state = make_ansatz("cnn", lattice, depth=2, n_modes=1)
    state = zero_final_kernel(
        state.with_alpha(random_alpha(state, np.random.default_rng(5)))
    )
    flat, diag = _run_chains(
        state, 3, HmcConfig(l0=5, n_samples=500, n_chains=8, n_warmup=200),
        seed=11, tag=1,
    )
    counts, _ = np.histogram(flat.ravel(), bins=20, range=(-np.pi, np.pi))
    result = scipy.stats.chisquare(counts)
    assert result.pvalue >= 0.01


# ---------------------------------------------------------------------------
# 7. conservation and residual properties


def test_c7_conservation_and_residuals(tmp_path):
    """A null quench keeps the potential energy flat within 3 sigma and the
    fidelity above 0.95 over Jt <= 2; the total energy in noiseless mode
    drifts by at most 10x the step tolerance; the accumulated residual R^2
    grows faster for the weaker final coupling (g = 2 vs g = 8)."""
    # null quench with the Monte Carlo engine
    config = chain_config(
        4, "jastrow", {}, g_i=3.0, g_f=3.0, t_max=2.0, seed=3,
        sampling="hmc", q=12,
        hmc=HmcConfig(l0=10, n_samples=300, n_chains=8, n_warmup=300,
                      eps0=0.05),
        controller=StepController(atol=1e-2, rtol=1e-2, dt_max=0.05),
        dt0=0.05,
        regularization=RegularizationPolicy(a_c=1e-3, r_c=1e-2),
    )
    gs_engine = replace(config, sampling="quadrature")
    gs = run_ground_state(gs_engine)
    assert gs.converged
    record = run_quench(config, gs.state, out_dir=tmp_path / "null")
    assert record.times[-1] == pytest.approx(2.0)
    e0, s0 = record.rows[0]["e_pot"], record.rows[0]["e_pot_sigma"]
    for row in record.rows:
        band = 3.0 * float(np.hypot(row["e_pot_sigma"], s0))
        assert abs(row["e_pot"] - e0) <= band, (
            f"t={row['t']:.3f}: e_pot moved {abs(row['e_pot'] - e0):.3e} "
            f"> {band:.3e} in a null quench"
        )
        assert row["fidelity"] >= 0.95

    # noiseless energy drift over a genuine quench
    config = chain_config(2, "rbm", {"n_hidden": 4}, g_i=3.0, g_f=6.0,
                          t_max=1.0)
    gs = run_ground_state(config)
    record = run_quench(config, gs.state)
    energy = record.column("energy")
    tol = config.controller.atol + config.controller.rtol * abs(energy[0])
    assert np.max(np.abs(energy - energy[0])) <= 10.0 * tol

    # residual ordering between weak and strong final couplings
    base = chain_config(3, "jastrow", {}, g_i=3.0, g_f=2.0, t_max=1.0)
    gs = run_ground_state(base)
    r2_totals = {}
    for g_final in (2.0, 8.0):
        record = run_quench(base, gs.state, g_final=g_final)
        r2_totals[g_final] = record.rows[-1]["r2_integral"]
    assert r2_totals[2.0] > r2_totals[8.0]


# ---------------------------------------------------------------------------
# 8. reproducibility


def test_c8_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical trajectory CSVs."""
    base = chain_config(
        2, "jastrow", {}, g_i=3.0, g_f=6.0, t_max=0.1, seed=13,
        sampling="hmc",
        hmc=HmcConfig(l0=5, n_samples=200, n_chains=4, n_warmup=200),
        controller=StepController(atol=1e-2, rtol=1e-2, dt_max=0.05),
        dt0=0.02,
    )
    gs = run_ground_state(replace(base, sampling="quadrature"))
    out = tmp_path / "first"
    run_quench(base, gs.state, out_dir=out)
    first = (out / "trajectory.csv").read_bytes()

    # and a straight rerun
    out = tmp_path / "rerun"
    run_quench(base, gs.state, out_dir=out)
    assert (out / "trajectory.csv").read_bytes() == first


# ---------------------------------------------------------------------------
# 9. qualitative 2D behavior (experimental)


@pytest.mark.experimental
def test_c9_qualitative_4x4_dynamics(tmp_path):
    """4x4 periodic lattice: the in-phase quench (g 3 -> 4.5) keeps the mean
    plaquette circulation small (|v1| <= 0.05) and the magnetization above
    0.5 for Jt <= 3, while the crossing quench (g 3 -> 9) produces at least
    one magnetization dip below 0.3 and a |v1| transient >= 0.1.

    Experimental: there is no quantitative reference at this size, so a
    failure here asks for review instead of failing the gate.

    Known red, twice over.  First, at 4x4 the in-phase quench shows a
    coherent collapse-and-revival (M 0.74 -> 0.36 -> 0.71, mirrored by the
    fidelity), so "M stays above 0.5" fails for genuine finite-size physics
    reasons.  Second, the signed mean circulation over all plaquettes of a
    periodic lattice vanishes identically per configuration (each edge is
    traversed once in each direction by adjacent loops, and the wrapped
    angle difference is odd), so the crossing-quench |v1| >= 0.1 clause can
    never fire with this estimator.  See the full analysis in the project
    ledger.
    """
    lattice = build_lattice((4, 4), (True, True))
    # a pairwise Jastrow orders fastest at this size (the convolutional
    # ansatz stalls near its flat zero initialization in imaginary time)
    config = RunConfig(
        lattice=lattice,
        ansatz_kind="jastrow",
        physics=PhysicsConfig(g_initial=3.0, g_final=4.5, j=J, t_max=3.0),
        # the convergence window must tolerate the Monte Carlo noise of the
        # energy estimate, so the flatness tolerance is far looser than in
        # the noiseless tests
        ground_state=GroundStateConfig(tau=0.05, tolerance=2e-2,
                                       window=15, max_iters=300),
        hmc=HmcConfig(l0=10, n_samples=400, n_chains=6, n_warmup=300),
        controller=StepController(atol=2e-2, rtol=2e-2, dt_max=0.1),
        dt0=0.05,
        seed=17,
        sampling="hmc",
    )
    gs = run_ground_state(config)

    ordered = run_quench(config, gs.state, out_dir=tmp_path / "ordered")
    assert np.all(np.abs(ordered.column("vort_1")) <= 0.05)
    assert np.all(ordered.column("mag") > 0.5)

    crossing = run_quench(config, gs.state, g_final=9.0,
                          out_dir=tmp_path / "crossing")
    assert np.min(crossing.column("mag")) < 0.3
    assert np.max(np.abs(crossing.column("vort_1"))) >= 0.1
