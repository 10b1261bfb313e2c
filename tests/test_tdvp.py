import tracemalloc

import numpy as np
import pytest
from reference import quadrature_energy

from rotor_tvmc import tdvp
from rotor_tvmc.ansatz import make_ansatz, random_alpha
from rotor_tvmc.lattice import build_lattice
from rotor_tvmc.quadrature import quadrature_qgt
from rotor_tvmc.tdvp import (
    QgtEstimate,
    RegularizationPolicy,
    TdvpError,
    adaptive_lambda,
    effective_rank,
    estimate_qgt,
    regularized_pseudoinverse,
    residual_r2,
    spectral_filter,
    tdvp_rhs,
)


def _random_hermitian_spd(p, rng, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    eig = np.linspace(1.0, cond, p)
    return (q * eig) @ q.conj().T


class TestSpectralFilter:
    def test_half_at_cutoff(self):
        lam2 = 0.37
        assert spectral_filter(np.array([lam2]), lam2)[0] == pytest.approx(0.5)

    def test_limits(self):
        lam2 = 1e-3
        f = spectral_filter(np.array([1e-12, 1e3]), lam2)
        assert f[0] < 1e-6
        assert f[1] > 1 - 1e-6

    def test_zero_eigenvalue_fully_suppressed(self):
        assert spectral_filter(np.array([0.0]), 1e-4)[0] == 0.0

    def test_small_lambda_recovers_inverse(self):
        rng = np.random.default_rng(0)
        s = _random_hermitian_spd(8, rng)
        pinv = regularized_pseudoinverse(s, 1e-14)
        residual = pinv.apply(s) - np.eye(8)
        assert np.max(np.abs(residual)) <= 1e-8

    def test_effective_rank_monotone_in_lambda(self):
        rng = np.random.default_rng(1)
        s = _random_hermitian_spd(10, rng, cond=1e4)
        spectrum = np.linalg.eigvalsh(s)
        lambdas = np.logspace(-6, 6, 20)
        ranks = [effective_rank(spectrum, l2) for l2 in lambdas]
        assert all(a >= b - 1e-12 for a, b in zip(ranks, ranks[1:]))

    def test_effective_rank_counts_kept_directions(self):
        spectrum = np.array([1e-8, 1e-8, 1.0, 2.0, 3.0])
        rho = effective_rank(spectrum, 1e-4)
        assert 2.9 < rho < 3.1


class TestAdaptiveLambda:
    def test_relative_floor_dominates(self):
        policy = RegularizationPolicy(a_c=1e-6, r_c=1e-2)
        spectrum = np.array([0.5, 2.0])
        assert adaptive_lambda(spectrum, policy) == pytest.approx(0.02)

    def test_absolute_floor_dominates(self):
        policy = RegularizationPolicy(a_c=1e-4, r_c=1e-2)
        spectrum = np.array([1e-6, 1e-5])
        assert adaptive_lambda(spectrum, policy) == pytest.approx(1e-4)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RegularizationPolicy(a_c=0.0)


class TestEstimateQgt:
    def _jastrow_pair(self):
        lat = build_lattice((2,), (False,))
        state = make_ansatz("jastrow", lat)
        return state.with_alpha(np.array([0.3 + 0.1j]))

    def test_hermitian_and_psd(self):
        lat = build_lattice((4,), (True,))
        state = make_ansatz("jastrow", lat)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(2), 0.2))
        rng = np.random.default_rng(3)
        samples = rng.uniform(-np.pi, np.pi, size=(800, 4))
        qgt = estimate_qgt(state, samples, g=4.0, J=1.0)
        assert np.array_equal(qgt.s_matrix, qgt.s_matrix.conj().T)
        assert np.min(np.linalg.eigvalsh(qgt.s_matrix)) > -1e-12
        assert qgt.e_var >= 0

    def test_chunked_equals_unchunked(self, monkeypatch):
        lat = build_lattice((3,), (True,))
        state = make_ansatz("jastrow", lat)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(4), 0.2))
        rng = np.random.default_rng(5)
        samples = rng.uniform(-np.pi, np.pi, size=(333, 3))
        monkeypatch.setattr(tdvp, "CHUNK_ROWS", 50)
        a = estimate_qgt(state, samples, g=3.0, J=1.0)
        monkeypatch.setattr(tdvp, "CHUNK_ROWS", 10000)
        b = estimate_qgt(state, samples, g=3.0, J=1.0)
        assert np.allclose(a.s_matrix, b.s_matrix)
        assert np.allclose(a.gvec, b.gvec)
        assert np.isclose(a.e_var, b.e_var)

    def test_chunks_sized_by_bytes(self, monkeypatch):
        # a chunk's (rows, P) complex log-derivative block stays within
        # CHUNK_BYTES; CHUNK_ROWS remains the upper bound
        n, p = 40, 50
        rng = np.random.default_rng(9)
        rows = []

        class Counting(_TableState):
            def local_kernels(self, samples, g, J, out=None):
                rows.append(len(samples))
                return super().local_kernels(samples, g, J, out)

        state = Counting(rng.standard_normal((n, p)) + 0j, rng.standard_normal(n) + 0j)
        samples = np.arange(n, dtype=np.float64)[:, None]

        def chunks():
            rows.clear()
            return estimate_qgt(state, samples, g=1.0, J=1.0), list(rows)

        monkeypatch.setattr(tdvp, "CHUNK_BYTES", 7 * p * 16 + 5)
        capped, sizes = chunks()
        assert sizes == [7] * 5 + [5]
        monkeypatch.setattr(tdvp, "CHUNK_ROWS", 3)
        assert chunks()[1] == [3] * 13 + [1]
        monkeypatch.undo()
        monkeypatch.setattr(tdvp, "CHUNK_BYTES", 2**30)
        whole, sizes = chunks()
        assert sizes == [n]
        assert np.array_equal(capped.x, whole.x)

    def test_refills_out(self):
        # the descent hands the last estimate's X back to be overwritten
        n, p = 30, 50
        fresh, o, e, weights = _random_estimate(n, p, uniform=False, seed=11)
        stale = _random_estimate(n, p, uniform=True, seed=12)[0]
        state = _TableState(o, e)
        samples = np.arange(n, dtype=np.float64)[:, None]
        refilled = estimate_qgt(state, samples, g=1.0, J=1.0, weights=weights, out=stale.x)
        assert refilled.x is stale.x
        assert np.array_equal(refilled.x, fresh.x)
        assert np.array_equal(refilled.y, fresh.y)
        with pytest.raises(ValueError):
            estimate_qgt(state, samples, g=1.0, J=1.0, out=np.empty((n, p + 1), complex))

    def test_weights_from_log_psi(self, monkeypatch):
        # a weight function receives ln psi from the pass that gives O and E_L
        state = make_ansatz("rbm", build_lattice((3,), (True,)), n_hidden=4)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(6), 0.3))
        samples = np.random.default_rng(7).uniform(-np.pi, np.pi, size=(300, 3))
        log_psi = state.log_psi(samples)
        seen = []

        def weigh(values):
            seen.append(values.copy())
            return np.exp(2.0 * values.real)

        monkeypatch.setattr(tdvp, "CHUNK_ROWS", 64)
        got = estimate_qgt(state, samples, g=3.0, J=1.0, weights=weigh)
        ref = estimate_qgt(state, samples, g=3.0, J=1.0, weights=np.exp(2.0 * log_psi.real))
        assert len(seen) == 1
        assert np.array_equal(seen[0], log_psi)
        # the estimate keeps ln psi, whatever its weights
        assert np.array_equal(got.log_psi, log_psi)
        assert np.array_equal(ref.log_psi, log_psi)
        assert np.array_equal(got.x, ref.x)
        assert np.array_equal(got.y, ref.y)
        assert got.e_mean == ref.e_mean

    def test_needs_two_samples(self):
        state = self._jastrow_pair()
        with pytest.raises(TdvpError):
            estimate_qgt(state, np.zeros((1, 2)), g=3.0, J=1.0)

    def test_quadrature_agrees_with_dense_mc_limit(self):
        # quadrature QGT equals the MC estimate in the infinite-sample limit;
        # check against a fine uniform deterministic sweep with weights
        state = self._jastrow_pair()
        qgt = quadrature_qgt(state, g=3.0, J=1.0, q=48)
        energy = quadrature_energy(state, g=3.0, J=1.0, q=48)
        assert np.isclose(qgt.e_mean, energy)


class TestTdvpRhs:
    def _prepared(self, seed=6):
        lat = build_lattice((4,), (True,))
        state = make_ansatz("jastrow", lat)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(seed), 0.2))
        qgt = quadrature_qgt(state, g=3.0, J=1.0, q=20)
        return state, qgt

    def test_mode_validation(self):
        _, qgt = self._prepared()
        with pytest.raises(ValueError):
            tdvp_rhs(qgt, RegularizationPolicy(), mode="both")

    def test_real_is_i_times_imag(self):
        _, qgt = self._prepared()
        policy = RegularizationPolicy()
        re, _ = tdvp_rhs(qgt, policy, mode="real")
        im, _ = tdvp_rhs(qgt, policy, mode="imag")
        assert np.allclose(re, 1j * im)

    def test_imaginary_time_decreases_energy(self):
        state, qgt = self._prepared()
        policy = RegularizationPolicy(a_c=1e-8, r_c=1e-6)
        for dtau in (1e-2, 1e-3):
            alpha_dot, _ = tdvp_rhs(qgt, policy, mode="imag")
            moved = state.with_alpha(state.alpha + dtau * alpha_dot)
            e0 = np.real(quadrature_energy(state, g=3.0, J=1.0, q=20))
            e1 = np.real(quadrature_energy(moved, g=3.0, J=1.0, q=20))
            assert e1 <= e0 + 1e-12

    def test_residual_in_unit_interval(self):
        _, qgt = self._prepared()
        _, pinv = tdvp_rhs(qgt, RegularizationPolicy(), mode="real")
        r2, clamped = residual_r2(qgt, pinv)
        assert 0.0 <= r2 <= 1.0

    def test_residual_zero_variance(self):
        qgt = QgtEstimate(
            x=np.eye(2, dtype=complex), y=np.zeros(2, dtype=complex),
            e_mean=0.0, n_samples=100, log_psi=np.zeros(2, dtype=complex),
        )
        pinv = regularized_pseudoinverse(qgt.s_matrix, 1e-6)
        assert residual_r2(qgt, pinv) == (0.0, False)

    def test_rich_ansatz_has_smaller_residual(self):
        # more variational freedom => better projection of the dynamics
        lat = build_lattice((3,), (False,))
        rng = np.random.default_rng(8)
        policy = RegularizationPolicy(a_c=1e-10, r_c=1e-8)
        jastrow = make_ansatz("jastrow", lat)
        jastrow = jastrow.with_alpha(random_alpha(jastrow, rng, 0.1))
        qgt_j = quadrature_qgt(jastrow, g=3.0, J=1.0, q=16)
        _, pinv_j = tdvp_rhs(qgt_j, policy, mode="real")
        r2_j, _ = residual_r2(qgt_j, pinv_j)

        rbm = make_ansatz("rbm", lat, n_hidden=6)
        rbm = rbm.with_alpha(random_alpha(rbm, np.random.default_rng(8), 0.1))
        qgt_r = quadrature_qgt(rbm, g=3.0, J=1.0, q=16)
        _, pinv_r = tdvp_rhs(qgt_r, policy, mode="real")
        r2_r, _ = residual_r2(qgt_r, pinv_r)
        assert r2_r <= r2_j + 0.05


class _TableState:
    """Stub ansatz whose "samples" index rows of fixed O and E_L tables;
    ln psi is 0 everywhere."""

    def __init__(self, o, e):
        self.o, self.e = o, e
        self.n_params = o.shape[1]

    def local_kernels(self, samples, g, J, out=None):
        rows = samples[:, 0].astype(int)
        o = self.o[rows]
        if out is not None:
            out[...] = o
        return np.zeros(len(rows), dtype=np.complex128), o, self.e[rows]


def _random_estimate(n, p, uniform, seed):
    rng = np.random.default_rng(seed)
    o = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    weights = None if uniform else rng.uniform(0.1, 2.0, size=n)
    state = _TableState(o, e)
    samples = np.arange(n, dtype=np.float64)[:, None]
    return estimate_qgt(state, samples, g=1.0, J=1.0, weights=weights), o, e, weights


SHAPES = [(30, 50), (50, 30)]  # n < P solves in sample space, n > P in parameter space


class TestGram:
    # n < P in blocks of 7, 7 and 3 columns; n = P; P < n
    @pytest.mark.parametrize("n,p", [(7, 17), (7, 7), (9, 4)])
    def test_matches_the_complex_product(self, n, p):
        rng = np.random.default_rng(n * p)
        x = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        gram = tdvp._gram(x)
        ref = x @ x.conj().T
        assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(gram, gram.conj().T)

    # n >= P, where the solve forms S = X^dag X; 4096 x 36 is the oracle's 3-rotor grid
    @pytest.mark.parametrize("n,p", [(9, 4), (7, 7), (50, 1), (4096, 36)])
    def test_s_matrix_matches_the_complex_product(self, n, p):
        rng = np.random.default_rng(n * p)
        x = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
        qgt = QgtEstimate(x=x, y=np.zeros(n, dtype=np.complex128), e_mean=0j, n_samples=n,
                          log_psi=np.zeros(n, dtype=np.complex128))
        s = qgt.s_matrix
        ref = x.conj().T @ x
        assert np.max(np.abs(s - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(s, s.conj().T)
        assert np.all(np.diag(s).imag == 0)


class TestSmallerSpaceSolve:
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("n,p", SHAPES)
    def test_estimate_matches_covariances(self, n, p, uniform):
        qgt, o, e, weights = _random_estimate(n, p, uniform, seed=n + 2 * uniform)
        w = np.full(n, 1.0 / n) if weights is None else weights / np.sum(weights)
        oc = o - w @ o
        ec = e - w @ e
        assert np.allclose(qgt.s_matrix, (w[:, None] * oc).conj().T @ oc, rtol=0, atol=1e-12)
        assert np.allclose(qgt.gvec, oc.conj().T @ (w * ec), rtol=0, atol=1e-12)
        assert qgt.e_var == pytest.approx(float(w @ np.abs(ec) ** 2), rel=1e-12)
        assert qgt.e_mean == pytest.approx(complex(w @ e), rel=1e-12)

    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("n,p", SHAPES)
    def test_solve_matches_parameter_space_reference(self, n, p, uniform):
        qgt, _, _, _ = _random_estimate(n, p, uniform, seed=10 + n + 2 * uniform)
        policy = RegularizationPolicy(a_c=1e-4, r_c=0.1)
        alpha_dot, pinv = tdvp_rhs(qgt, policy, mode="imag")

        spectrum = np.linalg.eigvalsh(qgt.s_matrix)
        lambda2 = adaptive_lambda(np.where(spectrum > 0, spectrum, 0.0), policy)
        ref = regularized_pseudoinverse(qgt.s_matrix, lambda2)
        solution = ref.apply(qgt.gvec)

        def rel(a, b):
            return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)

        assert rel(-alpha_dot, solution) <= 1e-10
        assert pinv.lambda2 == pytest.approx(ref.lambda2, rel=1e-10)
        assert pinv.rho == pytest.approx(ref.rho, rel=1e-10)
        # the filter is active: some directions are partly cut
        assert 1.0 < pinv.rho < min(n, p) - 0.5
        r2, _ = residual_r2(qgt, pinv)
        r2_ref, _ = residual_r2(qgt, ref)
        assert r2 == pytest.approx(r2_ref, rel=1e-10)

        vec = np.random.default_rng(99).standard_normal((p, 3)) * (1 + 2j)
        assert rel(pinv.apply(vec), ref.apply(vec)) <= 1e-10

    @pytest.mark.parametrize("uniform", [True, False])
    def test_sample_space_operator_matches_reference(self, uniform):
        # apply on the (P, P) identity gives the whole operator S_f^+
        n, p = SHAPES[0]
        qgt, _, _, _ = _random_estimate(n, p, uniform, seed=20 + uniform)
        _, pinv = tdvp_rhs(qgt, RegularizationPolicy(a_c=1e-4, r_c=0.1), mode="real")
        ref = regularized_pseudoinverse(qgt.s_matrix, pinv.lambda2).apply(np.eye(p))
        got = pinv.apply(np.eye(p))
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_sample_space_solve_holds_no_copy_of_x(self):
        # X is the largest array of a step: beyond a few n x n matrices, the
        # solve and the residual may allocate less than half of X's bytes
        # (a conjugate copy of X, or the P x n basis X^dag V, is a whole X)
        n, p = 200, 1200
        qgt, _, _, _ = _random_estimate(n, p, uniform=True, seed=5)
        tracemalloc.start()
        try:
            _, pinv = tdvp_rhs(qgt, RegularizationPolicy(), mode="real")
            residual_r2(qgt, pinv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * qgt.x.nbytes + 4 * n * n * 16

    def test_parameter_space_solve_holds_no_copy_of_x(self):
        # the n >= P mirror: beyond S, its eigenvectors and the (2P, 2P) real
        # Gram matrix S is read from, the solve and the residual may allocate
        # less than half of X's bytes (a conjugate copy of X is a whole X)
        n, p = 1200, 200
        qgt, _, _, _ = _random_estimate(n, p, uniform=True, seed=5)
        tracemalloc.start()
        try:
            _, pinv = tdvp_rhs(qgt, RegularizationPolicy(), mode="real")
            residual_r2(qgt, pinv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * qgt.x.nbytes + 3 * p * p * 16

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_one_eigensolve_per_rhs(self, n, p, monkeypatch):
        qgt, _, _, _ = _random_estimate(n, p, uniform=True, seed=3)
        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
        tdvp_rhs(qgt, RegularizationPolicy(), mode="real")
        assert calls == ["eigh"]
        # the sample-space solve never forms the P x P tensor
        assert ("s_matrix" in vars(qgt)) == (n >= p)

    @pytest.mark.parametrize("n,p", SHAPES)
    def test_failed_eigensolve_is_typed(self, n, p, monkeypatch):
        qgt, _, _, _ = _random_estimate(n, p, uniform=True, seed=4)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(TdvpError):
            tdvp_rhs(qgt, RegularizationPolicy(), mode="real")
