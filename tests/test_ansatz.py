"""Gradient and consistency checks for all trial-wavefunction kinds.

Every analytic derivative (parameter log-derivatives, angle gradient of
log |psi|^2, and the per-site first/second angle derivatives entering the
local energy) is verified against central finite differences.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.special
from reference import jastrow_pair_sums, log_psi_periodicity_check

from rotor_tvmc.ansatz import (
    Angles,
    AnsatzError,
    CircularRBM,
    LogPsiNonFinite,
    PeriodicCNN,
    make_ansatz,
    random_alpha,
    zero_final_kernel,
)
from rotor_tvmc.ansatz.activations import (
    d2_poly_log_I0_of_square,
    d_poly_log_I0_of_square,
    poly_log_I0_of_square,
)
from rotor_tvmc.ansatz.cnn import ConvTable
from rotor_tvmc.lattice import build_lattice

FD_EPS = 1e-6


def _cases():
    chain4 = build_lattice((4,), (True,))
    open3 = build_lattice((3,), (False,))
    square = build_lattice((3, 3), (True, True))
    mixed = build_lattice((3, 4), (True, False))
    return [
        ("jastrow", chain4, {}),
        ("jastrow", open3, {}),
        ("rbm", chain4, {"n_hidden": 6}),
        ("rbm", chain4, {"convolutional": True}),
        ("rbm", square, {"convolutional": True}),
        ("cnn", chain4, {"depth": 2, "n_modes": 2}),
        ("cnn", square, {"depth": 3, "n_modes": 1}),
        ("cnn", mixed, {"depth": 2, "n_modes": 2}),
    ]


def angle_derivatives(state, theta):
    """(ln psi, d1, d2) of a (B, N) batch, from the ansatz's core (there is
    no public wrapper)."""
    return state._kernels(Angles(theta, state.lattice), None)[:3]


def _random_state(kind, lattice, hyper, seed=11, scale=0.1):
    state = make_ansatz(kind, lattice, **hyper)
    return state.with_alpha(random_alpha(state, np.random.default_rng(seed), scale))


def _fd_param_grad(state, theta):
    base = state.alpha
    grad = np.empty(state.n_params, dtype=np.complex128)
    for p in range(state.n_params):
        step = np.zeros_like(base)
        step[p] = FD_EPS
        plus = state.with_alpha(base + step).log_psi(theta)[0]
        minus = state.with_alpha(base - step).log_psi(theta)[0]
        d_re = (plus - minus) / (2 * FD_EPS)
        step[p] = 1j * FD_EPS
        plus = state.with_alpha(base + step).log_psi(theta)[0]
        minus = state.with_alpha(base - step).log_psi(theta)[0]
        d_im = (plus - minus) / (2 * FD_EPS)
        # holomorphic check: d/d(i a) = i d/da
        assert abs(d_im - 1j * d_re) < 1e-5 * max(1.0, abs(d_re))
        grad[p] = d_re
    return grad


@pytest.mark.parametrize("kind,lattice,hyper", _cases(),
                         ids=lambda v: str(v) if isinstance(v, str) else None)
class TestGradients:
    def test_parameter_derivatives(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        rng = np.random.default_rng(5)
        theta = rng.uniform(-np.pi, np.pi, size=(1, lattice.n_sites))
        analytic = state.log_derivatives(theta)[0]
        fd = _fd_param_grad(state, theta)
        scale = max(1.0, np.max(np.abs(fd)))
        assert np.max(np.abs(analytic - fd)) / scale < 1e-6

    def test_angle_first_derivative(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        rng = np.random.default_rng(6)
        theta = rng.uniform(-np.pi, np.pi, size=(1, lattice.n_sites))
        _, d1, _ = angle_derivatives(state, theta)
        for k in range(lattice.n_sites):
            step = np.zeros_like(theta)
            step[0, k] = FD_EPS
            fd = (state.log_psi(theta + step)[0] - state.log_psi(theta - step)[0]) / (2 * FD_EPS)
            assert abs(d1[0, k] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_angle_second_derivative(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi, np.pi, size=(1, lattice.n_sites))
        _, _, d2 = angle_derivatives(state, theta)
        h = 1e-4
        for k in range(lattice.n_sites):
            step = np.zeros_like(theta)
            step[0, k] = h
            fd = (
                state.log_psi(theta + step)[0]
                - 2 * state.log_psi(theta)[0]
                + state.log_psi(theta - step)[0]
            ) / h ** 2
            assert abs(d2[0, k] - fd) < 1e-4 * max(1.0, abs(fd))

    def test_grad_log_prob(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        rng = np.random.default_rng(8)
        theta = rng.uniform(-np.pi, np.pi, size=(1, lattice.n_sites))
        grad = state.grad_log_prob(theta)
        for k in range(lattice.n_sites):
            step = np.zeros_like(theta)
            step[0, k] = FD_EPS
            fd = (state.log_prob(theta + step)[0] - state.log_prob(theta - step)[0]) / (2 * FD_EPS)
            assert abs(grad[0, k] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_periodicity(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        rng = np.random.default_rng(9)
        theta = rng.uniform(-np.pi, np.pi, size=lattice.n_sites)
        for k in range(lattice.n_sites):
            assert log_psi_periodicity_check(state, theta, k)

    def test_local_energy_finite(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        rng = np.random.default_rng(10)
        theta = rng.uniform(-np.pi, np.pi, size=(5, lattice.n_sites))
        e = state.local_energy(theta, g=4.0, J=1.0)
        assert np.all(np.isfinite(e))


class TestFirstOrderGradient:
    """grad_log_prob runs on the first-order ``_angle_grad`` core alone."""

    @pytest.mark.parametrize("dims,periodic", [
        ((4,), (True,)), ((3, 3), (True, True)),
        ((5,), (False,)), ((3, 4), (True, False)),
    ])
    def test_jastrow_bitwise_equal_to_second_order_path(self, dims, periodic):
        lattice = build_lattice(dims, periodic)
        state = _random_state("jastrow", lattice, {}, seed=21, scale=0.7)
        rng = np.random.default_rng(22)
        theta = rng.uniform(-np.pi, np.pi, size=(9, lattice.n_sites))
        _, d1, _ = angle_derivatives(state, theta)
        assert np.array_equal(state.grad_log_prob(theta), 2.0 * np.real(d1))

    @pytest.mark.parametrize("dims,periodic,hyper", [
        ((4,), (True,), {"n_hidden": 6}),
        ((3, 4), (True, False), {"n_hidden": 5}),
        ((4,), (True,), {"convolutional": True}),
        ((3, 3), (True, True), {"convolutional": True}),
    ])
    def test_rbm_agrees_with_second_order_path(self, dims, periodic, hyper):
        lattice = build_lattice(dims, periodic)
        state = _random_state("rbm", lattice, hyper, seed=23, scale=0.7)
        rng = np.random.default_rng(24)
        theta = rng.uniform(-np.pi, np.pi, size=(9, lattice.n_sites))
        _, d1, _ = angle_derivatives(state, theta)
        assert np.array_equal(state.grad_log_prob(theta), 2.0 * np.real(d1))

    @pytest.mark.parametrize("lattice,hyper", [
        (lattice, hyper) for kind, lattice, hyper in _cases() if kind == "cnn"
    ])
    def test_cnn_bitwise_equal_to_second_order_path(self, lattice, hyper):
        state = _random_state("cnn", lattice, hyper, seed=28, scale=0.7)
        rng = np.random.default_rng(29)
        theta = rng.uniform(-np.pi, np.pi, size=(9, lattice.n_sites))
        _, d1, _ = angle_derivatives(state, theta)
        assert np.array_equal(state.grad_log_prob(theta), 2.0 * np.real(d1))

    @pytest.mark.parametrize("kind,hyper", [
        ("jastrow", {}), ("rbm", {"n_hidden": 4}),
        ("rbm", {"convolutional": True}), ("cnn", {"depth": 2, "n_modes": 2}),
    ])
    def test_never_computes_second_derivatives(self, kind, hyper, monkeypatch):
        lattice = build_lattice((4,), (True,))
        state = _random_state(kind, lattice, hyper)
        theta = np.random.default_rng(25).uniform(-np.pi, np.pi, size=(3, 4))
        expected = state.grad_log_prob(theta)

        def refuse(self, angles, out):
            raise AssertionError("second-order path called")

        monkeypatch.setattr(type(state), "_kernels", refuse)
        assert np.array_equal(state.grad_log_prob(theta), expected)
        # one configuration takes a matrix-vector path, equal up to rounding
        assert np.allclose(state.grad_log_prob(theta[0]), expected[0], rtol=1e-12, atol=0)


class TestGradientRows:
    """HMC carries a chain's gradient from the batch of one leapfrog step to
    the next trajectory's batch, where the other rows hold other chains: a
    row's gradient must not depend on the rest of a batch of fixed shape."""

    @pytest.mark.parametrize("kind,hyper", [
        ("jastrow", {}), ("rbm", {"n_hidden": 4}),
        ("rbm", {"convolutional": True}), ("cnn", {"depth": 2, "n_modes": 2}),
    ])
    def test_rows_move_with_their_gradients(self, kind, hyper):
        lattice = build_lattice((3,), (True,))
        state = _random_state(kind, lattice, hyper, seed=26, scale=0.7)
        rng = np.random.default_rng(27)
        theta = rng.uniform(-np.pi, np.pi, size=(8, 3))
        grad = state.grad_log_prob(theta)
        for _ in range(5):
            perm = rng.permutation(8)
            assert np.array_equal(state.grad_log_prob(theta[perm]), grad[perm])
        # the other rows replaced by new configurations
        mixed = rng.uniform(-np.pi, np.pi, size=(8, 3))
        mixed[::2] = theta[::2]
        assert np.array_equal(state.grad_log_prob(mixed)[::2], grad[::2])


def _einsum_forward(state, theta):
    """The RBM forward pass as written with einsum, kept as the test reference."""
    blocks = state.blocks()
    a, b = blocks["a"], blocks["b"]
    w = state._weights(blocks)
    nhat = np.stack([np.cos(theta), np.sin(theta)], axis=-1)  # (B, N, 2)
    x = b[None] + np.einsum("jk,bjc->bkc", w, nhat)  # (B, N_h, 2)
    s = np.einsum("bkc,bkc->bk", x, x)
    visible = np.einsum("jc,bjc->b", a, nhat)
    return blocks, w, nhat, x, s, visible


def _einsum_log_derivatives(state, theta):
    blocks, w, nhat, x, s, _ = _einsum_forward(state, theta)
    batch = theta.shape[0]
    gp = d_poly_log_I0_of_square(s)  # (B, N_h)
    o_a = nhat.astype(np.complex128).reshape(batch, -1)
    o_b = (2.0 * gp[..., None] * x).reshape(batch, -1)
    xdotn = np.einsum("bkc,bjc->bjk", x, nhat)
    o_w_dense = 2.0 * gp[:, None, :] * xdotn  # (B, N, N_h)
    if state.convolutional:
        n = state.n_sites
        o_kernel = np.zeros((batch, n), dtype=np.complex128)
        flat_disp = state._disp.ravel()
        np.add.at(o_kernel, (slice(None), flat_disp), o_w_dense.reshape(batch, -1))
        coupling = o_kernel
    else:
        coupling = o_w_dense.reshape(batch, -1)
    return np.concatenate([o_a, o_b, coupling], axis=-1)


def _einsum_angle_derivatives(state, theta):
    blocks, w, nhat, x, s, visible = _einsum_forward(state, theta)
    a = blocks["a"]
    logpsi = visible + np.sum(poly_log_I0_of_square(s), axis=-1)
    gp = d_poly_log_I0_of_square(s)
    gpp = d2_poly_log_I0_of_square(s)
    tang = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)  # d nhat / d theta
    a_dot_t = np.einsum("jc,bjc->bj", a, tang)
    a_dot_n = np.einsum("jc,bjc->bj", a, nhat)
    xdott = np.einsum("bkc,bjc->bjk", x, tang)
    xdotn = np.einsum("bkc,bjc->bjk", x, nhat)
    ds = 2.0 * w[None] * xdott
    d1 = a_dot_t + np.einsum("bk,bjk->bj", gp, ds)
    w2 = np.square(w)[None]
    d2s = 2.0 * (w2 - w[None] * xdotn)
    d2 = (
        -a_dot_n
        + np.einsum("bk,bjk->bj", gpp, np.square(ds))
        + np.einsum("bk,bjk->bj", gp, d2s)
    )
    return logpsi, d1, d2


def _reference_grad_log_prob(state, theta):
    """2 Re d1 from the first-order RBM gradient, the expression HMC runs on."""
    blocks = state.blocks()
    a, b = blocks["a"], blocks["b"]
    w = state._weights(blocks)
    cos, sin = np.cos(theta), np.sin(theta)
    x_x = b[:, 0] + cos @ w
    x_y = b[:, 1] + sin @ w
    gp = 2.0 * d_poly_log_I0_of_square(np.square(x_x) + np.square(x_y))
    wt = w.T
    d1 = -sin * (a[:, 0] + (gp * x_x) @ wt) + cos * (a[:, 1] + (gp * x_y) @ wt)
    return 2.0 * np.real(d1)


def _relative_error(new, ref):
    return np.max(np.abs(new - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("dims,periodic,hyper", [
    ((4,), (True,), {"n_hidden": 6}),
    ((3, 4), (True, False), {"n_hidden": 5}),
    ((5,), (True,), {"convolutional": True}),
    ((3, 3), (True, True), {"convolutional": True}),
    ((2, 3), (True, True), {"convolutional": True}),
])
class TestRbmMatchesEinsumReference:
    """The matmul RBM kernels against the einsum formulation they replaced."""

    def _setup(self, dims, periodic, hyper, batch):
        lattice = build_lattice(dims, periodic)
        state = _random_state("rbm", lattice, hyper, seed=31, scale=0.7)
        theta = np.random.default_rng(32).uniform(
            -np.pi, np.pi, size=(batch, lattice.n_sites))
        return state, theta

    def test_log_psi_and_log_derivatives(self, dims, periodic, hyper, batch):
        state, theta = self._setup(dims, periodic, hyper, batch)
        _, _, _, _, s, visible = _einsum_forward(state, theta)
        ref_log_psi = visible + np.sum(poly_log_I0_of_square(s), axis=-1)
        assert _relative_error(state.log_psi(theta), ref_log_psi) <= 1e-12
        assert _relative_error(state.log_derivatives(theta),
                               _einsum_log_derivatives(state, theta)) <= 1e-12

    def test_angle_derivatives(self, dims, periodic, hyper, batch):
        state, theta = self._setup(dims, periodic, hyper, batch)
        new = angle_derivatives(state, theta)
        for got, ref in zip(new, _einsum_angle_derivatives(state, theta)):
            assert _relative_error(got, ref) <= 1e-12

    def test_grad_log_prob_bitwise(self, dims, periodic, hyper, batch):
        state, theta = self._setup(dims, periodic, hyper, batch)
        assert np.array_equal(state.grad_log_prob(theta),
                              _reference_grad_log_prob(state, theta))


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("dims,periodic", [
    ((4, 4), (True, True)), ((8, 8), (True, True)),
    ((5,), (False,)), ((3, 4), (True, False)),
])
def test_jastrow_matches_pair_sums(dims, periodic, batch):
    """The dense-W Jastrow against the plain sum over its pairs."""
    lattice = build_lattice(dims, periodic)
    state = _random_state("jastrow", lattice, {}, seed=33, scale=0.7)
    theta = np.random.default_rng(34).uniform(-np.pi, np.pi, size=(batch, lattice.n_sites))
    log_psi, d1, d2, o = jastrow_pair_sums(state, theta)
    g, coupling = 4.0, 1.5
    bk, bl = lattice.bonds[:, 0], lattice.bonds[:, 1]
    energy = (-(g * coupling / 2.0) * np.sum(d2 + np.square(d1), axis=-1)
              - coupling * np.sum(np.cos(theta[:, bk] - theta[:, bl]), axis=-1))
    got_log_psi, got_o, got_energy = state.local_kernels(theta, g, coupling)
    for got, ref in ((got_log_psi, log_psi), (state.log_psi(theta), log_psi),
                     (got_o, o), (state.log_derivatives(theta), o),
                     (got_energy, energy),
                     (state.grad_log_prob(theta), 2.0 * np.real(d1)),
                     (state.log_prob(theta), 2.0 * np.real(log_psi))):
        assert _relative_error(got, ref) <= 1e-13


def test_jastrow_hmc_path_holds_no_pair_array():
    """ln p and its gradient, the HMC path, allocate less than one (B, P)
    float64 array on an 8x8 Jastrow: they are O(N^2) per configuration."""
    state = _random_state("jastrow", build_lattice((8, 8), (True, True)), {})
    theta = np.random.default_rng(35).uniform(-np.pi, np.pi, size=(6, state.n_sites))
    bound = theta.shape[0] * state.n_params * 8
    for call in (state.grad_log_prob, state.log_prob):
        call(theta)
        tracemalloc.start()
        try:
            call(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


def _kernel_cases():
    """``_cases()``, and two RBMs whose large batches rounded ln psi and E_L
    differently from small ones while NumPy reused their squares in place."""
    return _cases() + [
        ("rbm", build_lattice((4, 4), (True, True)), {"convolutional": True}),
        ("rbm", build_lattice((3,), (True,)), {"n_hidden": 6}),
    ]


@pytest.mark.parametrize("kind,lattice,hyper", _kernel_cases(),
                         ids=lambda v: str(v) if isinstance(v, str) else None)
class TestLocalKernels:
    """``local_kernels`` is bit for bit the three separate public calls, and
    does not depend on the batch it is evaluated in."""

    def test_matches_separate_calls(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper, scale=0.7)
        theta = np.random.default_rng(41).uniform(-np.pi, np.pi, size=(37, lattice.n_sites))
        for batch in (theta, theta[0]):
            got = state.local_kernels(batch, 4.0, 1.5)
            ref = (state.log_psi(batch), state.log_derivatives(batch),
                   state.local_energy(batch, 4.0, 1.5))
            for g, r in zip(got, ref):
                assert np.shape(g) == np.shape(r)
                assert np.array_equal(g, r)

    def test_independent_of_the_batch(self, kind, lattice, hyper):
        # one call against eight chunks: a (4096, 6) complex temporary is
        # beyond the 256 KiB at which NumPy reuses one in place, and the
        # CNN's (rows, channels, N) temporaries are at 1024 rows
        rows = 1024 if kind == "cnn" else 4096
        state = _random_state(kind, lattice, hyper, seed=3, scale=0.3)
        theta = np.random.default_rng(4).uniform(-np.pi, np.pi, size=(rows, lattice.n_sites))
        whole = state.local_kernels(theta, 4.0, 1.0)
        parts = [state.local_kernels(theta[lo:lo + rows // 8], 4.0, 1.0)
                 for lo in range(0, rows, rows // 8)]
        log_psi, o, e = (np.concatenate(values) for values in zip(*parts))
        assert np.array_equal(whole[0], log_psi)
        assert np.array_equal(whole[2], e)
        assert np.array_equal(whole[1], o)

    def test_gradient_independent_of_the_batch(self, kind, lattice, hyper):
        # one call against the six-row batches of six HMC chains
        state = _random_state(kind, lattice, hyper, seed=3, scale=0.3)
        theta = np.random.default_rng(4).uniform(-np.pi, np.pi, size=(4096, lattice.n_sites))
        parts = [state.grad_log_prob(theta[lo:lo + 6]) for lo in range(0, 4096, 6)]
        assert np.array_equal(state.grad_log_prob(theta), np.concatenate(parts))

    def test_non_finite_log_psi_is_numerical(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        alpha = state.alpha.copy()
        alpha[0] = np.nan
        state = state.with_alpha(alpha)
        theta = np.zeros((2, lattice.n_sites))
        with np.errstate(all="ignore"):
            for call in (lambda: state.log_psi(theta),
                         lambda: state.local_kernels(theta, 3.0, 1.0),
                         lambda: state.local_energy(theta, 3.0, 1.0)):
                with pytest.raises(LogPsiNonFinite, match="non-finite log_psi") as info:
                    call()
                assert not isinstance(info.value, AnsatzError)
                assert info.value.reason == "log-psi-nonfinite"


class TestCnnGradient:
    def test_builds_no_parameter_cotangent(self, monkeypatch):
        state = _random_state("cnn", build_lattice((3, 3), (True, True)),
                              {"depth": 3, "n_modes": 2}, scale=0.3)
        theta = np.random.default_rng(42).uniform(-np.pi, np.pi, size=(5, 9))
        expected = state.grad_log_prob(theta)

        def refuse(self, gout, h):
            raise AssertionError("parameter cotangent built")

        monkeypatch.setattr(ConvTable, "weight_grad", refuse)
        assert np.array_equal(state.grad_log_prob(theta), expected)


class TestCnnLocalKernels:
    def test_one_pass(self, monkeypatch):
        # one forward pass keeps the activations that the jets and O read
        state = _random_state("cnn", build_lattice((4,), (True,)), {"depth": 3, "n_modes": 2})
        calls = []
        forward = PeriodicCNN._forward

        def counted(self, theta):
            calls.append(len(theta))
            return forward(self, theta)

        monkeypatch.setattr(PeriodicCNN, "_forward", counted)
        state.local_kernels(np.zeros((5, 4)), 3.0, 1.0)
        assert calls == [5]

    def test_jets_serve_d2_only(self, monkeypatch):
        # two jets per hidden layer and the second-order jet alone through
        # the output layer: d1 comes from the backward pass
        depth = 3
        state = _random_state("cnn", build_lattice((4,), (True,)), {"depth": depth, "n_modes": 2})
        calls = []
        apply_jet = ConvTable.apply_jet

        def counted(self, w, t):
            calls.append(len(t))
            return apply_jet(self, w, t)

        monkeypatch.setattr(ConvTable, "apply_jet", counted)
        state.local_kernels(np.zeros((5, 4)), 3.0, 1.0)
        assert len(calls) == 2 * (depth - 1) + 1


class TestRbmLocalKernels:
    @pytest.mark.parametrize("hyper", [{"n_hidden": 3}, {"convolutional": True}])
    def test_one_forward_pass(self, hyper, monkeypatch):
        state = _random_state("rbm", build_lattice((4,), (True,)), hyper)
        calls = []
        forward = CircularRBM._forward

        def counted(self, theta):
            calls.append(len(theta))
            return forward(self, theta)

        monkeypatch.setattr(CircularRBM, "_forward", counted)
        state.local_kernels(np.zeros((5, 4)), 3.0, 1.0)
        assert calls == [5]

    def test_overflowing_parameters(self):
        # every parameter at 1e154 overflows s = x . x
        state = make_ansatz("rbm", build_lattice((2,), (True,)))
        state = state.with_alpha(np.full(state.n_params, 1e154))
        with np.errstate(all="ignore"), pytest.raises(LogPsiNonFinite):
            state.local_kernels(np.zeros((3, 2)), 3.0, 1.0)

    def test_couplings_checked(self):
        state = _random_state("rbm", build_lattice((3,), (True,)), {})
        with pytest.raises(AnsatzError):
            state.local_kernels(np.zeros((2, 3)), -1.0, 1.0)


class TestLocalEnergy:
    def test_uniform_state_energy_is_potential_only(self):
        # lnpsi = 0: kinetic part vanishes, E_L = -J sum cos(dtheta)
        lat = build_lattice((4,), (True,))
        state = make_ansatz("jastrow", lat)
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, size=(10, 4))
        bk, bl = lat.bonds[:, 0], lat.bonds[:, 1]
        expected = -np.sum(np.cos(theta[:, bk] - theta[:, bl]), axis=1)
        assert np.allclose(state.local_energy(theta, g=3.0, J=1.0), expected)

    def test_coupling_validation(self):
        lat = build_lattice((3,), (True,))
        state = make_ansatz("jastrow", lat)
        theta = np.zeros((1, 3))
        with pytest.raises(ValueError):
            state.local_energy(theta, g=-1.0, J=1.0)


class TestFactory:
    def test_unknown_kind(self):
        lat = build_lattice((3,), (True,))
        with pytest.raises(AnsatzError):
            make_ansatz("mps", lat)

    def test_parameter_length_validated(self):
        lat = build_lattice((3,), (True,))
        state = make_ansatz("jastrow", lat)
        with pytest.raises(AnsatzError):
            state.with_alpha(np.zeros(99))

    def test_blocks_layout_roundtrip(self):
        lat = build_lattice((4,), (True,))
        state = _random_state("rbm", lat, {"n_hidden": 3})
        blocks = state.blocks()
        flat = np.concatenate([blocks[name].ravel() for name, _ in state.layout])
        assert np.array_equal(flat, state.alpha)

    def test_conv_rbm_requires_periodic(self):
        lat = build_lattice((4,), (False,))
        with pytest.raises(AnsatzError):
            make_ansatz("rbm", lat, convolutional=True)

    def test_cnn_kernel_must_be_odd(self):
        lat = build_lattice((4, 4), (True, True))
        with pytest.raises(AnsatzError):
            make_ansatz("cnn", lat, kernel=(2, 2))


class TestUniformCnn:
    def test_zero_final_kernel_is_uniform(self):
        lat = build_lattice((3, 3), (True, True))
        state = make_ansatz("cnn", lat, depth=2, n_modes=2)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(0), 0.1))
        state = zero_final_kernel(state)
        rng = np.random.default_rng(1)
        theta = rng.uniform(-np.pi, np.pi, size=(20, 9))
        assert np.allclose(state.log_psi(theta), state.log_psi(theta)[0])

    def test_zero_final_kernel_zeroes_only_the_copy(self):
        lat = build_lattice((3, 3), (True, True))
        state = _random_state("cnn", lat, {"depth": 2, "n_modes": 2}, seed=2, scale=0.3)
        alpha, blocks = state.alpha.copy(), {k: v.copy() for k, v in state.blocks().items()}
        zeroed = zero_final_kernel(state)
        assert np.array_equal(state.alpha, alpha)
        for name, block in state.blocks().items():
            assert np.array_equal(block, blocks[name])
            assert np.shares_memory(block, state.alpha)
            zero_block = zeroed.blocks()[name]
            assert np.shares_memory(zero_block, zeroed.alpha)
            assert np.array_equal(zero_block, 0 * block if name == "w_final" else block)
        theta = np.random.default_rng(1).uniform(-np.pi, np.pi, size=(4, 9))
        assert not np.array_equal(state.log_psi(theta), zeroed.log_psi(theta))


@pytest.mark.parametrize("kind,hyper", [("rbm", {"n_hidden": 3}),
                                        ("rbm", {"convolutional": True}),
                                        ("cnn", {"n_modes": 2}),
                                        ("jastrow", {})])
class TestParameterViews:
    """The views of alpha that the kernels read are built where alpha is set,
    and follow it through ``with_alpha``."""

    def test_views_follow_alpha(self, kind, hyper):
        lat = build_lattice((4,), (True,))
        state = _random_state(kind, lat, hyper, seed=5, scale=0.3)
        before = {k: v.copy() for k, v in state.blocks().items()}
        weights = state._weights(state.blocks()).copy() if kind == "rbm" else None
        source_w = state._w.copy() if kind == "jastrow" else None
        alpha = random_alpha(state, np.random.default_rng(6), 0.3)
        clone = state.with_alpha(alpha)
        fresh = make_ansatz(kind, lat, **hyper).with_alpha(alpha.copy())
        assert clone.blocks().keys() == fresh.blocks().keys()
        for name, block in clone.blocks().items():
            assert np.array_equal(block, fresh.blocks()[name])
            assert np.shares_memory(block, clone.alpha)
            assert np.array_equal(state.blocks()[name], before[name])
        if kind == "rbm":
            w = clone._weights(clone.blocks())
            for got, ref in ((clone._w, w), (clone._wt, w.T), (clone._w2t, np.square(w).T),
                             (clone._a, fresh._a), (clone._b, fresh._b)):
                assert np.array_equal(got, ref)
            assert np.array_equal(state._w, weights)
            assert not np.array_equal(clone._w, state._w)
        if kind == "jastrow":
            w = clone._w
            assert np.array_equal(w, w.T)
            assert np.all(np.diag(w) == 0)
            assert np.array_equal(w[clone.pair_i, clone.pair_j], alpha)
            assert np.array_equal(clone._w2r, 2.0 * w.real)
            assert np.array_equal(state._w, source_w)
            assert not np.array_equal(clone._w, state._w)
        theta = np.random.default_rng(7).uniform(-np.pi, np.pi, size=(6, 4))
        for got, ref in zip(clone.local_kernels(theta, 3.0, 1.0),
                            fresh.local_kernels(theta, 3.0, 1.0)):
            assert np.array_equal(got, ref)


def _activation(z):
    """f(z) = g(z^2) and its z-derivatives, by the chain rule the CNN uses."""
    s = np.square(z)
    gp = d_poly_log_I0_of_square(s)
    return (poly_log_I0_of_square(s), 2.0 * z * gp,
            2.0 * gp + 4.0 * s * d2_poly_log_I0_of_square(s))


def _division_forms(s):
    """The ln I0 polynomial and its derivatives with their coefficients
    written as divisions."""
    sq = np.square(s)
    return (s / 4.0 - sq / 64.0 + s * sq / 576.0,
            0.25 - s / 32.0 + np.square(s) / 192.0,
            -1.0 / 32.0 + s / 96.0)


class TestActivations:
    def test_reciprocals_equal_the_divisions(self):
        # complex s from 1e-150 to 1e150 in magnitude, with exact zeros and
        # purely real and imaginary entries; beyond about 1e102, s^3 overflows
        # to the same inf and nan entries in both forms
        rng = np.random.default_rng(18)
        n = 20000
        s = 10.0 ** rng.uniform(-150, 150, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        s[::50] = 0.0
        s[1::50] = s[1::50].real
        s[2::50] = 1j * s[2::50].imag
        s[3::50] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in (s, s[:1], s[:3], s[:17]):
                got = (poly_log_I0_of_square(batch), d_poly_log_I0_of_square(batch),
                       d2_poly_log_I0_of_square(batch))
                for g, r in zip(got, _division_forms(batch)):
                    assert np.array_equal(g, r, equal_nan=True)
        assert np.isfinite(poly_log_I0_of_square(s[np.abs(s) < 1e100])).all()

    def test_log_i0_taylor(self):
        z = np.linspace(0, 0.5, 11)
        assert np.allclose(_activation(z)[0], z ** 2 / 4 - z ** 4 / 64 + z ** 6 / 576)

    def test_ratio_is_derivative(self):
        z = np.linspace(0.01, 0.5, 20)
        h = 1e-6
        fd = (_activation(z + h)[0] - _activation(z - h)[0]) / (2 * h)
        assert np.allclose(_activation(z)[1], fd, atol=1e-8)

    def test_second_derivative(self):
        z = np.linspace(0.01, 0.5, 20)
        h = 1e-4
        fd = (_activation(z + h)[0] - 2 * _activation(z)[0] + _activation(z - h)[0]) / h ** 2
        assert np.allclose(_activation(z)[2], fd, atol=1e-6)

    def test_square_argument_form_consistent(self):
        # the truncation of ln I0 errs by the z^8 term, 11 z^8 / 49152
        z = np.linspace(0, 0.7, 15)
        log_i0 = np.log(scipy.special.i0(z))
        assert np.all(np.abs(poly_log_I0_of_square(z ** 2) - log_i0)
                      <= 1.01 * 11 * z ** 8 / 49152 + 1e-16)

    def test_square_form_derivatives(self):
        s = np.linspace(0.01, 0.4, 20)
        h = 1e-6
        fd = (poly_log_I0_of_square(s + h) - poly_log_I0_of_square(s - h)) / (2 * h)
        assert np.allclose(d_poly_log_I0_of_square(s), fd, atol=1e-8)
        h = 1e-4
        fd2 = (
            poly_log_I0_of_square(s + h)
            - 2 * poly_log_I0_of_square(s)
            + poly_log_I0_of_square(s - h)
        ) / h ** 2
        assert np.allclose(d2_poly_log_I0_of_square(s), fd2, atol=1e-6)
