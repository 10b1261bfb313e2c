"""Gradient and consistency checks for all trial-wavefunction kinds.

Every analytic derivative (parameter log-derivatives, angle gradient of
log |psi|^2, and the per-site first/second angle derivatives entering the
local energy) is verified against central finite differences.
"""

import numpy as np
import pytest
import scipy.special

from rotor_tvmc.ansatz import (
    AnsatzError,
    CircularRBM,
    LogPsiNonFinite,
    make_ansatz,
    log_psi_periodicity_check,
    random_alpha,
    zero_final_kernel,
)
from rotor_tvmc.ansatz.activations import (
    d2_poly_log_I0_of_square,
    d_poly_log_I0_of_square,
    poly_log_I0_of_square,
)
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
        _, d1, _ = state.angle_derivatives(theta)
        for k in range(lattice.n_sites):
            step = np.zeros_like(theta)
            step[0, k] = FD_EPS
            fd = (state.log_psi(theta + step)[0] - state.log_psi(theta - step)[0]) / (2 * FD_EPS)
            assert abs(d1[0, k] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_angle_second_derivative(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi, np.pi, size=(1, lattice.n_sites))
        _, _, d2 = state.angle_derivatives(theta)
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
        _, d1, _ = state.angle_derivatives(theta)
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
        _, d1, _ = state.angle_derivatives(theta)
        expected = 2.0 * np.real(d1)
        grad = state.grad_log_prob(theta)
        assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind,hyper", [
        ("jastrow", {}), ("rbm", {"n_hidden": 4}),
        ("rbm", {"convolutional": True}), ("cnn", {"depth": 2, "n_modes": 2}),
    ])
    def test_never_computes_second_derivatives(self, kind, hyper, monkeypatch):
        lattice = build_lattice((4,), (True,))
        state = _random_state(kind, lattice, hyper)
        theta = np.random.default_rng(25).uniform(-np.pi, np.pi, size=(3, 4))
        expected = state.grad_log_prob(theta)

        def refuse(self, theta):
            raise AssertionError("second-order path called")

        monkeypatch.setattr(type(state), "_angle_derivatives", refuse)
        assert np.array_equal(state.grad_log_prob(theta), expected)
        # one configuration takes a matrix-vector path, equal up to rounding
        assert np.allclose(state.grad_log_prob(theta[0]), expected[0], rtol=1e-12, atol=0)


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
        new = state.angle_derivatives(theta)
        for got, ref in zip(new, _einsum_angle_derivatives(state, theta)):
            assert _relative_error(got, ref) <= 1e-12

    def test_grad_log_prob_bitwise(self, dims, periodic, hyper, batch):
        state, theta = self._setup(dims, periodic, hyper, batch)
        assert np.array_equal(state.grad_log_prob(theta),
                              _reference_grad_log_prob(state, theta))


@pytest.mark.parametrize("kind,lattice,hyper", _cases(),
                         ids=lambda v: str(v) if isinstance(v, str) else None)
class TestLocalKernels:
    """``local_kernels`` is bit for bit the three separate public calls."""

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

    def test_non_finite_log_psi_is_numerical(self, kind, lattice, hyper):
        state = _random_state(kind, lattice, hyper)
        alpha = state.alpha.copy()
        alpha[0] = np.nan
        state = state.with_alpha(alpha)
        theta = np.zeros((2, lattice.n_sites))
        with np.errstate(all="ignore"):
            for call in (lambda: state.log_psi(theta),
                         lambda: state.local_kernels(theta, 3.0, 1.0)):
                with pytest.raises(LogPsiNonFinite, match="non-finite log_psi") as info:
                    call()
                assert not isinstance(info.value, AnsatzError)
                assert info.value.reason == "log-psi-nonfinite"


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
            make_ansatz("cnn", lat, kernel_shape=(2, 2))


class TestUniformCnn:
    def test_zero_final_kernel_is_uniform(self):
        lat = build_lattice((3, 3), (True, True))
        state = make_ansatz("cnn", lat, depth=2, n_modes=2)
        state = state.with_alpha(random_alpha(state, np.random.default_rng(0), 0.1))
        state = zero_final_kernel(state)
        rng = np.random.default_rng(1)
        theta = rng.uniform(-np.pi, np.pi, size=(20, 9))
        assert np.allclose(state.log_psi(theta), state.log_psi(theta)[0])


def _activation(z):
    """f(z) = g(z^2) and its z-derivatives, by the chain rule the CNN uses."""
    s = np.square(z)
    gp = d_poly_log_I0_of_square(s)
    return (poly_log_I0_of_square(s), 2.0 * z * gp,
            2.0 * gp + 4.0 * s * d2_poly_log_I0_of_square(s))


class TestActivations:
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
