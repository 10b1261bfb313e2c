import numpy as np
import pytest

from rotor_tvmc.integrator import (
    AdaptiveStepper,
    StepController,
    StepSizeUnderflow,
    error_norm,
    rk32_step,
)


def _rotation_rhs(t, y):
    return -1j * y


class TestController:
    def test_reject_example(self):
        # err = 8 => factor 0.9 * 8^(-1/3) = 0.45
        ctrl = StepController()
        assert ctrl.next_dt(0.1, 8.0) == pytest.approx(0.045)

    def test_growth_cap(self):
        ctrl = StepController()
        assert ctrl.next_dt(0.01, 1e-9) == pytest.approx(0.04)

    def test_shrink_cap(self):
        ctrl = StepController()
        assert ctrl.next_dt(0.01, 1e9) == pytest.approx(0.0025)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepController(atol=0.0)
        with pytest.raises(ValueError):
            StepController(dt_min=0.2, dt_max=0.1)


class TestErrorNorm:
    def test_interleaved_real_imag(self):
        y3 = np.array([1.0 + 2.0j])
        y2 = np.array([1.0 + 2.5j])
        # error only in the imaginary component
        expected = 0.5 / (1e-3 + 1e-3 * 2.0)
        assert error_norm(y3, y2, 1e-3, 1e-3) == pytest.approx(expected)

    def test_zero_for_identical(self):
        y = np.array([0.3 - 0.7j, 1.2 + 0.1j])
        assert error_norm(y, y.copy(), 1e-3, 1e-3) == 0.0


class TestRk32Step:
    def test_single_step_third_order_accuracy(self):
        y0 = np.array([1.0 + 0.0j])
        dt = 0.1
        y3, y2, err, _ = rk32_step(_rotation_rhs, y0, 0.0, dt)
        exact = np.exp(-1j * dt)
        assert abs(y3[0] - exact) < 1e-5
        # embedded solution is one order worse
        assert abs(y2[0] - exact) > abs(y3[0] - exact)
        assert np.isfinite(err)

    def test_global_error_slope(self):
        # integrate alpha' = -i alpha to t=1 at fixed dt; global error ~ dt^3
        errors = []
        dts = [0.1, 0.05, 0.025, 0.0125]
        for dt in dts:
            y = np.array([1.0 + 0.0j])
            t = 0.0
            while t < 1.0 - 1e-12:
                h = min(dt, 1.0 - t)
                y, _, _, _ = rk32_step(_rotation_rhs, y, t, h)
                t += h
            errors.append(abs(y[0] - np.exp(-1j)))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert abs(slope - 3.0) < 0.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_rhs_flags_infinite_error(self):
        def bad(t, y):
            return y * np.inf

        _, _, err, k = rk32_step(bad, np.array([1.0 + 0.0j]), 0.0, 0.1)
        assert err == np.inf and k is None

    def test_fsal_stage_reuse(self):
        y0 = np.array([0.7 - 0.2j])
        y3, _, _, k_last = rk32_step(_rotation_rhs, y0, 0.0, 0.05)
        # continuing with k1 = k_last must equal a fresh evaluation
        a = rk32_step(_rotation_rhs, y3, 0.05, 0.05, k1=k_last)
        b = rk32_step(_rotation_rhs, y3, 0.05, 0.05)
        assert np.array_equal(a[0], b[0])

    def test_stage_fn_evaluates_the_interior_stages(self):
        calls = []

        def counted(name):
            def fn(t, y):
                calls.append((name, t))
                return _rotation_rhs(t, y)
            return fn

        y0 = np.array([0.7 - 0.2j])
        a = rk32_step(counted("rhs"), y0, 0.2, 0.1, stage_fn=counted("stage"))
        assert calls == [("rhs", 0.2), ("stage", 0.2 + 0.5 * 0.1),
                         ("stage", 0.2 + 0.75 * 0.1), ("rhs", 0.2 + 0.1)]
        b = rk32_step(_rotation_rhs, y0, 0.2, 0.1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestAdaptiveStepper:
    def test_advances_and_respects_bounds(self):
        ctrl = StepController(atol=1e-6, rtol=1e-6, dt_min=1e-6, dt_max=0.2)
        stepper = AdaptiveStepper(ctrl)
        y = np.array([1.0 + 0.0j])
        t, dt = 0.0, 0.01
        while t < 2.0:
            y, t, dt = stepper.advance(_rotation_rhs, y, t, min(dt, 2.0 - t))
            assert ctrl.dt_min <= dt <= ctrl.dt_max
        assert abs(y[0] - np.exp(-1j * t)) < 1e-4

    def test_rejection_retries_with_smaller_dt(self):
        calls = []

        def stiff(t, y):
            calls.append(t)
            return -50.0 * y

        ctrl = StepController(atol=1e-8, rtol=1e-8, dt_min=1e-8)
        stepper = AdaptiveStepper(ctrl)
        y = np.array([1.0 + 0.0j])
        _, t_next, _ = stepper.advance(stiff, y, 0.0, 0.1)
        assert t_next > 0
        rejected = [a for a in stepper.attempts if not a.accepted]
        assert rejected
        # k1 is evaluated once and survives every rejected attempt
        assert len(calls) == 1 + 3 * len(stepper.attempts)
        assert all(
            later.dt < earlier.dt
            for earlier, later in zip(stepper.attempts, stepper.attempts[1:])
            if not earlier.accepted
        )

    def test_stage_fn_on_every_attempt(self):
        rhs_calls, stage_calls = [], []

        def stiff(calls):
            def fn(t, y):
                calls.append(t)
                return -50.0 * y
            return fn

        ctrl = StepController(atol=1e-8, rtol=1e-8, dt_min=1e-8)
        stepper = AdaptiveStepper(ctrl)
        stepper.advance(stiff(rhs_calls), np.array([1.0 + 0.0j]), 0.0, 0.1,
                        stage_fn=stiff(stage_calls))
        n = len(stepper.attempts)
        assert n > 1
        # k1 once, then k2 and k3 through stage_fn and k4 through rhs_fn
        assert (len(rhs_calls), len(stage_calls)) == (1 + n, 2 * n)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_underflow_raises(self):
        def nan_rhs(t, y):
            return y * np.nan

        ctrl = StepController(dt_min=1e-3)
        stepper = AdaptiveStepper(ctrl)
        with pytest.raises(StepSizeUnderflow):
            stepper.advance(nan_rhs, np.array([1.0 + 0.0j]), 0.0, 0.01)

    def test_tighter_tolerance_never_worse(self):
        # step-doubling consistency: halving tolerances cannot increase the
        # largest accepted local error
        def run(tol):
            ctrl = StepController(atol=tol, rtol=tol, dt_min=1e-8)
            stepper = AdaptiveStepper(ctrl)
            y = np.array([1.0 + 0.0j])
            t, dt = 0.0, 0.01
            max_err = 0.0
            while t < 1.0:
                y, t, dt = stepper.advance(_rotation_rhs, y, t, min(dt, 1.0 - t))
                accepted = [a for a in stepper.attempts if a.accepted]
                max_err = max(max_err, accepted[-1].err_norm * tol)
            return max_err

        assert run(5e-4) <= run(1e-3) + 1e-15

    def test_telemetry_recorded(self):
        ctrl = StepController()
        stepper = AdaptiveStepper(ctrl)
        y = np.array([1.0 + 0.0j])
        stepper.advance(_rotation_rhs, y, 0.0, 0.01)
        assert stepper.attempts
        assert stepper.attempts[-1].accepted
