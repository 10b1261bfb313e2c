"""Adaptive Bogacki-Shampine RK3(2) stepping for the parameter trajectory.

The error norm is the max over interleaved real/imaginary components of
|y3 - y2| / (atol + rtol |y3|).  The tableau is first-same-as-last: the
first stage of a step is the last stage of the last accepted step, evaluated
at the point that step accepted.  The interior stages k2 and k3 may be
evaluated by a cheaper function of their own (``stage_fn``); the last stage,
which the next step reuses, always calls the right-hand side itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Bogacki-Shampine tableau
_C = (0.0, 0.5, 0.75, 1.0)
_A = (
    (),
    (0.5,),
    (0.0, 0.75),
    (2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0),
)
_B3 = (2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0, 0.0)
_B2 = (7.0 / 24.0, 0.25, 1.0 / 3.0, 0.125)

# step-size controller: safety factor, error exponent 1/(order of the lower
# embedded solution + 1), and rejected attempts allowed per accepted step
SAFETY = 0.9
ORDER_EXPONENT = 1.0 / 3.0
MAX_REJECTS = 30


class StepSizeUnderflow(RuntimeError):
    pass


@dataclass
class StepController:
    atol: float = 1e-3
    rtol: float = 1e-3
    dt_min: float = 1e-5
    dt_max: float = 0.1

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.dt_min <= self.dt_max:
            raise ValueError("require 0 < dt_min <= dt_max")

    def next_dt(self, dt: float, err_norm: float) -> float:
        """Controller formula before the [dt_min, dt_max] bounds are applied."""
        if err_norm > 0:
            factor = SAFETY * err_norm ** (-ORDER_EXPONENT)
        else:
            factor = 4.0
        factor = min(4.0, max(0.25, factor))
        return dt * factor


def _components(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if np.iscomplexobj(y):
        return y.view(np.float64)
    return y.astype(np.float64, copy=False)


def error_norm(y3: np.ndarray, y2: np.ndarray, atol: float, rtol: float) -> float:
    a, b = _components(y3), _components(y2)
    return float(np.max(np.abs(a - b) / (atol + rtol * np.abs(a))))


def rk32_step(rhs_fn, alpha: np.ndarray, t: float, dt: float,
              atol: float = 1e-3, rtol: float = 1e-3, k1=None, stage_fn=None):
    """One embedded step; returns (alpha3, alpha2, err_norm, k_last).

    ``k1`` may pass in a previously computed first stage (FSAL); ``k_last`` is
    the stage at (t + dt, alpha3) reusable as the next k1.  ``stage_fn``
    (default ``rhs_fn``) evaluates k2 and k3; k1, when not passed in, and the
    last stage call ``rhs_fn``.
    """
    alpha = np.asarray(alpha, dtype=np.complex128)
    if stage_fn is None:
        stage_fn = rhs_fn
    ks = []
    for stage in range(3):
        if stage == 0 and k1 is not None:
            ks.append(np.asarray(k1, dtype=np.complex128))
            continue
        y = alpha
        for coef, k in zip(_A[stage], ks):
            y = y + dt * coef * k
        fn = rhs_fn if stage == 0 else stage_fn
        ks.append(np.asarray(fn(t + _C[stage] * dt, y), dtype=np.complex128))
    alpha3 = alpha + dt * sum(c * k for c, k in zip(_B3[:3], ks))
    k4 = np.asarray(rhs_fn(t + dt, alpha3), dtype=np.complex128)
    ks.append(k4)
    alpha2 = alpha + dt * sum(c * k for c, k in zip(_B2, ks))
    if not (np.all(np.isfinite(alpha3.view(np.float64)))
            and np.all(np.isfinite(alpha2.view(np.float64)))):
        return alpha3, alpha2, np.inf, None
    return alpha3, alpha2, error_norm(alpha3, alpha2, atol, rtol), k4


@dataclass
class StepAttempt:
    t: float
    dt: float
    accepted: bool
    err_norm: float


@dataclass
class AdaptiveStepper:
    """Drives rk32_step with accept/reject control and telemetry."""

    controller: StepController
    attempts: list[StepAttempt] = field(default_factory=list)
    # rhs at the point the last advance returned (evaluated there when None)
    k1: np.ndarray | None = None

    def advance(self, rhs_fn, alpha: np.ndarray, t: float, dt: float, stage_fn=None):
        """Advance one accepted step from the (alpha, t) the last call returned;
        returns (alpha_next, t_next, dt_next).  ``stage_fn``: see ``rk32_step``."""
        ctrl = self.controller
        if self.k1 is None:
            self.k1 = rhs_fn(t, alpha)
        for _ in range(MAX_REJECTS):
            alpha3, _, err, k_last = rk32_step(
                rhs_fn, alpha, t, dt, ctrl.atol, ctrl.rtol, k1=self.k1, stage_fn=stage_fn
            )
            accepted = np.isfinite(err) and err <= 1.0
            self.attempts.append(StepAttempt(t=t, dt=dt, accepted=accepted, err_norm=err))
            if accepted:
                self.k1 = k_last
                dt_next = min(max(ctrl.next_dt(dt, err), ctrl.dt_min), ctrl.dt_max)
                return alpha3, t + dt, dt_next
            dt = 0.5 * dt if not np.isfinite(err) else ctrl.next_dt(dt, err)
            if dt < ctrl.dt_min:
                raise StepSizeUnderflow(
                    f"step size {dt:.3e} fell below dt_min={ctrl.dt_min:.3e} at t={t:.4f}"
                )
            dt = min(dt, ctrl.dt_max)
        raise StepSizeUnderflow(f"exceeded {MAX_REJECTS} rejected steps at t={t:.4f}")
