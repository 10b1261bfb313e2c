"""Ansatz kernel table: per-call milliseconds of the three hot ansatz methods.

Each {jastrow, rbm, cnn} x {4x4, 8x8} periodic state gets seeded random
parameters and seeded random angles.  ``grad_log_prob`` is timed on a batch of
6 configurations (one per chain of the quench workload); ``local_energy`` and
``log_derivatives`` on a fixed batch of ``BATCH`` configurations, small
enough that the 8x8 CNN stays within a few seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KINDS = ("jastrow", "rbm", "cnn")
SIZES = (4, 8)
HMC_BATCH = 6
BATCH = 16
MIN_CALLS = 3
MIN_SECONDS = 0.05


def per_call_ms(fn, *args) -> float:
    """Median milliseconds over at least MIN_CALLS calls and MIN_SECONDS."""
    fn(*args)  # first call pays lazy set-up
    times = []
    begin = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - begin < MIN_SECONDS:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def kernel_table(seed: int) -> dict[str, float]:
    from rotor_tvmc.ansatz import make_ansatz, random_alpha
    from rotor_tvmc.lattice import build_lattice

    table = {}
    for kind in KINDS:
        for size in SIZES:
            rng = np.random.default_rng([seed, KINDS.index(kind), size])
            state = make_ansatz(kind, build_lattice((size, size), (True, True)))
            state = state.with_alpha(random_alpha(state, rng))
            theta = rng.uniform(-np.pi, np.pi, size=(BATCH, state.n_sites))
            key = f"kernel.{kind}.{size}x{size}"
            table[f"{key}.grad_log_prob.ms"] = per_call_ms(
                state.grad_log_prob, theta[:HMC_BATCH])
            table[f"{key}.local_energy.ms"] = per_call_ms(
                state.local_energy, theta, 3.0, 1.0)
            table[f"{key}.log_derivatives.ms"] = per_call_ms(
                state.log_derivatives, theta)
    return table
