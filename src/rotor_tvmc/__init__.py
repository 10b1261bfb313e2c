"""Variational Monte Carlo dynamics for lattices of planar quantum rotors.

Trial wavefunctions (pair Jastrow, circular RBM, periodic CNN), Hamiltonian
Monte Carlo sampling, time-dependent variational projection with a smooth
spectral cutoff, adaptive embedded Runge-Kutta integration, physical
observables, and an exact truncated-basis oracle for small systems.
"""

from .ansatz import (
    CircularRBM,
    Jastrow,
    PeriodicCNN,
    VariationalState,
    make_ansatz,
    random_alpha,
    zero_final_kernel,
)
from .hmc import Chains, HmcConfig, WarmupError, sample, warmup
from .integrator import AdaptiveStepper, StepController, StepSizeUnderflow, rk32_step
from .lattice import Lattice, build_lattice, circular_site_stats, wrap_angle
from .tdvp import (
    QgtEstimate,
    RegularizationPolicy,
    estimate_qgt,
    regularized_pseudoinverse,
    residual_r2,
    tdvp_rhs,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveStepper",
    "Chains",
    "CircularRBM",
    "HmcConfig",
    "Jastrow",
    "Lattice",
    "PeriodicCNN",
    "QgtEstimate",
    "RegularizationPolicy",
    "StepController",
    "StepSizeUnderflow",
    "VariationalState",
    "WarmupError",
    "__version__",
    "build_lattice",
    "circular_site_stats",
    "estimate_qgt",
    "make_ansatz",
    "random_alpha",
    "regularized_pseudoinverse",
    "residual_r2",
    "rk32_step",
    "sample",
    "tdvp_rhs",
    "warmup",
    "wrap_angle",
    "zero_final_kernel",
]
