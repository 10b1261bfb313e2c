"""Test-session setup.

The BLAS thread count is pinned to 1 before NumPy is imported, as
``perfbench/run.py`` does: HMC chains depend on the reduction order of the
BLAS calls in their gradients, so the seeded sampler checks (c6-c8) see one
order on every machine.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
