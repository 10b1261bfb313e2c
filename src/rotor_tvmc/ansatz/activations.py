"""Polynomial activation: truncated series of ln I0 and its derivatives.

The degree-6 series is even in z, so it is written once, as a polynomial g in
s = z^2.  It is analytic everywhere (no branch cuts), which keeps the trial
wavefunction holomorphic in its complex parameters.
"""

from __future__ import annotations

import numpy as np


def poly_log_I0_of_square(s):
    """Degree-6 truncation z^2/4 - z^4/64 + z^6/576 of ln I0(z), at z^2 = s.

    Polynomial (holomorphic) in s.  A unit with preactivation z has
    f = g(s), f' = 2 z g'(s) and f'' = 2 g'(s) + 4 s g''(s), with s = z^2.
    """
    return s / 4.0 - np.square(s) / 64.0 + s * np.square(s) / 576.0


def d_poly_log_I0_of_square(s):
    """d/ds of poly_log_I0_of_square: 1/4 - s/32 + s^2/192."""
    return 0.25 - s / 32.0 + np.square(s) / 192.0


def d2_poly_log_I0_of_square(s):
    """d2/ds2 of poly_log_I0_of_square: -1/32 + s/96."""
    return -1.0 / 32.0 + s / 96.0
