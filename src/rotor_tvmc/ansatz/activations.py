"""Polynomial activation: truncated series of ln I0 and its derivatives.

The degree-6 series is even in z, so it is written once, as a polynomial g in
s = z^2.  It is analytic everywhere (no branch cuts), which keeps the trial
wavefunction holomorphic in its complex parameters.

The coefficients are applied as products with the reciprocals of their
denominators.  For complex s, which every ansatz passes, the values are
those of the division: NumPy divides a complex array by a real scalar with
Smith's algorithm, which multiplies both parts by the rounded reciprocal.
A multiply costs a fraction of that division.  For real s the products can
differ from the quotients in the last bit.
"""

from __future__ import annotations

import numpy as np

_1_4, _1_64, _1_576 = 1.0 / 4.0, 1.0 / 64.0, 1.0 / 576.0
_1_32, _1_192, _1_96 = 1.0 / 32.0, 1.0 / 192.0, 1.0 / 96.0
_1_16 = 1.0 / 16.0


def poly_log_I0_of_square(s):
    """Degree-6 truncation z^2/4 - z^4/64 + z^6/576 of ln I0(z), at z^2 = s.

    Polynomial (holomorphic) in s.  A unit with preactivation z has
    f = g(s), f' = 2 z g'(s) and f'' = 2 g'(s) + 4 s g''(s), with s = z^2.
    """
    sq = np.square(s)  # named, so that NumPy never reuses it in place in s * sq
    return s * _1_4 - sq * _1_64 + s * sq * _1_576


def d_poly_log_I0_of_square(s):
    """d/ds of poly_log_I0_of_square: 1/4 - s/32 + s^2/192."""
    return 0.25 - s * _1_32 + np.square(s) * _1_192


def twice_d_poly_log_I0_of_square(s):
    """2 d/ds of poly_log_I0_of_square: 1/2 - s/16 + s^2/96, bit for bit twice
    ``d_poly_log_I0_of_square``, since every coefficient is doubled exactly."""
    return 0.5 - s * _1_16 + np.square(s) * _1_96


def d2_poly_log_I0_of_square(s):
    """d2/ds2 of poly_log_I0_of_square: -1/32 + s/96."""
    return -_1_32 + s * _1_96
