"""Legendre polynomials (sup-normalized), shape-function coefficients and
Gauss rules.

Value tables come from the three-term recurrence; monomial coefficient
arrays are kept for the low degrees used by element polynomials, where the
recurrence is exact enough in float64.
"""

from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P


def legendre_table(nmax, t):
    """Stacked values L_0..L_nmax at t, shape (nmax+1, len(t))."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = t
    for k in range(1, nmax):
        out[k + 1] = ((2 * k + 1) * t * out[k] - k * out[k - 1]) / (k + 1)
    return out


@lru_cache(maxsize=None)
def legendre_coeffs(n):
    """Monomial coefficients of L_n, ascending, as a tuple."""
    if n == 0:
        return (1.0,)
    if n == 1:
        return (0.0, 1.0)
    pm = np.array(legendre_coeffs(n - 2))
    pc = np.array(legendre_coeffs(n - 1))
    out = ((2 * n - 1) * np.concatenate(([0.0], pc)) - (n - 1) * np.concatenate((pm, [0.0, 0.0]))) / n
    return tuple(out)


@lru_cache(maxsize=None)
def zeta_coeffs(i):
    """Monomial coefficients (ascending) of the reference shape function i >= 1.

    i = 1 is the rising hat (1+t)/2, i = 2 the falling hat (1-t)/2, and
    i >= 3 the antiderivative modes (1/2) int_{-1}^t L_{i-2}.
    """
    if i < 1:
        raise ValueError("shape index starts at 1")
    if i == 1:
        return (0.5, 0.5)
    if i == 2:
        return (0.5, -0.5)
    c = np.array(legendre_coeffs(i - 2))
    anti = np.concatenate(([0.0], c / (1.0 + np.arange(len(c)))))
    anti[0] = -P.polyval(-1.0, anti)
    return tuple(0.5 * anti)


@lru_cache(maxsize=None)
def gauss_rule(n):
    """Gauss-Legendre nodes/weights on (-1,1)."""
    t, w = np.polynomial.legendre.leggauss(int(n))
    return t, w


def polyval(coeffs, t):
    """Evaluate ascending monomial coefficients at t."""
    return P.polyval(np.asarray(t, dtype=np.float64), np.asarray(coeffs, dtype=np.float64))


def polyder(coeffs):
    c = np.asarray(coeffs, dtype=np.float64)
    if len(c) <= 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, len(c))
