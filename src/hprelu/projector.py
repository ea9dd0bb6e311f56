"""Graded tensor-product hp interpolation.

The element operator matches traces at both endpoints and the first p-1
weighted Legendre moments of the derivative: a hat's coefficient is a
nodal value, a bubble's the moment (2n+1)(v', L_n) on the reference
interval.  ``hp_interpolate`` is its one implementation, a single element
being the one-interval, non-singular axis.  The tensorization over d
copies of one graded axis, d the function's dimension, is assembled
pattern-by-pattern (trace vs moment per axis) on shared Gauss grids, with
the quadrature order doubled until the coefficient array settles to 1e-12.
"""

import itertools
import math

import numpy as np

from .basis import build_basis
from .legendre import gauss_rule, legendre_table
from .mesh import Axis1D, graded_axis

__all__ = ["hp_interpolate", "multipatch_interpolate", "HpInterpolant"]

_REL_TOL = 1e-12
_MAX_DOUBLINGS = 4
# entries of u evaluated at once: u's own temporaries scale with the block
# (``fichera_extend`` holds about four), so this bounds the peak memory
_CHUNK_ENTRIES = 2_000_000


def _bubble_slots(axis, p, k):
    """The basis layout, hats by node then bubbles by interval and mode:
    the slots of modes 1..p-1 on intervals k, shape k.shape + (p-1,)."""
    return len(axis.nodes) + k[..., None] * (p - 1) + np.arange(p - 1)


def _axis_quad(axis, p, g):
    """Gauss stations over the non-singular intervals, the moment weights
    (row (k, n), n = 1..p-1, applied to du/dx at the stations gives
    (2n+1)(v_hat', L_n)) and the coefficient slot of each row."""
    t, w = gauss_rule(g)
    pieces = np.flatnonzero(~axis.singular)
    a, b = axis.nodes[pieces], axis.nodes[pieces + 1]
    stations = (0.5 * ((b - a)[:, None] * t + (a + b)[:, None])).ravel()
    n = np.arange(1, p)[:, None]
    rows = (2 * n + 1) * 0.5 * (b - a)[:, None, None] * w * legendre_table(p - 1, t)[1:]
    J = len(pieces)
    weights = np.zeros((J, p - 1, J, g))
    weights[np.arange(J), :, np.arange(J)] = rows
    return (stations, weights.reshape(J * (p - 1), J * g),
            _bubble_slots(axis, p, pieces).ravel())


def _assemble(u, axis, p, g):
    n_nodes = len(axis.nodes)
    coeffs = np.zeros((n_nodes + axis.n_intervals * (p - 1),) * u.dim)
    # per kind of axis functional: its stations and its coefficient slots
    kinds = {"node": (axis.nodes, np.arange(n_nodes))}
    stations, weights, slots = _axis_quad(axis, p, g)
    if len(slots):
        kinds["bubble"] = (stations, slots)
    for pattern in itertools.product(kinds, repeat=u.dim):
        grids = np.ix_(*[kinds[k][0] for k in pattern])
        alpha = tuple(int(k == "bubble") for k in pattern)
        shape = tuple(x.size for x in grids)
        # u in blocks of first-axis stations, each of about _CHUNK_ENTRIES
        # entries; one block when the pattern fits
        step = max(1, _CHUNK_ENTRIES // math.prod(shape[1:]))
        block = np.empty(shape)
        for lo in range(0, shape[0], step):
            block[lo:lo + step] = u.deriv(alpha, grids[0][lo:lo + step], *grids[1:])
        # contract bubble axes with the moment weights
        for j, kind in enumerate(pattern):
            if kind == "bubble":
                block = np.moveaxis(np.tensordot(weights, block, axes=([1], [j])), 0, j)
        coeffs[np.ix_(*[kinds[k][1] for k in pattern])] = block
    return coeffs


def hp_interpolate(u, axis, p):
    """Tensor-product graded interpolant of u on u.dim copies of ``axis``,
    degree p per axis."""
    if not isinstance(axis, Axis1D):
        raise TypeError(f"axis must be an Axis1D, got {type(axis).__name__}")
    if not 1 <= u.dim <= 3:
        raise ValueError(f"supported dimensions: 1, 2, 3; got {u.dim}")
    if p < 1:
        raise ValueError("degree must be >= 1")
    g = max(p + 4, 20)
    prev = _assemble(u, axis, p, g)
    if p == 1:
        return HpInterpolant(axis, p, prev)
    for _ in range(_MAX_DOUBLINGS):
        g *= 2
        cur = _assemble(u, axis, p, g)
        rel = np.max(np.abs(cur - prev)) / (1.0 + np.max(np.abs(cur)))
        if rel < _REL_TOL:
            return HpInterpolant(axis, p, cur)
        prev = cur
    raise RuntimeError(
        f"coefficient assembly did not settle below {_REL_TOL:g} "
        f"(last change {rel:.3e} at Gauss order {g})")


def multipatch_interpolate(u, ell, p, sigma=0.5):
    """Interpolate on (-1, 1)^d, graded toward -1, 0 and 1."""
    return hp_interpolate(u, graded_axis(-1.0, 1.0, (-1.0, 0.0, 1.0), sigma, ell), p)


class HpInterpolant:
    """Continuous piecewise polynomial sum(c[i1..id] prod_j v_{i_j}(x_j)),
    each v a basis function on the one ``axis``; d is ``coeffs.ndim``."""

    def __init__(self, axis, p, coeffs):
        self.axis = axis
        self.p = int(p)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.basis = build_basis(axis, self.p)
        self.N1d = len(self.basis)
        shape = self.coeffs.shape
        if not 1 <= len(shape) <= 3 or shape != (self.N1d,) * len(shape):
            raise ValueError(f"coefficients must have shape (N1d,) * d with "
                             f"N1d = {self.N1d} and d in 1..3, got {shape}")

    @property
    def dim(self):
        return self.coeffs.ndim

    @property
    def ell(self):
        return self.axis.ell

    def vvec(self):
        """Coefficients flattened with the first axis index fastest."""
        return self.coeffs.ravel(order="F")

    def coeff_l1(self):
        return float(np.sum(np.abs(self.coeffs)))

    def _axis_matrices(self, x, want_deriv=False):
        """Basis value (and derivative) matrices at 1d points x."""
        axis, p = self.axis, self.p
        x = np.asarray(x, dtype=np.float64)
        B = np.zeros((len(x), self.N1d))
        D = np.zeros((len(x), self.N1d)) if want_deriv else None
        k = axis.find(x)
        a, b = axis.nodes[k], axis.nodes[k + 1]
        h = b - a
        t = (2.0 * x - (a + b)) / h
        rows = np.arange(len(x))
        B[rows, k] = 0.5 * (1.0 - t)
        B[rows, k + 1] = 0.5 * (1.0 + t)
        if want_deriv:
            D[rows, k] = -1.0 / h
            D[rows, k + 1] = 1.0 / h
        lt = legendre_table(p, t)
        n = np.arange(1, p)[:, None]
        cols = rows[:, None], _bubble_slots(axis, p, k)
        B[cols] = (0.5 * (lt[2:] - lt[:-2]) / (2 * n + 1)).T
        if want_deriv:
            D[cols] = (lt[1:-1] / h).T
        return B, D

    def value(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        mats = [self._axis_matrices(pts[:, j])[0] for j in range(self.dim)]
        return self._contract(mats)

    def _contract(self, mats):
        t = np.tensordot(mats[0], self.coeffs, axes=([1], [0]))
        for m in mats[1:]:
            t = np.einsum("si,si...->s...", m, t)
        return t

    def value_axes(self, axes_pts):
        """Values on the tensor grid of per-axis point lists."""
        mats = [self._axis_matrices(np.asarray(x))[0] for x in axes_pts]
        return self._tensor_contract(mats)

    def partial_axes(self, axes_pts, j):
        """The partial derivative along axis j on the tensor grid."""
        mats = [self._axis_matrices(np.asarray(x), want_deriv=i == j)[int(i == j)]
                for i, x in enumerate(axes_pts)]
        return self._tensor_contract(mats)

    def _tensor_contract(self, mats):
        t = self.coeffs
        for j in range(self.dim):
            t = np.moveaxis(np.tensordot(mats[j], t, axes=([1], [j])), 0, j)
        return t
