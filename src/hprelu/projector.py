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

import numpy as np

from .basis import build_basis
from .legendre import gauss_rule, legendre_table
from .mesh import Axis1D, multipatch_axis

__all__ = ["hp_interpolate", "multipatch_interpolate", "HpInterpolant"]

_REL_TOL = 1e-12
_MAX_DOUBLINGS = 4
_CHUNK_ENTRIES = 40_000_000


class _AxisQuad:
    """Gauss stations and moment weights over the non-singular intervals."""

    def __init__(self, axis, p, g):
        t, w = gauss_rule(g)
        pieces = [k for k in range(axis.n_intervals) if not axis.singular[k]]
        pts = []
        for k in pieces:
            a, b = axis.nodes[k], axis.nodes[k + 1]
            pts.append(0.5 * ((b - a) * t + (a + b)))
        self.stations = np.concatenate(pts) if pts else np.zeros(0)
        # weight matrix: rows ordered (piece, mode n=1..p-1), cols = stations;
        # row (k,n) applied to physical du/dx values gives (2n+1)(v_hat', L_n)
        lt = legendre_table(max(p - 1, 0), t)
        nb = len(pieces) * (p - 1)
        self.weights = np.zeros((nb, len(self.stations)))
        self.rows = []  # (interval k, legendre index n)
        r = 0
        for j, k in enumerate(pieces):
            h = axis.nodes[k + 1] - axis.nodes[k]
            for n in range(1, p):
                self.weights[r, j * g:(j + 1) * g] = (2 * n + 1) * 0.5 * h * w * lt[n]
                self.rows.append((k, n))
                r += 1


def _assemble(u, axis, p, g):
    n_nodes = len(axis.nodes)
    coeffs = np.zeros((n_nodes + axis.n_intervals * (p - 1),) * u.dim)
    # per kind of axis functional: its stations and its coefficient slots
    kinds = {"node": (axis.nodes, np.arange(n_nodes))}
    quad = _AxisQuad(axis, p, g) if p > 1 else None
    if quad is not None and quad.weights.shape[0]:
        kinds["bubble"] = (quad.stations, np.array(
            [n_nodes + k * (p - 1) + (n - 1) for k, n in quad.rows]))
    for pattern in itertools.product(kinds, repeat=u.dim):
        stations = [kinds[k][0] for k in pattern]
        alpha = tuple(int(k == "bubble") for k in pattern)
        block = _eval_chunked(u, stations, alpha)
        # contract bubble axes with the moment weights
        for j, kind in enumerate(pattern):
            if kind == "bubble":
                block = np.moveaxis(np.tensordot(quad.weights, block, axes=([1], [j])), 0, j)
        coeffs[np.ix_(*[kinds[k][1] for k in pattern])] = block
    return coeffs


def _eval_chunked(u, stations, alpha):
    shape = tuple(len(s) for s in stations)
    total = int(np.prod(shape))
    grids = np.ix_(*stations)
    if total <= _CHUNK_ENTRIES or shape[0] <= 1:
        return np.broadcast_to(u.deriv(alpha, *grids), shape).copy()
    step = max(1, _CHUNK_ENTRIES // max(total // shape[0], 1))
    out = np.empty(shape)
    for lo in range(0, shape[0], step):
        out[lo:lo + step] = np.broadcast_to(
            u.deriv(alpha, grids[0][lo:lo + step], *grids[1:]),
            (min(step, shape[0] - lo),) + shape[1:])
    return out


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


def multipatch_interpolate(u, ell, p, sigma=0.5, halfwidth=1.0):
    """Interpolate on the symmetric four-patch-per-axis cube (-a, a)^d."""
    return hp_interpolate(u, multipatch_axis(sigma, ell, halfwidth), p)


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
        axis = self.axis
        x = np.asarray(x, dtype=np.float64)
        n_nodes = len(axis.nodes)
        p = self.p
        B = np.zeros((len(x), self.N1d))
        D = np.zeros((len(x), self.N1d)) if want_deriv else None
        k = axis.find(x)
        for piece in range(axis.n_intervals):
            m = k == piece
            if not np.any(m):
                continue
            a, b = axis.nodes[piece], axis.nodes[piece + 1]
            h = b - a
            t = (2.0 * x[m] - (a + b)) / h
            B[m, piece] = 0.5 * (1.0 - t)
            B[m, piece + 1] = 0.5 * (1.0 + t)
            if want_deriv:
                D[m, piece] = -1.0 / h
                D[m, piece + 1] = 1.0 / h
            if p > 1:
                lt = legendre_table(p, t)
                for n in range(1, p):
                    col = n_nodes + piece * (p - 1) + (n - 1)
                    B[m, col] = 0.5 * (lt[n + 1] - lt[n - 1]) / (2 * n + 1)
                    if want_deriv:
                        D[m, col] = lt[n] / h
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

    def gradient_axes(self, axes_pts):
        pairs = [self._axis_matrices(np.asarray(x), want_deriv=True) for x in axes_pts]
        comps = []
        for j in range(self.dim):
            mats = [pairs[i][1] if i == j else pairs[i][0] for i in range(self.dim)]
            comps.append(self._tensor_contract(mats))
        return np.stack(comps, axis=-1)

    def _tensor_contract(self, mats):
        t = self.coeffs
        for j in range(self.dim):
            t = np.moveaxis(np.tensordot(mats[j], t, axes=([1], [j])), 0, j)
        return t
