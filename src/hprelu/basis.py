"""Piecewise polynomials in reference-frame monomial form, and the global
1d basis of hats plus integrated-Legendre bubbles on a graded axis.

Basis ordering is fixed once and shared by coefficient assembly, network
compilation, and serialization: hats by node (left to right), then bubbles
grouped by interval with rising mode index.
"""

import numpy as np

from .legendre import gauss_rule, polyder, polyval, zeta_coeffs
from .mesh import _checked_nodes, _level

__all__ = ["PiecewisePolynomial", "BasisFunction", "build_basis", "basis_count"]


class PiecewisePolynomial:
    """Polynomial pieces over a sorted node array.

    ``ref_coeffs[k]`` holds ascending monomial coefficients in the local
    variable t in [-1,1] of piece k.  Outside the node range the function
    is 0.
    """

    def __init__(self, nodes, ref_coeffs):
        self.nodes = _checked_nodes(nodes)
        if len(ref_coeffs) != len(self.nodes) - 1:
            raise ValueError("one coefficient array per piece")
        self.ref_coeffs = [np.atleast_1d(np.asarray(c, dtype=np.float64)) for c in ref_coeffs]

    @property
    def n_pieces(self):
        return len(self.ref_coeffs)

    @property
    def degree(self):
        return max(len(c) - 1 for c in self.ref_coeffs)

    def _piece_of(self, x):
        k = np.searchsorted(self.nodes, x, side="right") - 1
        return np.clip(k, 0, self.n_pieces - 1)

    def _eval(self, x, deriv):
        x = np.asarray(x, dtype=np.float64)
        k = self._piece_of(x)
        out = np.zeros_like(x, dtype=np.float64)
        inside = (x >= self.nodes[0]) & (x <= self.nodes[-1])
        for p in range(self.n_pieces):
            m = inside & (k == p)
            if not np.any(m):
                continue
            a, b = self.nodes[p], self.nodes[p + 1]
            t = (2.0 * x[m] - (a + b)) / (b - a)
            c = self.ref_coeffs[p]
            out[m] = (polyval(polyder(c), t) * (2.0 / (b - a)) if deriv
                      else polyval(c, t))
        return out

    def __call__(self, x):
        return self._eval(x, False)

    def deriv(self, x):
        """Physical derivative dv/dx (one-sided at nodes)."""
        return self._eval(x, True)

    def node_values(self):
        """Float values at the nodes, evaluated from the owning piece
        (left limit at interior nodes, piece 0 at the first node)."""
        vals = np.empty(len(self.nodes))
        vals[0] = polyval(self.ref_coeffs[0], -1.0)
        for p in range(self.n_pieces):
            vals[p + 1] = polyval(self.ref_coeffs[p], 1.0)
        return vals

    def continuity_gap(self):
        """Max jump across interior nodes."""
        gap = 0.0
        for p in range(self.n_pieces - 1):
            left = polyval(self.ref_coeffs[p], 1.0)
            right = polyval(self.ref_coeffs[p + 1], -1.0)
            gap = max(gap, abs(left - right))
        return gap

    def sup_bounds(self):
        """(sup |v|, sup |v'|) estimated per piece on a 64-point
        Chebyshev-like grid."""
        t = np.cos(np.linspace(0.0, np.pi, 64))
        vmax = dmax = 0.0
        for p in range(self.n_pieces):
            h = self.nodes[p + 1] - self.nodes[p]
            vmax = max(vmax, np.max(np.abs(polyval(self.ref_coeffs[p], t))))
            dmax = max(dmax, np.max(np.abs(polyval(polyder(self.ref_coeffs[p]), t))) * 2.0 / h)
        return vmax, dmax

    def norms(self):
        """(L2 norm, H1 seminorm) by exact Gauss quadrature per piece."""
        q = self.degree + 1
        t, w = gauss_rule(max(q, 2))
        l2 = semi = 0.0
        for p in range(self.n_pieces):
            h = self.nodes[p + 1] - self.nodes[p]
            v = polyval(self.ref_coeffs[p], t)
            dv = polyval(polyder(self.ref_coeffs[p]), t) * (2.0 / h)
            l2 += 0.5 * h * np.dot(w, v * v)
            semi += 0.5 * h * np.dot(w, dv * dv)
        return float(np.sqrt(l2)), float(np.sqrt(semi))


class BasisFunction(PiecewisePolynomial):
    """Global basis member restricted to its support pieces.

    ``support`` lists the interval indices of the parent axis the pieces
    live on.
    """

    def __init__(self, nodes, ref_coeffs, support):
        super().__init__(nodes, ref_coeffs)
        self.support = tuple(support)
        l2, semi = self.norms()
        self.h1_seminorm = semi
        self.h1_norm = float(np.sqrt(l2 * l2 + semi * semi))


def basis_count(axis, p):
    return axis.n_intervals * p + 1


def build_basis(axis, p):
    """All basis functions on an axis for uniform degree p >= 1.

    Hats come first (one per node), then per interval the bubble modes
    zeta_3 .. zeta_{p+1}.  Bubbles are kept on singular intervals too; the
    projector assigns them zero coefficients there, so the index layout is
    independent of the singularity pattern.
    """
    p = _level(p, 1, "degree")
    nodes = axis.nodes
    n = axis.n_intervals
    out = []
    for j in range(len(nodes)):
        pieces = []
        coeffs = []
        support = []
        if j > 0:
            pieces.append(nodes[j - 1])
            coeffs.append(np.array(zeta_coeffs(1)))
            support.append(j - 1)
        pieces.append(nodes[j])
        if j < n:
            pieces.append(nodes[j + 1])
            coeffs.append(np.array(zeta_coeffs(2)))
            support.append(j)
        out.append(BasisFunction(pieces, coeffs, support))
    for k in range(n):
        for m in range(3, p + 2):
            out.append(BasisFunction(nodes[k:k + 2], [np.array(zeta_coeffs(m))], (k,)))
    if len(out) != basis_count(axis, p):
        raise AssertionError("basis count mismatch")
    return out
