"""Graded 1d meshes.

An axis mesh is a sorted node array plus its grading centers, each a node;
an interval with a center at one end is singular (its polynomial degree is
forced down to 1).  ``graded_axis`` grades (lo, hi) toward any set of
centers.  A d-dimensional mesh is d copies of one axis; the interpolant
takes d from its function.
"""

import numbers

import numpy as np

__all__ = ["Axis1D", "graded_axis"]


def _checked_nodes(nodes):
    """``nodes`` as float64, checked to be one axis."""
    nodes = np.asarray(nodes, dtype=np.float64)
    if not (nodes.ndim == 1 and len(nodes) >= 2 and np.all(np.isfinite(nodes))
            and np.all(np.diff(nodes) > 0)):
        raise ValueError("need two or more nodes, finite and strictly increasing")
    return nodes


def _level(n, lo, name):
    """``n`` as an int, checked to be an integer >= lo: never a bool, a
    float or a string, which would otherwise be truncated or coerced."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n!r}: it must be an integer >= {lo}")
    return int(n)


class Axis1D:
    """One mesh axis: nodes, grading centers, level."""

    def __init__(self, nodes, centers, ell):
        self.nodes = _checked_nodes(nodes)
        self.centers = np.asarray(centers, dtype=np.float64)
        if self.centers.ndim != 1 or not np.all(np.isin(self.centers, self.nodes)):
            raise ValueError(f"every center must be a node, got {centers!r}")
        self.singular = (np.isin(self.nodes[:-1], self.centers)
                         | np.isin(self.nodes[1:], self.centers))
        self.ell = _level(ell, 0, "refinement level")

    @property
    def n_intervals(self):
        return len(self.nodes) - 1

    def find(self, x):
        """Interval index per point; interior nodes go to the right piece,
        the last node to the last piece."""
        k = np.searchsorted(self.nodes, np.asarray(x, dtype=np.float64), side="right") - 1
        return np.clip(k, 0, self.n_intervals - 1)


def graded_axis(lo, hi, centers, sigma, ell):
    """(lo, hi) graded geometrically toward each of ``centers``.

    The centers and the ends cut (lo, hi); each piece is graded toward each
    of its ends that is a center, split at its midpoint if both are.  A part
    (x, y) graded toward x has the nodes x + (y - x) * (0, sigma^ell, ...,
    sigma, 1), ell + 1 intervals; toward y it is the mirror -(-y + (y - x) *
    base), which keeps a center at 0 reached from the left as node -0.0.
    """
    lo, hi, centers = float(lo), float(hi), np.asarray(centers, dtype=np.float64)
    if not 0.0 < sigma <= 0.5:
        raise ValueError(f"grading ratio must lie in (0, 1/2], got {sigma}")
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"ends must be finite with lo < hi, got ({lo}, {hi})")
    if centers.ndim != 1 or not len(centers) or not np.all((lo <= centers) & (centers <= hi)):
        raise ValueError(f"need one or more centers in [{lo}, {hi}], got {centers}")
    base = np.concatenate(([0.0], sigma ** np.arange(
        _level(ell, 0, "refinement level"), -1, -1, dtype=np.float64)))
    nodes = [[lo]]
    cuts = np.unique(np.concatenate(([lo, hi], centers)))
    for x, y in zip(cuts[:-1], cuts[1:]):
        # the part graded toward x ends at m, the one toward y starts there
        m = (x + 0.5 * (y - x) if y in centers else y) if x in centers else x
        if m > x:
            nodes += [(x + (m - x) * base)[1:-1], [m]]
        if y > m:
            nodes.append(-(-y + (y - m) * base)[::-1][1:])
    return Axis1D(np.concatenate(nodes), centers, ell)
