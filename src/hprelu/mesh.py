"""Graded 1d meshes.

An axis mesh is a sorted node array plus a per-interval flag marking the
intervals that touch a grading center (where polynomial degree is forced
down to 1).  Two constructors: a single geometric grading toward the left
endpoint of (0,1), and a four-patch symmetric grading on (-a,a) toward
{-a, 0, a}.  A d-dimensional mesh is d copies of one axis; the
interpolant takes d from its function.
"""

import numpy as np

__all__ = [
    "Axis1D",
    "geometric_mesh",
    "multipatch_axis",
]


class Axis1D:
    """One mesh axis: nodes, singular-interval flags, level."""

    def __init__(self, nodes, singular, ell):
        self.nodes = np.asarray(nodes, dtype=np.float64)
        self.singular = np.asarray(singular, dtype=bool)
        if self.nodes.ndim != 1 or len(self.nodes) < 2:
            raise ValueError("need at least two nodes")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if len(self.singular) != len(self.nodes) - 1:
            raise ValueError("one singular flag per interval")
        self.ell = int(ell)

    @property
    def n_intervals(self):
        return len(self.nodes) - 1

    def find(self, x):
        """Interval index per point; interior nodes go to the right piece,
        the last node to the last piece."""
        k = np.searchsorted(self.nodes, np.asarray(x, dtype=np.float64), side="right") - 1
        return np.clip(k, 0, self.n_intervals - 1)


def geometric_mesh(sigma, ell):
    """Geometric grading of (0,1) toward 0: nodes 0, sigma^ell, ..., sigma, 1."""
    if not 0.0 < sigma <= 0.5:
        raise ValueError(f"grading ratio must lie in (0, 1/2], got {sigma}")
    if ell < 0:
        raise ValueError("refinement level must be >= 0")
    nodes = np.concatenate(([0.0], sigma ** np.arange(ell, -1, -1, dtype=np.float64)))
    singular = np.zeros(ell + 1, dtype=bool)
    singular[0] = True
    return Axis1D(nodes, singular, ell)


def multipatch_axis(sigma, ell, halfwidth=1.0):
    """Symmetric axis on (-a,a): four geometric patches graded toward -a, 0, a.

    Patch images are (-a,-a/2), (-a/2,0), (0,a/2), (a/2,a); each contributes
    ell+1 intervals with the one touching a grading center flagged singular.
    """
    a = float(halfwidth)
    if not 0.0 < a < np.inf:
        raise ValueError(f"halfwidth must be a finite number > 0, got {a!r}")
    base = geometric_mesh(sigma, ell).nodes  # 0, sigma^ell, ..., 1
    h = 0.5 * a
    neg_outer = -a + h * base          # graded toward -a
    neg_inner = np.sort(-h * base)     # graded toward 0 from the left
    pos_inner = h * base               # graded toward 0 from the right
    pos_outer = np.sort(a - h * base)  # graded toward a
    nodes = np.concatenate((neg_outer, neg_inner[1:], pos_inner[1:], pos_outer[1:]))
    n = ell + 1
    singular = np.zeros(4 * n, dtype=bool)
    singular[[0, 2 * n - 1, 2 * n, 4 * n - 1]] = True
    return Axis1D(nodes, singular, ell)

