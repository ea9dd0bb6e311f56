"""Certified H1/L-infinity error measurement and rate fitting.

Quadrature is composite Gauss on the tensor product of per-axis cell
partitions, each cell split into equal subcells whose point groups get a
tiny seeded jitter so breakpoints of piecewise linear networks never
coincide with sample points.  The subcell count starts at one per cell and
is doubled until the H1 number settles; the relative gap between the last
two levels is reported and gates the ``certified`` flag.

A field is anything with ``value_axes(axes)`` and ``partial_axes(axes, j)``
evaluating on the tensor grid of per-axis point arrays, the values and the
partial derivative along axis j: catalog functions, ``HpInterpolant`` and
``compiled_field`` views.  The measurement asks for the values first, then
each partial; a field may compute everything on the values call and serve
the partials from it, as a compiled field does.
"""

from dataclasses import dataclass

import numpy as np

from .legendre import gauss_rule
# not called here; perfbench/spans.py wraps these names in every module
# that evaluates networks
from .network import grad_realize_batch, realize_batch  # noqa: F401

__all__ = ["ErrorReport", "FitResult", "h1_error", "fit_rate"]

_SEED = 0x5EED
# subcell jitter as a fraction of the subcell width
_JITTER = 1e-7
# Richardson stop: relative gap, plus an absolute floor for distances at
# rounding-noise scale, where the relative gap never settles
_RTOL = 1e-3
_ATOL = 1e-14
# points of one slab: the grid is cut along its first axis into slabs of at
# most this many points (at least one plane), so the error arrays stay
# bounded
_SLAB_POINTS = 4_000_000


@dataclass
class ErrorReport:
    l2_error: float
    h1_seminorm_error: float
    h1_error: float
    linf_error: float
    richardson_gap: float
    certified: bool

    def __post_init__(self):
        lhs = self.h1_error ** 2
        rhs = self.l2_error ** 2 + self.h1_seminorm_error ** 2
        if abs(lhs - rhs) > 1e-12 * max(lhs, rhs, 1e-300):
            raise AssertionError("h1^2 != l2^2 + seminorm^2")


def _axis_quad(cells, n_q, q, rng):
    """Points and weights of the q-point Gauss rule on each of the n_q
    equal subcells of every cell, each subcell's points shifted by one
    jitter draw (drawn subcell by subcell, left to right) and clipped
    inside it."""
    t, w = gauss_rule(q)
    sub = np.linspace(cells[:-1], cells[1:], n_q + 1, axis=1)
    a, b = sub[:, :-1].reshape(-1, 1), sub[:, 1:].reshape(-1, 1)
    h = b - a
    off = _JITTER * h * (2.0 * rng.random((len(h), 1)) - 1.0)
    x = 0.5 * (h * t + (a + b)) + off
    return (np.clip(x, a + 1e-14 * h, b - 1e-14 * h).ravel(),
            (0.5 * h * w).ravel())


def _sq_errors(f, g, axes_pts, axes_wts):
    """(l2^2, semi^2, linf) over the tensor grid of axes_pts.

    Per slab the gradient gap is one (slab..., d) array, filled one
    component at a time, f's partial less g's, then squared in place: no
    field's whole gradient is held beside it.  Each number is the same
    operation on the same operands in the same layout as the difference of
    the stacked gradients, so the sums come out bit for bit the same."""
    d = len(axes_pts)
    shape = tuple(len(a) for a in axes_pts)
    n0 = shape[0]
    rest = int(np.prod(shape[1:], dtype=np.int64)) if d > 1 else 1
    slab = max(1, min(n0, _SLAB_POINTS // max(1, rest)))
    wt_rest = np.ones(shape[1:])
    for j, w in enumerate(axes_wts[1:]):
        wt_rest = wt_rest * w.reshape([-1 if i == j else 1 for i in range(d - 1)])
    l2 = semi = linf = 0.0
    for lo in range(0, n0, slab):
        sl = slice(lo, min(n0, lo + slab))
        axes_sl = [axes_pts[0][sl]] + list(axes_pts[1:])
        dv = np.subtract(f.value_axes(axes_sl), g.value_axes(axes_sl))
        gap = np.empty(dv.shape + (d,))
        for j in range(d):
            gap[..., j] = f.partial_axes(axes_sl, j)
            gap[..., j] -= g.partial_axes(axes_sl, j)
        sq = np.sum(np.multiply(gap, gap, out=gap), axis=-1)
        del gap
        wt = axes_wts[0][sl].reshape((-1,) + (1,) * (d - 1)) * wt_rest
        semi += float(np.sum(np.multiply(wt, sq, out=sq)))
        l2 += float(np.sum(np.multiply(np.multiply(wt, dv, out=wt), dv, out=wt)))
        linf = max(linf, float(np.max(np.abs(dv, out=dv))))
    return l2, semi, linf


def h1_error(f, g, cells, q=10, max_doublings=3):
    """Certified H1 (and L-infinity) distance between two fields.

    ``cells`` is a list of per-axis cell boundary arrays (typically the
    graded mesh nodes), so the subdivision is anisotropic in exactly the
    way the integrand demands.
    """
    for field in (f, g):
        if not (hasattr(field, "value_axes") and hasattr(field, "partial_axes")):
            raise TypeError(f"{type(field).__name__} is not a tensor field: "
                            "it needs value_axes and partial_axes")
    cells = [np.asarray(c, dtype=np.float64) for c in cells]

    def level(nq):
        rng = np.random.default_rng(_SEED)
        axes = [_axis_quad(c, nq, q, rng) for c in cells]
        pts = [a[0] for a in axes]
        wts = [a[1] for a in axes]
        return _sq_errors(f, g, pts, wts)

    nq = 1
    l2s, semis, linf = level(nq)
    h1 = float(np.sqrt(l2s + semis))
    gap = np.inf
    certified = False
    for _ in range(max_doublings):
        nq *= 2
        l2s2, semis2, linf2 = level(nq)
        h1_new = float(np.sqrt(l2s2 + semis2))
        diff = abs(h1_new - h1)
        gap = diff / max(h1_new, 1e-300)
        l2s, semis, linf = l2s2, semis2, max(linf, linf2)
        h1 = h1_new
        if diff <= _RTOL * h1_new + _ATOL:
            certified = True
            break
    if max_doublings == 0:
        gap = np.nan
    return ErrorReport(
        l2_error=float(np.sqrt(l2s)),
        h1_seminorm_error=float(np.sqrt(semis)),
        h1_error=h1,
        linf_error=float(linf),
        richardson_gap=float(gap),
        certified=certified,
    )


@dataclass
class FitResult:
    C: float
    rate: float
    r2: float
    model: str


def fit_rate(pairs, model, k=None):
    """Least-squares fit of a decay/growth law on log scale.

    exp_in_n:      y = C exp(-rate n)
    exp_in_root:   y = C exp(-rate n^(1/k)), k required
    poly_in_logeps: y = C x^rate  (callers pass x = 1 + log(1/eps))
    """
    pairs = [(float(x), float(y)) for x, y in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least 3 points to fit")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    if np.any(ys <= 0) or not np.all(np.isfinite(ys)):
        raise ValueError("fit requires positive finite values")
    if model == "exp_in_n":
        t = xs
        sign = -1.0
    elif model == "exp_in_root":
        if k is None:
            raise ValueError("exp_in_root needs the root order k")
        t = xs ** (1.0 / k)
        sign = -1.0
    elif model == "poly_in_logeps":
        if np.any(xs <= 0):
            raise ValueError("poly fit requires positive abscissae")
        t = np.log(xs)
        sign = 1.0
    else:
        raise ValueError(f"unknown fit model {model!r}")
    ly = np.log(ys)
    slope, intercept = np.polyfit(t, ly, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(C=float(np.exp(intercept)), rate=float(sign * slope),
                     r2=float(r2), model=model)
