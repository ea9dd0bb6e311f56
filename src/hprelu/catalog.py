"""Model functions with corner/edge singularities, analytic factors, and
Boolean-sum extensions across the symmetry planes of an L-shape / Fichera
domain.

Every function exposes ``value(*coords)`` and ``deriv(alpha, *coords)`` for
mixed first partials (alpha a 0/1 tuple per axis), vectorized over
broadcastable coordinate arrays.  Derivatives at an exact singular point
come back NaN; values there are the correct limits.
"""

import math

import numpy as np

from .legendre import polyder, polyval

__all__ = [
    "WeightedFunction",
    "corner_singular",
    "edge_singular",
    "analytic_fn",
    "fichera_extend",
    "from_spec",
]


class WeightedFunction:
    def __init__(self, dim, value_fn, deriv_fn, name, gamma_c=math.inf,
                 gamma_e=math.inf, corners=(), edges=()):
        self.dim = int(dim)
        self._value = value_fn
        self._deriv = deriv_fn
        self.name = name
        self.gamma_c = gamma_c
        self.gamma_e = gamma_e
        self.corners = tuple(corners)
        self.edges = tuple(edges)

    def _check(self, coords):
        if len(coords) != self.dim:
            raise ValueError(f"{self.name}: expected {self.dim} coordinate arrays")
        return [np.asarray(c, dtype=np.float64) for c in coords]

    def value(self, *coords):
        return self._value(*self._check(coords))

    def deriv(self, alpha, *coords):
        coords = self._check(coords)
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim or any(a not in (0, 1) for a in alpha):
            raise ValueError("alpha must be a 0/1 tuple, one entry per axis")
        if sum(alpha) == 0:
            return self._value(*coords)
        return self._deriv(alpha, *coords)

    def value_axes(self, axes):
        """Values on the tensor grid of per-axis point arrays."""
        d = len(axes)
        grids = [a.reshape([-1 if i == j else 1 for i in range(d)])
                 for j, a in enumerate(axes)]
        shape = tuple(len(a) for a in axes)
        return np.broadcast_to(self.value(*grids), shape)

    def gradient_axes(self, axes):
        """Gradients on the tensor grid, components on the last axis."""
        d = len(axes)
        grids = [a.reshape([-1 if i == j else 1 for i in range(d)])
                 for j, a in enumerate(axes)]
        shape = tuple(len(a) for a in axes)
        comps = []
        for j in range(d):
            alpha = tuple(1 if i == j else 0 for i in range(d))
            comps.append(np.broadcast_to(self.deriv(alpha, *grids), shape))
        return np.stack(comps, axis=-1)

    def __add__(self, other):
        if not isinstance(other, WeightedFunction) or other.dim != self.dim:
            return NotImplemented

        def val(*c):
            return self._value(*c) + other._value(*c)

        def der(alpha, *c):
            return self.deriv(alpha, *c) + other.deriv(alpha, *c)

        return WeightedFunction(
            self.dim, val, der, f"({self.name}+{other.name})",
            gamma_c=min(self.gamma_c, other.gamma_c),
            gamma_e=min(self.gamma_e, other.gamma_e),
            corners=self.corners + other.corners,
            edges=self.edges + other.edges)

    def __mul__(self, s):
        if not isinstance(s, (int, float)):
            return NotImplemented
        s = float(s)

        def val(*c):
            return s * self._value(*c)

        def der(alpha, *c):
            return s * self.deriv(alpha, *c)

        return WeightedFunction(self.dim, val, der, f"{s}*{self.name}",
                                gamma_c=self.gamma_c, gamma_e=self.gamma_e,
                                corners=self.corners, edges=self.edges)

    __rmul__ = __mul__


GAMMA_SHIFT = 1e-6


def corner_singular(dim, lam, corner=None):
    """r^lam about a corner point (default origin)."""
    if dim not in (2, 3):
        raise ValueError("corner singularities supported in dimensions 2 and 3")
    if corner is None:
        corner = (0.0,) * dim
    corner = tuple(float(c) for c in corner)
    if len(corner) != dim:
        raise ValueError("corner length must match dimension")
    if dim == 2 and not lam > GAMMA_SHIFT:
        raise ValueError(
            f"inadmissible corner exponent in 2d: need lam > {GAMMA_SHIFT} "
            f"(so gamma_c = lam+1-{GAMMA_SHIFT} > 1), got lam = {lam}")
    if dim == 3 and not lam > 0.5 + GAMMA_SHIFT:
        raise ValueError(
            f"inadmissible corner exponent in 3d: need lam > {0.5 + GAMMA_SHIFT} "
            f"(so gamma_c = lam+1-{GAMMA_SHIFT} > 3/2), got lam = {lam}")
    lam = float(lam)

    def val(*c):
        r2 = sum((x - cc) ** 2 for x, cc in zip(c, corner))
        return np.power(r2, 0.5 * lam)

    def der(alpha, *c):
        m = sum(alpha)
        r2 = sum((x - cc) ** 2 for x, cc in zip(c, corner))
        coef = 1.0
        for i in range(m):
            coef *= lam - 2 * i
        with np.errstate(divide="ignore", invalid="ignore"):
            out = coef * np.power(r2, 0.5 * (lam - 2 * m))
            for a, x, cc in zip(alpha, c, corner):
                if a:
                    out = out * (x - cc)
        return out

    return WeightedFunction(
        dim, val, der, f"corner(lam={lam:g})",
        gamma_c=lam + 1 - GAMMA_SHIFT, corners=(corner,))


def edge_singular(lam, axis=2, dim=3):
    """r_e^lam, distance to the coordinate axis ``axis`` in 3d."""
    if dim != 3:
        raise ValueError("edge singularities are defined in dimension 3 only")
    if axis not in (0, 1, 2):
        raise ValueError("edge axis must be 0, 1 or 2")
    if not lam > GAMMA_SHIFT:
        raise ValueError(
            f"inadmissible edge exponent: need lam > {GAMMA_SHIFT} "
            f"(so gamma_e = lam+1-{GAMMA_SHIFT} > 1), got lam = {lam}")
    lam = float(lam)
    perp = tuple(j for j in range(3) if j != axis)

    def val(*c):
        r2 = c[perp[0]] ** 2 + c[perp[1]] ** 2
        return np.power(r2, 0.5 * lam)

    def der(alpha, *c):
        if alpha[axis]:
            return np.zeros(np.broadcast(*c).shape)
        m = sum(alpha)
        r2 = c[perp[0]] ** 2 + c[perp[1]] ** 2
        coef = 1.0
        for i in range(m):
            coef *= lam - 2 * i
        with np.errstate(divide="ignore", invalid="ignore"):
            out = coef * np.power(r2, 0.5 * (lam - 2 * m))
            for j in perp:
                if alpha[j]:
                    out = out * c[j]
        return out

    return WeightedFunction(3, val, der, f"edge(lam={lam:g},axis={axis})",
                            gamma_e=lam + 1 - GAMMA_SHIFT, edges=(axis,))


def _sep_factors(dim, kind, params):
    """Per-axis (value, derivative) callables for separable analytic kinds."""
    if kind == "polynomial":
        cs = [np.asarray(c, dtype=np.float64) for c in params["axis_coeffs"]]
        if len(cs) != dim:
            raise ValueError("axis_coeffs length must match dimension")
        return ([(lambda x, c=c: polyval(c, x)) for c in cs],
                [(lambda x, c=c: polyval(polyder(c), x)) for c in cs])
    if kind == "trig":
        w = [float(v) for v in params["freq"]]
        ph = [float(v) for v in params.get("phase", [0.0] * dim)]
        if len(w) != dim or len(ph) != dim:
            raise ValueError("freq/phase length must match dimension")
        return ([(lambda x, a=a, b=b: np.sin(a * x + b)) for a, b in zip(w, ph)],
                [(lambda x, a=a, b=b: a * np.cos(a * x + b)) for a, b in zip(w, ph)])
    if kind == "exp":
        rate = [float(v) for v in params["rate"]]
        if len(rate) != dim:
            raise ValueError("rate length must match dimension")
        return ([(lambda x, a=a: np.exp(a * x)) for a in rate],
                [(lambda x, a=a: a * np.exp(a * x)) for a in rate])
    raise ValueError(f"unknown analytic kind {kind!r}")


def analytic_fn(dim, kind, params):
    """Entire separable function: product over axes of 1d analytic factors."""
    need = {"constant": "value", "polynomial": "axis_coeffs", "trig": "freq",
            "exp": "rate"}.get(kind)
    if need is not None and need not in params:
        raise ValueError(f"{kind} needs the parameter {need!r}")
    if kind == "constant":
        v = float(params["value"])

        def val(*c):
            return np.full(np.broadcast(*c).shape, v)

        def der(alpha, *c):
            return np.zeros(np.broadcast(*c).shape)

        return WeightedFunction(dim, val, der, f"const({v:g})")

    fs, dfs = _sep_factors(dim, kind, params)

    def val(*c):
        out = fs[0](c[0])
        for f, x in zip(fs[1:], c[1:]):
            out = out * f(x)
        return out

    def der(alpha, *c):
        out = 1.0
        for a, f, df, x in zip(alpha, fs, dfs, c):
            out = out * (df(x) if a else f(x))
        return np.broadcast_to(out, np.broadcast(*c).shape).astype(np.float64)

    return WeightedFunction(dim, val, der, f"{kind}")


def fichera_extend(u):
    """Boolean-sum extension of u across the reflected octant/quadrant.

    On points with every coordinate negative the value is the tensorized
    trace combination (faces - edges + corner in 3d; edges - corner in 2d);
    elsewhere it is exactly u, computed by the identical code path so the
    restriction is bit-identical.
    """
    d = u.dim
    if d == 2:
        terms = [(1.0, (0, 1)), (1.0, (1, 0)), (-1.0, (1, 1))]
    elif d == 3:
        terms = [(1.0, (1, 0, 0)), (1.0, (0, 1, 0)), (1.0, (0, 0, 1)),
                 (-1.0, (0, 1, 1)), (-1.0, (1, 0, 1)), (-1.0, (1, 1, 0)),
                 (1.0, (1, 1, 1))]
    else:
        raise ValueError("extension defined for dimensions 2 and 3")

    def frozen(coords, freeze):
        return [np.zeros_like(x) if f else x for x, f in zip(coords, freeze)]

    def val(*c):
        mask = c[0] < 0
        for x in c[1:]:
            mask = mask & (x < 0)
        w = 0.0
        for s, freeze in terms:
            w = w + s * u.value(*frozen(c, freeze))
        return np.where(mask, w, u.value(*c))

    def der(alpha, *c):
        mask = c[0] < 0
        for x in c[1:]:
            mask = mask & (x < 0)
        w = 0.0
        for s, freeze in terms:
            if any(a and f for a, f in zip(alpha, freeze)):
                continue
            w = w + s * u.deriv(alpha, *frozen(c, freeze))
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), np.broadcast(*c).shape)
        return np.where(mask, w, u.deriv(alpha, *c))

    return WeightedFunction(d, val, der, f"extend({u.name})",
                            gamma_c=u.gamma_c, gamma_e=u.gamma_e,
                            corners=u.corners, edges=u.edges)


def from_spec(name, params, dim):
    """CLI registry: build a catalog function from a string key and params."""
    params = dict(params or {})
    if name == "corner":
        return corner_singular(dim, params.get("lam", 0.5), params.get("corner"))
    if name == "edge":
        return edge_singular(params.get("lam", 0.75), params.get("axis", 2), dim)
    if name == "corner_edge":
        return (corner_singular(dim, params.get("lam_c", 0.8))
                + edge_singular(params.get("lam_e", 0.6), params.get("axis", 2), dim))
    if name in ("polynomial", "trig", "exp", "constant"):
        return analytic_fn(dim, name, params)
    if name == "fichera":
        return fichera_extend(corner_singular(dim, params.get("lam", 0.5)))
    raise ValueError(
        f"unknown function {name!r}; available: corner, edge, corner_edge, "
        "polynomial, trig, exp, constant, fichera")
