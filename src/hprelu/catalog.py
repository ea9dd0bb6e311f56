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
    def __init__(self, dim, value_fn, deriv_fn, name):
        self.dim = int(dim)
        self._value = value_fn
        self._deriv = deriv_fn
        self.name = name

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
        shape = tuple(len(a) for a in axes)
        return np.broadcast_to(self.value(*np.ix_(*axes)), shape)

    def partial_axes(self, axes, j):
        """The partial derivative along axis j on the tensor grid."""
        alpha = tuple(1 if i == j else 0 for i in range(len(axes)))
        shape = tuple(len(a) for a in axes)
        return np.broadcast_to(self.deriv(alpha, *np.ix_(*axes)), shape)

    def __add__(self, other):
        if not isinstance(other, WeightedFunction) or other.dim != self.dim:
            return NotImplemented

        def val(*c):
            return self._value(*c) + other._value(*c)

        def der(alpha, *c):
            return self.deriv(alpha, *c) + other.deriv(alpha, *c)

        return WeightedFunction(self.dim, val, der, f"({self.name}+{other.name})")


GAMMA_SHIFT = 1e-6


def _power_law(lam, radial, factors):
    """r^lam (no factors) or its mixed first partial along the m axes whose
    offsets are ``factors``: coef * r^(lam - 2m) * prod(factors), with r^2
    the sum of the squared ``radial`` offsets."""
    m = len(factors)
    coef = 1.0
    for i in range(m):
        coef *= lam - 2 * i
    r2 = sum(o ** 2 for o in radial)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = coef * np.power(r2, 0.5 * (lam - 2 * m))
        for o in factors:
            out = out * o
    return out


def corner_singular(dim, lam, corner=None):
    """r^lam about a corner point (default origin)."""
    if dim not in (2, 3):
        raise ValueError("corner singularities supported in dimensions 2 and 3")
    if corner is None:
        corner = (0.0,) * dim
    corner = tuple(float(c) for c in corner)
    if len(corner) != dim:
        raise ValueError("corner length must match dimension")
    for cc in corner:
        if not math.isfinite(cc):
            raise ValueError(f"corner coordinates must be finite, got {cc!r}")
    if not math.isfinite(lam):
        raise ValueError(f"corner exponent lam must be finite, got {lam!r}")
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
        return _power_law(lam, [x - cc for x, cc in zip(c, corner)], ())

    def der(alpha, *c):
        off = [x - cc for x, cc in zip(c, corner)]
        return _power_law(lam, off, [o for a, o in zip(alpha, off) if a])

    return WeightedFunction(dim, val, der, f"corner(lam={lam:g})")


def edge_singular(lam, axis=2, dim=3):
    """r_e^lam, distance to the coordinate axis ``axis`` in 3d."""
    if dim != 3:
        raise ValueError("edge singularities are defined in dimension 3 only")
    if axis not in (0, 1, 2):
        raise ValueError("edge axis must be 0, 1 or 2")
    if not math.isfinite(lam):
        raise ValueError(f"edge exponent lam must be finite, got {lam!r}")
    if not lam > GAMMA_SHIFT:
        raise ValueError(
            f"inadmissible edge exponent: need lam > {GAMMA_SHIFT} "
            f"(so gamma_e = lam+1-{GAMMA_SHIFT} > 1), got lam = {lam}")
    lam = float(lam)
    perp = tuple(j for j in range(3) if j != axis)

    def val(*c):
        return _power_law(lam, [c[j] for j in perp], ())

    def der(alpha, *c):
        if alpha[axis]:
            return np.zeros(np.broadcast(*c).shape)
        return _power_law(lam, [c[j] for j in perp], [c[j] for j in perp if alpha[j]])

    return WeightedFunction(3, val, der, f"edge(lam={lam:g},axis={axis})")


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
        if not math.isfinite(v):
            raise ValueError(f"constant value must be finite, got {v!r}")

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

    return WeightedFunction(d, val, der, f"extend({u.name})")


# The parameters each registry key reads, and the type of each.  A value
# must have its parameter's type, and a boolean is none of them; the
# list-valued parameters take lists of finite numbers (axis_coeffs one list
# per axis).  The CLI makes a flag of each scalar one and checks config
# files with the same kinds.
_SPEC_PARAMS = {
    "corner": ("lam", "corner"), "edge": ("lam", "axis"),
    "corner_edge": ("lam_c", "lam_e", "axis"), "polynomial": ("axis_coeffs",),
    "trig": ("freq", "phase"), "exp": ("rate",), "constant": ("value",),
    "fichera": ("lam",)}
_PARAM_TYPES = {
    "axis": int, "lam": float, "lam_c": float, "lam_e": float,
    "value": float, "corner": list, "freq": list, "phase": list,
    "rate": list, "axis_coeffs": "lists"}
_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          dict: "an object", list: "a list of finite numbers",
          "lists": "a list of lists of finite numbers"}


def _typed(v, kind):
    if kind is float:
        return type(v) in (int, float) and math.isfinite(v)
    if kind is list:
        return type(v) is list and all(_typed(x, float) for x in v)
    if kind == "lists":
        return type(v) is list and all(_typed(x, list) for x in v)
    return type(v) is kind


def from_spec(name, params, dim):
    """CLI registry: build a catalog function from a string key and params.
    A parameter the function does not read, or of another type than its
    entry in ``_PARAM_TYPES``, is rejected."""
    if name not in _SPEC_PARAMS:
        raise ValueError(f"unknown function {name!r}; available: "
                         f"{', '.join(_SPEC_PARAMS)}")
    params = dict(params or {})
    for key, v in params.items():
        if key not in _SPEC_PARAMS[name]:
            raise ValueError(f"function {name!r} reads no parameter {key!r}; "
                             f"it reads {', '.join(_SPEC_PARAMS[name])}")
        if not _typed(v, _PARAM_TYPES[key]):
            raise ValueError(f"parameter {key!r} must be "
                             f"{_KINDS[_PARAM_TYPES[key]]}, got {v!r}")
    if name == "corner":
        return corner_singular(dim, params.get("lam", 0.5), params.get("corner"))
    if name == "edge":
        return edge_singular(params.get("lam", 0.75), params.get("axis", 2), dim)
    if name == "corner_edge":
        return (corner_singular(dim, params.get("lam_c", 0.8))
                + edge_singular(params.get("lam_e", 0.6), params.get("axis", 2), dim))
    if name == "fichera":
        return fichera_extend(corner_singular(dim, params.get("lam", 0.5)))
    return analytic_fn(dim, name, params)
