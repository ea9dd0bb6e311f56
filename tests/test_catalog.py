import math
import re

import numpy as np
import pytest

from hprelu.catalog import (
    analytic_fn,
    corner_singular,
    edge_singular,
    fichera_extend,
    from_spec,
)

from helpers import gradient_axes


def fd_partial(u, alpha, pts, h=1e-6):
    """Central differences nested over the axes flagged in alpha."""
    pts = np.asarray(pts, dtype=np.float64)
    axes = [j for j, a in enumerate(alpha) if a]
    if not axes:
        return u.value(*[pts[:, j] for j in range(u.dim)])
    j = axes[0]
    rest = tuple(0 if i == j else a for i, a in enumerate(alpha))
    up = pts.copy()
    dn = pts.copy()
    up[:, j] += h
    dn[:, j] -= h
    return (fd_partial(u, rest, up, h) - fd_partial(u, rest, dn, h)) / (2 * h)


def random_points(rng, dim, n=200, lo=0.25, hi=0.9):
    return lo + (hi - lo) * rng.random((n, dim))


# step and tolerance per differentiation order: nested central differences
# lose roughly eps/h^m to cancellation, so h grows with the order
_FD = {1: (5e-6, 5e-5), 2: (1e-4, 5e-5), 3: (8e-4, 5e-4)}


@pytest.mark.parametrize("maker,dim", [
    (lambda: corner_singular(2, 0.5), 2),
    (lambda: corner_singular(3, 0.8), 3),
    (lambda: edge_singular(0.6, axis=2), 3),
    (lambda: analytic_fn(2, "trig", {"freq": [2.0, 3.0], "phase": [0.1, 0.0]}), 2),
    (lambda: analytic_fn(3, "exp", {"rate": [0.5, -0.3, 1.0]}), 3),
    (lambda: analytic_fn(2, "polynomial", {"axis_coeffs": [[0, 1, 2], [1, 0, 0, 3]]}), 2),
    (lambda: corner_singular(2, 0.5) + analytic_fn(2, "trig", {"freq": [1.0, 2.0]}), 2),
    (lambda: corner_singular(3, 0.8) + edge_singular(0.6), 3),
])
def test_derivatives_match_fd(maker, dim):
    u = maker()
    rng = np.random.default_rng(7)
    pts = random_points(rng, dim)
    cols = [pts[:, j] for j in range(dim)]
    for alpha in np.ndindex(*([2] * dim)):
        m = sum(alpha)
        if m == 0:
            continue
        h, tol = _FD[m]
        got = u.deriv(alpha, *cols)
        ref = fd_partial(u, alpha, pts, h)
        np.testing.assert_allclose(got, ref, rtol=tol, atol=tol)


def test_pinned_gradient():
    u = corner_singular(2, 0.5)
    g = gradient_axes(u, [np.array([0.3]), np.array([0.4])])
    np.testing.assert_allclose(g[0, 0], [0.42426, 0.56569], atol=5e-6)


def test_values_at_singularity():
    u = corner_singular(2, 0.5)
    assert u.value(0.0, 0.0) == 0.0
    assert np.isnan(u.deriv((1, 0), 0.0, 0.0))
    e = edge_singular(0.6)
    assert e.value(0.0, 0.0, 0.7) == 0.0
    assert np.isnan(e.deriv((1, 0, 0), 0.0, 0.0, 0.7))
    # derivative along the edge direction vanishes identically
    assert e.deriv((0, 0, 1), 0.1, 0.2, 0.3) == 0.0


def test_admissibility_gates():
    with pytest.raises(ValueError, match="lam >"):
        corner_singular(2, 0.0)
    with pytest.raises(ValueError, match="lam > 0.5"):
        corner_singular(3, 0.5)
    with pytest.raises(ValueError, match="lam >"):
        edge_singular(0.0)
    with pytest.raises(ValueError):
        edge_singular(0.6, axis=5)
    with pytest.raises(ValueError):
        corner_singular(4, 1.0)
    with pytest.raises(ValueError, match="corner length"):
        corner_singular(2, 0.5, (0.5,))
    for kind, key in [("constant", "value"), ("polynomial", "axis_coeffs"),
                      ("trig", "freq"), ("exp", "rate")]:
        with pytest.raises(ValueError, match=repr(key)):
            analytic_fn(2, kind, {})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_numbers_rejected(bad):
    with pytest.raises(ValueError, match=f"lam must be finite, got {bad}"):
        corner_singular(2, bad)
    with pytest.raises(ValueError, match=f"lam must be finite, got {bad}"):
        corner_singular(3, bad)
    with pytest.raises(ValueError, match=f"lam must be finite, got {bad}"):
        edge_singular(bad)
    with pytest.raises(ValueError, match=f"value must be finite, got {bad}"):
        analytic_fn(2, "constant", {"value": bad})
    with pytest.raises(ValueError, match=f"corner coordinates must be finite, got {bad}"):
        corner_singular(2, 0.5, (bad, 0.0))
    with pytest.raises(ValueError, match=f"corner coordinates must be finite, got {bad}"):
        corner_singular(3, 0.8, (0.0, 0.0, bad))


def test_metadata():
    u = corner_singular(2, 0.5)
    s = u + analytic_fn(2, "constant", {"value": 2.0})
    assert s.value(0.25, 0.0) == pytest.approx(0.5 + 2.0)


def test_separable_product():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0, 1], [0, 0, 1]]})
    x = np.linspace(0, 1, 11)
    np.testing.assert_allclose(u.value(x[:, None], x[None, :]),
                               np.outer(x, x ** 2), atol=1e-10)


def test_extension_2d():
    u = corner_singular(2, 0.5)
    w = fichera_extend(u)
    # restriction to the positive quadrant is bit-identical
    rng = np.random.default_rng(3)
    pts = random_points(rng, 2, lo=0.0, hi=1.0)
    a = u.value(pts[:, 0], pts[:, 1])
    b = w.value(pts[:, 0], pts[:, 1])
    assert a.tobytes() == b.tobytes()
    # Boolean-sum formula in the reflected quadrant
    got = w.value(-0.3, -0.4)
    want = u.value(-0.3, 0.0) + u.value(0.0, -0.4) - u.value(0.0, 0.0)
    assert got == pytest.approx(want, rel=1e-15)
    # x-derivative there only sees the terms with x free
    gx = w.deriv((1, 0), np.array(-0.3), np.array(-0.4))
    ref = u.deriv((1, 0), np.array(-0.3), np.array(0.0))
    assert gx == pytest.approx(float(ref), rel=1e-12)


def test_extension_3d_continuity():
    u = corner_singular(3, 0.8) + edge_singular(0.6)
    w = fichera_extend(u)
    rng = np.random.default_rng(11)
    yz = 0.2 + 0.6 * rng.random((50, 2))
    eta = 1e-9
    left = w.value(np.full(50, -eta), -yz[:, 0], -yz[:, 1])
    right = w.value(np.full(50, eta), -yz[:, 0], -yz[:, 1])
    np.testing.assert_allclose(left, right, atol=1e-7)


def test_registry():
    u = from_spec("corner", {"lam": 0.5}, 2)
    assert u.dim == 2
    v = from_spec("corner_edge", {"lam_c": 0.8, "lam_e": 0.6}, 3)
    assert v.dim == 3
    with pytest.raises(ValueError, match="unknown function 'nope'; available: "
                       "corner, edge, corner_edge, polynomial, trig, exp, "
                       "constant, fichera"):
        from_spec("nope", {}, 2)


@pytest.mark.parametrize("name, params, dim, key", [
    ("edge", {"lam_c": 0.8}, 3, "lam_c"), ("corner", {"lam_e": 0.3}, 2, "lam_e"),
    ("corner_edge", {"lam": 0.7}, 3, "lam"),
    ("trig", {"freq": [1.0, 2.0], "rate": [1.0, 1.0]}, 2, "rate")])
def test_registry_rejects_unread_parameters(name, params, dim, key):
    with pytest.raises(ValueError, match=f"function '{name}' reads no parameter '{key}'"):
        from_spec(name, params, dim)


@pytest.mark.parametrize("name, params, dim, message", [
    ("edge", {"axis": True}, 3, "parameter 'axis' must be an integer, got True"),
    ("edge", {"axis": 2.0}, 3, "parameter 'axis' must be an integer, got 2.0"),
    ("corner", {"lam": True}, 2, "parameter 'lam' must be a finite number, got True")],
    ids=["bool-axis", "float-axis", "bool-lam"])
def test_registry_rejects_mistyped_parameters(name, params, dim, message):
    # a boolean is no number and a float no axis index: neither is coerced
    with pytest.raises(ValueError, match=re.escape(message)):
        from_spec(name, params, dim)


@pytest.mark.parametrize("make, message", [
    (lambda: edge_singular(0.6, axis=True), "edge axis must be >= 0, got True"),
    (lambda: edge_singular(0.6, axis=1.0), "edge axis must be >= 0, got 1.0"),
    (lambda: corner_singular(2, True), "corner exponent lam must be finite, got True"),
    (lambda: edge_singular(True), "edge exponent lam must be finite, got True"),
    (lambda: corner_singular(2.0, 0.5), "dimension must be >= 1, got 2.0"),
    (lambda: analytic_fn(2.5, "constant", {"value": 1.0}), "dimension must be >= 1, got 2.5"),
    (lambda: analytic_fn(2, "constant", {"value": True}),
     "constant value must be finite, got True"),
    (lambda: corner_singular(2, 0.5, corner=[True, 0]),
     "corner coordinates must be finite, got True"),
    (lambda: corner_singular(2, "0.5"), "corner exponent lam must be finite, got '0.5'")],
    ids=["bool-axis", "float-axis", "bool-corner-lam", "bool-edge-lam", "float-dim",
         "fractional-dim", "bool-value", "bool-coordinate", "string-lam"])
def test_constructors_reject_what_they_would_coerce(make, message):
    # the catalog's own constructors check their inputs as from_spec checks
    # the CLI's: a boolean is no number, a float no axis or dimension, and
    # neither is coerced
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_constructors_take_numpy_scalars():
    # numpy's integers and floats are integers and reals
    u = corner_singular(np.int64(2), np.float64(0.5), (np.float64(0.1), 0))
    e = edge_singular(np.float64(0.6), axis=np.int64(1))
    assert (u.dim, e.dim) == (2, 3)
    assert u.value(0.1, 1.0) == corner_singular(2, 0.5, (0.1, 0.0)).value(0.1, 1.0)
    assert e.name == edge_singular(0.6, axis=1).name == "edge(lam=0.6,axis=1)"
