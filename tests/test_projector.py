import itertools

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from hprelu.catalog import analytic_fn, corner_singular
from hprelu.mesh import TensorMesh
from hprelu.projector import HpInterpolant, hp_interpolate, multipatch_interpolate

from helpers import one_element


# ---------------------------------------------------------------- oracles

def leg_val(n, t):
    return npleg.legval(t, [0.0] * n + [1.0])


def zeta_val(m, t):
    """Shape value via numpy's Legendre integration, independent of the
    package's recurrences.  m is the 1-based shape index."""
    t = np.asarray(t, dtype=np.float64)
    if m == 1:
        return 0.5 * (1 + t)
    if m == 2:
        return 0.5 * (1 - t)
    c = npleg.legint([0.0] * (m - 2) + [1.0], lbnd=-1.0)
    return 0.5 * npleg.legval(t, c)


def local_coeff_oracle(u, mesh, p, K, g=80):
    """Element-local tensor coefficients a[m1..md] (1-based shape indices)
    by direct nested quadrature of the per-axis functionals."""
    axis = mesh.axes[0]
    d = mesh.dim
    t, w = npleg.leggauss(g)
    degs = [1 if axis.singular[k] else p for k in K]
    shape = tuple(q + 1 for q in degs)
    out = np.zeros(shape)
    for combo in np.ndindex(*shape):
        ms = [c + 1 for c in combo]
        pts, wts, alpha = [], [], []
        for j, m in enumerate(ms):
            a, b = axis.nodes[K[j]], axis.nodes[K[j] + 1]
            if m == 1:
                pts.append(np.array([b])); wts.append(np.array([1.0])); alpha.append(0)
            elif m == 2:
                pts.append(np.array([a])); wts.append(np.array([1.0])); alpha.append(0)
            else:
                n = m - 2
                pts.append(0.5 * ((b - a) * t + (a + b)))
                wts.append((2 * n + 1) * 0.5 * (b - a) * w * leg_val(n, t))
                alpha.append(1)
        grids = [p_.reshape([-1 if i == j else 1 for i in range(d)])
                 for j, p_ in enumerate(pts)]
        vals = u.deriv(tuple(alpha), *grids)
        vals = np.broadcast_to(vals, tuple(len(p_) for p_ in pts))
        for j in range(d):
            vals = np.tensordot(wts[j], vals, axes=([0], [0]))
        out[combo] = vals
    return out


def oracle_value(a, mesh, K, pts):
    axis = mesh.axes[0]
    d = mesh.dim
    out = np.zeros(len(pts))
    for combo in np.ndindex(*a.shape):
        term = np.full(len(pts), a[combo])
        for j in range(d):
            lo, hi = axis.nodes[K[j]], axis.nodes[K[j] + 1]
            tj = (2 * pts[:, j] - (lo + hi)) / (hi - lo)
            term = term * zeta_val(combo[j] + 1, tj)
        out += term
    return out


# ---------------------------------------------------------- element tests

def _at(interp, t):
    return interp.value(np.asarray(t, dtype=np.float64)[:, None])


def test_reproduce_t2():
    t = np.linspace(-1.0, 1.0, 33)
    it = one_element(lambda t: t ** 2, lambda t: 2 * t, 2)
    np.testing.assert_allclose(_at(it, t), t ** 2, atol=1e-13)


def test_t3_degree_one():
    t = np.linspace(-1.0, 1.0, 33)
    it = one_element(lambda t: t ** 3, lambda t: 3 * t ** 2, 1)
    np.testing.assert_allclose(_at(it, t), t, atol=1e-13)


def test_cos_endpoints():
    at1, atm1 = _at(one_element(np.cos, lambda t: -np.sin(t), 3), [1.0, -1.0])
    assert at1 == pytest.approx(np.cos(1.0), abs=1e-12)
    assert atm1 == pytest.approx(np.cos(-1.0), abs=1e-12)


def test_halfweight_moment_value():
    # the weighted moment (v', (3/2) L_1) for v = t^2 evaluates to 2
    t, w = npleg.leggauss(20)
    val = np.dot(w, 2 * t * 1.5 * t)
    assert val == pytest.approx(2.0, abs=1e-13)


def test_element_against_oracle():
    f = lambda t: np.sin(2 * t + 0.3)
    df = lambda t: 2 * np.cos(2 * t + 0.3)
    p = 5
    it = one_element(f, df, p)
    # oracle functionals in the element's order: trace at -1, trace at +1,
    # then (2n+1)(f', L_n); the shapes they weight are zeta 2, 1, 3, ...
    t, w = npleg.leggauss(80)
    want = np.zeros(p + 1)
    want[0], want[1] = f(-1.0), f(1.0)
    for n in range(1, p):
        want[n + 1] = (2 * n + 1) * np.dot(w, df(t) * leg_val(n, t))
    np.testing.assert_allclose(it.coeffs, want, atol=1e-12)
    grid = np.linspace(-1, 1, 33)
    shapes = [2, 1] + list(range(3, p + 2))
    direct = sum(c * zeta_val(m, grid) for c, m in zip(want, shapes))
    np.testing.assert_allclose(_at(it, grid), direct, atol=1e-11)


def test_degree_validation():
    with pytest.raises(ValueError):
        one_element(np.cos, np.sin, 0)


# ------------------------------------------------------------ global tests

def test_linear_reproduction():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[1.0, 2.0], [1.0, 0.5]]})
    mesh = TensorMesh.cube(0.5, 2, 2)
    it = hp_interpolate(u, mesh, 2)
    rng = np.random.default_rng(5)
    pts = rng.random((200, 2))
    np.testing.assert_allclose(it.value(pts), u.value(pts[:, 0], pts[:, 1]),
                               atol=1e-12)


def test_representation_identity():
    u = corner_singular(2, 0.5)
    mesh = TensorMesh.cube(0.5, 2, 2)
    p = 3
    it = hp_interpolate(u, mesh, p)
    rng = np.random.default_rng(17)
    for K in [(0, 0), (1, 1), (2, 0), (2, 2)]:
        a = local_coeff_oracle(u, mesh, p, K)
        axis = mesh.axes[0]
        lo = np.array([axis.nodes[k] for k in K])
        hi = np.array([axis.nodes[k + 1] for k in K])
        pts = lo + (hi - lo) * rng.random((125, 2))
        np.testing.assert_allclose(it.value(pts), oracle_value(a, mesh, K, pts),
                                   atol=1e-9)


def test_representation_identity_3d():
    u = corner_singular(3, 0.8)
    mesh = TensorMesh.cube(0.5, 1, 3)
    it = hp_interpolate(u, mesh, 2)
    rng = np.random.default_rng(19)
    for K in [(0, 0, 0), (1, 1, 1), (1, 0, 1)]:
        a = local_coeff_oracle(u, mesh, 2, K, g=40)
        axis = mesh.axes[0]
        lo = np.array([axis.nodes[k] for k in K])
        hi = np.array([axis.nodes[k + 1] for k in K])
        pts = lo + (hi - lo) * rng.random((64, 3))
        np.testing.assert_allclose(it.value(pts), oracle_value(a, mesh, K, pts),
                                   atol=1e-9)


def test_xy_bubble_coeffs_vanish():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0.0, 1.0], [0.0, 1.0]]})
    mesh = TensorMesh.cube(0.5, 1, 2)
    it = hp_interpolate(u, mesh, 3)
    n_nodes = len(mesh.axes[0].nodes)
    bub = it.coeffs[n_nodes:, n_nodes:]
    np.testing.assert_allclose(bub, 0.0, atol=1e-12)
    # hat-hat block carries the node value products
    hh = it.coeffs[:n_nodes, :n_nodes]
    np.testing.assert_allclose(hh, np.outer(mesh.axes[0].nodes, mesh.axes[0].nodes),
                               atol=1e-12)


def test_singular_interval_bubbles_zero():
    u = corner_singular(2, 0.5)
    mesh = TensorMesh.cube(0.5, 2, 2)
    p = 3
    it = hp_interpolate(u, mesh, p)
    n_nodes = len(mesh.axes[0].nodes)
    # bubble rows of the singular interval k=0 are identically zero
    rows = slice(n_nodes, n_nodes + p - 1)
    np.testing.assert_allclose(it.coeffs[rows, :], 0.0, atol=0)
    np.testing.assert_allclose(it.coeffs[:, rows], 0.0, atol=0)


def test_continuity():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, TensorMesh.cube(0.5, 2, 2), 3)
    axis = it.mesh.axes[0]
    eta = 1e-12
    ys = np.linspace(0.05, 0.95, 37)
    for xk in axis.nodes[1:-1]:
        left = it.value(np.column_stack([np.full_like(ys, xk - eta), ys]))
        right = it.value(np.column_stack([np.full_like(ys, xk + eta), ys]))
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_gradient_matches_fd():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, TensorMesh.cube(0.5, 2, 2), 3)
    rng = np.random.default_rng(23)
    pts = 0.3 + 0.4 * rng.random((50, 2))
    g = it.gradient(pts)
    h = 1e-6
    for j in range(2):
        up = pts.copy(); up[:, j] += h
        dn = pts.copy(); dn[:, j] -= h
        fd = (it.value(up) - it.value(dn)) / (2 * h)
        np.testing.assert_allclose(g[:, j], fd, atol=1e-6)


def test_tensor_eval_matches_scattered():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, TensorMesh.cube(0.5, 1, 2), 2)
    xs = np.linspace(0.01, 0.99, 7)
    ys = np.linspace(0.02, 0.98, 5)
    tensor = it.value_axes([xs, ys])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    scattered = it.value(np.column_stack([X.ravel(), Y.ravel()])).reshape(7, 5)
    np.testing.assert_allclose(tensor, scattered, atol=1e-13)
    gt = it.gradient_axes([xs, ys])
    gs = it.gradient(np.column_stack([X.ravel(), Y.ravel()])).reshape(7, 5, 2)
    np.testing.assert_allclose(gt, gs, atol=1e-13)


def test_vvec_order():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0.0, 1.0], [1.0]]})
    it = hp_interpolate(u, TensorMesh.cube(0.5, 1, 2), 2)
    v = it.vvec()
    n = it.N1d
    assert v[3] == it.coeffs[3, 0]
    assert v[n + 2] == it.coeffs[2, 1]


def test_multipatch_linear():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0.0, 1.0], [1.0, 1.0]]})
    it = multipatch_interpolate(u, ell=1, p=2)
    assert it.patches == 4
    rng = np.random.default_rng(29)
    pts = -1 + 2 * rng.random((100, 2))
    np.testing.assert_allclose(it.value(pts), u.value(pts[:, 0], pts[:, 1]),
                               atol=1e-12)


def test_ell0_is_multilinear():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, TensorMesh.cube(0.5, 0, 2), 3)
    # every interval singular: interpolant is bilinear from corner traces
    pts = np.array([[0.5, 0.5], [0.25, 0.75]])
    vals = it.value(pts)
    c = {(i, j): u.value(float(i), float(j)) for i in (0, 1) for j in (0, 1)}
    x, y = pts[:, 0], pts[:, 1]
    want = (c[0, 0] * (1 - x) * (1 - y) + c[1, 0] * x * (1 - y)
            + c[0, 1] * (1 - x) * y + c[1, 1] * x * y)
    np.testing.assert_allclose(vals, want, atol=1e-14)
