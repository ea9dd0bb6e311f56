import itertools
import re

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from hprelu import projector
from hprelu.catalog import analytic_fn, corner_singular, edge_singular, fichera_extend
from hprelu.legendre import legendre_table
from hprelu.mesh import graded_axis
from hprelu.projector import HpInterpolant, hp_interpolate, multipatch_interpolate

from helpers import gradient_axes, interp_gradient, one_element


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


def local_coeff_oracle(u, axis, p, K, g=80):
    """Element-local tensor coefficients a[m1..md] (1-based shape indices)
    on the cell K of d = len(K) copies of ``axis``, by direct nested
    quadrature of the per-axis functionals."""
    d = len(K)
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


def oracle_value(a, axis, K, pts):
    d = len(K)
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
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 2), 2)
    rng = np.random.default_rng(5)
    pts = rng.random((200, 2))
    np.testing.assert_allclose(it.value(pts), u.value(pts[:, 0], pts[:, 1]),
                               atol=1e-12)


def test_representation_identity():
    u = corner_singular(2, 0.5)
    axis = graded_axis(0.0, 1.0, (0.0,), 0.5, 2)
    p = 3
    it = hp_interpolate(u, axis, p)
    rng = np.random.default_rng(17)
    for K in [(0, 0), (1, 1), (2, 0), (2, 2)]:
        a = local_coeff_oracle(u, axis, p, K)
        lo = np.array([axis.nodes[k] for k in K])
        hi = np.array([axis.nodes[k + 1] for k in K])
        pts = lo + (hi - lo) * rng.random((125, 2))
        np.testing.assert_allclose(it.value(pts), oracle_value(a, axis, K, pts),
                                   atol=1e-9)


def test_representation_identity_3d():
    u = corner_singular(3, 0.8)
    axis = graded_axis(0.0, 1.0, (0.0,), 0.5, 1)
    it = hp_interpolate(u, axis, 2)
    rng = np.random.default_rng(19)
    for K in [(0, 0, 0), (1, 1, 1), (1, 0, 1)]:
        a = local_coeff_oracle(u, axis, 2, K, g=40)
        lo = np.array([axis.nodes[k] for k in K])
        hi = np.array([axis.nodes[k + 1] for k in K])
        pts = lo + (hi - lo) * rng.random((64, 3))
        np.testing.assert_allclose(it.value(pts), oracle_value(a, axis, K, pts),
                                   atol=1e-9)


def test_xy_bubble_coeffs_vanish():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0.0, 1.0], [0.0, 1.0]]})
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 3)
    nodes = it.axis.nodes
    n_nodes = len(nodes)
    bub = it.coeffs[n_nodes:, n_nodes:]
    np.testing.assert_allclose(bub, 0.0, atol=1e-12)
    # hat-hat block carries the node value products
    hh = it.coeffs[:n_nodes, :n_nodes]
    np.testing.assert_allclose(hh, np.outer(nodes, nodes),
                               atol=1e-12)


def test_singular_interval_bubbles_zero():
    u = corner_singular(2, 0.5)
    p = 3
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 2), p)
    n_nodes = len(it.axis.nodes)
    # bubble rows of the singular interval k=0 are identically zero
    rows = slice(n_nodes, n_nodes + p - 1)
    np.testing.assert_allclose(it.coeffs[rows, :], 0.0, atol=0)
    np.testing.assert_allclose(it.coeffs[:, rows], 0.0, atol=0)


def test_continuity():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 2), 3)
    axis = it.axis
    eta = 1e-12
    ys = np.linspace(0.05, 0.95, 37)
    for xk in axis.nodes[1:-1]:
        left = it.value(np.column_stack([np.full_like(ys, xk - eta), ys]))
        right = it.value(np.column_stack([np.full_like(ys, xk + eta), ys]))
        np.testing.assert_allclose(left, right, atol=1e-10)


def test_gradient_matches_fd():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 2), 3)
    rng = np.random.default_rng(23)
    pts = 0.3 + 0.4 * rng.random((50, 2))
    g = interp_gradient(it, pts)
    h = 1e-6
    for j in range(2):
        up = pts.copy(); up[:, j] += h
        dn = pts.copy(); dn[:, j] -= h
        fd = (it.value(up) - it.value(dn)) / (2 * h)
        np.testing.assert_allclose(g[:, j], fd, atol=1e-6)


def test_tensor_eval_matches_scattered():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 2)
    xs = np.linspace(0.01, 0.99, 7)
    ys = np.linspace(0.02, 0.98, 5)
    tensor = it.value_axes([xs, ys])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    scattered = it.value(np.column_stack([X.ravel(), Y.ravel()])).reshape(7, 5)
    np.testing.assert_allclose(tensor, scattered, atol=1e-13)
    gt = gradient_axes(it, [xs, ys])
    gs = interp_gradient(it, np.column_stack([X.ravel(), Y.ravel()])).reshape(7, 5, 2)
    np.testing.assert_allclose(gt, gs, atol=1e-13)


def test_vvec_order():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0.0, 1.0], [1.0]]})
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 2)
    v = it.vvec()
    n = it.N1d
    assert v[3] == it.coeffs[3, 0]
    assert v[n + 2] == it.coeffs[2, 1]


def test_multipatch_linear():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0.0, 1.0], [1.0, 1.0]]})
    it = multipatch_interpolate(u, ell=1, p=2)
    rng = np.random.default_rng(29)
    pts = -1 + 2 * rng.random((100, 2))
    np.testing.assert_allclose(it.value(pts), u.value(pts[:, 0], pts[:, 1]),
                               atol=1e-12)


def axis_matrices_loop(interp, x):
    """Basis values and derivatives at 1d points, one interval at a time
    and one mode at a time: the reference for ``_axis_matrices``."""
    axis, p = interp.axis, interp.p
    B = np.zeros((len(x), interp.N1d))
    D = np.zeros((len(x), interp.N1d))
    k = axis.find(x)
    for piece in range(axis.n_intervals):
        m = k == piece
        a, b = axis.nodes[piece], axis.nodes[piece + 1]
        h = b - a
        t = (2.0 * x[m] - (a + b)) / h
        B[m, piece], B[m, piece + 1] = 0.5 * (1.0 - t), 0.5 * (1.0 + t)
        D[m, piece], D[m, piece + 1] = -1.0 / h, 1.0 / h
        lt = legendre_table(p, t)
        for n in range(1, p):
            col = len(axis.nodes) + piece * (p - 1) + (n - 1)
            B[m, col] = 0.5 * (lt[n + 1] - lt[n - 1]) / (2 * n + 1)
            D[m, col] = lt[n] / h
    return B, D


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("axis", [
    graded_axis(0.0, 1.0, (0.0,), 0.5, 3),
    graded_axis(-1.5, 1.5, (-1.5, 0.0, 1.5), 0.5, 2)], ids=["unit", "sym"])
def test_axis_matrices_match_the_interval_loop(axis, p):
    # the gathered matrices equal the per-interval loop bit for bit, at
    # the nodes and outside the axis too
    it = HpInterpolant(axis, p, np.zeros(len(axis.nodes) + axis.n_intervals * (p - 1)))
    lo, hi = axis.nodes[0], axis.nodes[-1]
    x = np.concatenate((axis.nodes, [lo - 0.1, hi + 0.1],
                        np.random.default_rng(5).uniform(lo, hi, 40)))
    for a, b in zip(it._axis_matrices(x, want_deriv=True), axis_matrices_loop(it, x)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("u, axis, p", [
    (corner_singular(2, 0.5), graded_axis(0.0, 1.0, (0.0,), 0.5, 2), 3),
    (corner_singular(3, 0.8) + edge_singular(0.6, 2, 3),
     graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 2),
    (fichera_extend(corner_singular(3, 0.8)),
     graded_axis(-1.0, 1.0, (-1.0, 0.0, 1.0), 0.5, 1), 2)],
    ids=["2d-unit-corner", "3d-corner-edge", "3d-sym-fichera"])
def test_blocked_assembly_is_bitwise(monkeypatch, u, axis, p):
    # u is evaluated in blocks of first-axis stations; blocks of 500
    # entries split the patterns into many, and no bit moves
    calls = []

    def run():
        calls.append(0)
        it = hp_interpolate(u, axis, p)
        xs = np.concatenate((axis.nodes, np.linspace(axis.nodes[0], axis.nodes[-1], 11)))
        grid = [xs, xs[::-1], xs[1:]][:u.dim]
        return [a.view(np.uint64) for a in
                (it.coeffs, it.value_axes(grid), gradient_axes(it, grid))]

    def counted(alpha, *grids):
        calls[-1] += 1
        return type(u).deriv(u, alpha, *grids)

    monkeypatch.setattr(u, "deriv", counted)
    want = run()
    monkeypatch.setattr(projector, "_CHUNK_ENTRIES", 500)
    got = run()
    assert calls[1] > 2 * calls[0]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_ell0_is_multilinear():
    u = corner_singular(2, 0.5)
    it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 0), 3)
    # every interval singular: interpolant is bilinear from corner traces
    pts = np.array([[0.5, 0.5], [0.25, 0.75]])
    vals = it.value(pts)
    c = {(i, j): u.value(float(i), float(j)) for i in (0, 1) for j in (0, 1)}
    x, y = pts[:, 0], pts[:, 1]
    want = (c[0, 0] * (1 - x) * (1 - y) + c[1, 0] * x * (1 - y)
            + c[0, 1] * (1 - x) * y + c[1, 1] * x * y)
    np.testing.assert_allclose(vals, want, atol=1e-14)


def test_interpolate_rejects_bad_inputs():
    axis = graded_axis(0.0, 1.0, (0.0,), 0.5, 1)
    u = corner_singular(2, 0.5)
    with pytest.raises(TypeError, match="axis must be an Axis1D, got list"):
        hp_interpolate(u, [axis, axis], 2)
    u4 = analytic_fn(4, "constant", {"value": 1.0})
    with pytest.raises(ValueError, match="supported dimensions: 1, 2, 3; got 4"):
        hp_interpolate(u4, axis, 2)
    # a degree is an integer >= 1: never truncated (2.7 was p = 2) or
    # coerced (True was p = 1)
    for p in (0, True, 2.0, 2.7, "2"):
        message = re.escape(f"degree must be >= 1, got {p!r}: it must be an integer")
        with pytest.raises(ValueError, match=message):
            hp_interpolate(u, axis, p)
        with pytest.raises(ValueError, match=message):
            HpInterpolant(axis, p, np.zeros((5, 5)))


@pytest.mark.parametrize("shape", [(), (5, 6), (5,) * 4],
                         ids=["scalar", "unequal", "four-d"])
def test_interpolant_rejects_bad_coefficient_shapes(shape):
    # graded_axis(0.0, 1.0, (0.0,), 0.5, 1) at degree 2: 3 hats and 2 intervals with one
    # bubble each, N1d = 5
    with pytest.raises(ValueError, match=re.escape(f"N1d = 5 and d in 1..3, got {shape}")):
        HpInterpolant(graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 2, np.zeros(shape))
