"""Product, polynomial, and piecewise-polynomial network builders."""

import math

import numpy as np
import pytest

from hprelu.basis import PiecewisePolynomial, build_basis
from hprelu.emulation import (
    ToleranceBudget,
    basis_net,
    plan_budget,
    product_net,
    pwpoly_net,
)
from hprelu.legendre import zeta_coeffs
from hprelu.mesh import geometric_mesh
from hprelu.network import grad_realize_batch, realize, realize_batch

from helpers import inorder_realize, random_continuous_pwpoly, square_net

# ------------------------------------------------------------------ square

def test_square_one_level_midpoint():
    net = square_net(1)
    assert realize(net, np.array([0.5]))[0] == 0.25
    assert realize(net, np.array([0.0]))[0] == 0.0


def test_square_matches_dyadic_interpolant():
    # independent oracle: the PWL interpolant of t^2 at k 2^-m
    for m in (1, 2, 3, 5):
        grid = np.linspace(0.0, 1.0, 2 ** m + 1)
        t = np.linspace(0.0, 1.0, 1237)
        want = np.interp(t, grid, grid * grid)
        got = realize_batch(square_net(m), t[:, None])[:, 0]
        assert np.max(np.abs(got - want)) < 1e-12


def test_square_eight_levels_bound():
    net = square_net(8)
    t = np.linspace(0.0, 1.0, 4001)
    got = realize_batch(net, t[:, None])[:, 0]
    assert np.max(np.abs(got - t * t)) <= 2.0 ** -18
    assert realize(net, np.array([0.0]))[0] == 0.0


def test_square_exact_at_dyadics():
    m = 4
    net = square_net(m)
    k = np.arange(2 ** m + 1)
    t = k / 2.0 ** m
    got = realize_batch(net, t[:, None])[:, 0]
    assert np.array_equal(got, t * t)


# ----------------------------------------------------------------- budgets

def test_budget_validation():
    with pytest.raises(ValueError):
        ToleranceBudget(epsilon=0.0)
    with pytest.raises(ValueError):
        ToleranceBudget(epsilon=1.5)
    with pytest.raises(ValueError):
        ToleranceBudget(epsilon=0.1, M=0.5)
    with pytest.raises(ValueError):
        ToleranceBudget(epsilon=0.1, levels=0)


def test_plan_budget_fills_levels():
    b = plan_budget(2, 1e-2, 1.0)
    assert b.levels is not None and b.levels >= 1
    # deeper for tighter targets
    assert plan_budget(2, 1e-6, 1.0).levels > b.levels


def test_plan_budget_infeasible():
    with pytest.raises(ValueError, match="cap"):
        plan_budget(6, 1e-3, 1e60)


# ---------------------------------------------------------------- products

def test_product_example_point():
    net = product_net(2, plan_budget(2, 1e-2, 1.0))
    got = realize(net, np.array([0.3, 0.5]))[0]
    assert abs(got - 0.15) <= 1e-2


def test_product_rejects_unary():
    with pytest.raises(ValueError):
        product_net(1, plan_budget(2, 1e-2, 1.0))


def test_product_rejects_uncertified_levels():
    with pytest.raises(ValueError, match="certify"):
        product_net(2, ToleranceBudget(epsilon=1e-6, M=1.0, levels=2))


def test_product_zero_on_zero_exact():
    net = product_net(3, plan_budget(3, 1e-3, 2.0))
    rng = np.random.default_rng(11)
    xz = rng.uniform(-5.0, 5.0, size=(100, 2))
    pts = np.zeros((100, 3))
    pts[:, 0] = xz[:, 0]
    pts[:, 2] = xz[:, 1]
    out = realize_batch(net, pts)[:, 0]
    assert np.all(out == 0.0)
    # every coordinate slot, in-box and out-of-box
    for j in range(3):
        pts = rng.uniform(-4.0, 4.0, size=(50, 3))
        pts[:, j] = 0.0
        out = realize_batch(net, pts)[:, 0]
        assert np.all(out == 0.0)


@pytest.mark.parametrize("d,M", [(2, 1.0), (3, 2.0)])
def test_product_value_and_derivative(d, M):
    eps = 1e-3
    net = product_net(d, plan_budget(d, eps, M))
    rng = np.random.default_rng(5)
    pts = rng.uniform(-M, M, size=(400, d))
    vals, jac = grad_realize_batch(net, pts)
    want = np.prod(pts, axis=1)
    assert np.max(np.abs(vals[:, 0] - want)) <= eps
    for j in range(d):
        others = np.prod(np.delete(pts, j, axis=1), axis=1)
        assert np.max(np.abs(jac[:, 0, j] - others)) <= eps


def test_product_symmetry():
    net = product_net(2, plan_budget(2, 1e-3, 1.0))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    a = realize_batch(net, pts)[:, 0]
    b = realize_batch(net, pts[:, ::-1])[:, 0]
    assert np.max(np.abs(a - b)) <= 1e-14


def test_product_size_grows_affinely_in_log_eps():
    sizes = [product_net(2, plan_budget(2, e, 1.0)).size
             for e in (1e-2, 1e-3, 1e-4)]
    assert sizes[0] < sizes[1] < sizes[2]
    ratios = [sizes[i + 1] / sizes[i] for i in range(2)]
    assert max(ratios) < 2.5


def test_product_meta_reports_budget():
    eps = 1e-3
    net = product_net(3, plan_budget(3, eps, 1.0))
    assert net.meta["value_err"] <= eps
    assert net.meta["deriv_err"] <= eps
    assert net.meta["size_constant"] > 0


def test_product_matches_inorder():
    net = product_net(2, plan_budget(2, 1e-3, 1.0))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.0, 1.0, size=(64, 2))
    ref = inorder_realize(net, pts)
    got = realize_batch(net, pts)
    assert np.array_equal(ref, got)


# ---------------------------------------------------- piecewise polynomials

def test_pwpoly_two_element_quadratic_nodal_exact():
    v = PiecewisePolynomial(
        np.array([0.0, 0.4, 1.0]),
        [np.array([1.0, 1.0, 1.0]), np.array([2.55, -0.75, -0.3])])
    net = pwpoly_net(v, 1e-3)
    got = realize_batch(net, v.nodes[:, None])[:, 0]
    want = v.node_values()
    assert all(a == b for a, b in zip(got, want))


def test_pwpoly_random_nodal_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        v = random_continuous_pwpoly(rng, int(rng.integers(1, 5)),
                                      int(rng.integers(1, 7)))
        net = pwpoly_net(v, 1e-2)
        got = realize_batch(net, v.nodes[:, None])[:, 0]
        assert np.array_equal(got, np.asarray(net.meta["node_values"]))
        assert np.max(np.abs(got - v.node_values())) == 0.0


def test_pwpoly_hat_exact():
    v = PiecewisePolynomial(
        np.array([0.0, 0.25, 1.0]),
        [np.array([0.5, 0.5]), np.array([0.5, -0.5])])
    net = pwpoly_net(v, 1e-6)
    pts = np.array([[0.0], [0.25], [1.0], [0.125], [0.625]])
    got = realize_batch(net, pts)[:, 0]
    assert got[0] == 0.0 and got[2] == 0.0
    assert got[1] == 1.0
    assert abs(got[3] - 0.5) < 1e-12 and abs(got[4] - 0.5) < 1e-12


def test_pwpoly_zeta4_tolerance():
    z4 = np.array(zeta_coeffs(4))
    v = PiecewisePolynomial(np.array([-1.0, 1.0]), [z4])
    net = pwpoly_net(v, 1e-3)
    vmax, dmax = v.sup_bounds()
    allow = 1e-3 * max(1.0, vmax, dmax)
    t = np.linspace(-1.0, 1.0, 4001)
    got = realize_batch(net, t[:, None])[:, 0]
    assert np.max(np.abs(got - v(t))) <= allow
    ends = realize_batch(net, np.array([[-1.0], [1.0]]))[:, 0]
    assert ends[0] == 0.0 and ends[1] == 0.0


def test_pwpoly_sup_and_deriv_budget():
    rng = np.random.default_rng(7)
    v = random_continuous_pwpoly(rng, 3, 4)
    eps = 1e-3
    net = pwpoly_net(v, eps)
    scale = net.meta["scale"]
    assert net.meta["measured_sup"] <= eps * scale
    assert net.meta["measured_dsup"] <= eps * scale


def test_pwpoly_vanishing_ends_zero_outside():
    # all node values zero: pure bubbles, exactly zero at and beyond nodes
    v = PiecewisePolynomial(
        np.array([0.2, 0.6]),
        [np.array([0.7, 0.0, -0.7])])
    net = pwpoly_net(v, 1e-4)
    pts = np.array([[0.2], [0.6], [0.0], [-1.0], [0.61], [2.5]])
    got = realize_batch(net, pts)[:, 0]
    assert np.all(got == 0.0)


def test_pwpoly_rejects_discontinuity():
    v = PiecewisePolynomial(
        np.array([0.0, 0.5, 1.0]),
        [np.array([1.0, 1.0]), np.array([2.1, 1.0])])
    with pytest.raises(ValueError, match="discontinuous"):
        pwpoly_net(v, 1e-3)


def test_pwpoly_validation():
    v = PiecewisePolynomial(np.array([0.0, 1.0]), [np.array([1.0, 1.0])])
    with pytest.raises(ValueError):
        pwpoly_net(v, 0.0)
    with pytest.raises(TypeError):
        pwpoly_net("not a record", 1e-3)


# ------------------------------------------------------------- basis_net

def test_basis_net_certifies_h1():
    ax = geometric_mesh(0.5, 3)
    for bf in build_basis(ax, 4):
        net = basis_net(bf, 0.1)
        assert net.meta["h1_err"] <= 0.1 * bf.h1_seminorm
        got = realize_batch(net, bf.nodes[:, None])[:, 0]
        assert np.max(np.abs(got - bf.node_values())) == 0.0


def test_basis_net_tight_target():
    ax = geometric_mesh(0.5, 2)
    bf = build_basis(ax, 3)[-1]
    net = basis_net(bf, 1e-3)
    assert net.meta["h1_err"] <= 1e-3 * bf.h1_seminorm


def test_basis_net_rejects_wide_support():
    class Wide:
        support = (0, 1, 2)

    with pytest.raises(ValueError, match="support"):
        basis_net(Wide(), 0.1)
    ax = geometric_mesh(0.5, 2)
    bf = build_basis(ax, 2)[0]
    with pytest.raises(ValueError):
        basis_net(bf, 0.0)


# ------------------------------------------------------------ composition

def test_zero_on_zero_survives_levels_choice():
    # exactness must not depend on the sawtooth depth
    for m in (2, 3, 5, 12):
        net = product_net(2, ToleranceBudget(epsilon=0.9, M=1.0, levels=m))
        assert realize(net, np.array([0.0, 0.8]))[0] == 0.0
        assert realize(net, np.array([-0.3, 0.0]))[0] == 0.0


def test_product_depth_scales_with_levels():
    n1 = product_net(2, ToleranceBudget(epsilon=0.5, M=1.0, levels=3))
    n2 = product_net(2, ToleranceBudget(epsilon=0.5, M=1.0, levels=6))
    assert n2.depth == n1.depth + 3
