"""Product, polynomial, and piecewise-polynomial network builders."""

import math

import numpy as np
import pytest

from hprelu import assembly, backends, calculus, emulation, network
from hprelu.assembly import build_phi_eps_c
from hprelu.basis import PiecewisePolynomial, build_basis
from hprelu.catalog import corner_singular, edge_singular
from hprelu.emulation import (
    ToleranceBudget,
    _binary_core,
    _bubble_branch,
    plan_budget,
    product_net,
)
from hprelu.legendre import zeta_coeffs
from hprelu.mesh import graded_axis
from hprelu.network import NeuralNetwork, grad_realize_batch, realize, realize_batch, serialize
from hprelu.projector import hp_interpolate

from helpers import (
    basis_net,
    inorder_realize,
    per_net_measure,
    pwpoly_net,
    random_continuous_pwpoly,
    square_net,
    unshared_basis_net,
    unshared_bubble_branch,
)

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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"M must be a finite number >= 1, got {bad}"):
            ToleranceBudget(epsilon=0.1, M=bad)
        with pytest.raises(ValueError, match=f"got {bad}"):
            plan_budget(2, 0.1, bad)


def test_plan_budget_fills_levels():
    levels = product_net(2, plan_budget(2, 1e-2, 1.0)).meta["levels"]
    assert levels >= 1
    # deeper for tighter targets
    assert product_net(2, plan_budget(2, 1e-6, 1.0)).meta["levels"] > levels


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
    for d in (1, 0, -1):
        with pytest.raises(ValueError, match=f"d >= 2 inputs, got {d}"):
            plan_budget(d, 1e-2, 1.0)


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
    scale = max(1, *v.sup_bounds())
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
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 3)
    for bf in build_basis(ax, 4):
        net = basis_net(bf, 0.1)
        assert net.meta["h1_err"] <= 0.1 * bf.h1_seminorm
        got = realize_batch(net, bf.nodes[:, None])[:, 0]
        assert np.max(np.abs(got - bf.node_values())) == 0.0


def test_basis_net_tight_target():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 2)
    bf = build_basis(ax, 3)[-1]
    net = basis_net(bf, 1e-3)
    assert net.meta["h1_err"] <= 1e-3 * bf.h1_seminorm


def test_basis_net_rejects_wide_support():
    class Wide:
        support = (0, 1, 2)

    with pytest.raises(ValueError, match="support"):
        basis_net(Wide(), 0.1)
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 2)
    bf = build_basis(ax, 2)[0]
    with pytest.raises(ValueError):
        basis_net(bf, 0.0)


# ---------------------------------------------------------- bubble tails

def _tail_keys(monkeypatch):
    """The key of every bubble tail built, in build order."""
    built, tail = [], emulation._bubble_tail

    def record(s, m, mo, boxes):
        built.append((s.tobytes(), m, mo, tuple(boxes)))
        return tail(s, m, mo, boxes)

    monkeypatch.setattr(emulation, "_bubble_tail", record)
    return built


# a 2d interpolant whose degree-4 bubbles need a Horner stage, and the 3d
# corner+edge interpolant of criterion 6 (ell = 2, p = 2)
_TAIL_CASES = {
    "2d-p4": lambda: hp_interpolate(corner_singular(2, 0.5),
                                    graded_axis(0.0, 1.0, (0.0,), 0.17, 2), 4),
    "3d": lambda: hp_interpolate(corner_singular(3, 0.8) + edge_singular(0.6),
                                 graded_axis(0.0, 1.0, (0.0,), 0.25, 2), 2),
}


@pytest.mark.parametrize("case", list(_TAIL_CASES))
def test_build_shares_each_bubble_tail(monkeypatch, case):
    interp = _TAIL_CASES[case]()
    built = _tail_keys(monkeypatch)
    net = build_phi_eps_c(interp, 5e-2)
    nets = net.meta["compiled_parts"]["basis"].nets
    # built once per distinct key
    assert built and len(set(built)) == len(built)
    if case == "2d-p4":
        assert any(boxes for _, _, _, boxes in built)
    # a bubble net is concat(sum row, branch): its tail layers but the last
    # (whose (+,-) stacking concat builds anew) follow the interval layers
    tails = {}
    for bf, bnet in zip(interp.basis, nets):
        if not np.any(bf.node_values()):
            tails.setdefault(id(bnet.layers[2]), []).append(bnet.layers[2:-2])
    assert len(tails) == len(built)
    assert sum(map(len, tails.values())) > len(tails)
    for group in tails.values():
        assert all(a is b for layers in group for a, b in zip(group[0], layers))
    # each net as if built alone, every branch whole and every parallel
    # stacked
    eps1 = net.meta["plan"].epsilon1
    for bf, bnet in zip(interp.basis, nets):
        assert serialize(bnet) == serialize(unshared_basis_net(monkeypatch, bf, eps1))
    # no tail outlives its build
    first = list(built)
    built.clear()
    again = build_phi_eps_c(interp, 5e-2)
    assert built == first
    assert serialize(again) == serialize(net)


def test_standalone_basis_nets_build_their_own_tails(monkeypatch):
    built = _tail_keys(monkeypatch)
    bf = [bf for bf in build_basis(graded_axis(0.0, 1.0, (0.0,), 0.5, 2), 3)
          if not np.any(bf.node_values())][0]
    basis_net(bf, 0.1)
    basis_net(bf, 0.1)
    assert len(built) == 2 and built[0] == built[1]


@pytest.mark.parametrize("s", [(-0.0, -0.25), (-0.0, 0.0625, -0.3125)])
def test_tail_keys_hold_the_bits(s):
    # -0.0 == 0.0, but each sign gets its own tail; a repeat shares one
    flip = (0.0,) + s[1:]
    tails = {}
    nets = [_bubble_branch(0.2, 0.6, np.array(c), 1e-3, 1e-3, tails)
            for c in (s, flip, s)]
    assert len(tails) == 2
    assert nets[2].layers[2] is nets[0].layers[2]
    assert nets[1].layers[2] is not nets[0].layers[2]
    for c, bnet in zip((s, flip, s), nets):
        assert serialize(bnet) == serialize(
            unshared_bubble_branch(0.2, 0.6, np.array(c), 1e-3, 1e-3))
    if len(s) > 2:
        # s[0] is the last Horner stage's bias, inside the tail, so a key
        # of floats would hand one sign the other's tail
        tail = [serialize(NeuralNetwork(6, bnet.layers[2:])) for bnet in nets[:2]]
        assert tail[0] != tail[1]


# ------------------------------------------------- grouped basis-net pass

# (interpolant, compile epsilon): eval-2d's interpolant (the benchmark's
# eps = 1e-1 corner build at its calibrated ell = 3, p = 3), criterion 6's
# 3d one at its compile budget, and the 2d p = 4 one with Horner stages
_GROUP_CASES = {
    "eval-2d": lambda: (hp_interpolate(corner_singular(2, 0.5),
                                       graded_axis(0.0, 1.0, (0.0,), 0.17, 3), 3), 5e-2),
    "3d-criterion-6": lambda: (_TAIL_CASES["3d"](), 1e-1),
    "2d-p4": lambda: (_TAIL_CASES["2d-p4"](), 5e-2),
}


@pytest.mark.parametrize("case", list(_GROUP_CASES))
def test_grouped_pass_matches_each_net(case):
    interp, eps = _GROUP_CASES[case]()
    net = build_phi_eps_c(interp, eps)
    basis = net.meta["compiled_parts"]["basis"]
    bubbles = [bnet for bf, bnet in zip(interp.basis, basis.nets)
               if not np.any(bf.node_values())]
    # some tail runs for more than one net
    assert len({id(bnet.layers[2]) for bnet in bubbles}) < len(bubbles)
    # the measurement records each net's own whole pass, piece by piece
    for bf, bnet in zip(interp.basis, basis.nets):
        got = [bnet.meta[k] for k in ("measured_sup", "measured_dsup", "h1_err")]
        assert list(map(float.hex, got)) == list(map(float.hex, per_net_measure(bnet, bf)))
    # points in and out of each support, of a different count per net
    rng = np.random.default_rng(3)
    lo, hi = interp.axis.nodes[0], interp.axis.nodes[-1]
    xs = [np.concatenate((rng.uniform(bf.nodes[0], bf.nodes[-1], 30 + 7 * i),
                          rng.uniform(lo, hi, 10)))
          for i, bf in enumerate(interp.basis)]
    for bnet, x, (v, j) in zip(basis.nets, xs, basis.run(xs)):
        wv, wj = grad_realize_batch(bnet, x[:, None])
        assert v.tobytes() == wv[:, 0].tobytes()
        assert j.tobytes() == wj[:, 0, 0].tobytes()


def _size(v):
    """The entry count of a container or of a memoizing function's cache."""
    if isinstance(v, (dict, list, set)):
        return len(v)
    return v.cache_info().currsize if hasattr(v, "cache_info") else None


def _module_state():
    """(name, id, size) of every module-level value of the modules a build
    runs through, and of every class attribute defined there."""
    out = []
    for mod in (emulation, assembly, backends, calculus, network):
        for name, val in vars(mod).items():
            items = [(name, val)]
            if isinstance(val, type) and val.__module__ == mod.__name__:
                items += [(f"{name}.{k}", v) for k, v in vars(val).items()]
            out += [(f"{mod.__name__}.{k}", id(v), _size(v)) for k, v in items]
    return out


def test_builds_leave_no_state():
    interp, eps = _GROUP_CASES["2d-p4"]()
    build_phi_eps_c(interp, eps)
    before = _module_state()
    for _ in range(2):
        build_phi_eps_c(interp, eps)
    assert _module_state() == before


# ------------------------------------------------------------ composition

def test_zero_on_zero_survives_levels_choice():
    # exactness must not depend on the sawtooth depth
    for m in (2, 3, 5, 12):
        net = _binary_core(m, 1.0)
        assert realize(net, np.array([0.0, 0.8]))[0] == 0.0
        assert realize(net, np.array([-0.3, 0.0]))[0] == 0.0


def test_product_depth_scales_with_levels():
    n1 = _binary_core(3, 1.0)
    n2 = _binary_core(6, 1.0)
    assert n2.depth == n1.depth + 3
