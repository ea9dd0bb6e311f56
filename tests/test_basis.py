import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from hprelu.basis import PiecewisePolynomial, basis_count, build_basis
from hprelu.legendre import zeta_coeffs
from hprelu.mesh import geometric_mesh, multipatch_axis


def test_piecewise_eval():
    # x on (0,1), x^2-ish bump on (1,2), zero outside
    pw = PiecewisePolynomial([0.0, 1.0, 2.0],
                             [np.array(zeta_coeffs(1)), [1.0, 0.0, -1.0]])
    x = np.array([-0.5, 0.25, 1.5, 2.5])
    v = pw(x)
    assert v[0] == 0.0 and v[3] == 0.0
    assert v[1] == pytest.approx(0.25)
    assert v[2] == pytest.approx(1.0)  # t=0 -> 1
    d = pw.deriv(np.array([0.25]))
    assert d[0] == pytest.approx(1.0)  # hat slope 2/h * 1/2


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 0.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 1.0], [[1.0], [1.0]])


def test_basis_count_and_order():
    ax = geometric_mesh(0.5, 3)
    p = 4
    bs = build_basis(ax, p)
    assert len(bs) == basis_count(ax, p) == (3 + 1) * 4 + 1
    n_nodes = len(ax.nodes)
    for j, b in enumerate(bs[:n_nodes]):
        assert b.kind == "hat" and b.node == j
    i = n_nodes
    for k in range(ax.n_intervals):
        for m in range(3, p + 2):
            assert bs[i].kind == "bubble"
            assert bs[i].interval == k and bs[i].mode == m
            i += 1


def test_hats_partition_of_unity():
    ax = multipatch_axis(0.5, 2)
    bs = build_basis(ax, 3)
    hats = [b for b in bs if b.kind == "hat"]
    x = np.linspace(ax.lo, ax.hi, 357)
    total = sum(b(x) for b in hats)
    np.testing.assert_allclose(total, 1.0, atol=1e-13)


def test_sup_norm_at_most_one():
    ax = geometric_mesh(0.5, 4)
    for b in build_basis(ax, 6):
        vmax, _ = b.sup_bounds()
        assert vmax <= 1.0 + 1e-12


def test_nodal_property():
    ax = geometric_mesh(0.5, 2)
    bs = build_basis(ax, 3)
    nodes = ax.nodes
    for b in bs:
        vals = b(nodes)
        if b.kind == "hat":
            expect = np.zeros(len(nodes))
            expect[b.node] = 1.0
            np.testing.assert_allclose(vals, expect, atol=1e-15)
        else:
            np.testing.assert_allclose(vals, 0.0, atol=1e-15)
        assert b.continuity_gap() < 1e-15


def test_bubble_h1_seminorm_closed_form():
    ax = geometric_mesh(0.5, 3)
    for b in build_basis(ax, 5):
        if b.kind != "bubble":
            continue
        h = np.diff(ax.nodes)[b.interval]
        assert b.h1_seminorm == pytest.approx(
            1.0 / np.sqrt(h * (2 * b.mode - 3)), rel=1e-12)


def test_hat_norms_closed_form():
    ax = geometric_mesh(0.5, 2)
    bs = build_basis(ax, 2)
    w = np.diff(ax.nodes)
    # interior hat at node 1 spans intervals 0 and 1
    b = bs[1]
    assert b.h1_seminorm == pytest.approx(np.sqrt(1 / w[0] + 1 / w[1]), rel=1e-12)
    assert b.l2_norm == pytest.approx(np.sqrt((w[0] + w[1]) / 3), rel=1e-12)


def test_bubble_l2_independent_oracle():
    ax = geometric_mesh(0.5, 1)
    bs = build_basis(ax, 4)
    for b in bs:
        if b.kind != "bubble":
            continue
        c = np.array(b.ref_coeffs[0])
        sq = P.polymul(c, c)
        integral = P.polyval(1.0, P.polyint(sq)) - P.polyval(-1.0, P.polyint(sq))
        h = np.diff(ax.nodes)[b.interval]
        assert b.l2_norm == pytest.approx(np.sqrt(0.5 * h * integral), rel=1e-11)
