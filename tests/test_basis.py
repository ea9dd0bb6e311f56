import re

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from hprelu.basis import PiecewisePolynomial, basis_count, build_basis
from hprelu.legendre import zeta_coeffs
from hprelu.mesh import graded_axis


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
    # a NaN node passes a ``diff <= 0`` check
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        PiecewisePolynomial([0.0, np.nan, 1.0], [[1.0], [1.0]])


def _coeffs(b):
    return [tuple(c) for c in b.ref_coeffs]


def _bubbles(ax, bs):
    """(interval, mode, function) per bubble: the bubbles follow the hats,
    and mode m has the m coefficients of zeta_coeffs(m)."""
    return [(b.support[0], len(b.ref_coeffs[0]), b) for b in bs[len(ax.nodes):]]


def test_basis_count_and_order():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 3)
    p = 4
    bs = build_basis(ax, p)
    assert len(bs) == basis_count(ax, p) == (3 + 1) * 4 + 1
    n_nodes = len(ax.nodes)
    for j, b in enumerate(bs[:n_nodes]):
        # hat j: the rising half on interval j-1, the falling half on j
        halves = [(k, z) for k, z in ((j - 1, 1), (j, 2)) if 0 <= k < ax.n_intervals]
        assert b.support == tuple(k for k, _ in halves)
        assert _coeffs(b) == [zeta_coeffs(z) for _, z in halves]
    i = n_nodes
    for k in range(ax.n_intervals):
        for m in range(3, p + 2):
            assert bs[i].support == (k,)
            assert _coeffs(bs[i]) == [zeta_coeffs(m)]
            i += 1


def test_build_basis_checks_degree():
    # as HpInterpolant does: True was p = 1, and 2.7 raised a TypeError
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 1)
    for p in (0, True, 2.0, 2.7, "2"):
        message = re.escape(f"degree must be >= 1, got {p!r}: it must be an integer")
        with pytest.raises(ValueError, match=message):
            build_basis(ax, p)
    assert len(build_basis(ax, np.int64(2))) == basis_count(ax, 2)


def test_hats_partition_of_unity():
    ax = graded_axis(-1.0, 1.0, (-1.0, 0.0, 1.0), 0.5, 2)
    bs = build_basis(ax, 3)
    hats = bs[:len(ax.nodes)]
    x = np.linspace(ax.nodes[0], ax.nodes[-1], 357)
    total = sum(b(x) for b in hats)
    np.testing.assert_allclose(total, 1.0, atol=1e-13)


def test_sup_norm_at_most_one():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 4)
    for b in build_basis(ax, 6):
        vmax, _ = b.sup_bounds()
        assert vmax <= 1.0 + 1e-12


def test_nodal_property():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 2)
    bs = build_basis(ax, 3)
    nodes = ax.nodes
    for j, b in enumerate(bs):
        vals = b(nodes)
        if j < len(nodes):
            expect = np.zeros(len(nodes))
            expect[j] = 1.0
            np.testing.assert_allclose(vals, expect, atol=1e-15)
        else:
            np.testing.assert_allclose(vals, 0.0, atol=1e-15)
        assert b.continuity_gap() < 1e-15


def test_bubble_h1_seminorm_closed_form():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 3)
    for k, m, b in _bubbles(ax, build_basis(ax, 5)):
        h = np.diff(ax.nodes)[k]
        assert b.h1_seminorm == pytest.approx(
            1.0 / np.sqrt(h * (2 * m - 3)), rel=1e-12)


def test_hat_norms_closed_form():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 2)
    bs = build_basis(ax, 2)
    w = np.diff(ax.nodes)
    # interior hat at node 1 spans intervals 0 and 1
    b = bs[1]
    assert b.h1_seminorm == pytest.approx(np.sqrt(1 / w[0] + 1 / w[1]), rel=1e-12)
    assert b.norms()[0] == pytest.approx(np.sqrt((w[0] + w[1]) / 3), rel=1e-12)


def test_bubble_l2_independent_oracle():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 1)
    for k, _, b in _bubbles(ax, build_basis(ax, 4)):
        c = np.array(b.ref_coeffs[0])
        sq = P.polymul(c, c)
        integral = P.polyval(1.0, P.polyint(sq)) - P.polyval(-1.0, P.polyint(sq))
        h = np.diff(ax.nodes)[k]
        assert b.norms()[0] == pytest.approx(np.sqrt(0.5 * h * integral), rel=1e-11)
