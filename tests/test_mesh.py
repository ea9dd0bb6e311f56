import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hprelu.mesh import Axis1D, graded_axis

from helpers import geometric_mesh, multipatch_axis


def test_geometric_nodes():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 3)
    np.testing.assert_allclose(ax.nodes, [0, 0.125, 0.25, 0.5, 1.0], atol=0)
    assert list(ax.singular) == [True, False, False, False]

    ax = graded_axis(0.0, 1.0, (0.0,), 0.25, 2)
    np.testing.assert_allclose(ax.nodes, [0, 0.0625, 0.25, 1.0], atol=0)

    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 0)
    np.testing.assert_allclose(ax.nodes, [0, 1.0], atol=0)
    assert list(ax.singular) == [True]


# a bad ratio, then bad (lo, hi, centers): an end not below the other, a
# non-finite end, no centers, a center outside [lo, hi]
@pytest.mark.parametrize("sigma", [
    0.0, -0.1, 0.51, 1.0, np.nan,
    pytest.param((1.0, 1.0, (1.0,)), id="lo=hi"),
    pytest.param((1.0, 0.0, (0.0,)), id="lo>hi"),
    pytest.param((0.0, np.inf, (0.0,)), id="inf-end"),
    pytest.param((np.nan, 1.0, (1.0,)), id="nan-end"),
    pytest.param((0.0, 1.0, ()), id="no-centers"),
    pytest.param((0.0, 1.0, (1.5,)), id="center-outside"),
    pytest.param((0.0, 1.0, (np.nan,)), id="nan-center")])
def test_sigma_rejected(sigma):
    lo, hi, centers = (0.0, 1.0, (0.0,)) if np.isscalar(sigma) else sigma
    with pytest.raises(ValueError):
        graded_axis(lo, hi, centers, sigma if np.isscalar(sigma) else 0.5, 2)


def test_ell_rejected():
    for ell in (-1, 2.7, 2.0, True, "2"):
        with pytest.raises(ValueError, match="integer >= 0"):
            graded_axis(0.0, 1.0, (0.0,), 0.5, ell)
        with pytest.raises(ValueError, match="integer >= 0"):
            Axis1D([0.0, 1.0], (0.0,), ell)
    # the rest of an axis: its centers must be among its nodes, and its
    # nodes finite and strictly increasing (a NaN node passes a
    # ``diff <= 0`` check and used to reach hp_interpolate, which returned
    # non-finite coefficients with no error)
    for centers in ((0.5,), (np.nan,), [[0.0]]):
        with pytest.raises(ValueError, match="every center must be a node"):
            Axis1D([0.0, 0.25, 1.0], centers, 1)
    for nodes in ([0.0, 0.5, np.nan, 1.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                  [0.0, 0.0, 1.0], [1.0, 0.0]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Axis1D(nodes, (), 1)


def test_find_and_maps():
    ax = graded_axis(0.0, 1.0, (0.0,), 0.5, 2)
    # interior nodes belong to the right interval, the last node to the last
    assert ax.find(0.25) == 1
    assert ax.find(1.0) == 2
    assert ax.find(0.1) == 0
    np.testing.assert_array_equal(ax.find([-0.5, 0.0, 0.375, 2.0]), [0, 0, 1, 2])


def test_multipatch_axis():
    ax = graded_axis(-1.0, 1.0, (-1.0, 0.0, 1.0), 0.5, 1)
    np.testing.assert_allclose(
        ax.nodes, [-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1], atol=0)
    sing = np.flatnonzero(ax.singular)
    np.testing.assert_array_equal(sing, [0, 3, 4, 7])
    # singular intervals are exactly those touching -a, 0, a
    for k in sing:
        assert ax.nodes[k] in (-1.0, 0.0) or ax.nodes[k + 1] in (0.0, 1.0)
    # the center is reached from the left as -0.0, the old patch layout's node
    assert np.signbit(ax.nodes[4])
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="ends must be finite with lo < hi"):
            graded_axis(-bad, bad, (-bad, 0.0, bad), 0.5, 1)


def test_multipatch_width_ratio():
    ax = graded_axis(-2.0, 2.0, (-2.0, 0.0, 2.0), 0.4, 3)
    assert len(ax.nodes) == 4 * 4 + 1
    # geometric width progression inside each patch
    w = np.diff(ax.nodes)
    np.testing.assert_allclose(w[1] / w[2], 0.4, rtol=1e-12)


_SIGMA = st.floats(0.0, 0.5, exclude_min=True)
_ELL = st.integers(0, 10)


@settings(max_examples=200, deadline=None)
@given(_SIGMA, _ELL, st.floats(1e-6, 1e6))
def test_graded_axis_matches_hand_written_grading(sigma, ell, halfwidth):
    """Bit for bit, nodes and flags, the two constructors graded_axis replaced:
    (0, 1) toward 0, and (-a, a) toward -a, 0 and a with its -0.0 center.
    A ratio so small that sigma^ell rounds a node onto its neighbour made
    both of them raise, as it makes graded_axis raise."""
    for (nodes, singular), args in (
            (geometric_mesh(sigma, ell), (0.0, 1.0, (0.0,))),
            (multipatch_axis(sigma, ell, halfwidth),
             (-halfwidth, halfwidth, (-halfwidth, 0.0, halfwidth)))):
        if not np.all(np.diff(nodes) > 0):
            with pytest.raises(ValueError, match="strictly increasing"):
                graded_axis(*args, sigma, ell)
            continue
        ax = graded_axis(*args, sigma, ell)
        assert ax.nodes.tobytes() == nodes.tobytes()
        np.testing.assert_array_equal(ax.singular, singular)

