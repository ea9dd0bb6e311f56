import numpy as np
import pytest

from hprelu.mesh import geometric_mesh, multipatch_axis


def test_geometric_nodes():
    ax = geometric_mesh(0.5, 3)
    np.testing.assert_allclose(ax.nodes, [0, 0.125, 0.25, 0.5, 1.0], atol=0)
    assert list(ax.singular) == [True, False, False, False]

    ax = geometric_mesh(0.25, 2)
    np.testing.assert_allclose(ax.nodes, [0, 0.0625, 0.25, 1.0], atol=0)

    ax = geometric_mesh(0.5, 0)
    np.testing.assert_allclose(ax.nodes, [0, 1.0], atol=0)
    assert list(ax.singular) == [True]


@pytest.mark.parametrize("sigma", [0.0, -0.1, 0.51, 1.0])
def test_sigma_rejected(sigma):
    with pytest.raises(ValueError):
        geometric_mesh(sigma, 2)


def test_ell_rejected():
    with pytest.raises(ValueError):
        geometric_mesh(0.5, -1)


def test_find_and_maps():
    ax = geometric_mesh(0.5, 2)
    # interior nodes belong to the right interval, the last node to the last
    assert ax.find(0.25) == 1
    assert ax.find(1.0) == 2
    assert ax.find(0.1) == 0
    np.testing.assert_array_equal(ax.find([-0.5, 0.0, 0.375, 2.0]), [0, 0, 1, 2])


def test_multipatch_axis():
    ax = multipatch_axis(0.5, 1, halfwidth=1.0)
    np.testing.assert_allclose(
        ax.nodes, [-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 1], atol=0)
    sing = np.flatnonzero(ax.singular)
    np.testing.assert_array_equal(sing, [0, 3, 4, 7])
    # singular intervals are exactly those touching -a, 0, a
    for k in sing:
        assert ax.nodes[k] in (-1.0, 0.0) or ax.nodes[k + 1] in (0.0, 1.0)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"finite number > 0, got {bad}"):
            multipatch_axis(0.5, 1, halfwidth=bad)


def test_multipatch_width_ratio():
    ax = multipatch_axis(0.4, 3, halfwidth=2.0)
    assert len(ax.nodes) == 4 * 4 + 1
    # geometric width progression inside each patch
    w = np.diff(ax.nodes)
    np.testing.assert_allclose(w[1] / w[2], 0.4, rtol=1e-12)


