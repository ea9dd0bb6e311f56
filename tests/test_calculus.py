"""Composition rules: exact realizations, size/depth accounting."""

import numpy as np
import pytest

from hprelu.calculus import concat, depth_align, full_parallel, identity_net, parallel
from hprelu.network import realize, realize_batch, serialize

from helpers import dense_realize, random_net, stacked_parallel


def test_identity_net_exact_and_sizes():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 5):
        for depth in (1, 2, 3, 6):
            net = identity_net(dim, depth)
            assert net.depth == depth
            assert net.size <= 2 * dim * depth
            pts = rng.standard_normal((17, dim))
            assert np.array_equal(realize_batch(net, pts), pts)


def test_identity_net_1_2_size_four():
    assert identity_net(1, 2).size == 4


def test_concat_realization_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        inner = random_net(rng)
        outer = random_net(rng, input_dim=inner.output_dim)
        net = concat(outer, inner)
        assert net.depth == outer.depth + inner.depth
        assert net.size <= 2 * outer.size + 2 * inner.size
        pts = rng.standard_normal((9, inner.input_dim))
        want = np.stack([dense_realize(outer, dense_realize(inner, p)) for p in pts])
        got = realize_batch(net, pts)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_parallel_shared_input():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        nets = [random_net(rng, input_dim=d, depth=depth) for _ in range(int(rng.integers(2, 4)))]
        par = parallel(nets)
        assert par.size == sum(n.size for n in nets)
        assert par.depth == depth
        pts = rng.standard_normal((7, d))
        want = np.concatenate([realize_batch(n, pts) for n in nets], axis=1)
        assert np.allclose(realize_batch(par, pts), want, atol=1e-13)


def test_full_parallel_distinct_inputs():
    rng = np.random.default_rng(13)
    for _ in range(100):
        depth = int(rng.integers(1, 4))
        nets = [random_net(rng, depth=depth) for _ in range(int(rng.integers(2, 4)))]
        fp = full_parallel(nets)
        assert fp.size == sum(n.size for n in nets)
        assert fp.input_dim == sum(n.input_dim for n in nets)
        pts = rng.standard_normal((7, fp.input_dim))
        offs = np.cumsum([0] + [n.input_dim for n in nets])
        want = np.concatenate(
            [realize_batch(n, pts[:, offs[k]:offs[k + 1]]) for k, n in enumerate(nets)], axis=1
        )
        assert np.allclose(realize_batch(fp, pts), want, atol=1e-13)


def test_depth_align_preserves_realization():
    rng = np.random.default_rng(17)
    for _ in range(50):
        nets = [random_net(rng) for _ in range(3)]
        aligned = depth_align(nets)
        target = max(n.depth for n in nets)
        for before, after in zip(nets, aligned):
            assert after.depth == target
            extra = target - before.depth
            assert after.size <= 2 * before.size + 2 * (2 * before.output_dim * extra)
            pts = rng.standard_normal((6, before.input_dim))
            assert np.allclose(
                realize_batch(after, pts), realize_batch(before, pts), atol=1e-13
            )


def test_parallel_of_one_net_is_the_net():
    rng = np.random.default_rng(17)
    for _ in range(50):
        net = random_net(rng)
        par, fold = parallel([net]), stacked_parallel([net])
        assert par.layers == net.layers
        assert serialize(par) == serialize(fold)
        for a, b in zip(par.layers, fold.layers):
            for key in ("indptr", "col_idx", "vals", "bias"):
                x, y = getattr(a, key), getattr(b, key)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_parallel_rejects_mismatched():
    rng = np.random.default_rng(21)
    a = random_net(rng, input_dim=2, depth=2)
    b = random_net(rng, input_dim=3, depth=2)
    with pytest.raises(ValueError):
        parallel([a, b])
    c = random_net(rng, input_dim=2, depth=3)
    with pytest.raises(ValueError):
        parallel([a, c])


def test_concat_dimension_mismatch():
    rng = np.random.default_rng(25)
    inner = random_net(rng)
    outer = random_net(rng, input_dim=inner.output_dim + 1)
    with pytest.raises(ValueError):
        concat(outer, inner)


def test_composition_chain_identity():
    # identity o net o identity stays exact
    rng = np.random.default_rng(29)
    net = random_net(rng)
    wrapped = concat(identity_net(net.output_dim, 2), concat(net, identity_net(net.input_dim, 2)))
    pts = rng.standard_normal((10, net.input_dim))
    assert np.allclose(realize_batch(wrapped, pts), realize_batch(net, pts), atol=1e-13)
