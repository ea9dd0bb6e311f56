"""Composition rules for sparse ReLU networks.

The operations here are exact on realizations: composition via a doubled
interface (x = relu(x) - relu(-x)), parallelization with shared or distinct
inputs, identity networks, and depth padding.  Size and depth bookkeeping
follows the usual calculus bounds; parallelization is exactly additive,
composition at most doubles the sizes of the two factors.
"""

import numpy as np

from .network import Layer, NeuralNetwork


def _stack(layers, cols, shifts=None):
    """The rows of ``layers``, block after block, in one ``cols``-wide layer,
    layer k's columns moved right by ``shifts[k]`` (by none if omitted).  A
    shift keeps each row's columns ascending, so the blocks stack as CSR
    with nothing sorted."""
    nnz = [len(lay.vals) for lay in layers]
    starts = np.cumsum([0] + nnz)
    indptr = np.concatenate([lay.indptr[:-1] for lay in layers] + [starts[-1:]])
    indptr[:-1] += np.repeat(starts[:-1], [lay.rows for lay in layers])
    col_idx = np.concatenate([lay.col_idx for lay in layers])
    if shifts is not None:
        col_idx = col_idx + np.repeat(shifts, nnz)
    return Layer.from_csr(len(indptr) - 1, cols, indptr, col_idx,
                          np.concatenate([lay.vals for lay in layers]),
                          np.concatenate([lay.bias for lay in layers]))


def _block_diag(layers):
    coff = np.cumsum([0] + [lay.cols for lay in layers])
    return _stack(layers, int(coff[-1]), coff[:-1])


def _eye(n):
    """The n x n identity layer with +0.0 biases."""
    return Layer.from_csr(n, n, np.arange(n + 1), np.arange(n), np.ones(n),
                          np.zeros(n))


def identity_net(dim, depth):
    """Network of the given depth realizing x -> x on R^dim; size <= 2*dim*depth."""
    if dim < 1 or depth < 1:
        raise ValueError("dim and depth must be positive")
    if depth == 1:
        return NeuralNetwork(dim, [_eye(dim)])
    # the split (x; -x) keeps +0.0 biases, where _pm_stack would negate them
    split = Layer.from_csr(2 * dim, dim, np.arange(2 * dim + 1),
                           np.tile(np.arange(dim), 2),
                           np.repeat([1.0, -1.0], dim), np.zeros(2 * dim))
    # the merge reads the doubled interface, as concat's does
    return NeuralNetwork(dim, [split] + [_eye(2 * dim)] * (depth - 2)
                         + [_doubled(_eye(dim))])


def _pm_stack(lay):
    """The layer over its negation: rows (A; -A), bias (b; -b)."""
    n = len(lay.vals)
    return Layer.from_csr(2 * lay.rows, lay.cols,
                          np.concatenate([lay.indptr[:-1], lay.indptr + n]),
                          np.concatenate([lay.col_idx, lay.col_idx]),
                          np.concatenate([lay.vals, -lay.vals]),
                          np.concatenate([lay.bias, -lay.bias]))


def _doubled(lay):
    """Rows [A, -A] on twice the columns: each row's entries, then the
    same entries negated and moved right by A's width."""
    m, cnt = lay.cols, np.diff(lay.indptr)
    # where each entry of A lands: after the entries of the rows above,
    # each of which now holds twice its own
    at = np.arange(len(lay.vals)) + np.repeat(lay.indptr[:-1], cnt)
    neg = at + np.repeat(cnt, cnt)
    col_idx = np.empty(2 * len(at), dtype=lay.col_idx.dtype)
    vals = np.empty(2 * len(at))
    col_idx[at], col_idx[neg] = lay.col_idx, lay.col_idx + m
    vals[at], vals[neg] = lay.vals, -lay.vals
    return Layer.from_csr(lay.rows, 2 * m, 2 * lay.indptr, col_idx, vals, lay.bias)


def concat(outer, inner):
    """Sparse composition: realize(concat(outer, inner)) = outer after inner.

    The interface is doubled: the last layer of `inner` is replaced by its
    (+,-) stacking and the first layer of `outer` reads the difference of the
    two halves.  depth = depth(outer) + depth(inner); size is at most
    2 size(outer) + 2 size(inner).
    """
    if inner.output_dim != outer.input_dim:
        raise ValueError(
            f"cannot compose: inner outputs {inner.output_dim}, outer expects {outer.input_dim}"
        )
    layers = (list(inner.layers[:-1]) + [_pm_stack(inner.layers[-1]), _doubled(outer.layers[0])]
              + list(outer.layers[1:]))
    return NeuralNetwork(inner.input_dim, layers)


def parallel(nets):
    """Parallelize networks of equal depth on a shared input; size adds exactly.

    One net comes back as a new net over its own ``Layer`` objects, which
    are byte for byte what stacking would copy."""
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one network")
    d = nets[0].input_dim
    L = nets[0].depth
    for k, net in enumerate(nets):
        if net.input_dim != d:
            raise ValueError(f"net {k}: input_dim {net.input_dim} != {d}")
        if net.depth != L:
            raise ValueError(f"net {k}: depth {net.depth} != {L} (depth_align first)")
    if len(nets) == 1:
        return NeuralNetwork(d, nets[0].layers)
    # the first layers share the input, so they stack unshifted
    layers = [_stack([net.layers[0] for net in nets], d)]
    for j in range(1, L):
        layers.append(_block_diag([net.layers[j] for net in nets]))
    return NeuralNetwork(d, layers)


def full_parallel(nets):
    """Parallelize networks of equal depth on concatenated (distinct) inputs."""
    nets = list(nets)
    if not nets:
        raise ValueError("need at least one network")
    L = nets[0].depth
    for k, net in enumerate(nets):
        if net.depth != L:
            raise ValueError(f"net {k}: depth {net.depth} != {L} (depth_align first)")
    layers = [_block_diag([net.layers[j] for net in nets]) for j in range(L)]
    return NeuralNetwork(sum(net.input_dim for net in nets), layers)


def depth_align(nets):
    """Pad networks with identities at the output side to their largest depth."""
    nets = list(nets)
    target = max(net.depth for net in nets)
    out = []
    for net in nets:
        if net.depth == target:
            out.append(net)
        else:
            out.append(concat(identity_net(net.output_dim, target - net.depth), net))
    return out
