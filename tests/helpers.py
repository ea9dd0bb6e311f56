"""Shared test utilities: random network generation and brute-force oracles.

Everything here is deliberately independent of the library's fast paths:
finite differences for jacobians, dense matmul loops for realizations,
trapezoid refinement for integrals.
"""

import itertools

import numpy as np

from hprelu import backends, network
from hprelu.assembly import _tiled_tuple_stage
from hprelu.basis import PiecewisePolynomial
from hprelu.calculus import concat
from hprelu.catalog import WeightedFunction
from hprelu.emulation import _chain_out, _square_chains
from hprelu.mesh import Axis1D, TensorMesh
from hprelu.network import Layer, NeuralNetwork, grad_realize_batch, realize_batch
from hprelu.projector import hp_interpolate


def random_net(rng, input_dim=None, depth=None, width_hi=6, density=0.7):
    """Random sparse network with bounded dims, for property tests."""
    if input_dim is None:
        input_dim = int(rng.integers(1, 5))
    if depth is None:
        depth = int(rng.integers(1, 5))
    widths = [input_dim] + [int(rng.integers(1, width_hi + 1)) for _ in range(depth)]
    layers = []
    for k in range(depth):
        rows, cols = widths[k + 1], widths[k]
        mask = rng.random((rows, cols)) < density
        if not mask.any():
            mask[rng.integers(rows), rng.integers(cols)] = True
        a = np.where(mask, rng.standard_normal((rows, cols)), 0.0)
        b = np.where(rng.random(rows) < 0.8, rng.standard_normal(rows), 0.0)
        layers.append(Layer.from_dense(a, b))
    return NeuralNetwork(input_dim, layers)


def random_continuous_pwpoly(rng, n_pieces, degree):
    """Continuous piecewise polynomial with exact node agreement."""
    nodes = np.sort(rng.uniform(-1.0, 1.0, n_pieces + 1))
    while np.min(np.diff(nodes)) < 0.05:
        nodes = np.sort(rng.uniform(-1.0, 1.0, n_pieces + 1))
    pieces = []
    left = rng.uniform(-2.0, 2.0)
    for _ in range(n_pieces):
        c = rng.uniform(-1.0, 1.0, degree + 1)
        # shift so the left endpoint matches the running trace
        at_left = np.polynomial.polynomial.polyval(-1.0, c)
        c[0] += left - at_left
        left = np.polynomial.polynomial.polyval(1.0, c)
        pieces.append(c)
    return PiecewisePolynomial(nodes, pieces)


def dense_realize(net, x):
    """Reference realization: dense matrices, explicit loop."""
    y = np.asarray(x, dtype=np.float64)
    for k, lay in enumerate(net.layers):
        y = lay.dense() @ y + lay.bias
        if k < net.depth - 1:
            y = np.maximum(y, 0.0)
    return y


def inorder_realize(net, x, jac=False, seed=None):
    """Reference realization summed in stored order, one entry at a time.

    Each row starts from its bias and adds vals[j] * y[col_idx[j]] for its
    stored entries in order; ReLU follows every layer but the last.  Does
    not use the kernel, so it is an oracle for its bitwise order.
    x is (npts, input_dim); returns (npts, output_dim).

    With ``jac=True`` it also carries the forward-mode jacobian the same
    way, and returns (values, jacobian (npts, output_dim, nd)): each
    jacobian row starts from +0.0 with no bias, and after every layer but
    the last it is multiplied by the ReLU mask ``z > 0``.  The input
    jacobian is ``seed`` (input_dim, npts, nd), by default the identity
    with nd = input_dim, as in ``backends.run_forward_grad``.
    """
    y = np.asarray(x, dtype=np.float64).T
    d, n = y.shape
    if seed is None:
        dy = np.zeros((d, n, d))
        dy[np.arange(d), :, np.arange(d)] = 1.0
    else:
        dy = np.asarray(seed, dtype=np.float64)
    for k, lay in enumerate(net.layers):
        z = np.empty((lay.rows, n))
        z[:] = lay.bias[:, None]
        dz = np.zeros((lay.rows, n, dy.shape[2]))
        for i, j, v in zip(lay.row_idx, lay.col_idx, lay.vals):
            z[i] += v * y[j]
            if jac:
                dz[i] += v * dy[j]
        if k < net.depth - 1:
            dz *= (z > 0.0)[:, :, None]
            z = np.maximum(z, 0.0)
        y, dy = z, dz
    if jac:
        return y.T, np.moveaxis(dy, 1, 0)
    return y.T


def per_cell_field(net, axes, row=0):
    """Values and gradients of output row ``row`` of a compiled network on a
    tensor grid, each mesh cell through a network of its own.

    Per cell: the selector-fed product nets of the live tuples, tiled, under
    that cell's coefficient row, composed by ``concat``.  It runs on the raw
    basis-net outputs, seeded with their derivatives, in the point chunks
    ``network._grad_chunk`` gives for its widest layer.
    """
    parts = net.meta["compiled_parts"]
    interp, pi = parts["interp"], parts["pi"]
    vrow = parts["vmat"][row]
    d, N = interp.dim, interp.N1d
    live = [[i for i, bf in enumerate(interp.basis) if k in bf.support]
            for k in range(interp.mesh.axes[0].n_intervals)]
    zv, zd = [], []
    for a in axes:
        pairs = [grad_realize_batch(b, np.asarray(a, dtype=float)[:, None])
                 for b in parts["nets"]]
        zv.append(np.stack([v[:, 0] for v, _ in pairs]))
        zd.append(np.stack([j[:, 0, 0] for _, j in pairs]))
    cells = [interp.mesh.axes[0].find(np.asarray(a)) for a in axes]
    shape = tuple(len(a) for a in axes)
    out = np.empty(shape)
    grad = np.empty(shape + (d,))
    for kcell in itertools.product(*[np.unique(c) for c in cells]):
        lv = [live[k] for k in kcell]
        las = [len(v) for v in lv]
        offs = np.concatenate(([0], np.cumsum(las)))
        t = int(np.prod(las))
        loc = np.stack(np.unravel_index(np.arange(t), las, order="F"), axis=1)
        gidx = sum(np.asarray(lv[a])[loc[:, a]] * N ** a for a in range(d))
        rv = vrow[gidx]
        nz = np.nonzero(rv)[0]
        head = NeuralNetwork(t, [Layer(1, t, np.zeros(len(nz)), nz, rv[nz],
                                       np.zeros(1))])
        sub = concat(head, _tiled_tuple_stage(pi, loc + offs[:-1], offs[-1]))
        pts = [np.nonzero(c == k)[0] for c, k in zip(cells, kcell)]
        idx = [g.ravel() for g in np.meshgrid(*pts, indexing="ij")]
        zin = np.hstack([zv[a][lv[a]][:, idx[a]].T for a in range(d)])
        seed = np.zeros(zin.shape + (d,))
        for a in range(d):
            seed[:, offs[a]:offs[a + 1], a] = zd[a][lv[a]][:, idx[a]].T
        n = len(zin)
        chunk = network._grad_chunk(n, max(lay.rows for lay in sub.layers), d)
        for lo in range(0, n, chunk):
            sl = slice(lo, min(n, lo + chunk))
            y, j = backends.run_forward_grad(
                sub.packed(), zin[sl].T,
                seed=np.ascontiguousarray(np.moveaxis(seed[sl], 0, 1)))
            at = tuple(i[sl] for i in idx)
            out[at] = y[0]
            grad[at] = j[0]
    return out, grad


def one_element(f, df, p):
    """Degree-p interpolant of f (derivative df) on the single element
    (-1, 1): ``hp_interpolate`` on a one-interval, non-singular 1D mesh.
    Its coefficients are the trace at -1, the trace at +1, then the moments
    (2n+1)(f', L_n) for n = 1..p-1."""
    u = WeightedFunction(1, f, lambda alpha, t: df(t), "element")
    return hp_interpolate(u, TensorMesh([Axis1D([-1.0, 1.0], [False], 0.5, 0)]), p)


def square_net(levels):
    """Sawtooth square on [0,1], the PWL interpolant of t^2 at k 2^-levels:
    the paper's square primitive as one chain of the library's emitter."""
    layers = []
    lb, base = _square_chains(layers, 1, [], [([0], [1.0], 0.0)], levels)
    lb.row(*_chain_out(base, 1, levels, 1.0))
    layers.append(lb.done())
    return NeuralNetwork(1, layers)


def assert_linf_envelope(net, interp, plan, npts):
    """Every output row of a compiled net stays inside the structural
    L-infinity envelope (2^d + 1) * ||c||_1 (5% slack) on an npts^d grid
    of the interpolant's domain."""
    d = interp.dim
    lo = interp.mesh.axes[0].lo + 1e-9
    hi = interp.mesh.axes[0].hi - 1e-9
    axis = np.linspace(lo, hi, npts)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    vals = realize_batch(net, pts)
    bound = (2.0 ** d + 1.0) * max(plan.c_l1, 1e-30) * 1.05
    peak = float(np.max(np.abs(vals)))
    assert peak <= bound, (peak, bound)


def fd_jacobian(f, x, h=1e-6):
    """Central finite-difference jacobian of f at x."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


def trapz_refine(f, a, b, tol=1e-10, max_doublings=22):
    """1D integral by trapezoid refinement with Richardson stop."""
    n = 64
    x = np.linspace(a, b, n + 1)
    val = np.trapezoid(f(x), x)
    for _ in range(max_doublings):
        n *= 2
        x = np.linspace(a, b, n + 1)
        new = np.trapezoid(f(x), x)
        if abs(new - val) <= tol * max(1.0, abs(new)):
            return new
        val = new
    return val


def legendre(n, t):
    """L_n(t) by the three-term recurrence, vectorized; L_n(1) = 1: the
    oracle for ``legendre.legendre_table``."""
    t = np.asarray(t, dtype=np.float64)
    if n == 0:
        return np.ones_like(t)
    if n == 1:
        return t.copy()
    pm, pc = np.ones_like(t), t.copy()
    for k in range(1, n):
        pm, pc = pc, ((2 * k + 1) * t * pc - k * pm) / (k + 1)
    return pc


def legendre_antideriv(n, t):
    """int_{-1}^t L_n; equals (L_{n+1} - L_{n-1})/(2n+1) for n >= 1."""
    t = np.asarray(t, dtype=np.float64)
    if n == 0:
        return t + 1.0
    return (legendre(n + 1, t) - legendre(n - 1, t)) / (2 * n + 1)


def zeta_value(i, t):
    """Reference shape function i at t, from its definition: the oracle for
    ``legendre.zeta_coeffs``."""
    t = np.asarray(t, dtype=np.float64)
    if i == 1:
        return 0.5 * (1.0 + t)
    if i == 2:
        return 0.5 * (1.0 - t)
    return 0.5 * legendre_antideriv(i - 2, t)
