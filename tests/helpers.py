"""Shared test utilities: random network generation and brute-force oracles.

Everything here is deliberately independent of the library's fast paths:
finite differences for jacobians, dense matmul loops for realizations,
trapezoid refinement for integrals.
"""

import itertools
import json
import struct

import numpy as np

from hprelu import backends, network
from hprelu.assembly import _tiled_tuple_stage
from hprelu.basis import PiecewisePolynomial
from hprelu.calculus import concat
from hprelu.catalog import WeightedFunction
from hprelu.emulation import _chain_out, _square_chains
from hprelu.mesh import Axis1D
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
    not use the kernel, so it is an oracle for its bitwise order, up to the
    NaN bit pattern: where two different NaNs meet in one product or sum,
    numpy here and the kernel may keep different ones.
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


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def merged_rows(net):
    """Reference for ``NeuralNetwork.packed`` in plain Python: per layer,
    the rows a pass computes, each as (bias bits, ((column, value bits),
    ...)) with its terms in stored order.

    A row is live if it is an output or a stored entry (an explicit 0.0
    too) of a live row of the next layer reads it.  Forward, each live
    row's columns are renamed to the rows kept in the layer before.  In
    every layer but the output, a row of at most ``_EXACT_ROW_NNZ`` terms
    whose key an earlier kept row has is not kept: its readers read that
    row.
    """
    live = [set(range(net.output_dim))]
    for lay in net.layers[:0:-1]:
        live.append({j for i, j in zip(lay.row_idx.tolist(), lay.col_idx.tolist())
                     if i in live[-1]})
    live.reverse()
    name = {j: j for j in range(net.input_dim)}
    out = []
    for k, (lay, rows) in enumerate(zip(net.layers, live)):
        terms = {r: [] for r in sorted(rows)}
        for i, j, v in zip(lay.row_idx.tolist(), lay.col_idx.tolist(), lay.vals.tolist()):
            if i in terms:
                terms[i].append((name[j], _bits(v)))
        kept, first, name = [], {}, {}
        for r, t in terms.items():
            key = (_bits(lay.bias[r]), tuple(t))
            merge = k < net.depth - 1 and len(t) <= backends._EXACT_ROW_NNZ
            if merge and key in first:
                name[r] = first[key]
                continue
            if merge:
                first[key] = len(kept)
            name[r] = len(kept)
            kept.append(key)
        out.append(kept)
    return out


def packed_rows(packed):
    """The rows of a packed layer list in the form ``merged_rows`` gives."""
    return [[(_bits(bias[r]), tuple((int(cols[t]), _bits(vals[t]))
                                    for t in range(indptr[r], indptr[r + 1])))
             for r in range(len(indptr) - 1)]
            for indptr, cols, vals, bias in packed]


def whole_document_deserialize(text):
    """Reference for ``network.deserialize``: the decoder that parses the
    whole text into Python lists first and converts the layers after, with
    the same checks in the same order and the same messages."""
    try:
        doc = json.loads(text, parse_int=network._parse_int)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "input_dim" not in doc or "layers" not in doc:
        raise ValueError("document must carry input_dim and layers")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError("layers must be a non-empty list")
    input_dim = network._count(doc["input_dim"], "input_dim")
    layers = []
    for k, entry in enumerate(raw_layers):
        try:
            rows = network._count(entry["rows"], "rows")
            cols = network._count(entry["cols"], "cols")
            weights, bias = entry["weights"], entry["bias"]
            if not isinstance(weights, list):
                raise ValueError("weights must be a list of triplets")
            if not isinstance(bias, list):
                raise ValueError("bias must be a list")
            w = np.asarray(weights, dtype=np.float64) if weights else np.empty((0, 3))
            if w.ndim != 2 or w.shape[1] != 3:
                raise ValueError("weights must be [i, j, value] triplets")
            if bool in set(map(type, itertools.chain(
                    bias, itertools.chain.from_iterable(weights)))):
                raise ValueError("weights and biases must not be booleans")
            bias = np.asarray(bias, dtype=np.float64)
            if bias.ndim != 1:
                raise ValueError("bias must be a flat list of numbers")
            if not (np.isfinite(w).all() and np.isfinite(bias).all()):
                raise ValueError("weights and biases must be finite")
            idx = w[:, :2]
            if np.any(idx != np.trunc(idx)):
                raise ValueError("weight indices must be integers")
            layers.append(Layer(rows, cols, idx[:, 0], idx[:, 1], w[:, 2], bias))
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"layer {k}: {e}") from e
    try:
        return NeuralNetwork(input_dim, layers)
    except ValueError as e:
        raise ValueError(f"inconsistent layer chain: {e}") from e


def interp_gradient(interp, pts):
    """Gradients of an ``HpInterpolant`` at scattered (n, d) points, axis by
    axis from its basis matrices: the oracle for ``gradient_axes``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    pairs = [interp._axis_matrices(pts[:, j], want_deriv=True)
             for j in range(interp.dim)]
    out = np.empty((len(pts), interp.dim))
    for j in range(interp.dim):
        mats = [pairs[i][1] if i == j else pairs[i][0] for i in range(interp.dim)]
        out[:, j] = interp._contract(mats)
    return out


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
            for k in range(interp.axis.n_intervals)]
    zv, zd = [], []
    for a in axes:
        pairs = [grad_realize_batch(b, np.asarray(a, dtype=float)[:, None])
                 for b in parts["nets"]]
        zv.append(np.stack([v[:, 0] for v, _ in pairs]))
        zd.append(np.stack([j[:, 0, 0] for _, j in pairs]))
    cells = [interp.axis.find(np.asarray(a)) for a in axes]
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
    (-1, 1): ``hp_interpolate`` on a one-interval, non-singular axis.
    Its coefficients are the trace at -1, the trace at +1, then the moments
    (2n+1)(f', L_n) for n = 1..p-1."""
    u = WeightedFunction(1, f, lambda alpha, t: df(t), "element")
    return hp_interpolate(u, Axis1D([-1.0, 1.0], [False], 0), p)


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
    lo = interp.axis.nodes[0] + 1e-9
    hi = interp.axis.nodes[-1] - 1e-9
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
