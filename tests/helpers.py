"""Shared test utilities: random network generation and brute-force oracles.

Everything here is deliberately independent of the library's fast paths:
finite differences for jacobians, dense matmul loops for realizations,
trapezoid refinement for integrals.
"""

import itertools
import json
import math
import struct
import threading

import numpy as np

from hprelu import backends, emulation, metrics, network
from hprelu.assembly import _tiled_tuple_stage
from hprelu.basis import PiecewisePolynomial
from hprelu.calculus import _block_diag, _stack, concat
from hprelu.catalog import WeightedFunction
from hprelu.emulation import (_GRID_SHIFT, _LB, _NONNEG_TFORMS, _branch_errors,
                              _chain_out, _inner_outer_tail, _pw_horner_stage,
                              _smallest_depth, _square_chains)
from hprelu.legendre import gauss_rule
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


def kernel_threads(monkeypatch):
    """Spy on the in-order kernel (``backends._csr_add``): the set of
    threads that call it."""
    kernel, threads = backends._csr_add, set()

    def record(*args):
        threads.add(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(backends, "_csr_add", record)
    return threads


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


def row_masks_oracle(packed, d):
    """Reference for ``backends.row_masks`` in plain Python: per layer, the
    list of each row's mask, the OR over its stored entries of the masks of
    the rows they read (input column a: 1 << a), 0 for a row with none."""
    masks, out = [1 << a for a in range(d)], []
    for indptr, cols, _, _ in packed:
        rows = []
        for r in range(len(indptr) - 1):
            m = 0
            for t in range(indptr[r], indptr[r + 1]):
                m |= masks[cols[t]]
            rows.append(m)
        masks = rows
        out.append(masks)
    return out


def separable_prefix(net):
    """Reference for ``backends.Packed.separable`` in plain Python: the
    number of leading packed layers in which every row holds at most
    ``_EXACT_ROW_NNZ`` terms, all of finite value, and reads rows of at most
    one input axis (input column a is axis a), and the axis of each row of
    the last of them, -1 for a row that reads none (None if there is no
    such layer)."""
    axes, cut = list(range(net.input_dim)), 0
    for indptr, cols, vals, _ in net.packed():
        row_axes = []
        for r in range(len(indptr) - 1):
            terms = range(indptr[r], indptr[r + 1])
            read = {axes[cols[t]] for t in terms} - {-1}
            if (len(terms) > backends._EXACT_ROW_NNZ or len(read) > 1
                    or not all(np.isfinite(vals[t]) for t in terms)):
                return cut, (None if cut == 0 else axes)
            row_axes.append(read.pop() if read else -1)
        axes, cut = row_axes, cut + 1
    return cut, axes


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
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"layer {k}: {e}") from e
    try:
        return NeuralNetwork(input_dim, layers)
    except ValueError as e:
        raise ValueError(f"inconsistent layer chain: {e}") from e


def gradient_axes(field, axes):
    """A tensor field's gradient on the grid of ``axes``, its partials
    stacked on the last axis."""
    return np.stack([field.partial_axes(axes, j) for j in range(len(axes))], axis=-1)


def stacked_sq_errors(f, g, axes_pts, axes_wts):
    """Reference for ``metrics._sq_errors``: per slab the difference of the
    two stacked gradients, squared and summed as whole arrays, the
    measurement before it streamed one component at a time.  The slabs
    follow ``metrics._SLAB_POINTS`` as the library's do."""
    d = len(axes_pts)
    shape = tuple(len(a) for a in axes_pts)
    n0 = shape[0]
    rest = int(np.prod(shape[1:], dtype=np.int64)) if d > 1 else 1
    slab = max(1, min(n0, metrics._SLAB_POINTS // max(1, rest)))
    wt_rest = np.ones(shape[1:])
    for j, w in enumerate(axes_wts[1:]):
        wt_rest = wt_rest * w.reshape([-1 if i == j else 1 for i in range(d - 1)])
    l2 = semi = linf = 0.0
    for lo in range(0, n0, slab):
        sl = slice(lo, min(n0, lo + slab))
        axes_sl = [axes_pts[0][sl]] + list(axes_pts[1:])
        dv = f.value_axes(axes_sl) - g.value_axes(axes_sl)
        dg = gradient_axes(f, axes_sl) - gradient_axes(g, axes_sl)
        wt = axes_wts[0][sl].reshape((-1,) + (1,) * (d - 1)) * wt_rest
        l2 += float(np.sum(wt * dv * dv))
        semi += float(np.sum(wt * np.sum(dg * dg, axis=-1)))
        linf = max(linf, float(np.max(np.abs(dv))))
    return l2, semi, linf


def loop_axis_quad(cells, n_q, q, rng):
    """Reference for ``metrics._axis_quad``: the subcells one at a time,
    a jitter draw each, as the measurement did before it drew them all at
    once."""
    t, w = gauss_rule(q)
    pts, wts = [], []
    for lo, hi in zip(cells[:-1], cells[1:]):
        sub = np.linspace(lo, hi, n_q + 1)
        for a, b in zip(sub[:-1], sub[1:]):
            h = b - a
            off = metrics._JITTER * h * (2.0 * rng.random() - 1.0)
            x = 0.5 * ((b - a) * t + (a + b)) + off
            pts.append(np.clip(x, a + 1e-14 * h, b - 1e-14 * h))
            wts.append(0.5 * h * w)
    return np.concatenate(pts), np.concatenate(wts)


def canonical_triplets(rows, cols, row_idx, col_idx, vals, bias):
    """Reference for the ``Layer`` constructor: the triplet canonicalization
    of the layer that stored triplets, returning its (row_idx, col_idx,
    vals, bias) in row-major order as int64, int64, float64, float64, or
    raising the ValueError it raised."""
    rows, cols = int(rows), int(cols)
    if rows < 1 or cols < 1:
        raise ValueError("layer dimensions must be positive")
    row_idx = np.asarray(row_idx, dtype=np.int64).ravel()
    col_idx = np.asarray(col_idx, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.float64).ravel()
    if not (len(row_idx) == len(col_idx) == len(vals)):
        raise ValueError("triplet arrays must have equal length")
    if len(row_idx) and (
        row_idx.min() < 0 or row_idx.max() >= rows or col_idx.min() < 0 or col_idx.max() >= cols
    ):
        raise ValueError("triplet index out of range")
    order = np.lexsort((col_idx, row_idx))
    row_idx, col_idx, vals = row_idx[order], col_idx[order], vals[order]
    if len(row_idx) > 1:
        same = (np.diff(row_idx) == 0) & (np.diff(col_idx) == 0)
        if same.any():
            raise ValueError("duplicate triplet entry")
    bias = np.asarray(bias, dtype=np.float64).ravel()
    if len(bias) != rows:
        raise ValueError(f"bias length {len(bias)} != rows {rows}")
    return row_idx, col_idx, vals, bias


def interp_gradient(interp, pts):
    """Gradients of an ``HpInterpolant`` at scattered (n, d) points, axis by
    axis from its basis matrices: the oracle for ``partial_axes``."""
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
                 for b in parts["basis"].nets]
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
    return hp_interpolate(u, Axis1D([-1.0, 1.0], (), 0), p)


def geometric_mesh(sigma, ell):
    """Oracle for ``graded_axis(0, 1, (0,), sigma, ell)``: the hand-written
    grading of (0,1) toward 0, nodes 0, sigma^ell, ..., sigma, 1.  Returns
    (nodes, singular flags)."""
    nodes = np.concatenate(([0.0], sigma ** np.arange(ell, -1, -1, dtype=np.float64)))
    singular = np.zeros(ell + 1, dtype=bool)
    singular[0] = True
    return nodes, singular


def multipatch_axis(sigma, ell, halfwidth):
    """Oracle for ``graded_axis(-a, a, (-a, 0, a), sigma, ell)``: four
    hand-written geometric patches (-a,-a/2), (-a/2,0), (0,a/2), (a/2,a)
    graded toward -a, 0 and a; the center node is -0.0, from sorting
    ``-h * base``.  Returns (nodes, singular flags)."""
    a = float(halfwidth)
    base, _ = geometric_mesh(sigma, ell)  # 0, sigma^ell, ..., 1
    h = 0.5 * a
    neg_outer = -a + h * base          # graded toward -a
    neg_inner = np.sort(-h * base)     # graded toward 0 from the left
    pos_inner = h * base               # graded toward 0 from the right
    pos_outer = np.sort(a - h * base)  # graded toward a
    nodes = np.concatenate((neg_outer, neg_inner[1:], pos_inner[1:], pos_outer[1:]))
    n = ell + 1
    singular = np.zeros(4 * n, dtype=bool)
    singular[[0, 2 * n - 1, 2 * n, 4 * n - 1]] = True
    return nodes, singular


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


def stacked_parallel(nets):
    """``calculus.parallel`` as the plain fold, with no one-net case: the
    first layers stacked on the shared input, every later one
    block-diagonal."""
    nets = list(nets)
    d = nets[0].input_dim
    layers = [_stack([net.layers[0] for net in nets], d)]
    layers += [_block_diag([net.layers[j] for net in nets])
               for j in range(1, nets[0].depth)]
    return NeuralNetwork(d, layers)


def unshared_bubble_branch(xl, xr, s, tau_v, tau_d, tails=None):
    """``emulation._bubble_branch`` built whole for every element: no tail
    is looked up in or stored to ``tails``."""
    h = xr - xl
    s = np.asarray(s, dtype=np.float64)
    q = len(s) - 1
    m, (_, _, mo, boxes) = _smallest_depth(
        lambda m: _branch_errors(s, h, m), tau_v, tau_d, "oracle branch")
    su = 2.0 / h
    layers = []
    lb = _LB(1)
    lb.row([0], [1.0], -xl)
    lb.row([0], [1.0], -xr)
    lb.row([0], [-1.0], xr)
    lb.row([0], [-1.0], xl)
    layers.append(lb.done())

    if q == 0:
        lb = _LB(4)
        lb.row([0, 1], [su, -su])
        lb.row([2, 3], [su, -su])
        layers.append(lb.done())
        lb, base = _square_chains(layers, 2, [], _NONNEG_TFORMS, m)
        lb.row(*_chain_out(base, 3, m, float(s[0]) * 8.0))
        layers.append(lb.done())
        return NeuralNetwork(1, layers)

    lb = _LB(4)
    lb.row([0, 1], [su, -su])
    lb.row([2, 3], [su, -su])
    if q >= 2:
        lb.row([0, 1], [su, -su], -1.0)
        lb.row([0, 1], [-su, su], 1.0)
    cq, cq1 = float(s[q]), float(s[q - 1])
    lb.row([0, 1], [cq * su, -cq * su], cq1 - cq)
    lb.row([0, 1], [-cq * su, cq * su], cq - cq1)
    layers.append(lb.done())

    for k, box in zip(range(q - 2, -1, -1), boxes):
        _pw_horner_stage(layers, float(s[k]), box, m, drop_t=k == 0)
    _inner_outer_tail(layers, m, mo)
    return NeuralNetwork(1, layers)


def pwpoly_net(v, epsilon, target=math.inf):
    """One piecewise-polynomial net, built and measured by a
    ``emulation.BasisNets`` of its own."""
    nets = emulation.BasisNets()
    net = nets.add(v, epsilon, target)
    nets.measure()
    return net


def basis_net(bf, epsilon1):
    """``emulation.basis_net`` for one basis function, built and measured
    by a ``emulation.BasisNets`` of its own."""
    nets = emulation.BasisNets()
    net = emulation.basis_net(bf, epsilon1, nets)
    nets.measure()
    return net


def unshared_basis_net(monkeypatch, bf, epsilon1):
    """``basis_net`` with every bubble branch built whole
    (``unshared_bubble_branch``) and every parallel stacked
    (``stacked_parallel``)."""
    with monkeypatch.context() as mp:
        mp.setattr(emulation, "_bubble_branch", unshared_bubble_branch)
        mp.setattr(emulation, "parallel", stacked_parallel)
        return basis_net(bf, epsilon1)


def per_net_measure(net, v):
    """Reference for the gaps ``emulation.BasisNets.measure`` records: one
    whole ``grad_realize_batch`` pass of ``net`` per piece of ``v``, the
    measurement before the shared tails ran once per build."""
    gt, gw = gauss_rule(4)
    sup = dsup = acc = 0.0
    for i in range(v.n_pieces):
        a, b = v.nodes[i], v.nodes[i + 1]
        t = a + (b - a) * (np.arange(128) + _GRID_SHIFT) / 128
        t = np.concatenate((t, [a + 1e-6 * (b - a), b - 1e-6 * (b - a)]))
        edges = np.linspace(a, b, 25)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = np.concatenate((t, (mid[:, None] + half[:, None] * gt).ravel()))
        vals, jac = grad_realize_batch(net, x[:, None])
        dv, dg = vals[:, 0] - v(x), jac[:, 0, 0] - v.deriv(x)
        n = len(t)
        sup = max(sup, float(np.max(np.abs(dv[:n]))))
        dsup = max(dsup, float(np.max(np.abs(dg[:n]))))
        wts = (half[:, None] * gw).ravel()
        acc += float(np.dot(wts, dv[n:] * dv[n:]) + np.dot(wts, dg[n:] * dg[n:]))
    return sup, dsup, np.sqrt(acc)


def per_axis_tables(field, axes):
    """The basis-net tables of ``_CompiledField`` one axis at a time:
    every basis net run on each axis' points alone, at every point."""
    zv, zd = [], []
    for a in axes:
        x1 = np.asarray(a, dtype=np.float64)[:, None]
        pairs = [grad_realize_batch(bnet, x1) for bnet in field.basis.nets]
        zv.append(np.stack([v[:, 0] for v, _ in pairs]))
        zd.append(np.stack([j[:, 0, 0] for _, j in pairs]))
    return zv, zd
