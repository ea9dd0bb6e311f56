"""Compilation of hp interpolants into ReLU networks.

The compiled net is a three-stage composition: per-axis basis networks in
full parallel (d inputs, d*N outputs), one product subnet per coefficient
tuple fed through a d-nonzero selector, and a final affine row carrying
the flattened coefficients.  The tuple stage is emitted as tiled triplet
arrays rather than by folding the calculus ops one tuple at a time; the
result is bit-identical to the calculus path (a test asserts this) but
builds in O(T) vectorized steps.

Budget split: coefficient mass ‖c‖_1 times the basis accuracy eps1 (raised
to the tensor rank) must cover half the target, the product accuracy eps2
the other half.  Both are asserted on every build.

Certification runs the compiled net on tensor grids, cell by cell, through
one tuple's stage (``_CompiledField``), by lanes: rows that read the same
input axes.  Only the all-axes lane sees the (tuple x point) batch, of the
cell's live tuples with a nonzero coefficient; the others run once per
cell on the points of their own axes.
"""

import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import backends
from .calculus import _pm_stack, concat, depth_align, full_parallel, parallel
from .emulation import ToleranceBudget, basis_net, product_net
from .metrics import h1_error
from .mesh import TensorMesh
from .network import Layer, NeuralNetwork, _grad_chunk, grad_realize_batch
from .network import realize_batch  # noqa: F401  (perfbench/spans.py wraps it)
from .projector import hp_interpolate, multipatch_interpolate

__all__ = [
    "AssemblyPlan",
    "NetConfig",
    "BuildReport",
    "plan_assembly",
    "build_phi_eps_c",
    "build_phi_eps_f",
    "build_vector",
    "quad_cells",
    "compiled_field",
    "hp_error",
]


@dataclass(frozen=True)
class AssemblyPlan:
    """Resolved tolerance split for one compilation."""

    epsilon: float
    epsilon1: float
    epsilon2: float
    M_times: float
    c_v_max: float
    c_l1: float


@dataclass(frozen=True)
class NetConfig:
    """Knobs for the end-to-end builders."""

    sigma: float = 0.5
    c_p: float = 1.0
    ell_max: int = 12
    domain: str = "unit"
    halfwidth: float = 1.0
    q_cal: int = 10
    q_net: int = 8
    cert_grade: int = 8

    @classmethod
    def for_dim(cls, dim):
        """Defaults per dimension; 3d trims the measurement grids so the
        tensor quadrature stays affordable."""
        if dim >= 3:
            return cls(q_cal=6, q_net=4, cert_grade=5)
        return cls()


@dataclass
class BuildReport:
    """Outcome of one end-to-end build.

    ``h1_error`` and ``linf_error`` are certified upper bounds: the settled
    hp interpolation measurement plus the measured network-vs-interpolant
    distance.  ``hp_h1_error`` keeps the first term alone."""

    dim: int
    sigma: float
    ell: int
    p: int
    N1d: int
    coeff_l1: float
    nn_size: int
    nn_depth: int
    h1_error: float
    linf_error: float
    certified: bool
    seconds: float
    hp_h1_error: float = float("nan")
    levels: int = 0
    plan: AssemblyPlan = None


def plan_assembly(interp, epsilon, cl1=None):
    """Tolerance split for compiling ``interp`` to accuracy ``epsilon``.

    ``cl1`` overrides the coefficient mass (a multi-row compile must cover
    the worst row)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    d = interp.dim
    cv = max(bf.h1_norm for bf in interp.basis)
    if cl1 is None:
        cl1 = interp.coeff_l1()
    if cl1 == 0.0:
        return AssemblyPlan(epsilon, 0.5, 0.5, 2.0, cv, 0.0)
    eps1 = min(epsilon / (2.0 * d * (cv + 1.0) ** d * cl1),
               0.5,
               1.0 / (math.sqrt(2.0) * cv))
    eps2 = min(epsilon / (2.0 * (math.sqrt(d) + 1.0) * (cv + 1.0) * cl1), 0.5)
    if eps1 < 1e-12 or eps2 < 1e-12:
        raise ValueError(
            f"tolerance split underflow (eps1={eps1:.3e}, eps2={eps2:.3e}); "
            "raise epsilon or reduce the coefficient mass")
    return AssemblyPlan(epsilon, eps1, eps2, 2.0, cv, cl1)


def _tuple_selectors(N, d, T):
    """Column index (axis-block offset + basis index) per tuple and axis,
    first axis fastest to match the coefficient flattening."""
    idx = np.stack(np.unravel_index(np.arange(T), (N,) * d, order="F"), axis=1)
    return idx + (np.arange(d) * N)[None, :]


def _tiled_tuple_stage(pi, sel, cols_in):
    """Selector-fed copies of the product net, one per row of ``sel``, laid
    out exactly as parallel(concat(pi, selector_t) for t) would produce."""
    T, d = sel.shape
    t_arange = np.arange(T)

    # selector interface: (E; -E) per tuple
    rows = (t_arange[:, None] * 2 * d + np.arange(2 * d)[None, :]).ravel()
    cols = np.hstack([sel, sel]).ravel()
    vals = np.tile(np.concatenate([np.ones(d), -np.ones(d)]), T)
    bias = np.tile(np.concatenate([np.zeros(d), -np.zeros(d)]), T)
    layers = [Layer(2 * d * T, cols_in, rows, cols, vals, bias)]

    # product first layer with doubled columns
    lay = pi.layers[0]
    h1 = lay.rows
    r = lay.row_idx
    c = lay.col_idx
    v = lay.vals
    rows_t = (t_arange[:, None] * h1 + r[None, :])
    cols_p = (t_arange[:, None] * 2 * d + c[None, :])
    rows = np.hstack([rows_t, rows_t]).ravel()
    cols = np.hstack([cols_p, cols_p + d]).ravel()
    vals = np.hstack([np.tile(v, (T, 1)), np.tile(-v, (T, 1))]).ravel()
    layers.append(Layer(h1 * T, 2 * d * T, rows, cols, vals, np.tile(lay.bias, T)))

    w_prev = h1
    for lay in pi.layers[1:]:
        rows = ((t_arange[:, None] * lay.rows) + lay.row_idx[None, :]).ravel()
        cols = ((t_arange[:, None] * w_prev) + lay.col_idx[None, :]).ravel()
        layers.append(Layer(lay.rows * T, w_prev * T, rows, cols,
                            np.tile(lay.vals, T), np.tile(lay.bias, T)))
        w_prev = lay.rows
    return NeuralNetwork(cols_in, layers)


def build_phi_eps_c(interp, epsilon, rows=None):
    """Compile interpolants into a d-input network whose output row i tracks
    sum_t c_t prod_j v_{i_j}(x_j) within epsilon, c the coefficients of
    ``rows[i]`` (default ``[interp]``).

    Every row shares ``interp``'s mesh and degree: the basis and product
    stages are built once, and each row only adds its coefficient row.  The
    tolerance split covers the largest coefficient mass.
    """
    rows = [interp] if rows is None else rows
    d, N, ax = interp.dim, interp.N1d, interp.mesh.axes[0]
    for r in rows:
        if (r.dim, r.p) != (d, interp.p) or not (
                np.array_equal(r.mesh.axes[0].nodes, ax.nodes)
                and np.array_equal(r.mesh.axes[0].singular, ax.singular)):
            raise ValueError("every row must share interp's mesh and degree")
    plan = plan_assembly(interp, epsilon, cl1=max(r.coeff_l1() for r in rows))
    check = (plan.epsilon1 * d * (plan.c_v_max + 1.0) ** d * plan.c_l1
             + plan.epsilon2 * (math.sqrt(d) + 1.0)
             * (plan.c_v_max + 1.0) * plan.c_l1)
    assert check <= epsilon + 1e-15, (check, epsilon)

    for bf in interp.basis:
        vmax, _ = bf.sup_bounds()
        if vmax > 1.0 + 1e-9:
            raise ValueError("basis function exceeds the unit sup bound")
    nets = [basis_net(bf, plan.epsilon1) for bf in interp.basis]
    sup_slack = max(n.meta["measured_sup"] for n in nets)
    if 1.0 + sup_slack > plan.M_times:
        raise AssertionError("basis outputs leave the product box")
    phi_basis = full_parallel([parallel(depth_align(nets))] * d)
    pi = product_net(d, ToleranceBudget(epsilon=plan.epsilon2, M=plan.M_times))
    T = N ** d
    p_all = _tiled_tuple_stage(pi, _tuple_selectors(N, d, T), d * N)

    vmat = np.stack([r.vvec() for r in rows])
    ridx, cidx = np.nonzero(vmat)
    head = NeuralNetwork(T, [Layer(len(rows), T, ridx, cidx, vmat[ridx, cidx],
                                   np.zeros(len(rows)))])
    net = concat(head, concat(p_all, phi_basis))

    # one layer for the selectors, one for the coefficient rows
    assert net.depth == phi_basis.depth + pi.depth + 2, (net.depth, phi_basis.depth, pi.depth)
    bound = 2 * head.size + 2 * (2 * T * (pi.size + d) + 2 * phi_basis.size)
    assert net.size <= bound, (net.size, bound)
    net.meta.update(
        kind="hp_compiled", dim=d, N1d=N, plan=plan, size_bound=bound,
        compiled_parts={"nets": nets, "pi": pi, "interp": interp, "vmat": vmat},
        tuples=T, selector_nnz=d, levels=pi.meta["levels"],
        depth_basis=phi_basis.depth, depth_product=pi.depth,
        size_basis=phi_basis.size, size_product=pi.size,
        basis_sup_slack=sup_slack)
    return net


# ratio of the geometric sub-refinement used for measurement cells
_QUAD_RATIO = 0.25


def quad_cells(interp, grade=8):
    """Per-axis quadrature partitions: the mesh nodes with every singular
    interval geometrically sub-refined toward its grading center.

    Plain Gauss panels settle slowly against the derivative blowup in the
    singular cells; grading the measurement cells (the mesh itself is
    untouched) restores a fast Richardson check."""
    out = []
    for ax in interp.mesh.axes:
        pieces = [ax.nodes]
        for k in np.nonzero(ax.singular)[0]:
            xl, xr = ax.nodes[k], ax.nodes[k + 1]
            steps = (xr - xl) * _QUAD_RATIO ** np.arange(1, grade + 1)
            if k == 0 or xl == 0.0:
                pieces.append(xl + steps)
            else:
                pieces.append(xr - steps)
        out.append(np.unique(np.concatenate(pieces)))
    return out


def _lane_plan(stage, d):
    """Split a packed stage into lanes, the rows that read the same axes.

    Input a carries the axis mask ``1 << a`` and each row the OR of the
    masks of the columns it reads; rows with one mask form a lane.  Returns
    ``(rows, steps)``: ``rows[l, s]`` lists in order the rows of layer l
    (0 is the input) in lane s.  A step ``(s, l, srcs, packed)`` runs lane s
    through layers l .. l + len(packed) - 1; its first layer reads the
    lanes ``srcs`` of layer l - 1, stacked in that order.  A step ends where
    another lane reads its rows or its lane reads another.
    """
    mask = 1 << np.arange(d)
    rows = {(0, 1 << a): np.array([a]) for a in range(d)}
    steps, last = [], {}
    for l, (indptr, cols, vals, bias) in enumerate(stage, 1):
        cnt = np.diff(indptr)
        new = np.zeros(len(cnt), dtype=np.int64)
        np.bitwise_or.at(new, np.repeat(np.arange(len(cnt)), cnt), mask[cols])
        lanes = {}
        for s in np.unique(new).tolist():
            r = rows[l, s] = np.nonzero(new == s)[0]
            ptr = np.concatenate(([0], np.cumsum(cnt[r])))
            # each row keeps its entries in stored order
            take = np.repeat(indptr[r] - ptr[:-1], cnt[r]) + np.arange(ptr[-1])
            srcs = np.unique(mask[cols[take]]).tolist()
            pos, off = np.empty(len(mask), dtype=cols.dtype), 0
            for a in srcs:
                pos[rows[l - 1, a]] = off + np.arange(len(rows[l - 1, a]))
                off += len(rows[l - 1, a])
            lanes[s] = srcs, (ptr, pos[cols[take]], vals[take], bias[r])
        crossed = {a for s, (srcs, _) in lanes.items() for a in srcs if a != s}
        prev, last, mask = last, {}, new
        for s, (srcs, layer) in lanes.items():
            if srcs == [s] and s in prev and s not in crossed:
                last[s] = prev[s]
                last[s][3].append(layer)
            else:
                last[s] = (s, l, srcs, [layer])
                steps.append(last[s])
    return rows, [(s, l, srcs, backends.Packed(packed))
                  for s, l, srcs, packed in steps]


def _lane_axes(mask, size):
    return [a for a in range(len(size)) if mask >> a & 1]


def _coords(mask, size):
    """Columns ``(q, n)`` of lane ``mask``: for each of the n columns and
    each of its axes a, ``q[a]`` numbers the column's (live basis index,
    point) pair, of ``size[a]``; the last axis runs fastest."""
    axes = _lane_axes(mask, size)
    q, rest = {}, np.arange(int(np.prod([size[a] for a in axes])))
    for a in reversed(axes):
        rest, q[a] = np.divmod(rest, size[a])
    return q, len(rest)


def _lane_index(mask, at, size):
    """Column of lane ``mask`` holding each column of ``at``."""
    idx = 0
    for a in _lane_axes(mask, size):
        idx = idx * size[a] + at[0][a]
    return idx


class _CompiledField:
    """Tensor-grid evaluation of a compiled net that skips dead blocks.

    At any point the product block of a tuple with some basis factor
    outside its support is exactly zero, so per mesh cell only the live
    tuples count, and of those only the ones with a nonzero coefficient
    reach the head.  One network serves every cell: a single tuple's stage
    (selector, product net, output (+,-) stacked as by ``concat``) runs on
    a (nonzero tuple x point) batch of basis-net values seeded with their
    derivatives, and the cell's doubled coefficient row, its nonzero
    entries in tuple order, contracts it.  A cell with no nonzero tuple
    gives +0.0 values and gradients, as its empty head would.

    The stage runs by lanes (``_lane_plan``).  A row that reads only the
    axes in a set S takes the same value at every tuple and point that
    agree on S, so each lane but the all-axes one runs once per cell on the
    (live index x point) pairs of its own axes, seeded per axis.  The
    all-axes lane runs per chunk, tile by tile over the tuple-major
    columns of the nonzero tuples, and gathers the rows of the lanes it
    reads by index.  The head then contracts the whole chunk.

    No bit moves against the full realization.  Every row keeps its
    entries in stored order and every column its inputs, and the in-order
    kernels sum each column on its own.  A direction outside a lane's axes
    is +0.0 in the full net: its seed is +0.0, each row's sum starts at
    +0.0 and adding +-0.0 leaves it there.  The per-axis seeds give exactly
    these zeros.  The head reads the nonzero tuples' outputs in the order
    the full net's head does.  Points run in the chunks the full net
    restricted to the cell would take, counting all its live tuples, which
    fixes the head's sums.
    """

    def __init__(self, parts, row):
        self.interp = interp = parts["interp"]
        self.nets = parts["nets"]
        self.vrow = parts["vmat"][row]
        self.d = d = interp.dim
        self.N = interp.N1d
        # the selector stays: its ReLUs zero the jacobian wherever a basis
        # value is exactly zero
        stage = _tiled_tuple_stage(parts["pi"], np.arange(d)[None, :], d).layers
        stage = NeuralNetwork(d, stage[:-1] + (_pm_stack(stage[-1]),))
        self._width = max(lay.rows for lay in stage.layers)
        self._rows, self._steps = _lane_plan(stage.packed(), d)
        # the product reads every factor, so the all-axes lane holds the
        # whole last layer
        self._full = (1 << d) - 1
        self._out = stage.depth, self._full
        assert len(self._rows[self._out]) == stage.layers[-1].rows
        self._live = [np.array([i for i, bf in enumerate(interp.basis)
                                if k in bf.support], dtype=np.int64)
                      for k in range(interp.mesh.axes[0].n_intervals)]
        self._last = None

    def _tables(self, axes):
        """Values and derivatives of every 1d basis net on each axis'
        point set; entries outside a support are exact zeros."""
        zv, zd = [], []
        for a in axes:
            x1 = np.asarray(a, dtype=np.float64)[:, None]
            pairs = [grad_realize_batch(bnet, x1) for bnet in self.nets]
            zv.append(np.stack([v[:, 0] for v, _ in pairs]))
            zd.append(np.stack([j[:, 0, 0] for _, j in pairs]))
        return zv, zd

    def _inputs(self, s, l, srcs, st, at, size):
        """Rows of the lanes ``srcs`` of layer l, stacked, on the columns
        ``at`` of lane s."""
        rows = sum(len(self._rows[l, src]) for src in srcs)
        x, seed = np.empty((rows, at[1])), np.empty((rows, at[1], self.d))
        off = 0
        for src in srcs:
            y, jac = st[l, src]
            sl = slice(off, off + len(y))
            off = sl.stop
            # a lane's own rows lie on its columns; the all-axes lane never
            # reads the input, as products take d >= 2 factors
            if src == s:
                x[sl], seed[sl] = y, jac
                continue
            idx = _lane_index(src, at, size)
            # every index is in range: "clip" only spares take a buffer
            np.take(y, idx, axis=1, out=x[sl], mode="clip")
            np.take(jac, idx, axis=1, out=seed[sl], mode="clip")
        return x, seed

    def _run(self, step, st, at, size):
        s, l, srcs, packed = step
        x, seed = self._inputs(s, l - 1, srcs, st, at, size)
        y, jac = backends.run_forward_grad(packed, x, seed=seed)
        jac *= (y > 0.0)[:, :, None]
        np.maximum(y, 0.0, out=y)
        st[l + len(packed) - 1, s] = y, jac

    def _cell(self, kcell, sls, zv, zd):
        """Values and gradients on the block ``sls`` of points in mesh cell
        ``kcell``."""
        d = self.d
        las = [len(self._live[k]) for k in kcell]
        t = int(np.prod(las))
        loc = np.unravel_index(np.arange(t), las, order="F")
        # basis index per live tuple and axis
        picks = [self._live[k][i] for k, i in zip(kcell, loc)]
        rv = self.vrow[np.ravel_multi_index(picks, (self.N,) * d, order="F")]
        nz = np.nonzero(rv)[0]
        m = len(nz)
        ns = [s.stop - s.start for s in sls]
        if not m:
            # an empty head: every value and gradient is its +0.0 bias
            return np.zeros(ns), np.zeros(ns + [d])
        # only the nonzero tuples run; loc[a][k] for nonzero tuple k
        loc = [la[nz] for la in loc]
        head = Layer(1, 2 * m, np.zeros(2 * m, dtype=np.int64),
                     np.arange(2 * m), np.concatenate([rv[nz], -rv[nz]]),
                     np.zeros(1))
        head = [(head.indptr, head.col_idx, head.vals, head.bias)]
        n = int(np.prod(ns))
        flat = np.unravel_index(np.arange(n), ns)
        # input a on every (live basis index, point) pair of axis a
        size = [la * m for la, m in zip(las, ns)]
        st = {}
        for a in range(d):
            ix = np.ix_(self._live[kcell[a]], range(sls[a].start, sls[a].stop))
            seed = np.zeros((1, size[a], d))
            seed[0, :, a] = zd[a][ix].ravel()
            st[0, 1 << a] = zv[a][ix].reshape(1, -1), seed
        for step in self._steps:
            if step[0] != self._full:
                self._run(step, st, _coords(step[0], size), size)
        full = [step for step in self._steps if step[0] == self._full]
        tile = backends._tile_points(self._width, d)
        # the chunks of the full net restricted to the cell, all t tuples
        chunk = _grad_chunk(n, t * self._width, d)
        vals, grad = np.empty(n), np.empty((n, d))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            c = hi - lo
            # tuple-major batch: column k*c + j is nonzero tuple k at point j
            y = np.empty((2, m * c))
            jac = np.empty((2, m * c, d))
            for p0 in range(0, m * c, tile):
                k, j = np.divmod(np.arange(p0, min(m * c, p0 + tile)), c)
                at = ({a: loc[a][k] * ns[a] + flat[a][lo + j]
                       for a in range(d)}, len(k))
                ts = dict(st)
                for step in full:
                    self._run(step, ts, at, size)
                y[:, p0:p0 + len(k)], jac[:, p0:p0 + len(k)] = ts[self._out]
            # rows k and m+k: the (+,-) outputs of nonzero tuple k
            y, jac = backends.run_forward_grad(
                head, y.reshape(2 * m, c), seed=jac.reshape(2 * m, c, d))
            vals[lo:hi] = y[0]
            grad[lo:hi] = jac[0]
        return vals.reshape(ns), grad.reshape(ns + [d])

    def _eval_axes(self, axes):
        last = self._last
        if last is not None and len(last[0]) == len(axes) and all(
                a is b for a, b in zip(last[0], axes)):
            return last[1], last[2]
        segs = []
        for ax, a in zip(self.interp.mesh.axes, axes):
            ks = ax.find(np.asarray(a))
            bounds = np.concatenate(
                ([0], np.nonzero(np.diff(ks))[0] + 1, [len(ks)]))
            segs.append([(int(ks[lo]), slice(int(lo), int(hi)))
                         for lo, hi in zip(bounds[:-1], bounds[1:])])
        zv, zd = self._tables(axes)
        shape = tuple(len(a) for a in axes)
        out = np.empty(shape)
        grad = np.empty(shape + (self.d,))
        for cell in itertools.product(*segs):
            sls = tuple(c[1] for c in cell)
            out[sls], grad[sls] = self._cell(tuple(c[0] for c in cell), sls,
                                             zv, zd)
        self._last = (list(axes), out, grad)
        return out, grad

    def value_axes(self, axes):
        return self._eval_axes(axes)[0]

    def gradient_axes(self, axes):
        return self._eval_axes(axes)[1]


def compiled_field(net, row=0):
    """Cellwise evaluation view of output row ``row`` of a compiled network."""
    parts = net.meta.get("compiled_parts")
    if parts is None:
        raise ValueError("network carries no compilation structure")
    rows = len(parts["vmat"])
    if isinstance(row, bool) or not isinstance(row, int) or not 0 <= row < rows:
        raise ValueError(f"row must be an int in range({rows}), got {row!r}")
    return _CompiledField(parts, row)


def _interpolate(u, dim, ell, p, cfg):
    if cfg.domain == "unit":
        mesh = TensorMesh.cube(cfg.sigma, ell, dim)
        return hp_interpolate(u, mesh, p)
    if cfg.domain == "sym":
        return multipatch_interpolate(u, ell, p, sigma=cfg.sigma,
                                      halfwidth=cfg.halfwidth)
    raise ValueError(f"unknown domain {cfg.domain!r}")


def _p_for(ell, cfg):
    return max(1, math.ceil(cfg.c_p * max(ell, 1)))


def hp_error(u, interp, cfg):
    """The calibration measurement: catalog function ``u`` against its
    interpolant on the graded cells, Richardson-settled."""
    return h1_error(u, interp, quad_cells(interp, cfg.cert_grade),
                    q=cfg.q_cal, n_q=1, max_doublings=2)


def build_vector(us, dim, epsilon, config=None):
    """Calibrate (ell, p), compile, and certify catalog functions on one
    shared grid; returns (net, reports) with one output row and one report
    per function.

    Grows ell until every measured hp H1 error drops below epsilon/2, then
    compiles the interpolants into one network with the remaining budget.
    Each reported H1 number is a certified upper bound by the triangle
    inequality: the Richardson-settled hp measurement plus a direct
    measurement of that row's compile error (network vs interpolant).  The
    compile term is orders of magnitude below its epsilon/2 budget in
    practice, so the bound is tight; ``certified`` additionally demands it
    stays below epsilon/4 so its coarser quadrature cannot threaten the
    total.
    """
    cfg = config or NetConfig.for_dim(dim)
    if not us:
        raise ValueError("need at least one function")
    # the compile budget 0.5 * epsilon must lie in (0, 1); a NaN fails too
    if not (isinstance(epsilon, numbers.Real) and 0.0 < epsilon < 2.0):
        raise ValueError(f"epsilon must be a number in (0, 2), got {epsilon!r}")
    if cfg.ell_max < 0:
        raise ValueError(f"ell_max must be >= 0, got {cfg.ell_max!r}")
    t0 = time.perf_counter()
    best = (math.inf, None, None)
    for ell in range(cfg.ell_max + 1):
        p = _p_for(ell, cfg)
        interps = [_interpolate(u, dim, ell, p, cfg) for u in us]
        hp_reps = [hp_error(u, c, cfg) for u, c in zip(us, interps)]
        worst = max(r.h1_error for r in hp_reps)
        if worst < best[0]:
            best = (worst, ell, p)
        if worst <= 0.5 * epsilon:
            break
    else:
        raise RuntimeError(
            f"calibration failed: best hp H1 error {best[0]:.3e} at "
            f"ell={best[1]}, p={best[2]} (cap ell_max={cfg.ell_max})")
    net = build_phi_eps_c(interps[0], 0.5 * epsilon, rows=interps)
    dusts = [h1_error(interp, compiled_field(net, row=i),
                      quad_cells(interp, cfg.cert_grade), q=cfg.q_net,
                      n_q=1, max_doublings=0)
             for i, interp in enumerate(interps)]
    plan = net.meta["plan"]
    seconds = time.perf_counter() - t0
    reports = [BuildReport(
        dim=dim, sigma=cfg.sigma, ell=interp.ell, p=interp.p,
        N1d=interp.N1d, coeff_l1=interp.coeff_l1(),
        nn_size=net.size, nn_depth=net.depth,
        h1_error=hp.h1_error + dust.h1_error,
        linf_error=hp.linf_error + dust.linf_error,
        certified=hp.certified and dust.h1_error <= 0.25 * epsilon,
        seconds=seconds, hp_h1_error=hp.h1_error, levels=net.meta["levels"],
        plan=plan) for interp, hp, dust in zip(interps, hp_reps, dusts)]
    return net, reports


def build_phi_eps_f(u, dim, epsilon, config=None):
    """The one-function case of ``build_vector``: returns (net, report)."""
    net, (report,) = build_vector([u], dim, epsilon, config)
    return net, report
