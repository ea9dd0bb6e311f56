"""Compilation of hp interpolants into ReLU networks.

The compiled net is a three-stage composition: per-axis basis networks in
full parallel (d inputs, d*N outputs), one product subnet per coefficient
tuple fed through a d-nonzero selector, and a final affine row carrying
the flattened coefficients.  The tuple stage is the one-tuple stage
``concat(pi, identity_net(d, 1))`` tiled T times: copy t reads its
tuple's basis outputs, every later layer is block-diagonal.  It equals
the calculus fold parallel(concat(pi, selector_t) for t) byte for byte (a
test asserts this) but builds in one vectorized step per layer.

Budget split: coefficient mass ‖c‖_1 times the basis accuracy eps1 (raised
to the tensor rank) must cover half the target, the product accuracy eps2
the other half.  Both are asserted on every build.

Certification runs the compiled net on tensor grids, cell by cell, through
one tuple's stage (``_CompiledField``), by lanes: rows that read the same
input axes.  Only the all-axes lane sees the (tuple x point) batch of the
cell's nonzero live tuples, each chunk in one kernel pass per step; the
others run once per cell on the points of their own axes.

Certification runs on every usable core, up to ``backends._MAX_WORKERS``
(the two cores it was measured on): forked workers each compute whole cells,
shared by cost (points times nonzero tuples), and write them into one
shared buffer, so no sum is split or reordered and the bits do not depend
on the number of workers.  One cell, one core, no ``os.fork`` or another
live thread (forking then can deadlock) keep the serial loop; a share
that cannot be forked out is computed by the parent.
"""

import itertools
import math
import mmap
import numbers
import os
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import backends
from .calculus import (_pm_stack, concat, depth_align, full_parallel,
                       identity_net, parallel)
from .emulation import BasisNets, ToleranceBudget, basis_net, product_net
from .metrics import h1_error
from .mesh import _level, graded_axis
from .network import Layer, NeuralNetwork, _grad_chunk
# not called here; perfbench/spans.py wraps these names
from .network import grad_realize_batch, realize_batch  # noqa: F401
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
    c_v_max: float
    c_l1: float


# half-width of the product net's input box: the basis nets' outputs, at
# most 1 plus their measured sup slack, must lie inside it
_PRODUCT_BOX = 2.0


@dataclass(frozen=True)
class NetConfig:
    """Knobs for the end-to-end builders."""

    sigma: float = 0.5
    c_p: float = 1.0
    ell_max: int = 12
    domain: str = "unit"

    def __post_init__(self):
        if isinstance(self.c_p, bool) or not 0.0 < self.c_p < math.inf:
            raise ValueError(f"c_p must be a finite number > 0, got {self.c_p!r}")
        if isinstance(self.sigma, bool) or not 0.0 < self.sigma <= 0.5:
            raise ValueError(f"sigma must lie in (0, 1/2], got {self.sigma!r}")
        _level(self.ell_max, 0, "ell_max")
        if self.domain not in ("unit", "sym"):
            raise ValueError(f"domain must be 'unit' or 'sym', got {self.domain!r}")

    @classmethod
    def for_dim(cls, dim):
        """The defaults, as the measurement grids follow the interpolant
        (``_grids``); perfbench/worker.py calls it."""
        return cls()


def _grids(interp):
    """(calibration order, certification order, cell grade) of the grids
    that measure ``interp``; 3d trims them to keep the quadrature cheap."""
    return (6, 4, 5) if interp.dim == 3 else (10, 8, 8)


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
    plan: AssemblyPlan = None


def plan_assembly(interp, epsilon, cl1):
    """Tolerance split for compiling ``interp`` to accuracy ``epsilon`` at
    coefficient mass ``cl1`` (a multi-row compile covers the worst row)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    d = interp.dim
    cv = max(bf.h1_norm for bf in interp.basis)
    if cl1 == 0.0:
        return AssemblyPlan(epsilon, 0.5, 0.5, cv, 0.0)
    eps1 = min(epsilon / (2.0 * d * (cv + 1.0) ** d * cl1),
               0.5,
               1.0 / (math.sqrt(2.0) * cv))
    eps2 = min(epsilon / (2.0 * (math.sqrt(d) + 1.0) * (cv + 1.0) * cl1), 0.5)
    if eps1 < 1e-12 or eps2 < 1e-12:
        raise ValueError(
            f"tolerance split underflow (eps1={eps1:.3e}, eps2={eps2:.3e}); "
            "raise epsilon or reduce the coefficient mass")
    return AssemblyPlan(epsilon, eps1, eps2, cv, cl1)


def _tuple_selectors(N, d, T):
    """Column index (axis-block offset + basis index) per tuple and axis,
    first axis fastest to match the coefficient flattening."""
    idx = np.stack(np.unravel_index(np.arange(T), (N,) * d, order="F"), axis=1)
    return idx + (np.arange(d) * N)[None, :]


def _tiled_tuple_stage(pi, sel, cols_in):
    """T = len(sel) side-by-side copies of the one-tuple stage
    ``concat(pi, identity_net(d, 1))`` on a ``cols_in``-wide input: copy t's
    first layer, the (+,-) selector, reads the columns ``sel[t]``, and every
    later layer is tiled block-diagonally.  This is
    parallel(concat(pi, selector_t) for t) byte for byte."""
    T, d = sel.shape
    t = np.arange(T)[:, None]
    layers = []
    for k, lay in enumerate(concat(pi, identity_net(d, 1)).layers):
        cols = sel[:, lay.col_idx] if k == 0 else t * lay.cols + lay.col_idx
        # copy t's rows follow copies 0 .. t - 1 and their entries
        indptr = np.append(t * len(lay.vals) + lay.indptr[:-1], T * len(lay.vals))
        layers.append(Layer.from_csr(T * lay.rows, cols_in if k == 0 else T * lay.cols,
                                     indptr, cols.ravel(), np.tile(lay.vals, T),
                                     np.tile(lay.bias, T)))
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
    d, N, ax = interp.dim, interp.N1d, interp.axis
    for r in rows:
        if (r.dim, r.p) != (d, interp.p) or not (
                np.array_equal(r.axis.nodes, ax.nodes)
                and np.array_equal(r.axis.centers, ax.centers)):
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
    # a bubble tail depends on no element: one per distinct key and build,
    # and one measurement pass for the build's basis nets
    basis = BasisNets()
    nets = [basis_net(bf, plan.epsilon1, basis) for bf in interp.basis]
    basis.measure()
    sup_slack = max(n.meta["measured_sup"] for n in nets)
    if 1.0 + sup_slack > _PRODUCT_BOX:
        raise AssertionError("basis outputs leave the product box")
    phi_basis = full_parallel([parallel(depth_align(nets))] * d)
    pi = product_net(d, ToleranceBudget(epsilon=plan.epsilon2, M=_PRODUCT_BOX))
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
        plan=plan, compiled_parts={"basis": basis, "pi": pi, "interp": interp,
                                    "vmat": vmat},
        depth_basis=phi_basis.depth, depth_product=pi.depth)
    return net


# ratio of the geometric sub-refinement used for measurement cells
_QUAD_RATIO = 0.25


def quad_cells(interp, grade=8):
    """Per-axis quadrature partitions: the axis nodes with every singular
    interval graded again toward its center by ``graded_axis``, the same
    array for each of the d axes.

    Plain Gauss panels settle slowly against the derivative blowup in the
    singular cells; grading the measurement cells (the mesh itself is
    untouched) restores a fast Richardson check."""
    ax = interp.axis
    pieces = [ax.nodes]
    for k in np.nonzero(ax.singular)[0]:
        ends = ax.nodes[k:k + 2]
        sub = graded_axis(*ends, ends[np.isin(ends, ax.centers)], _QUAD_RATIO, grade)
        pieces.append(sub.nodes[1:-1])
    return [np.unique(np.concatenate(pieces))] * interp.dim


def _lane_plan(stage, d):
    """Split a packed stage into lanes, the rows that read the same axes.

    Rows with one ``backends.row_masks`` mask form a lane.  Returns
    ``(rows, steps)``: ``rows[l, s]`` lists in order the rows of layer l
    (0 is the input) in lane s.  A step ``(s, l, srcs, packed)`` runs lane s
    through layers l .. l + len(packed) - 1; its first layer reads the
    lanes ``srcs`` of layer l - 1, stacked in that order.  A step ends where
    another lane reads its rows or its lane reads another.
    """
    mask = 1 << np.arange(d)
    rows = {(0, 1 << a): np.array([a]) for a in range(d)}
    steps, last = [], {}
    for l, ((indptr, cols, vals, bias), new) in enumerate(
            zip(stage, backends.row_masks(stage, d)), 1):
        cnt = np.diff(indptr)
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


def _lane_shape(mask, size):
    """Index shape of lane ``mask``'s columns: axis a, if the lane reads it,
    numbers its (live basis index, point) pairs, of ``size[a]``, else has
    length 1; the last axis runs fastest."""
    return [n if mask >> a & 1 else 1 for a, n in enumerate(size)]


def _workers(ncells):
    """Processes that split ``ncells`` mesh cells: ``backends._pool_size``,
    or one (the serial loop) where fork is missing or unsafe, as in a
    process with another live thread, which may hold a lock the child then
    waits on forever.  A served pass joins its tile threads before it
    returns, so it leaves none behind."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return backends._pool_size(ncells)


def _shares(items, costs, workers):
    """Split ``items`` into ``workers`` lists, the costliest item first,
    each to the list of least cost so far."""
    loads, shares = [0] * workers, [[] for _ in range(workers)]
    for k in sorted(range(len(items)), key=costs.__getitem__, reverse=True):
        w = loads.index(min(loads))
        loads[w] += costs[k]
        shares[w].append(items[k])
    return shares


def _in_child(fn, *args):
    """Run ``fn(*args)`` in a forked worker and exit, never returning to the
    caller's stack: status 0 on success, else 1 with the traceback written
    straight to stderr (no Python buffer is flushed twice)."""
    status = 1
    try:
        fn(*args)
        status = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


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

    The stage runs by lanes (``_lane_plan``), each step one seeded kernel
    pass and then its ReLU by ``backends.relu``.  A row that reads only the
    axes in a set S takes the same value at every tuple and point that
    agree on S, so each lane but the all-axes one runs once per cell on the
    (live index x point) pairs of its own axes, seeded per axis.  The
    all-axes lane runs on chunks of the tuple-major columns of the nonzero
    tuples.  For each chunk, each step gathers, by index, the rows of the
    lanes it reads on the chunk's columns (``_inputs``) and hands them to
    one kernel pass, which tiles the chunk and computes no carry row
    (``backends.Packed``).  The head then contracts the chunk.

    No bit moves in the stage.  Its rows keep their entries in stored
    order and every column its inputs, and the in-order kernels sum each
    column on its own.  A direction outside a lane's axes is +0.0 in the
    full net: its seed is +0.0, each row's sum starts at +0.0 and adding
    +-0.0 leaves it there.  The per-axis seeds give exactly these zeros.
    The head reads the nonzero tuples' outputs in the order the full net's
    head does, and points run in the chunks the full net restricted to the
    cell would take, counting all its live tuples.  The head can still
    move the last bit: the full net's coefficient row has more than
    ``backends._EXACT_ROW_NNZ`` entries, so a BLAS dot sums it, zero
    tuples included, in an order of its own.  Values and gradients equal
    the full realization's bit for bit only where every row sums in
    stored order (``test_compiled_field_bitwise_tensor`` fails on a net
    whose head row has 70 entries).
    """

    def __init__(self, parts, row):
        self.interp = interp = parts["interp"]
        self.basis = parts["basis"]
        self.vrow = parts["vmat"][row]
        self.d = d = interp.dim
        self.N = interp.N1d
        # the selector stays: its ReLUs zero the jacobian wherever a basis
        # value is exactly zero
        stage = concat(parts["pi"], identity_net(d, 1)).layers
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
                      for k in range(interp.axis.n_intervals)]
        self._last = None

    def _tables(self, axes, ks):
        """Values and derivatives of every 1d basis net on each axis'
        point set, where a cell reads them: at the points whose interval
        (``ks``, per axis) is in the function's support.  No cell reads the
        other entries, which stay zero.

        Each net's points of the d axes run end to end in one
        ``BasisNets.run``: a head per bubble net, a tail per group of
        them and a whole pass for each other net, every one packed once
        per build.  No basis-net row has more than
        ``backends._EXACT_ROW_NNZ`` entries, so every row sums in stored
        order and a point's bits do not depend on the points beside it."""
        x = np.concatenate([np.asarray(a, dtype=np.float64) for a in axes])
        k = np.concatenate(ks)
        at = [np.flatnonzero(np.isin(k, bf.support)) for bf in self.interp.basis]
        zv, zd = np.zeros((2, len(at), len(x)))
        for i, (a, (v, j)) in enumerate(zip(at, self.basis.run([x[a] for a in at]))):
            zv[i, a], zd[i, a] = v, j
        cuts = np.cumsum([len(a) for a in axes])[:-1]
        return np.split(zv, cuts, axis=1), np.split(zd, cuts, axis=1)

    def _inputs(self, s, l, srcs, st, at, size):
        """Rows of the lanes ``srcs`` of layer l, stacked, on the columns
        of lane s whose ``_lane_shape`` coordinates are ``at``, one array
        per axis."""
        rows = sum(len(self._rows[l, src]) for src in srcs)
        n = len(at[0])
        x, seed = np.empty((rows, n)), np.empty((rows, n, self.d))
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
            # an axis outside lane src has length 1, so "clip" drops its
            # coordinate
            idx = np.ravel_multi_index(at, _lane_shape(src, size), mode="clip")
            # every index is in range: "clip" only spares take a buffer
            np.take(y, idx, axis=1, out=x[sl], mode="clip")
            np.take(jac, idx, axis=1, out=seed[sl], mode="clip")
        return x, seed

    def _run(self, step, st, at, size):
        s, l, srcs, packed = step
        x, seed = self._inputs(s, l - 1, srcs, st, at, size)
        y, jac = backends.run_forward_grad(packed, x, seed=seed)
        backends.relu(y, jac)
        st[l + len(packed) - 1, s] = y, jac

    def _tuples(self, kcell):
        """The live tuples of mesh cell ``kcell``, first axis fastest: the
        live count per axis, each tuple's local index per axis, and the
        tuples' coefficients."""
        las = [len(self._live[k]) for k in kcell]
        loc = np.unravel_index(np.arange(math.prod(las)), las, order="F")
        # basis index per live tuple and axis
        picks = [self._live[k][i] for k, i in zip(kcell, loc)]
        rv = self.vrow[np.ravel_multi_index(picks, (self.N,) * self.d,
                                            order="F")]
        return las, loc, rv

    def _cell(self, kcell, sls, zv, zd):
        """Values and gradients on the block ``sls`` of points in mesh cell
        ``kcell``."""
        d = self.d
        las, loc, rv = self._tuples(kcell)
        t = len(rv)
        nz = np.nonzero(rv)[0]
        m = len(nz)
        ns = [s.stop - s.start for s in sls]
        if not m:
            # an empty head: every value and gradient is its +0.0 bias
            return np.zeros(ns), np.zeros(ns + [d])
        # only the nonzero tuples run; loc[a][k] for nonzero tuple k
        loc = [la[nz] for la in loc]
        head = [(np.array([0, 2 * m]), np.arange(2 * m),
                 np.concatenate([rv[nz], -rv[nz]]), np.zeros(1))]
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
                shape = _lane_shape(step[0], size)
                at = np.unravel_index(np.arange(np.prod(shape)), shape)
                self._run(step, st, at, size)
        full = [step for step in self._steps if step[0] == self._full]
        # the chunks of the full net restricted to the cell, all t tuples
        chunk = _grad_chunk(n, t * self._width, d)
        vals, grad = np.empty(n), np.empty((n, d))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            c = hi - lo
            # tuple-major batch: column k*c + j is nonzero tuple k at point j
            k, j = np.divmod(np.arange(m * c), c)
            at = tuple(loc[a][k] * ns[a] + flat[a][lo + j] for a in range(d))
            for step in full:
                self._run(step, st, at, size)
            y, jac = st[self._out]
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
        ks = [self.interp.axis.find(np.asarray(a)) for a in axes]
        segs = []
        for k in ks:
            bounds = np.concatenate(
                ([0], np.nonzero(np.diff(k))[0] + 1, [len(k)]))
            segs.append([(int(k[lo]), slice(int(lo), int(hi)))
                         for lo, hi in zip(bounds[:-1], bounds[1:])])
        cells = [(tuple(c[0] for c in cell), tuple(c[1] for c in cell))
                 for cell in itertools.product(*segs)]
        zv, zd = self._tables(axes, ks)
        shape = tuple(len(a) for a in axes)
        n, d = math.prod(shape), self.d
        workers = _workers(len(cells))
        # values then gradients; the workers write theirs in shared memory
        flat = (np.frombuffer(mmap.mmap(-1, 8 * n * (1 + d))) if workers > 1
                else np.empty(n * (1 + d)))
        out, grad = flat[:n].reshape(shape), flat[n:].reshape(shape + (d,))
        # a cell's time follows its points times its nonzero tuples
        shares = [cells] if workers == 1 else _shares(
            cells, [math.prod(s.stop - s.start for s in sls)
                    * np.count_nonzero(self._tuples(kcell)[2])
                    for kcell, sls in cells], workers)
        pids, mine = [], list(shares[0])
        try:
            for share in shares[1:]:
                try:
                    pid = os.fork()
                except OSError:
                    # no process to spare (a pid or memory limit): the
                    # parent computes this share too
                    mine += share
                    continue
                if pid == 0:
                    _in_child(self._fill, share, zv, zd, out, grad)
                pids.append(pid)
            self._fill(mine, zv, zd, out, grad)
        finally:
            failed = [pid for pid in pids if os.waitpid(pid, 0)[1]]
        if failed:
            raise RuntimeError(f"{len(failed)} of {len(pids)} certification "
                               "workers failed")
        self._last = (list(axes), out, grad)
        return out, grad

    def _fill(self, cells, zv, zd, out, grad):
        for kcell, sls in cells:
            out[sls], grad[sls] = self._cell(kcell, sls, zv, zd)

    def value_axes(self, axes):
        return self._eval_axes(axes)[0]

    def partial_axes(self, axes, j):
        """The partial along axis j: a view into the cached gradient."""
        return self._eval_axes(axes)[1][..., j]

    def gradient_axes(self, axes):
        return self._eval_axes(axes)[1]


def compiled_field(net, row=0):
    """Cellwise evaluation view of output row ``row`` of a compiled network."""
    parts = net.meta.get("compiled_parts")
    if parts is None:
        raise ValueError("network carries no compilation structure")
    rows = len(parts["vmat"])
    if isinstance(row, bool) or not isinstance(row, numbers.Integral) or not 0 <= row < rows:
        raise ValueError(f"row must be an int in range({rows}), got {row!r}")
    return _CompiledField(parts, int(row))


def _interpolate(u, ell, p, cfg):
    if cfg.domain == "unit":
        return hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), cfg.sigma, ell), p)
    return multipatch_interpolate(u, ell, p, sigma=cfg.sigma)


def _p_for(ell, cfg):
    return max(1, math.ceil(cfg.c_p * max(ell, 1)))


def hp_error(u, interp):
    """The calibration measurement: catalog function ``u`` against its
    interpolant on the graded cells, Richardson-settled."""
    q_cal, _, grade = _grids(interp)
    return h1_error(u, interp, quad_cells(interp, grade), q=q_cal,
                    max_doublings=2)


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
    cfg = config or NetConfig()
    if not us:
        raise ValueError("need at least one function")
    dim = _level(dim, 1, "dim")
    for u in us:
        if u.dim != dim:
            raise ValueError(f"function {u.name} has dimension {u.dim}, "
                             f"but the build's dimension is {dim}")
    # the compile budget 0.5 * epsilon must lie in (0, 1); a NaN fails too
    if (isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real)
            or not 0.0 < epsilon < 2.0):
        raise ValueError(f"epsilon must be a number in (0, 2), got {epsilon!r}")
    t0 = time.perf_counter()
    best = (math.inf, None, None)
    for ell in range(cfg.ell_max + 1):
        p = _p_for(ell, cfg)
        interps = [_interpolate(u, ell, p, cfg) for u in us]
        hp_reps = [hp_error(u, c) for u, c in zip(us, interps)]
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
    _, q_net, grade = _grids(interps[0])
    dusts = [h1_error(interp, compiled_field(net, row=i),
                      quad_cells(interp, grade), q=q_net, max_doublings=0)
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
        seconds=seconds, hp_h1_error=hp.h1_error, plan=plan)
        for interp, hp, dust in zip(interps, hp_reps, dusts)]
    return net, reports


def build_phi_eps_f(u, dim, epsilon, config=None):
    """The one-function case of ``build_vector``: returns (net, report)."""
    net, (report,) = build_vector([u], dim, epsilon, config)
    return net, report
