"""Batched evaluation kernel for sparse affine layers.

Every row of at most ``_EXACT_ROW_NNZ`` entries runs through scipy's
compiled CSR loop (``csr_matvecs``), which starts the row from its bias and
adds the terms in stored order; the product constructions rely on that
order for their exact structural zeros.  Each wider row, a coefficient
contraction, runs through a BLAS dot.  scipy is imported on the first
kernel call, not with the package.

The one forward pass, with or without jacobian directions, runs narrow
layers in cache-sized tiles of points (``_narrow_run``).  A tile holds its
values as (rows, n) and its nd jacobian directions as (rows, nd, n), and
each layer makes one kernel call on each: the jacobian call sees nd * n
columns a row.  The loop sums every column on its own, from the row's
start value through its stored terms in order, so a (direction, point)
column gets the sum that a call on its direction's plane alone gives: no
bit moves.  Every ReLU outside the tiles, a wide layer's or one a caller
applies after a pass that stops short of a net's output, is ``relu``.

The two serving entries, ``run_forward`` and ``run_forward_grad`` with no
seed, hand a narrow run's tiles to threads, one per usable core up to
``_MAX_WORKERS``, in equal contiguous blocks of whole tiles: the tile count
is rounded down to a multiple of the threads (``_tile_split``).  A tile is
a range of columns the in-order loop sums on its own, so its bounds move no
bit; a wide layer, whose BLAS sums may depend on the column range, runs
whole on the caller's thread.  A pass with an explicit seed
(certification, which already runs a process per core) stays on one
thread, so its tile count is not rounded.

A carry row, in a layer strictly inside a narrow run, holds one stored
entry of weight 1.0 (bitwise) and bias +-0.0: it passes on a row that a
ReLU just produced.  The tiles compute only the other rows.  The carries
that reach back to one computed row, their root, share a slot of the
tile, into which the root is copied once, after its layer's ReLU, and the
carries' readers read the slot (``Packed._plan``).  No bit moves:
``np.maximum(x, 0.0)`` never returns -0.0, so a carry's value ``+-0.0 +
1.0 * x`` is x, and so is its ReLU; NaN and inf pass alike.  Its jacobian
``mask * (+0.0 + 1.0 * j)`` differs from the slot's j, which the same mask
already multiplied, at most in the sign of a zero, and every reader's
jacobian sum starts at +0.0, where (+0.0) + (-0.0) = +0.0.  The packed
layers do not change: the plan holds its own arrays of a layer with
carries, its computed rows alone, and of the columns of the layer after it.

An identity-seeded jacobian pass of a ``Packed`` list on d > 1 inputs
carries one plane, not d, through the axis-separable prefix of the layers
(``Packed.cut``, found when the list is packed), where each row reads at
most one input axis, and scatters it into the d planes by each row's axis
at the cut.  A direction a row does not read has its sum start at +0.0 and
add only finite weights times +0.0, so it is +0.0 there in the d-plane
pass too: no bit moves.
"""

import contextvars
import functools
import os
import threading

import numpy as np

# HAS_NUMBA and resolve_backend exist only for the benchmark's environment
# record (perfbench/worker.py); there is one kernel.
HAS_NUMBA = False


def resolve_backend():
    return "numpy"


# The most workers the package runs at once (certification's processes,
# ``hp-study``'s row threads, a served pass's tile threads): the core count
# they have been measured on (BENCH_22.json, BENCH_27.json, 2 cores).
# ``sched_getaffinity`` does not see a cgroup's CPU quota, so an open-ended
# count could start dozens of workers on a container's two CPUs.
_MAX_WORKERS = 2


def _pool_size(tasks):
    """Workers for ``tasks`` independent tasks: one per usable core, up to
    ``_MAX_WORKERS``, and at least one."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(tasks, cores, _MAX_WORKERS))


# A narrow run's tile holds about _TILE_BYTES of values and jacobian in its
# widest layer, so one layer's input and output stay within a 2 MiB L2.
# Each tile pays a fixed cost per layer: two kernel calls (one without
# directions), the fills and the mask.  The floor is the smallest tile that
# amortises it, sized when a layer made 1 + nd calls.  In a sweep of 8-256
# points on the two benchmark nets (2,535 and 5,831 rows wide) at 25-1,000
# points a batch, 8 and 16 ran 10-20% slower than 32 on the 2,535-row net,
# and 64 or more ran 10-30% slower on the 5,831-row net from 100 points up,
# its tiles outgrowing the cache.
_TILE_BYTES = 1 << 20
_TILE_MIN = 32


@functools.cache
def _matvecs():
    """scipy's compiled CSR loop; importing scipy.sparse costs a few tenths
    of a second, so the package defers it to the first kernel call."""
    from scipy.sparse import _sparsetools

    return _sparsetools.csr_matvecs


# Rows at or below this nnz count go through scipy's csr_matvecs, which
# adds vals[k] * x[col] term by term in stored order.  The
# exact-cancellation guarantees of the product layers live on such narrow
# rows.  Wider rows (coefficient contractions) use a BLAS dot, whose
# summation order is its own; they only carry tolerance-based contracts.
_EXACT_ROW_NNZ = 32

# the bits of 1.0, a carry row's weight
_ONE = np.float64(1.0).view(np.int64)


def _csr_add(indptr, cols, vals, x, out):
    """Add each row's terms of one (in, n) plane into ``out`` in order."""
    _matvecs()(out.shape[0], x.shape[0], x.shape[1], indptr, cols, vals,
               x.ravel(), out.ravel())


def _csr_affine_np(indptr, cols, vals, bias, x):
    """One layer with a wide row on a whole (in, npts) plane: the narrow
    rows in order, each wide row by one BLAS dot.  The callers bound the
    batch (``network._chunked``, ``assembly._CompiledField``)."""
    out = np.repeat(bias[:, None], x.shape[1], axis=1)
    counts = np.diff(indptr)
    small = counts <= _EXACT_ROW_NNZ
    # the narrow rows as their own CSR: wide rows keep no entries here
    keep = np.repeat(small, counts)
    _csr_add(np.concatenate(([0], np.cumsum(counts * small))), cols[keep],
             vals[keep], x, out)
    for r in np.nonzero(~small)[0]:
        lo, hi = indptr[r], indptr[r + 1]
        out[r] += vals[lo:hi] @ x[cols[lo:hi]]
    return out


def run_forward(packed, x):
    """Realize the packed layer list on a (in_dim, npts) batch.

    ReLU is applied after every layer except the last.  Returns the final
    (out_dim, npts) array: ``run_forward_grad``'s values, bit for bit,
    from the same pass with no jacobian directions.  Narrow runs share
    their tiles out to ``_pool_size`` threads.
    """
    y = np.ascontiguousarray(x, dtype=np.float64)
    return _forward(packed, y, np.empty(y.shape + (0,)),
                    threads=_pool_size(y.shape[1]))[0]


def _tile_points(width, nd):
    """Points per tile of a pass through layers at most ``width`` rows
    wide, carrying values and nd jacobian directions."""
    return max(_TILE_MIN, _TILE_BYTES // (8 * width * (1 + nd)))


class Packed(list):
    """A packed layer list on d inputs, one (indptr, cols, vals, bias)
    tuple per layer.

    ``cut`` and ``axes``, found once here: the axis-separable prefix of the
    list, layers [0, cut), and the input axis each row of layer cut - 1
    reads (-1: none; None when cut is 0).  A layer belongs to the prefix
    when its rows are narrow, so they sum in order, its weights are finite,
    so a weight times +0.0 is a signed zero, and each row's ``row_masks``
    mask has at most one bit.  Only a list on 1 < d <= 62 inputs has a
    prefix: one input carries one plane anyway, and a mask holds 62 axes.

    ``runs`` holds (start, stop, narrow) for each maximal run of narrow
    layers and each layer with a row over ``_EXACT_ROW_NNZ`` entries, a run
    across the cut split there, so that the prefix tiles by its own width.
    ``plans`` maps each narrow run's start to its tile plan (``_plan``),
    and ``carried`` counts the carry rows, which no pass computes.  A list
    held for many passes (a network's, a certification lane's) is built as
    one, and the forward pass packs any other list on each call.
    """

    def __init__(self, layers, d=1):
        super().__init__(layers)
        counts = [indptr[1:] - indptr[:-1] for indptr, _, _, _ in self]
        narrow = [cnt.max(initial=0) <= _EXACT_ROW_NNZ for cnt in counts]
        self.cut, last = 0, None
        masks = row_masks(self, d) if 1 < d <= 62 else ()
        for (_, _, vals, _), m, ok in zip(self, masks, narrow):
            if not ok or not np.isfinite(vals).all() or (m & (m - 1)).any():
                break
            self.cut, last = self.cut + 1, m
        # a one-bit mask 1 << a has the exponent a + 1, and 0 has 0
        self.axes = None if last is None else np.frexp(last)[1] - 1
        self.runs = []
        for i, ok in enumerate(narrow):
            if ok and self.runs and self.runs[-1][2] and i != self.cut:
                self.runs[-1][1] = i + 1
            else:
                self.runs.append([i, i + 1, ok])
        self.carried, self.plans = 0, {}
        for start, stop, ok in self.runs:
            if ok:
                self.plans[start] = self._plan(start, stop, counts)

    def _plan(self, start, stop, counts):
        """The tile plan of the narrow run [start, stop): (layers, copies,
        top, slots, widest).

        A carry row lies in a layer strictly inside the run, holds one
        stored entry of weight 1.0 and has bias +-0.0; the row it reads is
        its source.  The carries that reach back through their sources to
        one computed row, their root, share one of the ``slots`` slots.
        ``layers`` are the run's layers as the tiles compute them, on tile
        rows numbered so: a layer's computed rows from 0, in order, then
        from ``top`` the slots.  A layer with carries keeps its computed
        rows alone, and the layer after it reads them at their new numbers
        and its carries in their slots.  ``copies[k] = (rows, lo, hi)``
        copies the roots of the run's layer k, at their tile rows, into
        slots [lo, hi) after its ReLU.  ``top`` is at least every layer's
        computed rows and every input row the first layer reads;
        ``widest``, the run's widest layer with its carries, sizes the
        tiles.  A run with no carry plans its own layers.
        """
        run = self[start:stop]
        widest = max(len(cnt) for cnt in counts[start:stop])
        read = int(run[0][1].max(initial=-1)) + 1
        plain = run, {}, max(widest, read), 0, widest
        if stop - start < 3:
            return plain
        # rows are numbered across the run
        cnt = np.concatenate(counts[start:stop])
        ends = np.cumsum([0] + [len(c) for c in counts[start:stop]])
        ptr = np.concatenate(([0], np.cumsum(cnt)))
        one = np.flatnonzero(cnt[ends[1]:ends[-2]] == 1) + ends[1]
        first = np.concatenate([v for _, _, v, _ in run])[ptr[one]]
        zero = np.concatenate([b for _, _, _, b in run])[one].view(np.int64) << 1 == 0
        carry = one[(first.view(np.int64) == _ONE) & zero]
        if not len(carry):
            return plain
        self.carried += len(carry)
        layer = np.repeat(np.arange(stop - start), ends[1:] - ends[:-1])
        root = np.arange(ends[-1])
        root[carry] = (np.concatenate([c for _, c, _, _ in run])[ptr[carry]]
                       + ends[layer[carry] - 1])
        while (root[root] != root).any():
            root = root[root]
        moved = np.zeros(ends[-1], dtype=bool)
        moved[carry] = True
        # at[g]: the tile row of row g, a computed row's rank in its layer
        at = np.concatenate(([0], np.cumsum(~moved)))
        before = at[ends]
        rows = before[1:] - before[:-1]
        at = at[1:] - 1 - before[layer]
        top = max(rows.max(), read)
        roots = np.zeros(ends[-1], dtype=bool)
        roots[root[carry]] = True
        roots = np.flatnonzero(roots)
        at[carry] = top + np.searchsorted(roots, root[carry])
        lo = np.searchsorted(roots, ends).tolist()
        copies = {k: (at[roots[lo[k]:lo[k + 1]]], lo[k], lo[k + 1])
                  for k in range(stop - start) if lo[k] < lo[k + 1]}
        ends, rows = ends.tolist(), rows.tolist()
        layers = []
        for k, (indptr, cols, vals, bias) in enumerate(run):
            kernel = cols
            if k and rows[k - 1] < ends[k] - ends[k - 1]:
                kernel = at[ends[k - 1]:ends[k]][cols]
            if rows[k] < ends[k + 1] - ends[k]:
                keep = ~moved[ends[k]:ends[k + 1]]
                n = counts[start + k]
                ent = np.repeat(keep, n)
                kernel, vals, bias = kernel[ent], vals[ent], bias[keep]
                indptr = np.concatenate(([0], np.cumsum(n[keep])))
            layers.append((indptr, kernel, vals, bias))
        return layers, copies, top, len(roots), widest


def row_masks(packed, d):
    """The input axes each row of a packed list on d <= 62 inputs reads:
    one int64 mask per row, yielded layer by layer.  Input column a sets
    bit a; a row's mask is the OR of the masks of the rows its stored
    entries read, an explicit 0.0 entry included, and 0 if it has none."""
    mask = np.left_shift(1, np.arange(d, dtype=np.int64))
    for indptr, cols, _, _ in packed:
        full = np.diff(indptr) > 0
        read = mask[cols]
        mask = np.zeros(len(full), dtype=np.int64)
        if full.any():
            mask[full] = np.bitwise_or.reduceat(read, indptr[:-1][full])
        yield mask


def _tile_split(npts, target, threads):
    """(tiles, threads) for ``npts`` points at about ``target`` points a
    tile: as many tiles as full ones would need, rounded down to a multiple
    of the threads, and no more threads than tiles, so every thread takes
    the same number of tiles.  A tile can then hold up to 1.5 times the
    target at two threads."""
    tiles = -(-npts // target)
    threads = max(1, min(tiles, threads))
    return tiles - tiles % threads, threads


def _narrow_run(plan, y, jac, relu_last, threads):
    """Run a narrow run's ``Packed._plan`` tile by tile over the points, in
    tiles of near-equal size that ``_tile_split`` counts from the
    ``_tile_points`` of the run's widest layer.

    y is (in, npts) and jac (in, npts, nd), point-major as the public pass
    holds them.  A tile holds its values as (height, n) and its jacobian as
    (height, nd, n), each in two arrays that the layers take in turn, input
    and output.  Each layer makes one kernel call on the values, from the
    bias, and one on the jacobian seen as (height, nd * n), from +0.0; the
    ReLU mask of the values multiplies every direction.  A value pass (nd =
    0) makes the one call.  A layer writes its computed rows from row 0;
    the slots follow at row ``top``, and a layer's roots are copied into
    them, in both arrays, after its ReLU.  Returns the run's (out, npts)
    values and (out, npts, nd) jacobian.

    The tiles go in equal contiguous blocks to the threads: the caller's
    takes the first block, each started thread one more, and each writes
    only its own columns of the outputs.  Every buffer a block writes is
    allocated here, on the caller's thread: the tile arrays and a mask
    plane.  A thread that allocated its own would open a malloc arena of
    its own, and the memory with it.
    """
    layers, copies, top, slots, widest = plan
    npts, nd = jac.shape[1], jac.shape[2]
    height, fill = top + slots, min(len(y), top)
    tiles, threads = _tile_split(npts, _tile_points(max(widest, len(y)), nd), threads)
    span = -(-npts // max(tiles, 1))
    # each layer's arguments, once a pass: its kernel arrays, the bias as a
    # column, its computed rows, whether a ReLU follows and its root copies
    last = len(layers) - 1
    steps = [(indptr, cols, vals, bias[:, None], len(bias), j < last or relu_last,
              copies.get(j)) for j, (indptr, cols, vals, bias) in enumerate(layers)]
    out = steps[-1][4]
    y_out = np.empty((out, npts))
    jac_out = np.empty((out, npts, nd))
    bufs = [(np.empty((2, height * span)), np.empty((2, height * nd * span)),
             np.empty(top * span if nd else 0, dtype=bool)) for _ in range(threads)]

    def block(k):
        vbuf, jbuf, mbuf = bufs[k]
        for i in range(k * tiles // threads, (k + 1) * tiles // threads):
            p0, p1 = i * npts // tiles, (i + 1) * npts // tiles
            n = p1 - p0
            v = vbuf[:, :height * n].reshape(2, height, n)
            v[0, :fill] = y[:fill, p0:p1]
            if nd:
                g = jbuf[:, :height * nd * n].reshape(2, height, nd, n)
                # the jacobian as the kernel sums it, nd * n columns a row
                flat = g.reshape(2, height, nd * n)
                g[0, :fill] = jac[:fill, p0:p1].transpose(0, 2, 1)
                mask = mbuf[:top * n].reshape(top, n)
                spread = mask[:, None]
            t = 0
            for indptr, cols, vals, bias, r, act, copy in steps:
                o = v[1 - t, :r]
                o[...] = bias
                _csr_add(indptr, cols, vals, v[t], o)
                if nd:
                    oj = flat[1 - t, :r]
                    oj.fill(0.0)
                    _csr_add(indptr, cols, vals, flat[t], oj)
                if act:
                    if nd:
                        np.greater(o, 0.0, out=mask[:r])
                        g[1 - t, :r] *= spread[:r]
                    np.maximum(o, 0.0, out=o)
                if copy is not None:
                    roots, lo, hi = copy
                    v[:, top + lo:top + hi] = o[roots]
                    if nd:
                        flat[:, top + lo:top + hi] = oj[roots]
                t = 1 - t
            y_out[:, p0:p1] = v[t, :out]
            if nd:
                jac_out[:, p0:p1] = g[t, :out].transpose(0, 2, 1)

    errors = {}

    def work(k):
        try:
            block(k)
        except BaseException as e:
            errors[k] = e

    started = []
    try:
        for k in range(1, threads):
            # in the caller's context, so its np.errstate holds there too
            started.append(threading.Thread(
                target=contextvars.copy_context().run, args=(work, k)))
            started[-1].start()
        block(0)
    finally:
        for th in started:
            th.join()
    if errors:
        raise errors[min(errors)]
    return y_out, jac_out


def _forward(packed, y, jac, first=0, end=None, threads=1):
    """The pass behind both entries through the layers [first, end), run
    boundaries both: values y (in, npts) and directions jac (in, npts, nd),
    nd = 0 for values alone.  Narrow runs share their tiles out to at most
    ``threads`` threads (``_narrow_run``).

    Maximal runs of narrow layers go tile by tile over the points, each tile
    through the whole run while it sits in cache; a layer with a wide row
    runs alone on the whole batch, since the sums of its BLAS dot may depend
    on the column range.  The in-order loop sums each column on its own, so
    the result is bit for bit that of one layer at a time.
    """
    if not isinstance(packed, Packed):
        packed = Packed(packed)
    npts, nd = jac.shape[1], jac.shape[2]
    last = len(packed) - 1
    for start, stop, narrow in packed.runs:
        if start < first or (end is not None and start >= end):
            continue
        if narrow:
            y, jac = _narrow_run(packed.plans[start], y, jac, stop - 1 < last,
                                 threads)
            continue
        indptr, cols, vals, bias = packed[start]
        rows = indptr.shape[0] - 1
        y = _csr_affine_np(indptr, cols, vals, bias, y)
        if nd:
            flat = np.ascontiguousarray(jac.reshape(len(jac), npts * nd))
            jac = _csr_affine_np(indptr, cols, vals, np.zeros(rows), flat)
        jac = jac.reshape(rows, npts, nd)
        if start < last:
            relu(y, jac)
    return y, jac


def relu(y, jac):
    """The ReLU in place on values y (rows, npts) and on their jacobian jac
    (rows, npts, nd), each entry multiplied by whether ``y > 0.0`` held
    before it (relu'(0) = 0), as ``_narrow_run``'s mask plane does inside
    a tile: every pass outside the tiles applies it here."""
    jac *= (y > 0.0)[:, :, None]
    np.maximum(y, 0.0, out=y)


def run_forward_grad(packed, x, seed=None):
    """Forward pass with jacobian accumulation.

    x is (in_dim, npts).  Returns (y, jac) with y of shape (out_dim, npts)
    and jac of shape (out_dim, npts, nd); the jacobian uses the a.e.
    convention relu'(0) = 0.  By default nd = in_dim and the seed is the
    per-point identity; an explicit (in_dim, npts, nd) seed propagates only
    nd directions, which is what chain-rule callers want when the input
    dimension is large.  ``Packed`` lists bring their run split along; any
    other list of packed layers is split on each call.

    With the identity seed and in_dim > 1, a ``Packed`` list runs its
    axis-separable prefix (``Packed.cut``) with one plane seeded 1.0
    on every input, which is then scattered into the in_dim planes by each
    row's axis, +0.0 elsewhere; the layers after it run as with any seed.
    The planes come out bit for bit as from the explicit identity seed.

    With no seed, narrow runs share their tiles out to ``_pool_size``
    threads; an explicit seed runs on the caller's thread alone.
    """
    d, npts = x.shape
    y = np.ascontiguousarray(x, dtype=np.float64)
    if seed is not None:
        jac = np.asarray(seed, dtype=np.float64)
        if jac.ndim != 3 or jac.shape[0] != d or jac.shape[1] != npts:
            raise ValueError("seed must have shape (in_dim, npts, nd)")
        return _forward(packed, y, jac)
    if not isinstance(packed, Packed):
        packed = Packed(packed)
    cut, axes = packed.cut, packed.axes
    threads = _pool_size(npts)
    if cut:
        y, one = _forward(packed, y, np.ones((d, npts, 1)), end=cut,
                          threads=threads)
        jac = np.zeros((len(axes), npts, d))
        rows = np.flatnonzero(axes >= 0)
        jac[rows, :, axes[rows]] = one[rows, :, 0]
    else:
        jac = np.zeros((d, npts, d))
        jac[np.arange(d), :, np.arange(d)] = 1.0
    return _forward(packed, y, jac, first=cut, threads=threads)
