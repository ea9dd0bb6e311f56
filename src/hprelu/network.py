"""Sparse ReLU networks as explicit weight tuples.

A network is a finite list of affine layers (A_l, b_l); the realization
applies ReLU between layers and leaves the final layer affine.  Each A_l is
stored in compressed sparse row form with 32-bit column indices, every row's
entries in ascending column order, so its entries in storage order are the
row-major sorted triplets that serialization writes, and the size statistic
counts exactly the nonzero entries.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import backends


class Layer:
    """One affine layer A x + b with A in compressed sparse row form.

    ``indptr`` (int64, rows + 1 entries) bounds each row's run of
    ``col_idx`` (int32) and ``vals``; within a row the columns ascend, so
    storage order is canonical row-major (i, j) order.  ``row_idx``, the row
    of each entry, is derived on demand.  12 bytes a weight and 16 a row.

    The constructor takes triplets in any order and canonicalizes them;
    ``from_csr`` takes rows that are already canonical.  Indices that are
    not integers, duplicate entries and layers of 2**31 columns or more are
    rejected.  Explicitly stored zeros are kept but never counted by size
    statistics.
    """

    __slots__ = ("rows", "cols", "indptr", "col_idx", "vals", "bias")

    def __init__(self, rows, cols, row_idx, col_idx, vals, bias):
        rows, cols = _dims(rows, cols)
        row_idx = _indices(row_idx, "row").astype(np.int64, copy=False).ravel()
        col_idx = _indices(col_idx, "column").astype(np.int64, copy=False).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if not (len(row_idx) == len(col_idx) == len(vals)):
            raise ValueError("triplet arrays must have equal length")
        if len(row_idx) and (row_idx.min() < 0 or row_idx.max() >= rows):
            raise ValueError("triplet index out of range")
        _check_cols(col_idx, cols)
        order = np.lexsort((col_idx, row_idx))
        row_idx = row_idx[order]
        col_idx = col_idx[order]
        if len(row_idx) > 1:
            same = (np.diff(row_idx) == 0) & (np.diff(col_idx) == 0)
            if same.any():
                raise ValueError("duplicate triplet entry")
        self._set(rows, cols, np.searchsorted(row_idx, np.arange(rows + 1)),
                  col_idx, vals[order], bias)

    @classmethod
    def from_csr(cls, rows, cols, indptr, col_idx, vals, bias):
        """A layer from CSR arrays whose rows already hold their columns in
        ascending order: checked, never sorted.  The calculus builds every
        layer it stacks this way."""
        rows, cols = _dims(rows, cols)
        indptr = _indices(indptr, "indptr").astype(np.int64, copy=False)
        col_idx = _indices(col_idx, "column")
        vals = np.asarray(vals, dtype=np.float64)
        n = len(col_idx)
        if (indptr.shape != (rows + 1,) or indptr[0] != 0 or indptr[-1] != n
                or col_idx.shape != (n,) or vals.shape != (n,)
                or (indptr[1:] < indptr[:-1]).any()):
            raise ValueError("indptr must bound rows + 1 runs of the entries")
        _check_cols(col_idx, cols)
        # each entry lies right of the one before it, unless it starts a row
        starts = np.zeros(n + 1, dtype=bool)
        starts[indptr] = True
        if not ((col_idx[1:] > col_idx[:-1]) | starts[1:-1]).all():
            raise ValueError("columns must ascend within each row")
        lay = cls.__new__(cls)
        lay._set(rows, cols, indptr, col_idx, vals, bias)
        return lay

    def _set(self, rows, cols, indptr, col_idx, vals, bias):
        bias = np.asarray(bias, dtype=np.float64).ravel()
        if len(bias) != rows:
            raise ValueError(f"bias length {len(bias)} != rows {rows}")
        self.rows = rows
        self.cols = cols
        self.indptr = indptr
        self.col_idx = col_idx.astype(np.int32, copy=False)
        self.vals = vals
        self.bias = bias

    @classmethod
    def from_dense(cls, a, b=None):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("dense layer matrix must be 2d")
        if b is None:
            b = np.zeros(a.shape[0])
        i, j = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], i, j, a[i, j], b)

    @property
    def row_idx(self):
        """The row of each stored entry (int64), rebuilt on each read."""
        return np.repeat(np.arange(self.rows), np.diff(self.indptr))

    @property
    def nnz_weights(self):
        return int(np.count_nonzero(self.vals))

    @property
    def nnz_bias(self):
        return int(np.count_nonzero(self.bias))

    def dense(self):
        a = np.zeros((self.rows, self.cols))
        a[self.row_idx, self.col_idx] = self.vals
        return a


def _dims(rows, cols):
    rows = int(rows)
    cols = int(cols)
    if rows < 1 or cols < 1:
        raise ValueError("layer dimensions must be positive")
    # col_idx is int32
    if cols >= 2 ** 31:
        raise ValueError(f"a layer has at most 2**31 - 1 columns, got {cols}")
    return rows, cols


def _indices(idx, what):
    """``idx`` as an array of numpy's integer kinds, or empty (``[]`` reads
    as floats): a float, bool or string index is rejected, never truncated
    or coerced."""
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"{what} indices must be integers")
    return idx


def _check_cols(col_idx, cols):
    if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= cols):
        raise ValueError("triplet index out of range")


@dataclass(frozen=True)
class NetworkStats:
    depth: int
    size: int
    live_size: int
    live_rows: int
    neurons: int
    input_dim: int
    output_dim: int
    widths: tuple
    separable_depth: int


class NeuralNetwork:
    """Immutable weight tuple ((A_1, b_1), ..., (A_L, b_L))."""

    __slots__ = ("input_dim", "layers", "meta", "_packed")

    def __init__(self, input_dim, layers):
        input_dim = int(input_dim)
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        layers = tuple(layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        prev = input_dim
        for k, lay in enumerate(layers):
            if lay.cols != prev:
                raise ValueError(
                    f"layer {k}: expects {lay.cols} inputs but previous width is {prev}"
                )
            prev = lay.rows
        self.input_dim = input_dim
        self.layers = layers
        self.meta = {}
        self._packed = None

    @property
    def depth(self):
        return len(self.layers)

    @property
    def output_dim(self):
        return self.layers[-1].rows

    @property
    def size(self):
        return sum(lay.nnz_weights + lay.nnz_bias for lay in self.layers)

    @property
    def neurons(self):
        return self.input_dim + sum(lay.rows for lay in self.layers)

    def packed(self):
        """The layers as a ``backends.Packed`` list of their live rows, each
        bit-identical row held once.

        A row is live if it is an output or a stored entry of a live row of
        the next layer reads it.  An explicit 0.0 entry counts as a read, so
        a 0 * inf NaN still reaches its sum.  A dead row reaches no output,
        so dropping it moves no bit.  The inputs always stay.  One backward
        sweep marks the live rows; one forward pass (``_pack_rows``) packs
        them and holds each bit-identical row once.
        """
        if self._packed is None:
            live = [np.ones(self.output_dim, dtype=bool)]
            for lay in self.layers[:0:-1]:
                read = np.zeros(lay.cols, dtype=bool)
                read[lay.col_idx[np.repeat(live[-1], lay.indptr[1:] - lay.indptr[:-1])]] = True
                live.append(read)
            self._packed = backends.Packed(_pack_rows(self.layers, live[::-1]),
                                           self.input_dim)
        return self._packed


def _pack_rows(layers, live):
    """Packed (indptr, cols, vals, bias) of the rows ``live[k]`` of each
    layer k, each bit-identical row of a layer but the output held once.

    Live rows keep their order and their terms in stored order.  A layer's
    columns are renumbered to the packed rows they read only when the
    layer before it dropped rows; either way they leave as int64, the
    index type of ``indptr``, so the kernel converts no index array on any
    call.  Then, in each layer but the output, only the first of the rows
    that compute the same thing stays: same bias bits and the same terms in
    the same order, a term being the kept row it reads and
    its value bits (``_row_keys``).  Its readers read that row in place of
    the others.  Identical operations in identical order give identical
    bits, so this moves no bit.  Rows over ``backends._EXACT_ROW_NNZ``
    entries run through a BLAS dot, whose sums need not follow the
    operands alone, so they are never merged.  A layer with no two rows
    alike by ``_may_repeat`` builds no keys.
    """
    out = []
    rep = None
    for k, (lay, outs) in enumerate(zip(layers, live)):
        indptr, cols, vals, bias = lay.indptr, lay.col_idx, lay.vals, lay.bias
        # not np.diff, whose Python wrapper costs more than the subtraction
        # on the small layers of the basis-net heads and tails each build
        # packs
        cnt = indptr[1:] - indptr[:-1]
        whole = outs.all()
        if not whole:
            keep = np.repeat(outs, cnt)
            cnt, cols, vals, bias = cnt[outs], cols[keep], vals[keep], bias[outs]
            indptr = np.concatenate(([0], np.cumsum(cnt)))
        cols = cols.astype(np.int64) if rep is None else rep[cols]
        # rep[j]: the packed row that stands for row j of this layer
        rep = None if whole else np.cumsum(outs) - 1
        if k < len(layers) - 1 and _may_repeat(indptr, cols, vals, bias):
            rows = np.flatnonzero(cnt <= backends._EXACT_ROW_NNZ)
            _, first, group = np.unique(_row_keys(indptr, cols, vals, bias, rows),
                                        return_index=True, return_inverse=True)
            if len(first) < len(rows):
                owner = np.arange(len(cnt))
                owner[rows] = rows[first][group]
                kept = owner == np.arange(len(cnt))
                merged = (np.cumsum(kept) - 1)[owner]
                rep = merged if rep is None else merged[rep]
                keep = np.repeat(kept, cnt)
                cnt, cols, vals, bias = cnt[kept], cols[keep], vals[keep], bias[kept]
                indptr = np.concatenate(([0], np.cumsum(cnt)))
        out.append((indptr, cols, vals, bias))
    return out


def _may_repeat(indptr, cols, vals, bias):
    """Whether two rows of a packed layer share the wrapping int64 sum of
    their bias bits and, over their terms, their value bits plus 1,000,003
    times their column (taken in int64: in int32 it wraps from column
    2,148 on).  Bit-identical rows do; a shared sum only sends
    the layer to the exact keys.  It costs a few numpy calls, a fraction of
    the keys', which matters on the small layers a build packs for its
    basis nets, where nothing merges: one head per bubble net, one shared
    tail per group of them (``emulation.BasisNets``) and each other net
    whole."""
    h = np.concatenate(([0], np.cumsum(
        np.multiply(cols, 1_000_003, dtype=np.int64) + vals.view(np.int64))))
    h = h[indptr[1:]] - h[indptr[:-1]] + bias.view(np.int64)
    h.sort()
    return bool((h[1:] == h[:-1]).any())


def _row_keys(indptr, cols, vals, bias, rows):
    """One opaque key per row of ``rows``, equal exactly when the rows are
    bit-identical: the bytes of its term count, its bias bits, then
    (column, value bits) for each term in stored order, zero-padded."""
    cnt = np.diff(indptr)[rows]
    keys = np.zeros((len(rows), 2 + 2 * int(cnt.max(initial=0))), dtype=np.int64)
    keys[:, 0] = cnt
    keys[:, 1] = bias[rows].view(np.int64)
    at = np.repeat(np.arange(len(rows)), cnt)
    pos = np.arange(len(at)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    take = indptr[rows][at] + pos
    keys[at, 2 + 2 * pos] = cols[take]
    keys[at, 3 + 2 * pos] = vals[take].view(np.int64)
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def stats(net):
    """Depth, nonzero count, neuron count and per-layer widths.

    ``live_size`` counts the nonzero weights and biases of the packed rows
    (``packed``: live, each bit-identical row once), the terms a pass
    multiplies, and ``live_rows`` those rows, the ones a pass computes.
    ``separable_depth`` counts the leading packed layers whose
    identity-seeded jacobian runs as one plane: every layer of a one-input
    net, else the axis-separable prefix (``backends.Packed.cut``)."""
    packed = net.packed()
    return NetworkStats(
        depth=net.depth,
        size=net.size,
        live_size=sum(int(np.count_nonzero(vals) + np.count_nonzero(bias))
                      for _, _, vals, bias in packed),
        live_rows=sum(len(indptr) - 1 for indptr, _, _, _ in packed),
        neurons=net.neurons,
        input_dim=net.input_dim,
        output_dim=net.output_dim,
        widths=tuple(lay.rows for lay in net.layers),
        separable_depth=net.depth if net.input_dim == 1 else packed.cut,
    )


def _points(net, pts):
    """A batch as an (n, input_dim) float array; 1-D is n 1-D points."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim not in (1, 2):
        raise ValueError(f"points must be a 1-D or 2-D array, got shape {pts.shape}")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != net.input_dim:
        raise ValueError(f"points have dim {pts.shape[1]}, network expects {net.input_dim}")
    return pts


def realize_batch(net, pts):
    """Evaluate the network on an (n, input_dim) point array -> (n, out).

    Points run in ``grad_realize_batch``'s chunks, so the values are its
    values bit for bit on every batch, and the memory of a large batch is
    bounded by its chunk."""
    return _chunked(net, pts, grad=False)[0]


def realize(net, x):
    """Evaluate the network on a single input vector."""
    return realize_batch(net, np.atleast_1d(x)[None, :])[0]


# Cap on the width * points * directions entries of one jacobian chunk.
_JAC_BUDGET = 10_000_000


def _grad_chunk(n, width, nd):
    """Points per forward-jacobian pass over n points through layers at
    most ``width`` rows wide, propagating nd directions."""
    return max(64, min(n, int(_JAC_BUDGET / max(1, width * nd))))


def _chunked(net, pts, grad):
    """The one chunk loop of both point entries: (vals (n, out), jac (n,
    out, d), or None without ``grad``).

    Points run in ``_grad_chunk`` chunks so the jacobian buffer stays
    bounded.  The chunk bounds are where a wide row's BLAS dot may start
    its column ranges, so both entries cut at the same points.
    """
    pts = _points(net, pts)
    n, d = pts.shape
    chunk = _grad_chunk(n, max(lay.rows for lay in net.layers), d)
    vals = np.empty((n, net.output_dim))
    jac = np.empty((n, net.output_dim, d)) if grad else None
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        if grad:
            y, j = backends.run_forward_grad(net.packed(), pts[lo:hi].T)
            jac[lo:hi] = np.moveaxis(j, 1, 0)
        else:
            y = backends.run_forward(net.packed(), pts[lo:hi].T)
        vals[lo:hi] = y.T
    return vals, jac


def grad_realize_batch(net, pts):
    """Values and jacobians on a batch: returns (vals (n, out), jac (n, out, d)).

    The jacobian is the a.e. forward-mode derivative with relu'(0) = 0.
    """
    return _chunked(net, pts, grad=True)


def grad_realize(net, x):
    """Jacobian (out_dim, input_dim) of the realization at one point."""
    return grad_realize_batch(net, np.atleast_1d(x)[None, :])[1][0]


def _fmt(x):
    # 17 significant digits round-trips binary64 exactly.
    return format(float(x), ".17g")


def serialize(net):
    """Canonical JSON text for a network; weights ordered row-major.

    ``"%.17g" % v`` is the string ``_fmt(v)`` writes, ``-0``, ``inf`` and
    ``nan`` included."""
    parts = ['{"input_dim": %d, "layers": [' % net.input_dim]
    for k, lay in enumerate(net.layers):
        if k:
            parts.append(", ")
        trips = ", ".join(["[%d, %d, %.17g]" % t for t in zip(
            lay.row_idx.tolist(), lay.col_idx.tolist(), lay.vals.tolist())])
        bias = ", ".join(["%.17g" % b for b in lay.bias.tolist()])
        parts.append(
            '{"rows": %d, "cols": %d, "weights": [%s], "bias": [%s]}'
            % (lay.rows, lay.cols, trips, bias)
        )
    parts.append("]}")
    return "".join(parts)


def _parse_int(text):
    # serialize writes a negative zero as "-0"; keep its sign
    return -0.0 if text == "-0" else int(text)


def _count(x, what):
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _layer(entry):
    """One decoded layer object as a ``Layer``; raises on anything
    malformed."""
    rows = _count(entry["rows"], "rows")
    cols = _count(entry["cols"], "cols")
    weights, bias = entry["weights"], entry["bias"]
    if not isinstance(weights, list):
        raise ValueError("weights must be a list of triplets")
    if not isinstance(bias, list):
        raise ValueError("bias must be a list")
    w = np.asarray(weights, dtype=np.float64) if weights else np.empty((0, 3))
    if w.ndim != 2 or w.shape[1] != 3:
        raise ValueError("weights must be [i, j, value] triplets")
    # JSON true/false would otherwise read as 1/0
    if bool in set(map(type, chain(bias, chain.from_iterable(weights)))):
        raise ValueError("weights and biases must not be booleans")
    bias = np.asarray(bias, dtype=np.float64)
    if bias.ndim != 1:
        raise ValueError("bias must be a flat list of numbers")
    if not (np.isfinite(w).all() and np.isfinite(bias).all()):
        raise ValueError("weights and biases must be finite")
    idx = w[:, :2]
    if np.any(idx != np.trunc(idx)):
        raise ValueError("weight indices must be integers")
    idx = idx.astype(np.int64)
    return Layer(rows, cols, idx[:, 0], idx[:, 1], w[:, 2], bias)


def _layer_hook(obj):
    # A document stays a dict; so does any object that is not a valid layer.
    # Nothing is raised here: it would stop the scanner before a syntax
    # error further on, and the loop in deserialize raises the same error
    # for that layer once the whole text has parsed.
    if "input_dim" in obj and "layers" in obj:
        return obj
    try:
        return _layer(obj)
    except Exception:
        return obj


def deserialize(text):
    """Parse serialized JSON back into a NeuralNetwork (bit-exact weights).

    Dimensions must be JSON integers, weight indices integral, and every
    weight and bias a finite number (not a boolean); anything else is
    rejected, naming the layer.

    Each layer object becomes a ``Layer`` as soon as the JSON scanner has
    read it, so the decoder never holds more than one layer's Python lists
    (about 107 B per ``[i, j, v]`` triplet, against 24 B as arrays).  This
    took the benchmark's build-3d peak RSS, which serves a 710,709-weight
    net after its build, from 212 to 141 MB.  An object that is not a valid
    layer stays a dict, and the loop below names the first such layer after
    the whole text has parsed, so a JSON syntax error anywhere still comes
    first."""
    try:
        doc = json.loads(text, parse_int=_parse_int, object_hook=_layer_hook)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "input_dim" not in doc or "layers" not in doc:
        raise ValueError("document must carry input_dim and layers")
    raw_layers = doc["layers"]
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError("layers must be a non-empty list")
    input_dim = _count(doc["input_dim"], "input_dim")
    layers = []
    for k, entry in enumerate(raw_layers):
        # an integer literal too large for a float raises OverflowError
        try:
            layers.append(entry if isinstance(entry, Layer) else _layer(entry))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"layer {k}: {e}") from e
    try:
        return NeuralNetwork(input_dim, layers)
    except ValueError as e:
        raise ValueError(f"inconsistent layer chain: {e}") from e
