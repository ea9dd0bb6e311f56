"""Sparse ReLU networks as explicit weight tuples.

A network is a finite list of affine layers (A_l, b_l); the realization
applies ReLU between layers and leaves the final layer affine.  Weights are
stored as row-major sorted triplets so that serialization is canonical and
the size statistic counts exactly the nonzero entries.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import backends


class Layer:
    """One affine layer A x + b with triplet-stored A.

    Triplets are canonicalized to row-major (i, j) order; duplicate entries
    are rejected.  Explicitly stored zeros are kept but never counted by
    size statistics.
    """

    __slots__ = ("rows", "cols", "row_idx", "col_idx", "vals", "bias", "_indptr")

    def __init__(self, rows, cols, row_idx, col_idx, vals, bias):
        rows = int(rows)
        cols = int(cols)
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
        row_idx = row_idx[order]
        col_idx = col_idx[order]
        vals = vals[order]
        if len(row_idx) > 1:
            same = (np.diff(row_idx) == 0) & (np.diff(col_idx) == 0)
            if same.any():
                raise ValueError("duplicate triplet entry")
        bias = np.asarray(bias, dtype=np.float64).ravel()
        if len(bias) != rows:
            raise ValueError(f"bias length {len(bias)} != rows {rows}")
        self.rows = rows
        self.cols = cols
        self.row_idx = row_idx
        self.col_idx = col_idx
        self.vals = vals
        self.bias = bias
        self._indptr = None

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
    def indptr(self):
        if self._indptr is None:
            self._indptr = np.searchsorted(self.row_idx, np.arange(self.rows + 1)).astype(np.int64)
        return self._indptr

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


class NeuralNetwork:
    """Immutable weight tuple ((A_1, b_1), ..., (A_L, b_L))."""

    __slots__ = ("input_dim", "layers", "meta", "_packed")

    def __init__(self, input_dim, layers, meta=None):
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
        self.meta = dict(meta) if meta else {}
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
        so dropping it moves no bit.  Live rows keep their order and their
        terms in stored order, their columns renumbered monotonically to the
        live rows they read.  The inputs always stay.

        Then ``_merge_rows`` keeps, in each layer but the output, only the
        first of the rows that compute the same thing: same bias bits and
        the same terms in the same order, a term being the kept row it
        reads and its value bits.  Identical operations in identical order
        give identical bits, so this too moves no bit.
        """
        if self._packed is None:
            live = [np.ones(self.output_dim, dtype=bool)]
            for lay in self.layers[:0:-1]:
                read = np.zeros(lay.cols, dtype=bool)
                read[lay.col_idx[live[-1][lay.row_idx]]] = True
                live.append(read)
            live.append(np.ones(self.input_dim, dtype=bool))
            live.reverse()
            self._packed = backends.Packed(_merge_rows(
                [_live_rows(lay, ins, outs)
                 for lay, ins, outs in zip(self.layers, live, live[1:])]))
        return self._packed


def _live_rows(lay, ins, outs):
    """Packed (indptr, cols, vals, bias) of the rows ``outs`` of a layer
    whose live inputs are ``ins``."""
    if outs.all() and ins.all():
        return lay.indptr, lay.col_idx, lay.vals, lay.bias
    keep = outs[lay.row_idx]
    cols = (np.cumsum(ins) - 1)[lay.col_idx[keep]]
    indptr = np.concatenate(([0], np.cumsum(np.diff(lay.indptr)[outs])))
    return indptr, cols, lay.vals[keep], lay.bias[outs]


def _merge_rows(layers):
    """Hold each bit-identical row of a packed layer list once.

    Forward from the first layer ``_first_duplicate`` flags, each layer's
    columns are renumbered to the rows the previous layer kept, and then,
    unless it is the output layer, its rows are grouped on their bit keys
    (``_row_keys``) and only the first row of each group stays.  Rows over
    ``backends._EXACT_ROW_NNZ`` entries run through a BLAS dot, whose sums
    need not follow the operands alone, so they are never merged.
    """
    rep = None
    for k in range(_first_duplicate(layers), len(layers)):
        indptr, cols, vals, bias = layers[k]
        if rep is not None:
            cols = rep[cols]
        if k < len(layers) - 1:
            cnt = np.diff(indptr)
            rows = np.flatnonzero(cnt <= backends._EXACT_ROW_NNZ)
            keys = _row_keys(indptr, cols, vals, bias, rows)
            _, first, group = np.unique(_as_bytes(keys), return_index=True,
                                        return_inverse=True)
            owner = np.arange(len(cnt))
            owner[rows] = rows[first][group]
            kept = owner == np.arange(len(cnt))
            rep = (np.cumsum(kept) - 1)[owner]
            keep = np.repeat(kept, cnt)
            indptr = np.concatenate(([0], np.cumsum(cnt[kept])))
            cols, vals, bias = cols[keep], vals[keep], bias[kept]
        layers[k] = indptr, cols, vals, bias
    return layers


def _row_keys(indptr, cols, vals, bias, rows):
    """One int64 key row per row of ``rows``, equal exactly when the rows
    are bit-identical: its term count, its bias bits, then (column, value
    bits) for each term in stored order, zero-padded."""
    cnt = np.diff(indptr)[rows]
    keys = np.zeros((len(rows), 2 + 2 * int(cnt.max(initial=0))), dtype=np.int64)
    keys[:, 0] = cnt
    keys[:, 1] = bias[rows].view(np.int64)
    at = np.repeat(np.arange(len(rows)), cnt)
    pos = np.arange(len(at)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    take = indptr[rows][at] + pos
    keys[at, 2 + 2 * pos] = cols[take]
    keys[at, 3 + 2 * pos] = vals[take].view(np.int64)
    return keys


def _first_duplicate(layers):
    """The first layer but the output that may hold two bit-identical
    narrow rows, or the output layer if none does: the first layer in which
    two narrow rows share their ``_fingerprints``.  Nets with nothing to
    merge, like the basis nets a build measures, pay only this pass."""
    if len(layers) == 1:
        return 0
    # a function of its own, so that its whole-net temporaries are freed
    # before the sort
    keys = _fingerprints(layers[:-1])
    keys = keys[keys[:, 1] <= backends._EXACT_ROW_NNZ]
    uniq, count = np.unique(_as_bytes(keys), return_counts=True)
    return int(uniq.view(np.int64).reshape(-1, 5)[count > 1, 0].min(
        initial=len(layers) - 1))


def _fingerprints(layers):
    """One row per row of the packed ``layers``, in one pass over them all:
    its layer, term count and bias bits, and two wrapping sums, of (column
    + 1) times the high and the low 32 bits of each value.  Bit-identical
    rows share them.  Split, a value's sign bit stays in the sums; at bit
    63 of a whole pattern any even weight would shift it out, and rows that
    differ only in signs would collide."""
    indptrs, cols, vals, bias = zip(*layers)
    sizes = [len(indptr) for indptr in indptrs]
    nnz = [len(c) for c in cols]
    # each row's bounds in the concatenated terms: the last entry of an
    # indptr starts no row
    ptr = np.concatenate(indptrs) + np.repeat(np.cumsum(nnz) - nnz, sizes)
    starts = np.ones(len(ptr), dtype=bool)
    starts[np.cumsum(sizes) - 1] = False
    lo, hi = ptr[starts], ptr[1:][starts[:-1]]
    keys = np.empty((len(lo), 5), dtype=np.int64)
    keys[:, 0] = np.repeat(np.arange(len(sizes)), np.subtract(sizes, 1))
    keys[:, 1] = hi - lo
    keys[:, 2] = np.concatenate(bias).view(np.int64)
    # the term arrays span the whole net, so they are worked in place;
    # after its cumsum, csum[i] sums the first i terms
    cols = np.concatenate(cols)
    cols += 1
    bits = np.concatenate(vals).view(np.int64)
    csum = np.zeros(len(bits) + 1, dtype=np.int64)
    for j, half, arg in ((3, np.right_shift, 32), (4, np.bitwise_and, 0xFFFFFFFF)):
        half(bits, arg, out=csum[1:])
        csum[1:] *= cols
        np.cumsum(csum, out=csum)
        keys[:, j] = csum[hi] - csum[lo]
    return keys


def _as_bytes(keys):
    """The rows of a C-ordered 2d array as single opaque items, equal when
    their bytes are."""
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()


def stats(net):
    """Depth, nonzero count, neuron count and per-layer widths.

    ``live_size`` counts the nonzero weights and biases of the packed rows
    (``packed``: live, each bit-identical row once), the terms a pass
    multiplies, and ``live_rows`` those rows, the ones a pass computes."""
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
    """Evaluate the network on an (n, input_dim) point array -> (n, out)."""
    return backends.run_forward(net.packed(), _points(net, pts).T).T


def realize(net, x):
    """Evaluate the network on a single input vector."""
    return realize_batch(net, np.atleast_1d(x)[None, :])[0]


# Cap on the width * points * directions entries of one jacobian chunk.
_JAC_BUDGET = 10_000_000


def _grad_chunk(n, width, nd):
    """Points per forward-jacobian pass over n points through layers at
    most ``width`` rows wide, propagating nd directions."""
    return max(64, min(n, int(_JAC_BUDGET / max(1, width * nd))))


def grad_realize_batch(net, pts):
    """Values and jacobians on a batch: returns (vals (n, out), jac (n, out, d)).

    The jacobian is the a.e. forward-mode derivative with relu'(0) = 0.
    Points run in ``_grad_chunk`` chunks so the jacobian buffer stays
    bounded.
    """
    pts = _points(net, pts)
    n, d = pts.shape
    chunk = _grad_chunk(n, max(lay.rows for lay in net.layers), d)
    vals = np.empty((n, net.output_dim))
    jac = np.empty((n, net.output_dim, d))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        y, j = backends.run_forward_grad(net.packed(), pts[lo:hi].T)
        vals[lo:hi] = y.T
        jac[lo:hi] = np.moveaxis(j, 1, 0)
    return vals, jac


def grad_realize(net, x):
    """Jacobian (out_dim, input_dim) of the realization at one point."""
    return grad_realize_batch(net, np.atleast_1d(x)[None, :])[1][0]


def _fmt(x):
    # 17 significant digits round-trips binary64 exactly.
    return format(float(x), ".17g")


def serialize(net):
    """Canonical JSON text for a network; weights ordered row-major."""
    parts = ['{"input_dim": %d, "layers": [' % net.input_dim]
    for k, lay in enumerate(net.layers):
        if k:
            parts.append(", ")
        trips = ", ".join(
            "[%d, %d, %s]" % (i, j, _fmt(v))
            for i, j, v in zip(lay.row_idx, lay.col_idx, lay.vals)
        )
        bias = ", ".join(_fmt(b) for b in lay.bias)
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


def deserialize(text):
    """Parse serialized JSON back into a NeuralNetwork (bit-exact weights).

    Dimensions must be JSON integers, weight indices integral, and every
    weight and bias a finite number (not a boolean); anything else is
    rejected, naming the layer."""
    try:
        doc = json.loads(text, parse_int=_parse_int)
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
        try:
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
            layers.append(Layer(rows, cols, idx[:, 0], idx[:, 1], w[:, 2], bias))
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"layer {k}: {e}") from e
    try:
        return NeuralNetwork(input_dim, layers)
    except ValueError as e:
        raise ValueError(f"inconsistent layer chain: {e}") from e
