"""Network type, realization, stats, gradients and JSON round trips."""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hprelu import backends, network
from hprelu.calculus import full_parallel
from hprelu.network import (
    Layer,
    NeuralNetwork,
    deserialize,
    grad_realize,
    grad_realize_batch,
    realize,
    realize_batch,
    serialize,
    stats,
)

from helpers import (
    canonical_triplets,
    dense_realize,
    fd_jacobian,
    inorder_realize,
    kernel_threads,
    merged_rows,
    packed_rows,
    random_net,
    row_masks_oracle,
    separable_prefix,
    whole_document_deserialize,
)


def test_single_affine_layer():
    net = NeuralNetwork(1, [Layer(1, 1, [0], [0], [2.0], [1.0])])
    assert realize(net, [3.0]) == pytest.approx([7.0], abs=0)


def test_two_layer_identity_split():
    # relu(x) - relu(-x) = x
    l1 = Layer(2, 1, [0, 1], [0, 0], [1.0, -1.0], [0.0, 0.0])
    l2 = Layer(1, 2, [0, 0], [0, 1], [1.0, -1.0], [0.0])
    net = NeuralNetwork(1, [l1, l2])
    for x in [-2.5, -0.3, 0.0, 0.7, 4.0]:
        assert realize(net, [x])[0] == x


def test_realize_matches_dense_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        net = random_net(rng)
        pts = rng.standard_normal((11, net.input_dim))
        got = realize_batch(net, pts)
        want = np.stack([dense_realize(net, p) for p in pts])
        assert np.allclose(got, want, atol=1e-13)


def test_gradient_against_finite_differences():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        net = random_net(rng, depth=3)
        x = rng.standard_normal(net.input_dim)
        # keep away from relu kinks so the a.e. derivative is the classical one
        y = np.asarray(x, dtype=np.float64)
        safe = True
        for k, lay in enumerate(net.layers):
            y = lay.dense() @ y + lay.bias
            if k < net.depth - 1:
                if np.min(np.abs(y)) < 1e-6:
                    safe = False
                    break
                y = np.maximum(y, 0.0)
        if not safe:
            continue
        jac = grad_realize(net, x)
        ref = fd_jacobian(lambda p: dense_realize(net, p), x)
        assert np.allclose(jac, ref, atol=1e-5)
        checked += 1


def test_relu_subgradient_zero_at_kink():
    # single neuron relu(x): derivative reported as 0 at x = 0
    l1 = Layer(1, 1, [0], [0], [1.0], [0.0])
    l2 = Layer(1, 1, [0], [0], [1.0], [0.0])
    net = NeuralNetwork(1, [l1, l2])
    assert grad_realize(net, [0.0])[0, 0] == 0.0
    assert grad_realize(net, [1.0])[0, 0] == 1.0
    assert grad_realize(net, [-1.0])[0, 0] == 0.0


def test_stats_counts_nonzeros_only():
    lay = Layer(2, 2, [0, 0, 1], [0, 1, 1], [1.0, 0.0, 3.0], [0.0, 2.0])
    net = NeuralNetwork(2, [lay])
    s = stats(net)
    assert s.size == 3  # two nonzero weights + one nonzero bias
    assert s.depth == 1
    assert s.neurons == 4
    assert s.widths == (2,)
    # adding an explicit zero triplet must not change size
    lay2 = Layer(2, 2, [0, 0, 1, 1], [0, 1, 1, 0], [1.0, 0.0, 3.0, 0.0], [0.0, 2.0])
    assert NeuralNetwork(2, [lay2]).size == 3


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(1, 1, [0, 0], [0, 0], [1.0, 2.0], [0.0])  # duplicate entry
    with pytest.raises(ValueError):
        Layer(1, 1, [1], [0], [1.0], [0.0])  # row out of range
    with pytest.raises(ValueError):
        Layer(1, 1, [0], [0], [1.0], [0.0, 0.0])  # bias length mismatch
    with pytest.raises(ValueError):
        NeuralNetwork(1, [])  # empty layer list
    with pytest.raises(ValueError):
        NeuralNetwork(
            2, [Layer(1, 1, [0], [0], [1.0], [0.0])]
        )  # input width mismatch


# values with explicit zeros of both signs among them
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _triplets(draw):
    """(rows, cols, row_idx, col_idx, vals, bias) in random order, with one-row
    layers, empty rows and explicit zeros; sometimes with a duplicate or an
    out-of-range entry."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                          unique=True, max_size=rows * cols))
    flaw = draw(st.sampled_from([None] * 4 + ["duplicate", "row", "col", "negative"]))
    if flaw == "duplicate" and cells:
        cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(cells)))
    elif flaw in ("row", "col", "negative"):
        bad = {"row": (rows, 0), "col": (0, cols), "negative": (0, -1)}[flaw]
        cells.insert(draw(st.integers(0, len(cells))), bad)
    vals = draw(st.lists(_VALUES, min_size=len(cells), max_size=len(cells)))
    bias = draw(st.lists(_VALUES, min_size=rows, max_size=rows))
    return (rows, cols, [i for i, _ in cells], [j for _, j in cells], vals, bias)


def _canonical_text(cols, row_idx, col_idx, vals, bias):
    """A one-layer network's serialize() text written from canonical
    triplets."""
    trips = ", ".join("[%d, %d, %.17g]" % t for t in zip(
        row_idx.tolist(), col_idx.tolist(), vals.tolist()))
    return ('{"input_dim": %d, "layers": [{"rows": %d, "cols": %d, "weights": [%s], '
            '"bias": [%s]}]}' % (cols, len(bias), cols, trips,
                                 ", ".join("%.17g" % b for b in bias.tolist())))


@settings(max_examples=300, deadline=None)
@given(_triplets())
def test_layer_is_canonical_csr(args):
    # the CSR layer holds exactly what the triplet layer it replaced held
    try:
        want = canonical_triplets(*args)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            Layer(*args)
        return
    row_idx, col_idx, vals, bias = want
    rows, cols = args[:2]
    lay = Layer(*args)
    assert lay.col_idx.dtype == np.int32 and lay.indptr.dtype == np.int64
    assert np.array_equal(lay.row_idx, row_idx) and np.array_equal(lay.col_idx, col_idx)
    assert np.array_equal(lay.vals.view(np.uint64), vals.view(np.uint64))
    assert np.array_equal(lay.bias.view(np.uint64), bias.view(np.uint64))
    assert np.array_equal(lay.indptr, np.searchsorted(row_idx, np.arange(rows + 1)))
    dense = np.zeros((rows, cols))
    dense[row_idx, col_idx] = vals
    assert np.array_equal(lay.dense().view(np.uint64), dense.view(np.uint64))
    assert serialize(NeuralNetwork(cols, [lay])) == _canonical_text(cols, *want)
    nbytes = sum(a.nbytes for a in (lay.indptr, lay.col_idx, lay.vals, lay.bias))
    assert nbytes <= 12 * len(vals) + 8 * (2 * rows + 1)
    # the same rows given as CSR make the same layer
    again = Layer.from_csr(rows, cols, lay.indptr, lay.col_idx, lay.vals, lay.bias)
    assert serialize(NeuralNetwork(cols, [again])) == _canonical_text(cols, *want)


def test_layer_rejects_what_int32_cannot_index():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        Layer(1, 2 ** 31, [0], [0], [1.0], [0.0])
    with pytest.raises(ValueError, match="2\\*\\*31"):
        Layer.from_csr(1, 2 ** 31, [0, 1], np.array([0]), [1.0], [0.0])
    Layer(1, 2 ** 31 - 1, [0], [2 ** 31 - 2], [1.0], [0.0])


@pytest.mark.parametrize("indptr, col_idx, message", [
    ([0, 2, 2], [1, 0], "ascend"),       # a row's columns out of order
    ([0, 2, 2], [1, 1], "ascend"),       # a repeated entry
    ([0, 1, 3], [0, 1, 1], "ascend"),
    ([0, 2, 1], [0, 1], "indptr"),       # a row of negative length
    ([0, 1], [0], "indptr"),             # too few rows
    ([0, 1, 2], [0, 2], "out of range"),
    ([0, 1, 2], [0.0, 1.0], "integers"),  # float column indices
    ([0, 1, 2], [[0], [1]], "indptr"),    # not a flat array
    ([0, 1, 2], [False, True], "integers"),  # bool column indices
    ([0, 1.5, 2], [0, 1], "integers"),   # a float row pointer
])
def test_from_csr_rejects_bad_rows(indptr, col_idx, message):
    with pytest.raises(ValueError, match=message):
        Layer.from_csr(2, 2, indptr, np.asarray(col_idx), np.ones(len(col_idx)), [0.0, 0.0])


def test_layer_rejects_indices_that_are_not_integers():
    # each was stored: 0.7 truncated to row 0, 1.9 to column 1, True as row
    # 1 and "1" as column 1
    for row_idx, col_idx, what in (([0.7], [1], "row"), ([0], [1.9], "column"),
                                   ([True], [0], "row"), ([0], ["1"], "column")):
        with pytest.raises(ValueError, match=f"{what} indices must be integers"):
            Layer(2, 2, row_idx, col_idx, [1.0], [0.0, 0.0])
    # integers of any numpy kind pass, and so does a layer with no entries,
    # whose empty lists numpy reads as floats
    lay = Layer(2, 2, np.array([1], dtype=np.uint8), np.array([0], dtype=np.int32),
                [1.0], [0.0, 0.0])
    assert (lay.row_idx.tolist(), lay.col_idx.tolist()) == ([1], [0])
    assert Layer(2, 2, [], [], [], [0.0, 0.0]).indptr.tolist() == [0, 0, 0]


def test_may_repeat_sums_in_int64():
    # two identical rows above column 2,147, where column * 1,000,003 leaves
    # int32, are found whatever the index type
    vals = np.array([0.5, -1.25, 0.5, -1.25])
    for dtype in (np.int32, np.int64):
        cols = np.array([3000, 70000, 3000, 70000], dtype=dtype)
        assert network._may_repeat(np.array([0, 2, 4]), cols, vals, np.zeros(2))
    # rows (1, 4000) and (2000, 2001) share the int64 sum; in int32 arithmetic
    # 4000 * 1,000,003 wraps and the sums differ
    for dtype in (np.int32, np.int64):
        cols = np.array([1, 4000, 2000, 2001], dtype=dtype)
        assert network._may_repeat(np.array([0, 2, 4]), cols, np.ones(4), np.zeros(2))


def test_serialize_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        net = random_net(rng)
        text = serialize(net)
        back = deserialize(text)
        assert back.input_dim == net.input_dim
        assert back.depth == net.depth
        for la, lb in zip(net.layers, back.layers):
            assert la.rows == lb.rows and la.cols == lb.cols
            assert np.array_equal(la.row_idx, lb.row_idx)
            assert np.array_equal(la.col_idx, lb.col_idx)
            assert la.vals.tobytes() == lb.vals.tobytes()
            assert la.bias.tobytes() == lb.bias.tobytes()
        # canonical text is stable under a round trip
        assert serialize(back) == text


def test_serialize_awkward_floats():
    vals = [1e-300, -1.0 / 3.0, 6.02214076e23, 5e-324]
    lay = Layer(4, 1, [0, 1, 2, 3], [0, 0, 0, 0], vals, np.zeros(4))
    net = NeuralNetwork(1, [lay])
    back = deserialize(serialize(net))
    assert back.layers[0].vals.tobytes() == net.layers[0].vals.tobytes()


_COERCED_LAYERS = [
    # fractional indices (truncated to column 0)
    '{"rows": 1, "cols": 1, "weights": [[0, 0.7, 2.0]], "bias": [0]}',
    '{"rows": 1, "cols": 1, "weights": [[0.5, 0, 2.0]], "bias": [0]}',
    # non-finite weights and biases (re-serialized as nan / inf)
    '{"rows": 1, "cols": 1, "weights": [[0, 0, NaN]], "bias": [0]}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, Infinity]], "bias": [0]}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1e400]], "bias": [0]}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [-Infinity]}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [NaN]}',
    # integer literals too large for a float (raised OverflowError)
    '{"rows": 1, "cols": 1, "weights": [[0, 0, %s]], "bias": [0]}' % ("9" * 401),
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [%s]}' % ("9" * 401),
    # weights that are not a list (read as no weights)
    '{"rows": 1, "cols": 1, "weights": null, "bias": [0]}',
    # boolean or fractional dimensions
    '{"rows": true, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [0]}',
    '{"rows": 1, "cols": 1.9, "weights": [[0, 0, 1.0]], "bias": [0]}',
    # booleans inside weight triplets and biases (read as 1 / 0)
    '{"rows": 2, "cols": 1, "weights": [[true, 0, false]], "bias": [0, 0]}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, true]], "bias": [0]}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [false]}',
    # a bias that is not a flat list (read as one entry)
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": true}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": 2.0}',
    '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [[2.0]]}',
]


def test_deserialize_errors_name_the_layer():
    bad = '{"input_dim": 1, "layers": [{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]]}]}'
    with pytest.raises(ValueError, match="layer 0"):
        deserialize(bad)
    bad2 = (
        '{"input_dim": 1, "layers": ['
        '{"rows": 2, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [0, 0]}, '
        '{"rows": 1, "cols": 3, "weights": [[0, 0, 1.0]], "bias": [0]}]}'
    )
    with pytest.raises(ValueError, match="layer 1"):
        deserialize(bad2)
    with pytest.raises(ValueError):
        deserialize('{"input_dim": 1, "layers": []}')
    # inputs that used to be coerced silently
    for layer in _COERCED_LAYERS:
        with pytest.raises(ValueError, match="layer 0"):
            deserialize('{"input_dim": 1, "layers": [%s]}' % layer)
    ok = '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [0]}'
    for input_dim in ("true", "1.9"):
        with pytest.raises(ValueError, match="input_dim"):
            deserialize('{"input_dim": %s, "layers": [%s]}' % (input_dim, ok))


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _nets(draw):
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    layers = []
    for rows, cols in zip(widths[1:], widths[:-1]):
        cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                              unique=True, max_size=rows * cols))
        vals = draw(st.lists(_finite, min_size=len(cells), max_size=len(cells)))
        bias = draw(st.lists(_finite, min_size=rows, max_size=rows))
        layers.append(Layer(rows, cols, [i for i, _ in cells], [j for _, j in cells], vals, bias))
    return NeuralNetwork(widths[0], layers)


@settings(max_examples=200, deadline=None)
@given(_nets())
def test_serialize_round_trip_property(net):
    text = serialize(net)
    back = deserialize(text)
    assert back.input_dim == net.input_dim and back.depth == net.depth
    for la, lb in zip(net.layers, back.layers):
        assert (la.rows, la.cols) == (lb.rows, lb.cols)
        assert np.array_equal(la.row_idx, lb.row_idx)
        assert np.array_equal(la.col_idx, lb.col_idx)
        assert la.vals.tobytes() == lb.vals.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()
    assert serialize(back) == text


_OK_LAYER = '{"rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [0]}'

# what an error message must share between the two decoders
_ERROR_PREFIX = re.compile(r"layer \d+|not valid JSON|document must carry|input_dim"
                           r"|layers must be|inconsistent layer chain")


def _decoded(decode, text):
    """The layers ``decode`` gives as bytes, or the prefix of its error."""
    try:
        net = decode(text)
    except ValueError as e:
        prefix = _ERROR_PREFIX.match(str(e))
        assert prefix, str(e)
        return prefix.group()
    return net.input_dim, [(lay.rows, lay.cols, lay.row_idx.tobytes(), lay.col_idx.tobytes(),
                            lay.vals.tobytes(), lay.bias.tobytes()) for lay in net.layers]


# fragments a mutation splices into a serialized document
_SPLICES = ["", "[", "]", "{", "}", ",", ":", '"', "0", "-", "1.5", "true", "null", "NaN",
            '"rows"', '"bias"', '"layers"', '"input_dim"', "[0, 0, 1.0]", _OK_LAYER]


@st.composite
def _mutated_documents(draw):
    text = serialize(draw(_nets()))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(_SPLICES)) + text[at + cut:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.one_of(_nets().map(serialize), _mutated_documents(),
                 st.sampled_from(_COERCED_LAYERS).map(
                     lambda lay: '{"input_dim": 1, "layers": [%s]}' % lay)))
def test_deserialize_matches_whole_document_decoder(text):
    assert _decoded(deserialize, text) == _decoded(whole_document_deserialize, text)


def test_deserialize_layer_hook_edges():
    # a document that also carries a layer's keys is still the document
    doc = ('{"input_dim": 2, "rows": 1, "cols": 1, "weights": [[0, 0, 1.0]], "bias": [0], '
           '"layers": [{"rows": 1, "cols": 2, "weights": [[0, 1, 3.0]], "bias": [0]}]}')
    net = deserialize(doc)
    assert (net.input_dim, net.depth, net.layers[0].cols) == (2, 1, 2)
    # and a layer that also carries a document's keys is still a layer
    lay = '{"input_dim": 7, "layers": [], "rows": 1, "cols": 1, "weights": [], "bias": [2.0]}'
    net = deserialize('{"input_dim": 1, "layers": [%s]}' % lay)
    assert net.layers[0].bias.tolist() == [2.0]
    # a bad layer 0 before malformed JSON: the syntax error wins
    bad = _COERCED_LAYERS[0]
    with pytest.raises(ValueError, match="not valid JSON"):
        deserialize('{"input_dim": 1, "layers": [%s, {"rows": 1,]}' % bad)
    # a layer-shaped input_dim is still rejected as input_dim
    with pytest.raises(ValueError, match="^input_dim"):
        deserialize('{"input_dim": %s, "layers": [%s]}' % (_OK_LAYER, _OK_LAYER))


def test_deserialize_holds_one_layer_of_lists():
    """The decoder's traced peak stays under half of ``json.loads`` alone on
    40 layers of 2,500 triplets: it never holds every layer's lists.  (The
    trace slows the scanner about fivefold; 2,500 keeps the test under 2 s.)"""
    rng = np.random.default_rng(0)
    layers = []
    for _ in range(40):
        cells = rng.choice(100 * 100, size=2500, replace=False)
        layers.append(Layer(100, 100, cells // 100, cells % 100,
                            rng.standard_normal(2500), rng.standard_normal(100)))
    text = serialize(NeuralNetwork(100, layers))
    del layers

    def peak(decode):
        tracemalloc.start()
        try:
            decode(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(deserialize) < 0.5 * peak(json.loads)


# Signed zeros and small values that cancel exactly, plus arbitrary floats.
_signed = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -2.0]),
                    st.floats(-1e3, 1e3))


def _drawn_layer(draw, rows, cols, nnz):
    """A rows x cols layer whose rows hold up to ``nnz`` entries each."""
    ri, ci = [], []
    for r in range(rows):
        row = draw(st.lists(st.integers(0, cols - 1), unique=True,
                            max_size=min(cols, nnz)))
        ri += [r] * len(row)
        ci += row
    vals = draw(st.lists(_signed, min_size=len(ci), max_size=len(ci)))
    bias = draw(st.lists(_signed, min_size=rows, max_size=rows))
    return Layer(rows, cols, ri, ci, vals, bias)


@st.composite
def _narrow_nets(draw, max_pts=5):
    """Nets whose rows hold 0 to _EXACT_ROW_NNZ entries each, on 1 to
    ``max_pts`` points."""
    widths = draw(st.lists(st.integers(1, 40), min_size=2, max_size=4))
    layers = [_drawn_layer(draw, rows, cols, backends._EXACT_ROW_NNZ)
              for rows, cols in zip(widths[1:], widths[:-1])]
    net = NeuralNetwork(widths[0], layers)
    pts = draw(st.lists(st.lists(_signed, min_size=widths[0], max_size=widths[0]),
                        min_size=1, max_size=max_pts))
    return net, np.array(pts, dtype=np.float64)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(_narrow_nets())
def test_numpy_narrow_rows_sum_in_order(case):
    net, pts = case
    want, want_jac = inorder_realize(net, pts, jac=True)
    y = backends.run_forward(net.packed(), pts.T)
    assert np.array_equal(_bits(y.T), _bits(want))
    y, jac = backends.run_forward_grad(net.packed(), pts.T)
    assert np.array_equal(_bits(y.T), _bits(want))
    assert np.array_equal(_bits(np.moveaxis(jac, 1, 0)), _bits(want_jac))


def test_numpy_wide_rows_use_blas_dot():
    # rows over _EXACT_ROW_NNZ entries keep the BLAS dot after the bias;
    # the narrow rows beside them still sum in stored order
    rng = np.random.default_rng(5)
    nnz = [33, 5, 70, 0, 32]
    ri = np.repeat(np.arange(len(nnz)), nnz)
    ci = np.concatenate([np.sort(rng.choice(80, k, replace=False)) for k in nnz])
    lay = Layer(len(nnz), 80, ri, ci, rng.standard_normal(len(ci)),
                [0.3, -0.0, -1.7, -0.0, 2.0])
    net = NeuralNetwork(80, [lay])
    x = rng.standard_normal((80, 17))
    indptr, cols, vals, bias = net.packed()[0]
    out = backends.run_forward(net.packed(), x)
    for r in (0, 2):
        lo, hi = indptr[r], indptr[r + 1]
        assert np.array_equal(_bits(out[r]),
                              _bits(bias[r] + vals[lo:hi] @ x[cols[lo:hi]]))
    want = inorder_realize(net, x.T).T
    assert np.array_equal(_bits(out[[1, 3, 4]]), _bits(want[[1, 3, 4]]))


@settings(max_examples=100, deadline=None)
@given(_narrow_nets(max_pts=9), st.data())
def test_tiled_grad_matches_inorder(case, data):
    # tiles shorter than the batch, the last one often short, with the
    # default seed or one of nd != in_dim directions
    net, pts = case
    d, n = net.input_dim, len(pts)
    tile = data.draw(st.integers(1, max(1, n - 1)))
    seed = None
    if data.draw(st.booleans()):
        nd = data.draw(st.integers(1, 4).filter(lambda k: k != d))
        seed = np.reshape(data.draw(st.lists(_signed, min_size=d * n * nd,
                                             max_size=d * n * nd)), (d, n, nd))
    want, want_jac = inorder_realize(net, pts, jac=True, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "_TILE_BYTES", 0)
        mp.setattr(backends, "_TILE_MIN", tile)
        y, jac = backends.run_forward_grad(net.packed(), pts.T, seed=seed)
        values = backends.run_forward(net.packed(), pts.T)
    assert np.array_equal(_bits(values.T), _bits(want))
    assert np.array_equal(_bits(y.T), _bits(want))
    assert np.array_equal(_bits(np.moveaxis(jac, 1, 0)), _bits(want_jac))


def _wide_mid_and_last_net(rng):
    """Narrow runs around a layer with a 40-entry row and a last layer
    whose rows hold 50 entries."""
    def dense(rows, cols, nnz):
        a = np.zeros((rows, cols))
        for r in range(rows):
            a[r, rng.choice(cols, nnz[r], replace=False)] = rng.standard_normal(nnz[r])
        b = rng.standard_normal(rows)
        b[::3] = -0.0
        return Layer.from_dense(a, b)

    layers = [dense(40, 3, [2] * 40), dense(40, 40, [4] * 40),
              dense(6, 40, [40, 3, 5, 0, 1, 2]), dense(50, 6, [3] * 50),
              dense(2, 50, [50, 50])]
    return NeuralNetwork(3, layers)


@pytest.mark.parametrize("nd", [None, 2])
def test_wide_layers_run_whole_under_tiling(monkeypatch, nd):
    # a wide layer's BLAS sums may depend on the column range, so it never
    # sees a tile; with tiles forced on (7 points) or off, both passes equal
    # one layer at a time on the whole batch, bit for bit
    rng = np.random.default_rng(3)
    net = _wide_mid_and_last_net(rng)
    x = rng.standard_normal((3, 301))
    seed = None if nd is None else rng.standard_normal((3, 301, nd))
    assert [max(np.diff(p[0])) > backends._EXACT_ROW_NNZ
            for p in net.packed()] == [False, False, True, False, True]
    # one layer at a time on the whole batch, as before tiling
    y, jac = x, seed
    if seed is None:
        jac = np.eye(3)[:, None, :].repeat(301, axis=1)
    for i, (indptr, cols, vals, bias) in enumerate(net.packed()):
        rows = len(indptr) - 1
        z = backends._csr_affine_np(indptr, cols, vals, bias, y)
        jac = backends._csr_affine_np(indptr, cols, vals, np.zeros(rows),
                                      jac.reshape(len(y), -1)).reshape(rows, 301, -1)
        if i < net.depth - 1:
            jac *= (z > 0.0)[:, :, None]
            np.maximum(z, 0.0, out=z)
        y = z
    for tile in (7, 10**9):
        monkeypatch.setattr(backends, "_TILE_BYTES", 0)
        monkeypatch.setattr(backends, "_TILE_MIN", tile)
        got = backends.run_forward_grad(net.packed(), x, seed=seed)
        got += (backends.run_forward(net.packed(), x),)
        for a, b in zip(got, (y, jac, y)):
            assert a.shape == b.shape
            assert np.array_equal(_bits(a), _bits(b))


def test_empty_batch_keeps_its_shapes():
    # no points still gives (out, 0) values and (out, 0, nd) directions,
    # through the narrow runs and the wide layers alike
    net = _wide_mid_and_last_net(np.random.default_rng(3))
    x = np.empty((3, 0))
    assert backends.run_forward(net.packed(), x).shape == (2, 0)
    y, jac = backends.run_forward_grad(net.packed(), x)
    assert (y.shape, jac.shape) == ((2, 0), (2, 0, 3))
    _, jac = backends.run_forward_grad(net.packed(), x, seed=np.empty((3, 0, 2)))
    assert jac.shape == (2, 0, 2)
    assert realize_batch(net, np.empty((0, 3))).shape == (0, 2)
    vals, jac = grad_realize_batch(net, np.empty((0, 3)))
    assert (vals.shape, jac.shape) == ((0, 2), (0, 2, 3))


@pytest.mark.parametrize("pts", [np.float64(0.5), np.zeros((3, 2, 5))],
                         ids=["0-d", "3-d"])
@pytest.mark.parametrize("entry", [realize_batch, grad_realize_batch])
def test_point_entries_reject_other_ranks(entry, pts):
    # only 1-D and 2-D batches mean points; the error names the shape
    net = random_net(np.random.default_rng(6), input_dim=2, depth=2)
    with pytest.raises(ValueError, match=re.escape(f"got shape {pts.shape}")):
        entry(net, pts)


@pytest.mark.parametrize("entry", [realize_batch, grad_realize_batch])
def test_point_entries_check_the_point_dimension(entry):
    # a 1-D batch is n points of a one-input net; any other width than the
    # net's input dimension is rejected, naming both
    rng = np.random.default_rng(6)
    one = random_net(rng, input_dim=1, depth=2)
    x = np.array([0.1, 0.5, 0.9])
    got, want = entry(one, x), entry(one, x[:, None])
    if entry is realize_batch:
        got, want = (got,), (want,)
    assert all(map(np.array_equal, got, want))
    two = random_net(rng, input_dim=2, depth=2)
    for pts, dim in ((x, 1), (np.zeros((4, 3)), 3)):
        with pytest.raises(ValueError, match=f"points have dim {dim}, network expects 2"):
            entry(two, pts)


@pytest.mark.parametrize("shape", [(3, 4), (2, 4, 2), (3, 5, 2)],
                         ids=["2-d", "wrong-rows", "wrong-points"])
def test_run_forward_grad_checks_the_seed_shape(shape):
    # an explicit seed is (in_dim, npts, nd)
    net = random_net(np.random.default_rng(7), input_dim=3, depth=2)
    with pytest.raises(ValueError, match=re.escape("seed must have shape (in_dim, npts, nd)")):
        backends.run_forward_grad(net.packed(), np.ones((3, 4)), seed=np.zeros(shape))


def test_tiles_do_not_reenter_run_forward_grad(monkeypatch):
    # the benchmark counts MACs at the module-level run_forward and
    # run_forward_grad, so a pass over many tiles must enter its own entry
    # once and the other never, from the caller's thread or a tile thread
    _cores(monkeypatch, 2)
    threads = kernel_threads(monkeypatch)
    rng = np.random.default_rng(8)
    net = random_net(rng, input_dim=2, depth=4, width_hi=9)
    calls = []

    def spy(name):
        orig = getattr(backends, name)

        def call(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return call

    kernel_calls = _count_kernel_calls(monkeypatch)
    for name in ("run_forward", "run_forward_grad"):
        monkeypatch.setattr(backends, name, spy(name))
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    monkeypatch.setattr(backends, "_TILE_MIN", 4)
    x = rng.standard_normal((2, 100))
    # one call per plane (the values and nd directions) per layer per
    # tile: 25 tiles of 4 points
    for name, nd in (("run_forward_grad", 2), ("run_forward", 0)):
        calls.clear()
        kernel_calls.clear()
        threads.clear()
        getattr(backends, name)(net.packed(), x)
        assert calls == [name]
        assert len(kernel_calls) == (1 + nd) * net.depth * 25
        assert len(threads) == 2


def _cores(mp, cores):
    """Give the process ``cores`` usable cores and a worker cap of as many."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    mp.setattr(backends, "_MAX_WORKERS", cores)


def _count_kernel_calls(monkeypatch):
    """Spy on the in-order kernel: one entry per call, the points of the
    plane it sums."""
    kernel, calls = backends._csr_add, []

    def count(indptr, cols, vals, x, out):
        calls.append(x.shape[1])
        return kernel(indptr, cols, vals, x, out)

    monkeypatch.setattr(backends, "_csr_add", count)
    return calls


@pytest.mark.parametrize("rows", [600, 3000])
def test_tile_floor(monkeypatch, rows):
    # a 3000-row layer gives the cache formula fewer points than the floor,
    # a 600-row one more; below the floor a batch is one tile, over the
    # tile it splits
    rng = np.random.default_rng(4)
    hidden = Layer(rows, 2, np.arange(rows).repeat(2),
                   np.tile([0, 1], rows), rng.standard_normal(2 * rows),
                   rng.standard_normal(rows))
    # rows / 20 narrow outputs of 20 hidden rows each: every hidden row is
    # read, so packing keeps the whole layer
    out = Layer(rows // 20, rows, np.arange(rows) // 20, rng.permutation(rows),
                rng.standard_normal(rows), np.full(rows // 20, 0.5))
    net = NeuralNetwork(2, [hidden, out])
    assert (backends._tile_points(rows, 2) == backends._TILE_MIN) == (rows == 3000)
    kernel_calls = _count_kernel_calls(monkeypatch)
    # the value pass (nd = 0) has tiles of its own, one call per layer each
    for nd in (2, 0):
        tile = backends._tile_points(rows, nd)
        for npts, tiles in [(backends._TILE_MIN - 1, 1), (tile, 1),
                            (tile + 1, 2), (3 * tile + 1, 4)]:
            kernel_calls.clear()
            x = rng.standard_normal((2, npts))
            want, want_jac = inorder_realize(net, x.T, jac=True)
            if nd:
                y, jac = backends.run_forward_grad(net.packed(), x)
                assert np.array_equal(_bits(np.moveaxis(jac, 1, 0)), _bits(want_jac))
            else:
                y = backends.run_forward(net.packed(), x)
            assert len(kernel_calls) == (1 + nd) * net.depth * tiles
            assert np.array_equal(_bits(y.T), _bits(want))


@pytest.mark.parametrize("npts, tile, sizes", [
    (250, 61, [50] * 5), (62, 61, [31, 31]), (61, 61, [61]), (7, 3, [2, 2, 3]),
    (0, 61, [])])
def test_tiles_are_balanced(monkeypatch, npts, tile, sizes):
    # a run takes as many tiles as full ones would need, of near-equal
    # size, not full tiles and a runt; no points, no tile
    net = NeuralNetwork(1, [Layer(3, 1, [0, 1, 2], [0, 0, 0], [1.0, -1.0, 2.0],
                                  [0.5, 0.0, -0.5]),
                            Layer(1, 3, [0, 0, 0], [0, 1, 2], [1.0, 1.0, 1.0], [0.0])])
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    monkeypatch.setattr(backends, "_TILE_MIN", tile)
    # one thread, so the calls come in tile order
    monkeypatch.setattr(backends, "_MAX_WORKERS", 1)
    kernel_calls = _count_kernel_calls(monkeypatch)
    y = backends.run_forward(net.packed(), np.linspace(-1.0, 1.0, npts)[None, :])
    assert y.shape == (1, npts)
    assert kernel_calls == [k for k in sizes for _ in range(net.depth)]


def test_large_value_batches_run_in_chunks(monkeypatch):
    # realize_batch runs in grad_realize_batch's chunks, so on a batch of
    # several chunks its values are that entry's bit for bit, and a
    # 100,000-point batch peaks at one chunk's pass plus its values, not at
    # the wide head's whole (240, 100000) input of 192 MB
    rng = np.random.default_rng(13)
    net = NeuralNetwork(2, [Layer(240, 2, np.arange(240).repeat(2), np.tile([0, 1], 240),
                                  rng.standard_normal(480), rng.standard_normal(240)),
                            Layer.from_dense(rng.standard_normal((1, 240)))])
    assert max(np.diff(net.packed()[1][0])) > backends._EXACT_ROW_NNZ
    monkeypatch.setattr(network, "_JAC_BUDGET", 1_000_000)
    pts = rng.uniform(-1.0, 1.0, (100_000, 2))
    chunk = network._grad_chunk(len(pts), 240, 2)
    assert chunk == 2083
    few = pts[:3 * chunk + 5]
    assert np.array_equal(_bits(realize_batch(net, few)),
                          _bits(grad_realize_batch(net, few)[0]))

    def peak(batch):
        tracemalloc.start()
        try:
            realize_batch(net, batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(pts[:chunk])
    assert peak(pts) < one + 2 * 8 * len(pts) < 0.1 * 240 * 8 * len(pts)


@st.composite
def _wide_head_nets(draw):
    """A ``_narrow_nets`` net, then a narrow layer of 33-40 rows and a head
    of one or two rows that read all of them: narrow runs, then a layer a
    BLAS dot sums.  On 0 to 40 points that may hold +-inf."""
    net, _ = draw(_narrow_nets())
    rows = draw(st.integers(backends._EXACT_ROW_NNZ + 1, 40))
    mid = _drawn_layer(draw, rows, net.output_dim, 4)
    out = draw(st.integers(1, 2))
    vals = draw(st.lists(_signed, min_size=out * rows, max_size=out * rows))
    head = Layer(out, rows, np.arange(out).repeat(rows), np.tile(np.arange(rows), out),
                 vals, draw(st.lists(_signed, min_size=out, max_size=out)))
    n = draw(st.one_of(st.sampled_from([0, 1, 7]), st.integers(0, 40)))
    inf = st.one_of(_signed, st.sampled_from([np.inf, -np.inf]))
    d = net.input_dim
    pts = draw(st.lists(inf, min_size=n * d, max_size=n * d))
    return (NeuralNetwork(d, list(net.layers) + [mid, head]),
            np.reshape(np.array(pts, dtype=np.float64), (n, d)))


@settings(max_examples=50, deadline=None)
@given(_wide_head_nets(), st.integers(1, 4), st.integers(2, 4))
def test_threaded_tiles_move_no_bit(case, tile, workers):
    # the serving entries share each narrow run's tiles out to threads; the
    # values and jacobians of both equal the one-thread pass's bit for bit,
    # and the tiles are the one-thread pass's tiles
    net, pts = case
    n = len(pts)

    def serve(cores):
        # a short switch interval interleaves the threads' Python steps
        # finely, so a lost or misplaced write would show
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(backends, "_TILE_BYTES", 0)
            mp.setattr(backends, "_TILE_MIN", tile)
            _cores(mp, cores)
            threads = kernel_threads(mp)
            tiles = _count_kernel_calls(mp)
            sys.setswitchinterval(1e-6)
            try:
                got = (backends.run_forward(net.packed(), pts.T),
                       *backends.run_forward_grad(net.packed(), pts.T))
            finally:
                sys.setswitchinterval(interval)
        return got, sorted(tiles), len(threads)

    want, want_tiles, _ = serve(1)
    got, got_tiles, threads = serve(workers)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(_bits(a), _bits(b))
    assert got_tiles == want_tiles
    # every narrow run has ceil(n / tile) tiles
    assert (threads > 1) == (-(-n // tile) > 1)


def test_an_explicit_seed_starts_no_thread(monkeypatch):
    # certification passes explicit seeds, and it runs a process per core
    # already: only the identity-seeded pass shares its tiles out
    rng = np.random.default_rng(8)
    net = random_net(rng, input_dim=2, depth=4, width_hi=9)
    _cores(monkeypatch, 2)
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    monkeypatch.setattr(backends, "_TILE_MIN", 4)
    threads = kernel_threads(monkeypatch)
    x = rng.standard_normal((2, 100))
    backends.run_forward_grad(net.packed(), x, seed=_identity_seed(2, 100))
    assert threads == {threading.get_ident()}
    threads.clear()
    backends.run_forward_grad(net.packed(), x)
    assert len(threads) == 2


@pytest.mark.parametrize("entry", [
    realize_batch, grad_realize_batch,
    lambda net, pts: backends.run_forward(net.packed(), pts.T),
    lambda net, pts: backends.run_forward_grad(net.packed(), pts.T),
    lambda net, pts: backends.run_forward_grad(
        net.packed(), pts.T, seed=_identity_seed(2, len(pts)))],
    ids=["realize_batch", "grad_realize_batch", "run_forward",
         "run_forward_grad", "explicit-seed"])
def test_entries_leave_no_thread_behind(monkeypatch, entry):
    # certification forks only from a process with one live thread, so every
    # tile thread is joined before an entry returns
    rng = np.random.default_rng(9)
    net = random_net(rng, input_dim=2, depth=4, width_hi=9)
    _cores(monkeypatch, 4)
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    monkeypatch.setattr(backends, "_TILE_MIN", 4)
    before = threading.active_count()
    entry(net, rng.standard_normal((101, 2)))
    assert threading.active_count() == before


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_failing_tile_raises_in_the_caller(monkeypatch, where):
    # a tile that fails on a started thread raises in the caller, as one on
    # the caller's own thread does, and either way every thread is joined
    rng = np.random.default_rng(10)
    net = random_net(rng, input_dim=2, depth=3, width_hi=9)
    _cores(monkeypatch, 3)
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    monkeypatch.setattr(backends, "_TILE_MIN", 4)
    caller, kernel = threading.get_ident(), backends._csr_add

    def failing(*args):
        if (threading.get_ident() == caller) == (where == "caller"):
            raise ZeroDivisionError("this tile fails")
        return kernel(*args)

    monkeypatch.setattr(backends, "_csr_add", failing)
    before = threading.active_count()
    for entry in (realize_batch, grad_realize_batch):
        with pytest.raises(ZeroDivisionError, match="this tile fails"):
            entry(net, rng.standard_normal((100, 2)))
        assert threading.active_count() == before


def test_tile_threads_keep_the_callers_errstate(monkeypatch):
    # a started thread runs in the caller's context: the inf * 0.0 of the
    # ReLU mask in its tile (point -1, the second tile) is silent under the
    # caller's np.errstate(invalid="ignore") and raises under "raise"
    net = NeuralNetwork(1, [Layer(2, 1, [0, 1], [0, 0], [np.inf, 1.0], [0.0, 0.0]),
                            Layer(1, 2, [0, 0], [0, 1], [1.0, 1.0], [0.0])])
    _cores(monkeypatch, 2)
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    monkeypatch.setattr(backends, "_TILE_MIN", 1)
    threads = kernel_threads(monkeypatch)
    x = np.array([1.0, -1.0])
    with np.errstate(invalid="ignore"), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        _, jac = grad_realize_batch(net, x)
    assert not seen
    assert len(threads) == 2
    assert np.isnan(jac[1, 0, 0])
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        grad_realize_batch(net, x)


def _one_input_net(draw, widths, wide=None, inf=None):
    """A one-input net through ``widths`` (widths[0] == 1) whose rows may
    hold no entries, explicit 0.0 weights, or be read by no later row.  Its
    rows are narrow, but row 0 of layer ``wide`` reads every row before it;
    the first weight of layer ``inf`` is +-inf."""
    layers = []
    for k, (rows, cols) in enumerate(zip(widths[1:], widths[:-1])):
        ri, ci = [], []
        for r in range(rows):
            row = list(range(cols)) if (k, r) == (wide, 0) else draw(st.lists(
                st.integers(0, cols - 1), unique=True, max_size=min(cols, 4)))
            ri += [r] * len(row)
            ci += row
        vals = draw(st.lists(st.one_of(st.just(0.0), _signed),
                             min_size=len(ci), max_size=len(ci)))
        if k == inf and vals:
            vals[0] = draw(st.sampled_from([np.inf, -np.inf]))
        bias = draw(st.lists(_signed, min_size=rows, max_size=rows))
        layers.append(Layer(rows, cols, ri, ci, vals, bias))
    return NeuralNetwork(1, layers)


@st.composite
def _separable_nets(draw, max_pts=9):
    """``full_parallel`` of d random one-input nets, an axis-separable
    prefix, then up to two narrow layers whose rows read any columns.  At
    times the first net holds a row of 33-36 entries or a +-inf weight in
    its layer ``planted``.  Points may hold +-inf.  Returns the net, the
    points and (kind, planted) of what was planted, or None."""
    d = draw(st.integers(2, 3))
    depth = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([None, "inf"] + (["wide"] if depth > 1 else [])))
    planted = draw(st.integers(1 if kind == "wide" else 0, depth - 1))
    nets = []
    for a in range(d):
        widths = [1] + draw(st.lists(st.integers(1, 4), min_size=depth, max_size=depth))
        if a == 0 and kind == "wide":
            widths[planted] = draw(st.integers(backends._EXACT_ROW_NNZ + 1, 36))
        nets.append(_one_input_net(
            draw, widths, wide=planted if a == 0 and kind == "wide" else None,
            inf=planted if a == 0 and kind == "inf" else None))
    layers = list(full_parallel(nets).layers)
    for _ in range(draw(st.integers(0, 2))):
        cols, rows = layers[-1].rows, draw(st.integers(1, 4))
        ri, ci = [], []
        for r in range(rows):
            row = draw(st.lists(st.integers(0, cols - 1), unique=True,
                                max_size=min(cols, 4)))
            ri += [r] * len(row)
            ci += row
        vals = draw(st.lists(_signed, min_size=len(ci), max_size=len(ci)))
        bias = draw(st.lists(_signed, min_size=rows, max_size=rows))
        layers.append(Layer(rows, cols, ri, ci, vals, bias))
    inf = st.one_of(_signed, st.sampled_from([np.inf, -np.inf]))
    pts = draw(st.lists(st.lists(inf, min_size=d, max_size=d),
                        min_size=1, max_size=max_pts))
    return (NeuralNetwork(d, layers), np.array(pts, dtype=np.float64),
            None if kind is None else (kind, planted))


def _no_masks(packed, d):
    raise AssertionError("row_masks called")


def _identity_seed(d, n):
    seed = np.zeros((d, n, d))
    seed[np.arange(d), :, np.arange(d)] = 1.0
    return seed


@settings(max_examples=150, deadline=None)
@given(_separable_nets(), st.integers(1, 4))
def test_separable_prefix_moves_no_bit(case, tile):
    # the identity-seeded pass carries one plane through the separable
    # prefix; values and jacobians equal the explicit identity seed's (on a
    # list never split at the cut) and the in-order oracle's, bit for bit,
    # with tiles of `tile` points on both sides of the cut
    net, pts, planted = case
    cut, axes = net.packed().cut, net.packed().axes
    want_cut, want_axes = separable_prefix(net)
    assert cut == want_cut
    assert (None if axes is None else axes.tolist()) == want_axes
    if planted is not None:
        kind, k = planted
        indptr, _, vals, _ = net.packed()[k]
        live = (np.diff(indptr).max(initial=0) > backends._EXACT_ROW_NNZ if kind == "wide"
                else not np.isfinite(vals).all())
        # the cut stops at a wide row or a non-finite weight that a pass runs
        assert cut <= k or not live
    d, n = net.input_dim, len(pts)
    with pytest.MonkeyPatch.context() as mp:
        # a list wrapped without d finds no cut and computes no mask
        mp.setattr(backends, "row_masks", _no_masks)
        whole = backends.Packed(list(net.packed()))
    assert (whole.cut, whole.axes) == (0, None)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore", over="ignore"):
        mp.setattr(backends, "_TILE_BYTES", 0)
        mp.setattr(backends, "_TILE_MIN", tile)
        want = backends.run_forward_grad(whole, pts.T, seed=_identity_seed(d, n))
        got = backends.run_forward_grad(net.packed(), pts.T)
        values = backends.run_forward(net.packed(), pts.T)
        served = grad_realize_batch(net, pts)
        oracle = inorder_realize(net, pts, jac=True)
    for a, b in zip(got + (values,), want + want[:1]):
        assert np.array_equal(_bits(a), _bits(b))
    assert np.array_equal(_bits(served[0]), _bits(want[0].T))
    assert np.array_equal(_bits(served[1]), _bits(np.moveaxis(want[1], 1, 0)))
    if planted is None or planted[0] != "wide":
        # a wide row sums by a BLAS dot, in an order of its own
        assert np.array_equal(_bits(served[0]), _bits(oracle[0]))
        assert np.array_equal(_bits(served[1]), _bits(oracle[1]))


def _mixed_after_separable(rng, depth):
    """``full_parallel`` of two one-input nets of ``depth`` narrow layers,
    then a layer whose every row reads both axes and a narrow output."""
    nets = [random_net(rng, input_dim=1, depth=depth, width_hi=5, density=1.0)
            for _ in range(2)]
    prefix = full_parallel(nets)
    width = prefix.output_dim
    mix = Layer.from_dense(np.ones((3, width)), rng.standard_normal(3))
    return NeuralNetwork(2, list(prefix.layers) + [
        mix, Layer.from_dense(rng.standard_normal((1, 3)))])


def test_separable_prefix_kernel_calls(monkeypatch):
    # in 25 tiles of 4 points, the prefix sums 2 planes per layer per tile
    # (the values and the one jacobian plane), the layers after it 1 + d
    rng = np.random.default_rng(11)
    net = _mixed_after_separable(rng, depth=3)
    # the cut is found when the list is packed: before any pass, the one
    # narrow run is split there
    assert [run[:2] for run in net.packed().runs] == [[0, 3], [3, 5]]
    assert net.packed().cut == 3
    kernel_calls = _count_kernel_calls(monkeypatch)
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    monkeypatch.setattr(backends, "_TILE_MIN", 4)
    x = rng.standard_normal((2, 100))
    y, jac = backends.run_forward_grad(net.packed(), x)
    assert len(kernel_calls) == (2 * 3 + 3 * 2) * 25
    want = backends.run_forward_grad(backends.Packed(list(net.packed())), x,
                                     seed=_identity_seed(2, 100))
    assert np.array_equal(_bits(y), _bits(want[0]))
    assert np.array_equal(_bits(jac), _bits(want[1]))
    # an explicit seed, as certification's lanes pass, keeps d planes
    kernel_calls.clear()
    backends.run_forward_grad(net.packed(), x, seed=_identity_seed(2, 100))
    assert len(kernel_calls) == 3 * net.depth * 25


def test_one_input_nets_skip_the_prefix(monkeypatch):
    # a one-input net carries one plane anyway: packing it looks for no
    # cut and computes no mask
    monkeypatch.setattr(backends, "row_masks", _no_masks)
    net = random_net(np.random.default_rng(12), input_dim=1, depth=3)
    realize_batch(net, np.ones((4, 1)))
    grad_realize_batch(net, np.ones((4, 1)))
    assert (net.packed().cut, net.packed().axes) == (0, None)
    assert stats(net).separable_depth == net.depth


def _carry_layer(draw, rows, cols, every=False):
    """A rows x cols layer of drawn rows: carries (one weight 1.0 and a bias
    of +0.0 or -0.0, reading any row), rows that look like carries but are
    not (weight 1.0 + 1 ulp, bias 1e-300, a second entry) and rows of up to
    three drawn entries.  With ``every``, all its rows are carries."""
    kinds = ["carry"] if every else ["carry", "carry", "ulp", "tiny", "two", "any"]
    ri, ci, vals, bias = [], [], [], []
    for r in range(rows):
        kind, src = draw(st.sampled_from(kinds)), draw(st.integers(0, cols - 1))
        row, w, b = [src], [1.0], 0.0
        if kind == "carry":
            b = draw(st.sampled_from([0.0, -0.0]))
        elif kind == "ulp" or (kind == "two" and cols == 1):
            w = [np.nextafter(1.0, 2.0)]
        elif kind == "tiny":
            b = 1e-300
        elif kind == "two":
            row = [src, draw(st.integers(0, cols - 1).filter(lambda c: c != src))]
            w = [1.0, draw(_signed)]
        else:
            row = draw(st.lists(st.integers(0, cols - 1), unique=True, max_size=min(cols, 3)))
            w = draw(st.lists(_signed, min_size=len(row), max_size=len(row)))
            b = draw(_signed)
        ri += [r] * len(row)
        ci += row
        vals += w
        bias.append(b)
    return Layer(rows, cols, ri, ci, vals, bias)


def _carry_chain(draw, d, depth):
    """``depth`` drawn ``_carry_layer`` layers on d inputs, 1 to 4 rows
    wide, a whole layer of carries now and then."""
    layers, cols = [], d
    for k in range(depth):
        rows = draw(st.integers(1, 4))
        layers.append(_carry_layer(draw, rows, cols, every=k and draw(st.booleans())))
        cols = rows
    return layers


@st.composite
def _carry_nets(draw):
    """Narrow nets with drawn carries: on d > 1 inputs an axis-separable
    prefix, ``full_parallel`` of one one-input chain per axis, then layers
    that read any rows; on one input a chain alone.  Returns the net and
    1 to 9 finite points."""
    d = draw(st.integers(1, 3))
    layers = []
    if d > 1:
        depth = draw(st.integers(1, 4))
        layers = list(full_parallel([NeuralNetwork(1, _carry_chain(draw, 1, depth))
                                     for _ in range(d)]).layers)
    cols = layers[-1].rows if layers else d
    tail = _carry_chain(draw, cols, draw(st.integers(3, 5)))
    net = NeuralNetwork(d, layers + tail)
    pts = draw(st.lists(st.lists(_signed, min_size=d, max_size=d), min_size=1, max_size=9))
    return net, np.array(pts, dtype=np.float64)


def _carries_oracle(net):
    """The carries of a net of narrow layers, counted in plain Python on
    its packed rows: in each layer strictly inside a run, the rows of one
    term of value 1.0 and a bias of +0.0 or -0.0.  The runs split at the
    separable cut."""
    rows = packed_rows(net.packed())
    cut = separable_prefix(net)[0] if 1 < net.input_dim <= 62 else 0
    ends = sorted({0, cut, len(rows)})
    one, zeros = np.float64(1.0).view(np.int64), {0, np.float64(-0.0).view(np.int64)}
    return sum(len(terms) == 1 and terms[0][1] == one and b in zeros
               for lo, hi in zip(ends, ends[1:]) for k in range(lo + 1, hi - 1)
               for b, terms in rows[k])


# a chain of carries three layers long whose root also has a direct
# reader, a layer of carries alone, and look-alikes in the first, inner and
# last layers
_CARRY_CHAIN = (NeuralNetwork(1, [
    Layer(2, 1, [0, 1], [0, 0], [1.0, -1.0], [0.0, 0.5]),
    Layer(3, 2, [0, 1, 2], [0, 0, 1], [1.0, 2.0, 1.0], [-0.0, 0.0, 1e-300]),
    Layer(2, 3, [0, 1, 1], [0, 0, 2], [1.0, 1.0, 1.0], [0.0, 0.0]),
    Layer(2, 2, [0, 1], [0, 0], [1.0, 1.0], [-0.0, 0.0]),
    Layer(2, 2, [0, 0, 1], [0, 1, 0], [1.0, -1.0, 1.0], [0.0, -0.0])]),
    np.array([[0.5], [-0.0], [0.0], [-2.0], [1.0]]))


@settings(max_examples=150, deadline=None)
@given(_carry_nets(), st.integers(1, 3), st.sampled_from([1, 2]), st.data())
@example(_CARRY_CHAIN, 2, 2, None)
def test_carries_move_no_bit(case, tile, cores, data):
    # the tiles skip the carry rows and read their roots' slots; values and
    # jacobians, by the identity seed and an explicit one, equal the in-order
    # oracle's bit for bit, signed zeros included, and on points with
    # +-inf a pass that finds no carry; the pass counts the oracle's carries
    net, pts = case
    d, n = net.input_dim, len(pts)
    assert net.packed().carried == stats(net).carried_rows == _carries_oracle(net)
    seed = (np.reshape(data.draw(st.lists(_signed, min_size=2 * d * n, max_size=2 * d * n)),
                       (d, n, 2)) if data else np.ones((d, n, 2)))
    inf = pts.copy()
    inf[0, 0], inf[-1, -1] = np.inf, -np.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends, "_TILE_BYTES", 0)
        mp.setattr(backends, "_TILE_MIN", tile)
        _cores(mp, cores)

        def serve(packed, x):
            with np.errstate(invalid="ignore", over="ignore"):
                return (backends.run_forward(packed, x.T),
                        *backends.run_forward_grad(packed, x.T),
                        *backends.run_forward_grad(packed, x.T, seed=seed))

        got = serve(net.packed(), pts)
        with_inf = serve(net.packed(), inf)
        mp.setattr(backends, "_ONE", -1)
        plain = backends.Packed(list(net.packed()), d)
        assert plain.carried == 0
        want_inf = serve(plain, inf)
    want, want_jac = inorder_realize(net, pts, jac=True)
    _, seed_jac = inorder_realize(net, pts, jac=True, seed=seed)
    for a, b in zip(got, (want.T, want.T, np.moveaxis(want_jac, 0, 1),
                          want.T, np.moveaxis(seed_jac, 0, 1))):
        assert np.array_equal(_bits(a), _bits(b))
    for a, b in zip(with_inf, want_inf):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("nd", [0, 3])
def test_relu_is_the_lines_it_replaced(nd):
    # every y in {+-0.0, +-inf, NaN, +-1.5} meets every jacobian entry in
    # that set; relu gives the bits of the callers' own pair of lines and
    # of the wide layer's mask over its flat (rows, npts * nd) jacobian
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5])
    k = len(special)
    # y[i, j] = special[i] and jac[i, j, q] = special[(j + q) % k]
    y = np.repeat(special[:, None], k, axis=1)
    jac = np.repeat(special[(np.arange(k)[:, None] + np.arange(nd)) % k][None], k, axis=0)
    y2, jac2, y3, jac3 = y.copy(), jac.copy(), y.copy(), jac.reshape(k, -1).copy()
    with np.errstate(invalid="ignore"):
        backends.relu(y, jac)
        jac2 *= (y2 > 0.0)[:, :, None]
        np.maximum(y2, 0.0, out=y2)
        jac3 *= np.repeat(y3 > 0.0, nd, axis=1)
        np.maximum(y3, 0.0, out=y3)
    assert y.tobytes() == y2.tobytes() == y3.tobytes()
    assert jac.tobytes() == jac2.tobytes() == jac3.tobytes()


@st.composite
def _packed_lists(draw):
    """A packed layer list on d <= 62 inputs: rows of up to four entries,
    some of them explicit 0.0, rows with none and at times a layer with no
    rows.  Returns (d, layers)."""
    d = draw(st.integers(1, 62))
    width, layers = d, []
    for _ in range(draw(st.integers(1, 4))):
        rows = [draw(st.lists(st.integers(0, width - 1), unique=True, max_size=4))
                if width else [] for _ in range(draw(st.integers(0, 5)))]
        cols = np.array([c for row in rows for c in row], dtype=np.int64)
        vals = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]),
                                      min_size=len(cols), max_size=len(cols))))
        indptr = np.cumsum([0] + [len(row) for row in rows])
        layers.append((indptr, cols, vals, np.zeros(len(rows))))
        width = len(rows)
    return d, layers


@settings(max_examples=200, deadline=None)
@given(_packed_lists())
def test_row_masks_match_the_oracle(case):
    d, layers = case
    got = list(backends.row_masks(layers, d))
    assert all(m.dtype == np.int64 for m in got)
    assert [m.tolist() for m in got] == row_masks_oracle(layers, d)


@pytest.mark.parametrize("d", [62, 63])
def test_more_than_62_inputs_get_no_prefix(d):
    # d one-input nets side by side are axis-separable through their
    # depth; a mask holds 62 axes, so 63 inputs run the plain d-plane pass,
    # bit for bit as the explicit identity seed does
    rng = np.random.default_rng(d)
    nets = [random_net(rng, input_dim=1, depth=2, width_hi=2, density=1.0)
            for _ in range(d)]
    prefix = full_parallel(nets)
    net = NeuralNetwork(d, list(prefix.layers) + [
        Layer.from_dense(np.ones((1, prefix.output_dim)))])
    assert net.packed().cut == (2 if d <= 62 else 0)
    x = rng.standard_normal((d, 5))
    y, jac = backends.run_forward_grad(net.packed(), x)
    want = backends.run_forward_grad(net.packed(), x, seed=_identity_seed(d, 5))
    assert y.tobytes() == want[0].tobytes()
    assert jac.tobytes() == want[1].tobytes()


@st.composite
def _nets_with_dead_rows(draw):
    """Narrow nets with rows that no later row reads, rows without entries,
    explicit 0.0 entries and at times a layer with no entries, so that the
    layer before it has no live row; on points that may hold +-inf."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    cut = draw(st.sampled_from([None] + list(range(1, len(widths) - 1))))
    layers = []
    for k, (rows, cols) in enumerate(zip(widths[1:], widths[:-1])):
        ri, ci = [], []
        for r in range(rows):
            row = [] if k == cut else draw(st.lists(
                st.integers(0, cols - 1), unique=True, max_size=cols))
            ri += [r] * len(row)
            ci += row
        vals = draw(st.lists(st.one_of(st.just(0.0), _signed),
                             min_size=len(ci), max_size=len(ci)))
        bias = draw(st.lists(_signed, min_size=rows, max_size=rows))
        layers.append(Layer(rows, cols, ri, ci, vals, bias))
    net = NeuralNetwork(widths[0], layers)
    inf = st.one_of(_signed, st.sampled_from([np.inf, -np.inf]))
    pts = draw(st.lists(st.lists(inf, min_size=widths[0], max_size=widths[0]),
                        min_size=1, max_size=4))
    return net, np.array(pts, dtype=np.float64)


# a hidden row read only through a stored 0.0, on an infinite input: the
# output is 0 * inf + 1 = NaN, and 1.0 if that row were dropped
_ZERO_READS_INF = (
    NeuralNetwork(1, [Layer(1, 1, [0], [0], [1.0], [0.0]),
                      Layer(1, 1, [0], [0], [0.0], [1.0])]),
    np.array([[np.inf], [2.0]]))


# the middle layer has no entries, so the first layer has no live row
# left; the middle layer's two equal rows, which read nothing, merge
_NO_LIVE_ROW = (
    NeuralNetwork(1, [Layer(2, 1, [0, 1], [0, 0], [1.0, -1.0], [0.0, 0.5]),
                      Layer(2, 2, [], [], [], [0.5, 0.5]),
                      Layer(1, 2, [0, 0], [0, 1], [1.0, 2.0], [0.0])]),
    np.array([[np.inf], [2.0]]))


@settings(max_examples=200, deadline=None)
@given(_nets_with_dead_rows())
@example(_ZERO_READS_INF)
@example(_NO_LIVE_ROW)
def test_packing_keeps_only_live_rows(case):
    # packing drops the rows that reach no output, holds each bit-identical
    # row once and moves no bit, NaNs and signed zeros included
    net, pts = case
    assert packed_rows(net.packed()) == merged_rows(net)
    with np.errstate(invalid="ignore", over="ignore"):
        want, want_jac = inorder_realize(net, pts, jac=True)
        got = realize_batch(net, pts)
        vals, jac = grad_realize_batch(net, pts)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(vals), _bits(want))
    assert np.array_equal(_bits(jac), _bits(want_jac))


_planted = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -2.0, np.nan]),
                     st.floats(-4.0, 4.0))


@st.composite
def _nets_with_planted_duplicates(draw):
    """Narrow nets whose layers, the output too, repeat some of their rows
    at random places: exact copies; copies with the sign of one zero bias
    or weight flipped; and copies that read other copies of their rows'
    inputs, whose terms may then come in another order.  Values may be NaN
    and points are finite, so every NaN has the one bit pattern of
    ``np.nan``: which of two NaN patterns a product or sum keeps is up to
    the compiled kernel, not a matter of order."""
    width = draw(st.integers(1, 3))
    # group[c]: rows of the layer before that were planted as copies share
    # a group; ``reread`` copies swap a column for another of its group
    group = list(range(width))
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            cols = draw(st.lists(st.integers(0, width - 1), unique=True,
                                 max_size=width))
            rows.append((draw(_planted), {c: draw(_planted) for c in cols},
                         len(rows)))
        for _ in range(draw(st.integers(0, 5))):
            bias, terms, g = draw(st.sampled_from(rows))
            how = draw(st.sampled_from(["copy", "flip", "reread"]))
            zeros = [c for c, v in terms.items() if v == 0.0]
            if how == "flip" and (bias == 0.0 or zeros):
                g = None
                c = draw(st.sampled_from(zeros + ["bias"] * (bias == 0.0)))
                if c == "bias":
                    bias = -bias
                else:
                    terms = {**terms, c: -terms[c]}
            elif how == "reread":
                swap = {c: draw(st.sampled_from(
                    [o for o in range(width) if group[o] == group[c]]))
                    for c in terms}
                if len(set(swap.values())) == len(swap):
                    terms = {swap[c]: v for c, v in terms.items()}
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, (bias, terms, g if g is not None else object()))
        ri = [r for r, (_, terms, _) in enumerate(rows) for _ in terms]
        ci = [c for _, terms, _ in rows for c in terms]
        vals = [v for _, terms, _ in rows for v in terms.values()]
        layers.append(Layer(len(rows), width, ri, ci, vals, [b for b, _, _ in rows]))
        group = [g for _, _, g in rows]
        width = len(rows)
    pts = draw(st.lists(st.lists(_signed, min_size=layers[0].cols,
                                 max_size=layers[0].cols), min_size=1, max_size=4))
    return NeuralNetwork(layers[0].cols, layers), np.array(pts, dtype=np.float64)


def _planted_net():
    """Ten rows of one input pair, then the rows that read them, then two
    equal output rows and a third.  Rows 1 and 2 copy each other, as do
    0 and 3, and 8 and 9, whose bias is NaN; 4 and 5 differ only in the
    sign of a zero bias, 6 and 7 in that of a zero weight.  In the second
    layer row 1 reads the copies of what row 0 reads, in the other order;
    rows 2 and 3 read the copies 3 and 0 with one weight."""
    hidden = [(0.5, {0: 1.0, 1: 2.0}), (0.25, {1: 3.0}), (0.25, {1: 3.0}),
              (0.5, {0: 1.0, 1: 2.0}), (0.0, {0: 1.0}), (-0.0, {0: 1.0}),
              (1.0, {0: 0.0, 1: 1.0}), (1.0, {0: -0.0, 1: 1.0}),
              (np.nan, {0: 1.0}), (np.nan, {0: 1.0})]
    second = [(0.0, {0: 1.5, 1: -1.0}), (0.0, {2: -1.0, 3: 1.5}),
              (0.0, {3: 1.5}), (0.0, {0: 1.5}),
              (0.0, {4: 1.0, 5: -1.0, 6: 1.0, 7: -1.0}), (0.0, {8: 1.0, 9: 1.0})]
    out = [(0.0, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})] * 2 + [(1.0, {5: 1.0})]
    return NeuralNetwork(2, [_layer(hidden, 2), _layer(second, 10), _layer(out, 6)])


def _layer(rows, cols):
    """A layer from (bias, {column: value}) rows."""
    return Layer(len(rows), cols, [r for r, (_, t) in enumerate(rows) for _ in t],
                 [c for _, t in rows for c in t], [v for _, t in rows for v in t.values()],
                 [b for b, _ in rows])


_PLANTED = (_planted_net(), np.array([[0.3, -0.2], [-1.0, 2.0], [0.0, -0.0]]))

# rows 0 and 1 merge; the middle layer has nothing to merge but must read
# them renumbered, so its rows 0 and 1 read one row with other weights;
# the layer after it merges its rows 0 and 1, which read its row 0
_MERGE_SKIP_MERGE = (
    NeuralNetwork(1, [
        _layer([(0.5, {0: 1.0}), (0.5, {0: 1.0}), (0.0, {0: -2.0})], 1),
        _layer([(0.0, {0: 1.0}), (0.0, {1: 2.0}), (0.25, {2: 3.0})], 3),
        _layer([(0.0, {0: 1.0}), (0.0, {0: 1.0}), (0.0, {1: 1.0, 2: 1.0})], 3),
        _layer([(0.0, {0: 1.0, 1: -1.0, 2: 1.0})], 3)]),
    np.array([[0.3], [-1.0], [2.0]]))


@settings(max_examples=200, deadline=None)
@given(_nets_with_planted_duplicates())
@example(_PLANTED)
@example(_MERGE_SKIP_MERGE)
def test_packing_merges_only_bit_identical_rows(case):
    # identical rows of a layer but the output merge, also once the layer
    # before merged; rows apart in a signed zero or in term order stay
    # apart; no packed hidden layer keeps two identical rows; no bit moves
    net, pts = case
    rows = packed_rows(net.packed())
    assert rows == merged_rows(net)
    assert len(rows[-1]) == net.output_dim
    assert all(len(set(layer)) == len(layer) for layer in rows[:-1])
    with np.errstate(invalid="ignore", over="ignore"):
        want, want_jac = inorder_realize(net, pts, jac=True)
        got = realize_batch(net, pts)
        vals, jac = grad_realize_batch(net, pts)
    assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(vals), _bits(want))
    assert np.array_equal(_bits(jac), _bits(want_jac))


def test_planted_rows_merge_as_drawn():
    # rows 1/2, 0/3 and the NaN rows 8/9 merge, the signed-zero pairs stay;
    # in the second layer the reordered row 1 stays and rows 2/3 merge;
    # the three output rows all stay
    net = _planted_net()
    assert [len(p[0]) - 1 for p in net.packed()] == [7, 5, 3]
    assert stats(net).live_rows == 15
    _, cols, _, _ = net.packed()[1]
    assert cols[:4].tolist() == [0, 1, 1, 0]


def test_wide_rows_never_merge():
    # rows over _EXACT_ROW_NNZ terms sum by a BLAS dot, so even identical
    # ones stay apart; identical narrow rows beside them merge
    n = backends._EXACT_ROW_NNZ + 1
    rng = np.random.default_rng(2)
    w = rng.standard_normal(n)
    hidden = Layer.from_dense(np.vstack([w, w, np.eye(n)[0], np.eye(n)[0]]),
                              [0.5, 0.5, 0.0, 0.0])
    net = NeuralNetwork(n, [hidden, Layer.from_dense(np.ones((1, 4)))])
    assert [len(p[0]) - 1 for p in net.packed()] == [3, 1]
    x = rng.standard_normal((5, n))
    raw = [(lay.indptr, lay.col_idx, lay.vals, lay.bias) for lay in net.layers]
    assert np.array_equal(_bits(realize_batch(net, x)),
                          _bits(backends.run_forward(raw, x.T).T))
    # a layer of wide rows alone: no narrow row to group
    net = NeuralNetwork(n, [Layer.from_dense(np.vstack([w, w]), [0.5, 0.5]),
                            Layer.from_dense(np.ones((1, 2)))])
    assert [len(p[0]) - 1 for p in net.packed()] == [2, 1]


def test_import_defers_scipy():
    # scipy.sparse costs a few tenths of a second to import; nn-info and
    # --help should not pay it
    src = Path(backends.__file__).resolve().parents[1]
    code = ("import sys, hprelu.cli; "
            "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse imported'")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
