"""Compilation of interpolants into networks and the end-to-end builders."""

import collections
import dataclasses
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hprelu import assembly, backends, metrics, network
from hprelu.assembly import (
    NetConfig,
    _tiled_tuple_stage,
    _tuple_selectors,
    build_phi_eps_c,
    build_phi_eps_f,
    build_vector,
    compiled_field,
    plan_assembly,
    quad_cells,
)
from hprelu.basis import build_basis
from hprelu.calculus import _pm_stack, concat, depth_align, full_parallel, parallel
from hprelu.catalog import analytic_fn, corner_singular, edge_singular
from hprelu.emulation import plan_budget, product_net
from hprelu.mesh import graded_axis
from hprelu.metrics import h1_error
from hprelu.network import (
    Layer,
    NeuralNetwork,
    deserialize,
    grad_realize_batch,
    realize_batch,
    serialize,
)
from hprelu.projector import HpInterpolant, hp_interpolate

from helpers import (
    assert_linf_envelope,
    kernel_threads,
    merged_rows,
    packed_rows,
    per_axis_tables,
    per_cell_field,
    separable_prefix,
)

_CACHE = {}


def _corner_interp(ell=2, p=2, lam=0.5, sigma=0.5, dim=2):
    key = ("interp", ell, p, lam, sigma, dim)
    if key not in _CACHE:
        u = corner_singular(dim, lam)
        _CACHE[key] = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), sigma, ell), p)
    return _CACHE[key]


def _lane_net(dim):
    key = ("lane", dim)
    if key not in _CACHE:
        _CACHE[key] = build_phi_eps_c(
            _corner_interp(ell=1, p=2, lam=0.6, dim=dim), 1e-1)
    return _CACHE[key]


def _small_net(eps=1e-2):
    key = ("net", eps)
    if key not in _CACHE:
        _CACHE[key] = build_phi_eps_c(_corner_interp(), eps)
    return _CACHE[key]


def _basis_stage(net):
    """The basis stage of a compiled net, rebuilt from its basis nets."""
    nets = net.meta["compiled_parts"]["basis"].nets
    return full_parallel([parallel(depth_align(nets))] * net.input_dim)


# -------------------------------------------------------------------- plans

def test_plan_split_minima():
    interp = _corner_interp()
    eps = 1e-2
    plan = plan_assembly(interp, eps, interp.coeff_l1())
    d = interp.dim
    cv = max(bf.h1_norm for bf in interp.basis)
    cl1 = interp.coeff_l1()
    assert plan.c_v_max == cv and plan.c_l1 == cl1
    assert plan.epsilon1 <= eps / (2.0 * d * (cv + 1.0) ** d * cl1) + 1e-18
    assert plan.epsilon1 <= 0.5
    assert plan.epsilon2 == min(
        eps / (2.0 * (math.sqrt(d) + 1.0) * (cv + 1.0) * cl1), 0.5)


def test_plan_budget_soundness():
    interp = _corner_interp()
    for eps in (1e-1, 1e-2, 1e-3):
        plan = plan_assembly(interp, eps, interp.coeff_l1())
        d = interp.dim
        two_terms = (plan.epsilon1 * d * (plan.c_v_max + 1.0) ** d * plan.c_l1
                     + plan.epsilon2 * (math.sqrt(d) + 1.0)
                     * (plan.c_v_max + 1.0) * plan.c_l1)
        assert two_terms <= eps + 1e-15


def test_plan_validation():
    interp = _corner_interp()
    with pytest.raises(ValueError):
        plan_assembly(interp, 0.0, interp.coeff_l1())
    with pytest.raises(ValueError):
        plan_assembly(interp, 1.0, interp.coeff_l1())
    with pytest.raises(ValueError, match="underflow"):
        plan_assembly(interp, 1e-6, cl1=1e9)


# ------------------------------------------------------------ compile core

def test_zero_coefficients_realize_to_zero():
    base = _corner_interp(ell=1, p=1)
    interp = HpInterpolant(base.axis, 1, np.zeros_like(base.coeffs))
    net = build_phi_eps_c(interp, 1e-2)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 1.5, size=(200, 2))
    assert np.all(realize_batch(net, pts)[:, 0] == 0.0)


def test_single_hat_coefficient_matches_product():
    # one unit coefficient on the middle hat pair: with exact hat nets the
    # whole compile error is the product stage's
    base = _corner_interp(ell=1, p=1)
    coeffs = np.zeros_like(base.coeffs)
    coeffs[1, 1] = 1.0
    interp = HpInterpolant(base.axis, 1, coeffs)
    net = build_phi_eps_c(interp, 1e-2)
    hat = interp.basis[1]
    x = np.linspace(0.0, 1.0, 41)
    gx, gy = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    got = realize_batch(net, pts)[:, 0]
    want = hat(pts[:, 0]) * hat(pts[:, 1])
    eps2 = net.meta["plan"].epsilon2
    assert np.max(np.abs(got - want)) <= eps2 * (1.0 + 1e-9)


def test_compiled_h1_gap_within_budget():
    # d=2 singular interpolant at ell=4: measured distance between the
    # interpolant and its compilation stays under the requested budget
    eps = 1e-2
    interp = _corner_interp(ell=4, p=3)
    net = build_phi_eps_c(interp, eps)
    rep = h1_error(interp, compiled_field(net), quad_cells(interp),
                   q=8, max_doublings=1)
    assert rep.h1_error <= eps
    assert rep.linf_error <= eps


@pytest.mark.parametrize("d,las", [(2, None), (3, None), (2, (2, 3))],
                         ids=["d2", "d3", "subset"])
def test_tiled_stage_matches_calculus_fold(d, las):
    # las=None: every tuple of N indices per axis, as the compile selects;
    # otherwise a cell's live tuples as tests/helpers.py selects them, las[a]
    # live indices on axis a at column offset offs[a]
    N = 3
    pi = product_net(d, plan_budget(d, 1e-1, 2.0))
    if las is None:
        sel, cols = _tuple_selectors(N, d, N ** d), d * N
    else:
        offs = np.concatenate(([0], np.cumsum(las)))
        loc = np.stack(np.unravel_index(np.arange(np.prod(las)), las, order="F"),
                       axis=1)
        sel, cols = loc + offs[:-1], int(offs[-1])
    tiled = _tiled_tuple_stage(pi, sel, cols)
    singles = []
    for s in sel:
        e = NeuralNetwork(cols, [Layer(d, cols, np.arange(d), s,
                                       np.ones(d), np.zeros(d))])
        singles.append(concat(pi, e))
    assert serialize(tiled) == serialize(parallel(singles))


def test_structural_counts():
    interp = _corner_interp()
    net = _small_net()
    d, T = interp.dim, interp.N1d ** interp.dim
    parts, phi_basis = net.meta["compiled_parts"], _basis_stage(net)
    pi, head = parts["pi"], np.count_nonzero(parts["vmat"])
    assert (net.meta["depth_basis"], net.meta["depth_product"]) == (phi_basis.depth, pi.depth)
    assert net.depth == phi_basis.depth + pi.depth + 2
    # concat's size bound on head . (tuple stage . basis stage), the tuple
    # stage holding T copies of pi with d selector weights each
    assert net.size <= 2 * head + 2 * (2 * T * (pi.size + d) + 2 * phi_basis.size)
    # selector rows pick one basis output each (doubled by the concat
    # interface); d picks per tuple copy, two copies per tuple
    sel_layer = net.layers[net.meta["depth_basis"]]
    nnz = np.bincount(sel_layer.row_idx, minlength=sel_layer.rows)
    assert np.all(nnz == 2)
    assert sel_layer.rows == 2 * d * T
    assert len(sel_layer.vals) == 4 * d * T


def test_compile_rows_share_the_mesh():
    interp = _corner_interp(ell=1, p=1)
    for other in (_corner_interp(ell=2, p=1), _corner_interp(ell=1, p=2),
                  _corner_interp(ell=1, p=1, sigma=0.25)):
        with pytest.raises(ValueError, match="share"):
            build_phi_eps_c(interp, 1e-2, rows=[interp, other])


def test_compile_respects_sup_precondition():
    base = _corner_interp(ell=1, p=1)
    interp = HpInterpolant(base.axis, 1, base.coeffs)

    class Tall:
        h1_norm = 1.0
        support = (0,)

        def sup_bounds(self):
            return 3.0, 1.0

    interp.basis = list(interp.basis)
    interp.basis[0] = Tall()
    with pytest.raises(ValueError, match="sup"):
        build_phi_eps_c(interp, 1e-2)


# -------------------------------------------------------- measurement cells

def test_quad_cells_unit_axis():
    interp = _corner_interp(ell=3, p=1)
    cells = quad_cells(interp, grade=4)
    assert len(cells) == 2
    for c in cells:
        nodes = interp.axis.nodes
        assert np.all(np.isin(nodes, c))
        assert np.all(np.diff(c) > 0)
        # only the innermost interval is refined
        assert len(c) == len(nodes) + 4
        assert c[1] == 0.5 ** 3 * 0.25 ** 4


def test_quad_cells_symmetric_axis():
    u = corner_singular(2, 0.6)
    interp = hp_interpolate(u, graded_axis(-1.0, 1.0, (-1.0, 0.0, 1.0), 0.5, 1), 1)
    cells = quad_cells(interp, grade=3)
    c = cells[0]
    nodes = interp.axis.nodes
    # four singular intervals, each refined toward its grading center
    assert len(c) == len(nodes) + 4 * 3
    assert np.allclose(c, -c[::-1])
    assert np.all(np.isin(nodes, c))


def test_quad_cells_off_zero_centers():
    """Each singular interval's measurement cells shrink toward the end that
    is a center, wherever the centers lie; the intervals (-0.5, -0.46875)
    and (0.5, 0.53125) start at an off-zero center and used to be graded
    toward their other end."""
    ax = graded_axis(-1.0, 1.0, (-0.5, 0.5), 0.25, 2)
    interp = HpInterpolant(ax, 1, np.zeros(len(ax.nodes)))
    cells, = quad_cells(interp, grade=4)
    np.testing.assert_array_equal(np.flatnonzero(ax.singular), [2, 3, 8, 9])
    for k in np.flatnonzero(ax.singular):
        xl, xr = ax.nodes[k], ax.nodes[k + 1]
        inside = cells[(cells >= xl) & (cells <= xr)]
        assert len(inside) == 4 + 2
        w = np.diff(inside)
        assert (xl in ax.centers) != (xr in ax.centers)
        # the finest cell touches the center, and widths grow away from it
        if xl in ax.centers:
            np.testing.assert_allclose(w[1:] / w[:-1], [3, 4, 4, 4], rtol=1e-12)
        else:
            np.testing.assert_allclose(w[:-1] / w[1:], [4, 4, 4, 3], rtol=1e-12)


# --------------------------------------------------------- cellwise fields

def test_compiled_field_bitwise_tensor():
    net = _small_net()
    f = compiled_field(net)
    rng = np.random.default_rng(8)
    axes = [np.sort(rng.uniform(0.0, 1.0, 13)),
            np.sort(rng.uniform(0.0, 1.0, 11))]
    gx, gy = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals, jac = grad_realize_batch(net, pts)
    assert np.array_equal(f.value_axes(axes), vals[:, 0].reshape(13, 11))
    assert np.array_equal(f.gradient_axes(axes),
                          jac[:, 0, :].reshape(13, 11, 2))


@pytest.mark.parametrize("dim", [2, 3])
def test_compiled_net_jacobian_one_plane_through_the_basis(dim):
    # the basis stage and the selector read one axis per row, so the
    # identity-seeded pass carries one jacobian plane through them; the
    # product stage mixes the axes, and values and jacobians are those of
    # the explicit identity seed, bit for bit
    net = _lane_net(dim)
    cut, axes = net.packed().cut, net.packed().axes
    want_cut, want_axes = separable_prefix(net)
    assert (cut, axes.tolist()) == (want_cut, want_axes)
    assert net.meta["depth_basis"] < cut < net.depth
    rng = np.random.default_rng(dim)
    pts = rng.uniform(0.0, 1.0, (300, dim))
    pts[:3] = np.array([0.0, 0.5, 1.0])[:, None]
    seed = np.zeros((dim, 300, dim))
    seed[np.arange(dim), :, np.arange(dim)] = 1.0
    want = backends.run_forward_grad(backends.Packed(list(net.packed())),
                                     pts.T, seed=seed)
    vals, jac = grad_realize_batch(net, pts)
    got = (vals.T, np.moveaxis(jac, 0, 1), realize_batch(net, pts).T)
    for a, b in zip(got, want + want[:1]):
        assert np.array_equal(np.ascontiguousarray(a).view(np.int64),
                              b.view(np.int64))


@pytest.mark.parametrize(
    "dim, p, n, budget, domain, tile",
    [(2, 4, 40, 100_000, "unit", None), (3, 2, 12, 140_000, "unit", None),
     (3, 2, 12, 140_000, "unit", 97), (2, 3, 100, 40_000, "sym", None)],
    ids=["2-4-40-100000", "3-2-12-140000", "3-2-12-140000-tile97",
         "2-3-100-40000-sym"])
def test_compiled_field_equals_per_cell_networks(monkeypatch, dim, p, n,
                                                 budget, domain, tile):
    # With random coefficients the head rows of the cells with the most
    # live tuples (50 terms in 2d, 54 in 3d) take the BLAS branch, whose
    # sums can change with the chunk bounds.  The budgets cut those cells
    # into chunks of 133 (2d) and 101 (3d) points, off any SIMD block
    # multiple.  ``tile`` shrinks the kernel's tiles, in every narrow run
    # and so in the all-axes lane's pass over a chunk, to that many
    # columns, so one chunk spans many.
    monkeypatch.setattr(network, "_JAC_BUDGET", budget)
    # the serial loop, so that the spy sees every cell
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if tile is not None:
        monkeypatch.setattr(backends, "_TILE_MIN", tile)
        monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    calls = []

    def spy(npts, width, nd):
        chunk = network._grad_chunk(npts, width, nd)
        calls.append((npts, width, chunk))
        return chunk

    monkeypatch.setattr(assembly, "_grad_chunk", spy)
    ax = (graded_axis(0.0, 1.0, (0.0,), 0.5, 1) if domain == "unit"
          else graded_axis(-1.0, 1.0, (-1.0, 0.0, 1.0), 0.5, 1))
    rng = np.random.default_rng(3)
    N = len(build_basis(ax, p))
    interp = HpInterpolant(ax, p, rng.uniform(-1.0, 1.0, (N,) * dim))
    net = build_phi_eps_c(interp, 1e-1)
    axes = [np.linspace(ax.nodes[0], ax.nodes[-1], n)] * dim
    want_v, want_g = per_cell_field(net, axes)
    f = compiled_field(net)
    # bit for bit, the signs of zeros included
    assert np.array_equal(f.value_axes(axes).view(np.uint64),
                          want_v.view(np.uint64))
    assert np.array_equal(f.gradient_axes(axes).view(np.uint64),
                          want_g.view(np.uint64))
    assert any(chunk < npts for npts, _, chunk in calls)
    if tile is not None:
        # tuples x points of some chunk exceed one tile
        assert any(width // f._width * min(npts, chunk) > tile
                   for npts, width, chunk in calls)


def _zero_cell_interp():
    """A 2d interpolant whose live coefficients on mesh cell (0, 0) are all
    zero, with one more zero tuple on cell (1, 1)."""
    axis = graded_axis(0.0, 1.0, (0.0,), 0.5, 1)
    basis = build_basis(axis, 2)
    rng = np.random.default_rng(11)
    c = rng.uniform(-1.0, 1.0, (len(basis),) * 2)
    live = [i for i, bf in enumerate(basis) if 0 in bf.support]
    c[np.ix_(live, live)] = 0.0
    c[2, 4] = 0.0
    return HpInterpolant(axis, 2, c)


def test_packing_drops_the_zero_tuples():
    # a tuple whose coefficient is zero feeds no head entry, so the served
    # net packs none of its stage rows: changing them changes no packed
    # row.  The packed rows are the oracle's: the live ones, each
    # bit-identical row once
    interp = _zero_cell_interp()
    net = build_phi_eps_c(interp, 1e-1)
    rt = deserialize(serialize(net))
    T = interp.N1d ** interp.dim
    kept = np.flatnonzero(interp.vvec())
    assert 0 < len(kept) < T
    rows = packed_rows(rt.packed())
    assert rows == merged_rows(rt)
    db = net.meta["depth_basis"]
    zero = np.setdiff1d(np.arange(T), kept)
    layers = list(rt.layers)
    for k in range(db, rt.depth - 1):
        lay = layers[k]
        # tuple-major blocks; the last stage layer is (+,-) stacked by concat
        blocks = 2 * T if k == rt.depth - 2 else T
        tup = np.arange(lay.rows) // (lay.rows // blocks) % T
        bias = np.where(np.isin(tup, zero), 7.0, lay.bias)
        layers[k] = Layer(lay.rows, lay.cols, lay.row_idx, lay.col_idx, lay.vals, bias)
    assert packed_rows(NeuralNetwork(rt.input_dim, layers).packed()) == rows
    # the selector rows of the nonzero tuples, in order and each distinct
    # one once, read the basis outputs they read before
    sel = rt.layers[db]
    per = sel.rows // T
    sel_rows = packed_rows([(sel.indptr, sel.col_idx, sel.vals, sel.bias)])[0]
    want = dict.fromkeys(sel_rows[r] for r in (kept[:, None] * per + np.arange(per)).ravel())
    assert rows[db] == list(want)
    assert len(want) < len(kept) * per


def test_compiled_field_on_a_zero_cell():
    # no nonzero tuple runs on cell (0, 0): +0.0 values and gradients, as
    # the cell's empty head gives
    net = build_phi_eps_c(_zero_cell_interp(), 1e-1)
    axes = [np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)]
    want_v, want_g = per_cell_field(net, axes)
    f = compiled_field(net)
    v, g = f.value_axes(axes), f.gradient_axes(axes)
    assert np.array_equal(v.view(np.uint64), want_v.view(np.uint64))
    assert np.array_equal(g.view(np.uint64), want_g.view(np.uint64))
    ax = net.meta["compiled_parts"]["interp"].axis
    zero = np.ix_(*[ax.find(a) == 0 for a in axes])
    assert v[zero].size and not v[zero].view(np.uint64).any()
    assert not g[zero].view(np.uint64).any()
    assert np.count_nonzero(v) > 0


def _stage(net):
    """The packed single-tuple stage the compiled field of ``net`` runs by
    lanes."""
    d = net.input_dim
    pi = net.meta["compiled_parts"]["pi"]
    layers = _tiled_tuple_stage(pi, np.arange(d)[None, :], d).layers
    return NeuralNetwork(d, layers[:-1] + (_pm_stack(layers[-1]),)).packed()


@pytest.mark.parametrize("dim", [2, 3])
def test_lane_plan_partitions_the_stage(dim):
    net = _lane_net(dim)
    f = compiled_field(net)
    stage = _stage(net)
    full = (1 << dim) - 1
    covered = []
    full_nnz = 0
    for s, l0, srcs, packed in f._steps:
        # edges stay in the lane or come from a strict-subset lane
        assert srcs and all(a | s == s for a in srcs)
        for i, (indptr, cols, vals, bias) in enumerate(packed):
            lay = l0 + i
            covered.append((lay, s))
            # the stage rows of this lane and the stage rows its columns name
            rows = f._rows[lay, s]
            ins = np.concatenate([f._rows[lay - 1, a]
                                  for a in (srcs if i == 0 else [s])])
            sp, sc, sv, sb = stage[lay - 1]
            take = np.concatenate([np.arange(sp[r], sp[r + 1]) for r in rows])
            assert np.array_equal(np.diff(indptr), np.diff(sp)[rows])
            assert np.array_equal(ins[cols], sc[take])
            assert np.array_equal(vals.view(np.uint64), sv[take].view(np.uint64))
            assert np.array_equal(bias.view(np.uint64), sb[rows].view(np.uint64))
            if s == full:
                full_nnz += len(vals)
    # one step per (layer, lane), and the lanes partition every layer
    assert sorted(covered) == sorted(k for k in f._rows if k[0] > 0)
    for lay, (indptr, _, _, _) in enumerate(stage, 1):
        rows = np.concatenate([r for (l, _), r in f._rows.items() if l == lay])
        assert np.array_equal(np.sort(rows), np.arange(len(indptr) - 1))
    assert 0 < full_nnz < sum(len(vals) for _, _, vals, _ in stage)


def test_reduced_lanes_run_once_per_projection(monkeypatch):
    # the budget splits the largest cells into several chunks
    monkeypatch.setattr(network, "_JAC_BUDGET", 140_000)
    # the serial loop, so that the spies see every cell
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    # 97-column tiles, so that a chunk spans many: the kernel tiles it
    # inside one pass
    monkeypatch.setattr(backends, "_TILE_MIN", 97)
    monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    f = compiled_field(_lane_net(3))
    runs, cols, chunks = collections.Counter(), collections.Counter(), []
    orig = backends.run_forward_grad

    def run(packed, x, seed=None):
        runs[id(packed)] += 1
        cols[id(packed)] = max(cols[id(packed)], x.shape[1])
        return orig(packed, x, seed=seed)

    def spy(npts, width, nd):
        chunks.append((npts, network._grad_chunk(npts, width, nd)))
        return chunks[-1][1]

    live, cell = [], f._cell

    def spy_cell(kcell, sls, *args):
        if np.count_nonzero(f._tuples(kcell)[2]):
            live.append((kcell, sls))
        return cell(kcell, sls, *args)

    monkeypatch.setattr(backends, "run_forward_grad", run)
    monkeypatch.setattr(assembly, "_grad_chunk", spy)
    monkeypatch.setattr(f, "_cell", spy_cell)
    f.value_axes([np.linspace(0.0, 1.0, 12)] * 3)
    # one chunk size per cell with a nonzero tuple
    cells = len(chunks)
    assert cells == len(live) > 1 and any(c < n for n, c in chunks)
    # each all-axes step runs one kernel pass per chunk, over many tiles;
    # each other step once per projection of those cells onto its axes
    for s, _, _, packed in f._steps:
        if s == f._full:
            assert runs[id(packed)] == sum(-(-n // c) for n, c in chunks)
            assert cols[id(packed)] > 97
        else:
            axes = [a for a in range(3) if s >> a & 1]
            assert runs[id(packed)] == len({
                tuple((kcell[a], sls[a].start, sls[a].stop) for a in axes)
                for kcell, sls in live}) < cells


@pytest.mark.parametrize("dim", [2, 3])
def test_shared_lanes_move_no_bit(monkeypatch, dim):
    # on an unsorted axis one interval falls into several segments of
    # points, each its own projection; values and gradients equal those
    # of cells that each run every lane themselves, bit for bit
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rng = np.random.default_rng(14)
    axes = [rng.permutation(np.linspace(0.0, 1.0, 9))] + [
        np.linspace(0.0, 1.0, 7)] * (dim - 1)
    want = compiled_field(_lane_net(dim))
    cell = want._cell
    monkeypatch.setattr(want, "_cell",
                        lambda kcell, sls, zv, zd, lanes: cell(kcell, sls, zv, zd, {}))
    got = compiled_field(_lane_net(dim))
    for a, b in ((got.value_axes(axes), want.value_axes(axes)),
                 (got.gradient_axes(axes), want.gradient_axes(axes))):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("empty", [0, 1, (0, 1)], ids=["first", "last", "both"])
def test_fields_on_a_grid_with_an_empty_axis(empty):
    # an empty axis makes an empty grid: every field kind returns its
    # (len(a0), len(a1)) shape, the compiled one as the others do
    axes = [np.array([]) if a in np.atleast_1d(empty) else np.linspace(0.0, 1.0, 5)
            for a in range(2)]
    shape = tuple(len(a) for a in axes)
    fields = [compiled_field(_lane_net(2)), _corner_interp(), corner_singular(2, 0.5)]
    for field in fields:
        assert field.value_axes(axes).shape == shape
        assert field.partial_axes(axes, 1).shape == shape
    assert fields[0].gradient_axes(axes).shape == shape + (2,)


@pytest.mark.parametrize("row", [-1, 1, 2.7, True, "0", None])
def test_compiled_field_checks_row(row):
    with pytest.raises(ValueError, match="row"):
        compiled_field(_small_net(), row=row)


def test_compiled_field_takes_any_integer_row():
    # a numpy integer is an integer: row np.int64(0) is row 0, bit for bit
    net = _small_net()
    axes = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)]
    got = compiled_field(net, row=np.int64(0)).value_axes(axes)
    want = compiled_field(net, row=0).value_axes(axes)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_compiled_field_needs_structure():
    plain = product_net(2, plan_budget(2, 1e-2, 1.0))
    with pytest.raises(ValueError, match="structure"):
        compiled_field(plain)


def test_serialize_drops_structure():
    net = _small_net()
    rt = deserialize(serialize(net))
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    assert np.array_equal(realize_batch(rt, pts), realize_batch(net, pts))
    with pytest.raises(ValueError):
        compiled_field(rt)


# ------------------------------------------------------ forked certification

def _certify_axes(interp):
    """The point axes of the certification grid of ``interp``'s net (its
    first Richardson level)."""
    _, q, grade = assembly._grids(interp)
    rng = np.random.default_rng(metrics._SEED)
    return [metrics._axis_quad(c, 1, q, rng)[0]
            for c in quad_cells(interp, grade)]


def _count_forks(mp, cores, cap=None):
    """Give the process ``cores`` usable cores and certification a cap of
    ``cap`` workers (default ``cores``); returns the list that collects one
    entry per fork."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    mp.setattr(backends, "_MAX_WORKERS", cores if cap is None else cap)
    mp.setattr(os, "fork", counted)
    return forks


def _field_bits(net, axes):
    f = compiled_field(net)
    return (f.value_axes(axes).view(np.uint64).copy(),
            f.gradient_axes(axes).view(np.uint64).copy())


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _criterion_6_case():
    """The 3d corner+edge net of criterion 6 at eps = 2e-1 (its calibrated
    ell = 2, p = 2 interpolant compiled with half the budget) and its
    certification grid."""
    cfg = dataclasses.replace(NetConfig.for_dim(3), sigma=0.25)
    u = corner_singular(3, 0.8) + edge_singular(0.6)
    interp = assembly._interpolate(u, 2, 2, cfg)
    return build_phi_eps_c(interp, 1e-1), _certify_axes(interp)


_FORK_CASES = {
    "2d": lambda: (_small_net(), _certify_axes(_corner_interp())),
    "3d-criterion-6": _criterion_6_case,
    # every point in mesh cell (2, 2): one cell, nothing to split
    "one-cell": lambda: (_small_net(), [np.linspace(0.6, 0.9, 7),
                                        np.linspace(0.55, 0.95, 5)]),
}


@pytest.mark.parametrize("case", ["2d", "3d-criterion-6"])
def test_tables_run_each_basis_net_once(monkeypatch, case):
    net, axes = _FORK_CASES[case]()
    field = compiled_field(net)
    nets = field.basis.nets
    # the premise: every basis-net row sums in stored order, so no point's
    # bits depend on the points run beside it
    widest = max(int(np.diff(lay.indptr).max())
                 for bnet in nets for lay in bnet.layers)
    assert widest <= backends._EXACT_ROW_NNZ
    ks = [field.interp.axis.find(a) for a in axes]
    runs, run = [], backends.run_forward_grad

    def counted(packed, x, seed=None):
        runs.append((len(packed), seed is None))
        return run(packed, x, seed=seed)

    monkeypatch.setattr(backends, "run_forward_grad", counted)
    zv, zd = field._tables(axes, ks)
    monkeypatch.undo()
    # one whole pass per hat, one two-layer head per bubble net and one
    # tail per group of bubble nets, seeded with their heads' jacobians
    bubbles = [bnet for bf, bnet in zip(field.interp.basis, nets)
               if not np.any(bf.node_values())]
    tails = {id(bnet.layers[2]): bnet.depth - 2 for bnet in bubbles}
    assert len(bubbles) > len(tails)
    want = ([(bnet.depth, True) for bnet in nets if bnet not in bubbles]
            + [(2, True)] * len(bubbles) + [(n, False) for n in tails.values()])
    assert sorted(runs) == sorted(want)
    wv, wd = per_axis_tables(field, axes)
    assert len(zv) == len(zd) == len(axes)
    for k, a, b in zip(ks + ks, zv + zd, wv + wd):
        assert a.shape == b.shape
        for i, bf in enumerate(field.interp.basis):
            # what a cell reads, the points of the support, bit for bit;
            # zeros elsewhere
            read = np.isin(k, bf.support)
            assert a[i, read].tobytes() == b[i, read].tobytes()
            assert not a[i, ~read].any()


def test_each_tail_is_packed_once_per_build(monkeypatch):
    interp = _corner_interp()
    axes = _certify_axes(interp)
    ks = [interp.axis.find(a) for a in axes]
    packed, pack = [], network._pack_rows
    monkeypatch.setattr(network, "_pack_rows",
                        lambda layers, live: packed.append(layers[0]) or pack(layers, live))
    builds = []
    for _ in range(2):
        packed.clear()
        # the measurement, then certification's tables
        net = build_phi_eps_c(interp, 1e-2)
        compiled_field(net)._tables(axes, ks)
        nets = net.meta["compiled_parts"]["basis"].nets
        tails = {id(bnet.layers[2]) for bf, bnet in zip(interp.basis, nets)
                 if not np.any(bf.node_values())}
        times = collections.Counter(map(id, packed))
        assert tails and all(times[t] == 1 for t in tails)
        # the nets stay alive, so no id of theirs is reused
        builds.append((net, tails))
    assert builds[0][1].isdisjoint(builds[1][1])


@pytest.mark.parametrize("case", list(_FORK_CASES))
def test_forked_certification_matches_serial(monkeypatch, case):
    net, axes = _FORK_CASES[case]()
    with monkeypatch.context() as mp:
        forks = _count_forks(mp, 1)
        want = _field_bits(net, axes)
    assert not forks
    # three workers on a two-core machine: uneven shares, more workers
    # than cores
    with monkeypatch.context() as mp:
        forks = _count_forks(mp, 3)
        got = _field_bits(net, axes)
    assert len(forks) == (0 if case == "one-cell" else 2)
    _no_child_left()
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("why", ["one core", "a live thread", "no fork"])
def test_certification_falls_back_to_the_serial_loop(monkeypatch, why):
    net, axes = _small_net(), _certify_axes(_corner_interp())
    with monkeypatch.context() as mp:
        forks = _count_forks(mp, 3)
        want = _field_bits(net, axes)
    assert len(forks) == 2
    with monkeypatch.context() as mp:
        forks = _count_forks(mp, 1 if why == "one core" else 3)
        if why == "no fork":
            mp.delattr(os, "fork")
        if why == "a live thread":
            with ThreadPoolExecutor(1) as pool:
                got = pool.submit(_field_bits, net, axes).result()
        else:
            got = _field_bits(net, axes)
    assert not forks
    _no_child_left()
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def test_certification_workers_stop_at_the_cap(monkeypatch):
    net, axes = _small_net(), _certify_axes(_corner_interp())
    with monkeypatch.context() as mp:
        forks = _count_forks(mp, 64, cap=backends._MAX_WORKERS)
        _field_bits(net, axes)
    assert len(forks) == backends._MAX_WORKERS - 1
    _no_child_left()


def test_certification_forks_after_a_threaded_serve(monkeypatch):
    # a served pass shares its tiles out to threads and joins them all, so
    # the process has one live thread again and certification still forks
    net, axes = _small_net(), _certify_axes(_corner_interp())
    forks = _count_forks(monkeypatch, 3)
    with monkeypatch.context() as mp:
        mp.setattr(backends, "_TILE_BYTES", 0)
        mp.setattr(backends, "_TILE_MIN", 8)
        threads = kernel_threads(mp)
        grad_realize_batch(net, np.random.default_rng(2).uniform(0, 1, (100, 2)))
    assert len(threads) == 3
    _field_bits(net, axes)
    assert len(forks) == 2
    _no_child_left()


def test_an_unforked_share_runs_in_the_parent(monkeypatch):
    net, axes = _small_net(), _certify_axes(_corner_interp())
    with monkeypatch.context() as mp:
        _count_forks(mp, 1)
        want = _field_bits(net, axes)
    # the first fork succeeds, the second hits a process limit
    forks, fork = [], os.fork

    def limited():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    with monkeypatch.context() as mp:
        _count_forks(mp, 3)
        mp.setattr(os, "fork", limited)
        got = _field_bits(net, axes)
    assert len(forks) == 2
    _no_child_left()
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_worker_fails_certification(monkeypatch, capfd, where):
    parent, cell = os.getpid(), assembly._CompiledField._cell

    def failing(self, *args):
        if (os.getpid() == parent) == (where == "parent"):
            raise ZeroDivisionError("this cell fails")
        return cell(self, *args)

    forks = _count_forks(monkeypatch, 2)
    monkeypatch.setattr(assembly._CompiledField, "_cell", failing)
    f = compiled_field(_small_net())
    with pytest.raises(RuntimeError if where == "child" else ZeroDivisionError):
        f.value_axes(_certify_axes(_corner_interp()))
    assert len(forks) == 1
    _no_child_left()
    # a worker's traceback reaches stderr
    assert ("ZeroDivisionError: this cell fails" in capfd.readouterr().err) == (
        where == "child")


# ----------------------------------------------------- end-to-end builders

def test_build_f_constant_is_cheap():
    u = analytic_fn(2, "constant", {"value": 3.0})
    net, rep = build_phi_eps_f(u, 2, 1e-2)
    assert rep.ell <= 1
    assert rep.certified
    assert rep.h1_error <= 1e-2
    assert net.input_dim == 2


def test_build_f_singular_certifies():
    cfg = NetConfig(sigma=0.17)
    u = corner_singular(2, 0.5)
    _, rep_coarse = build_phi_eps_f(u, 2, 1e-1, cfg)
    net, rep = build_phi_eps_f(u, 2, 1e-2, cfg)
    for r, eps in ((rep_coarse, 1e-1), (rep, 1e-2)):
        assert r.certified
        assert r.h1_error <= eps
        assert r.hp_h1_error <= 0.5 * eps
    # tighter targets need deeper grading and larger nets
    assert rep.ell > rep_coarse.ell
    assert rep.nn_size > _basis_stage(net).size


def test_build_f_sym_domain_certifies():
    # the interior-point case: the corner singularity at the center of
    # (-1, 1)^2, graded toward it and toward both ends of each axis
    eps = 0.3
    net, rep = build_phi_eps_f(corner_singular(2, 0.5), 2, eps,
                               NetConfig(domain="sym", sigma=0.17))
    assert rep.certified and rep.h1_error <= eps
    interp = net.meta["compiled_parts"]["interp"]
    nodes = interp.axis.nodes
    assert (nodes[0], nodes[-1]) == (-1.0, 1.0) and 0.0 in nodes
    assert np.count_nonzero(interp.axis.singular) == 4
    pts = np.array([[-0.7, -0.3], [0.0, 0.0], [0.4, -0.9], [-0.6, 0.8], [0.3, 0.2]])
    assert np.max(np.abs(realize_batch(net, pts)[:, 0] - interp.value(pts))) <= 0.5 * eps


def test_build_f_grid_check_envelope():
    u = corner_singular(2, 0.5)
    net, rep = build_phi_eps_f(u, 2, 1e-1, NetConfig(sigma=0.17))
    assert_linf_envelope(net, net.meta["compiled_parts"]["interp"], rep.plan, 15)
    assert rep.certified


def test_build_f_reports_cap():
    u = corner_singular(2, 0.5)
    with pytest.raises(RuntimeError, match="calibration failed"):
        build_phi_eps_f(u, 2, 1e-3, NetConfig(ell_max=1))


def _poly_u(s=1.0):
    return analytic_fn(2, "polynomial",
                       {"axis_coeffs": [[s * 0.3, s * 0.4, s * 0.8], [-0.2, 1.0, 0.5]]})


def test_vector_identical_rows():
    u = _poly_u()
    net, reps = build_vector([u, u], 2, 1e-2)
    lay = net.layers[-1]
    dense = lay.dense()
    assert np.array_equal(dense[0], dense[1])
    rng = np.random.default_rng(10)
    pts = rng.uniform(0.0, 1.0, size=(80, 2))
    out = realize_batch(net, pts)
    assert np.array_equal(out[:, 0], out[:, 1])
    assert reps[0].coeff_l1 == reps[1].coeff_l1


def test_vector_scaling_row():
    u = _poly_u()
    net, reps = build_vector([u, _poly_u(2.0)], 2, 1e-2)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, size=(80, 2))
    out = realize_batch(net, pts)
    assert np.array_equal(out[:, 1], 2.0 * out[:, 0])
    assert reps[1].coeff_l1 == 2.0 * reps[0].coeff_l1


def test_vector_three_singular_certified():
    us = [corner_singular(2, lam) for lam in (0.45, 0.6, 0.75)]
    eps = 3e-2
    net, reps = build_vector(us, 2, eps, NetConfig(sigma=0.17))
    assert len(reps) == 3
    for rep in reps:
        assert rep.certified
        assert rep.h1_error <= eps
        assert rep.nn_size == net.size
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 1.0, size=(10, 2))
    assert realize_batch(net, pts).shape == (10, 3)


def test_vector_grid_check_covers_every_row():
    u = _poly_u()
    net, reps = build_vector([u, _poly_u(2.0)], 2, 1e-2)
    interp = net.meta["compiled_parts"]["interp"]
    assert net.output_dim == 2
    assert_linf_envelope(net, interp, reps[0].plan, 7)
    # a second output row past the envelope trips the check
    bad = NeuralNetwork(2, [Layer(2, 2, [], [], [], [0.0, 1e6])])
    with pytest.raises(AssertionError):
        assert_linf_envelope(bad, interp, reps[0].plan, 3)


@pytest.mark.parametrize("epsilon, ell_max, match", [
    (-1.0, 12, "got -1.0"), (0.0, 12, "got 0.0"), (2.0, 12, "got 2.0"),
    (float("nan"), 12, "got nan"), ("0.1", 12, "got '0.1'"), (True, 12, "got True"),
    (1e-1, -1, "ell_max must be >= 0, got -1")],
    ids=["negative", "zero", "two", "nan", "str", "bool", "negative-ell-max"])
def test_vector_rejects_bad_targets_before_calibrating(monkeypatch, epsilon,
                                                       ell_max, match):
    def no_calibration(*args):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(assembly, "_interpolate", no_calibration)
    with pytest.raises(ValueError, match=match):
        build_vector([_poly_u()], 2, epsilon, NetConfig(ell_max=ell_max))


@pytest.mark.parametrize("dim", [2.0, True, 0])
def test_vector_rejects_a_dimension_that_is_not_an_integer(monkeypatch, dim):
    # 2.0 == 2 would pass the functions' dimension check and then stand in
    # the reports; a bool or a float is not coerced
    def no_calibration(*args):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(assembly, "_interpolate", no_calibration)
    with pytest.raises(ValueError, match=re.escape(f"dim must be >= 1, got {dim!r}")):
        build_vector([_poly_u()], dim, 1e-1)


def test_vector_rejects_a_dimension_mismatch_before_calibrating(monkeypatch):
    def no_calibration(*args):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(assembly, "_interpolate", no_calibration)
    with pytest.raises(ValueError, match="dimension 2, but the build's dimension is 3"):
        build_phi_eps_f(corner_singular(2, 0.5), 3, 0.5, NetConfig(ell_max=1))


def test_measurement_grids_follow_the_dimension(monkeypatch):
    # no config field sets the grids: a 3d interpolant is measured on the
    # trimmed ones, whatever NetConfig the build got
    assert [f.name for f in dataclasses.fields(NetConfig)] == [
        "sigma", "c_p", "ell_max", "domain"]
    calls = []
    monkeypatch.setattr(assembly, "h1_error", lambda f, g, cells, q, max_doublings:
                        calls.append((q, len(cells), len(cells[0]))))
    for dim, lam in ((2, 0.5), (3, 0.8)):
        assembly.hp_error(corner_singular(dim, lam),
                          _corner_interp(ell=1, p=1, lam=lam, dim=dim))
    # 3 nodes, the singular interval sub-refined by the grade
    assert calls == [(10, 2, 3 + 8), (6, 3, 3 + 5)]


@pytest.mark.parametrize("key", ["c_p"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0, True])
def test_net_config_rejects_bad_numbers(key, bad):
    with pytest.raises(ValueError, match=f"{key} must be a finite number > 0, got {bad}"):
        NetConfig(**{key: bad})


@pytest.mark.parametrize("entry, message", [
    ({"sigma": 0.7}, "sigma must lie in (0, 1/2], got 0.7"),
    ({"sigma": 0.0}, "sigma must lie in (0, 1/2], got 0.0"),
    ({"sigma": math.nan}, "sigma must lie in (0, 1/2], got nan"),
    ({"sigma": True}, "sigma must lie in (0, 1/2], got True"),
    ({"ell_max": True}, "ell_max must be >= 0, got True"),
    ({"ell_max": 2.0}, "ell_max must be >= 0, got 2.0"),
    ({"ell_max": 2.7}, "ell_max must be >= 0, got 2.7"),
    ({"domain": "x"}, "domain must be 'unit' or 'sym', got 'x'")],
    ids=["large-sigma", "zero-sigma", "nan-sigma", "bool-sigma", "bool-ell-max",
         "float-ell-max", "fraction-ell-max", "unknown-domain"])
def test_net_config_rejects_bad_settings(entry, message):
    # rejected when the config is made, not in the first calibration step
    with pytest.raises(ValueError, match=re.escape(message)):
        NetConfig(**entry)


def test_vector_rejects_empty():
    with pytest.raises(ValueError):
        build_vector([], 2, 1e-2)
