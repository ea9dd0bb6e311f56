"""Compilation of interpolants into networks and the end-to-end builders."""

import collections
import math

import numpy as np
import pytest

from hprelu import assembly, backends, network
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
from hprelu.calculus import _pm_stack, concat, parallel
from hprelu.catalog import analytic_fn, corner_singular
from hprelu.emulation import plan_budget, product_net
from hprelu.mesh import TensorMesh
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

from helpers import assert_linf_envelope, per_cell_field

_CACHE = {}


def _corner_interp(ell=2, p=2, lam=0.5, sigma=0.5, dim=2):
    key = ("interp", ell, p, lam, sigma, dim)
    if key not in _CACHE:
        u = corner_singular(dim, lam)
        _CACHE[key] = hp_interpolate(u, TensorMesh.cube(sigma, ell, dim), p)
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


# -------------------------------------------------------------------- plans

def test_plan_split_minima():
    interp = _corner_interp()
    eps = 1e-2
    plan = plan_assembly(interp, eps)
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
        plan = plan_assembly(interp, eps)
        d = interp.dim
        two_terms = (plan.epsilon1 * d * (plan.c_v_max + 1.0) ** d * plan.c_l1
                     + plan.epsilon2 * (math.sqrt(d) + 1.0)
                     * (plan.c_v_max + 1.0) * plan.c_l1)
        assert two_terms <= eps + 1e-15


def test_plan_validation():
    interp = _corner_interp()
    with pytest.raises(ValueError):
        plan_assembly(interp, 0.0)
    with pytest.raises(ValueError):
        plan_assembly(interp, 1.0)
    with pytest.raises(ValueError, match="underflow"):
        plan_assembly(interp, 1e-6, cl1=1e9)


# ------------------------------------------------------------ compile core

def test_zero_coefficients_realize_to_zero():
    base = _corner_interp(ell=1, p=1)
    interp = HpInterpolant(base.mesh, 1, np.zeros_like(base.coeffs))
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
    interp = HpInterpolant(base.mesh, 1, coeffs)
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
                   q=8, n_q=1, max_doublings=1)
    assert rep.h1_error <= eps
    assert rep.linf_error <= eps


def test_tiled_stage_matches_calculus_fold():
    d, N = 2, 3
    pi = product_net(d, plan_budget(d, 1e-1, 2.0))
    sel = _tuple_selectors(N, d, N ** d)
    tiled = _tiled_tuple_stage(pi, sel, d * N)
    singles = []
    for t in range(N ** d):
        e = NeuralNetwork(d * N, [Layer(d, d * N, np.arange(d), sel[t],
                                        np.ones(d), np.zeros(d))])
        singles.append(concat(pi, e))
    assert serialize(tiled) == serialize(parallel(singles))


def test_structural_counts():
    interp = _corner_interp()
    net = _small_net()
    d = interp.dim
    assert net.meta["tuples"] == interp.N1d ** d
    assert net.meta["selector_nnz"] == d
    assert net.depth == (net.meta["depth_basis"]
                         + net.meta["depth_product"] + 2)
    assert net.size <= net.meta["size_bound"]
    # selector rows pick one basis output each (doubled by the concat
    # interface); d picks per tuple copy, two copies per tuple
    sel_layer = net.layers[net.meta["depth_basis"]]
    nnz = np.bincount(sel_layer.row_idx, minlength=sel_layer.rows)
    assert np.all(nnz == 2)
    assert len(sel_layer.vals) == 4 * d * net.meta["tuples"]


def test_compile_rows_share_the_mesh():
    interp = _corner_interp(ell=1, p=1)
    for other in (_corner_interp(ell=2, p=1), _corner_interp(ell=1, p=2),
                  _corner_interp(ell=1, p=1, sigma=0.25)):
        with pytest.raises(ValueError, match="share"):
            build_phi_eps_c(interp, 1e-2, rows=[interp, other])


def test_compile_respects_sup_precondition():
    base = _corner_interp(ell=1, p=1)
    interp = HpInterpolant(base.mesh, 1, base.coeffs)

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
        nodes = interp.mesh.axes[0].nodes
        assert np.all(np.isin(nodes, c))
        assert np.all(np.diff(c) > 0)
        # only the innermost interval is refined
        assert len(c) == len(nodes) + 4
        assert c[1] == 0.5 ** 3 * 0.25 ** 4


def test_quad_cells_symmetric_axis():
    u = corner_singular(2, 0.6)
    mesh = TensorMesh.sym_cube(0.5, 1, 2, 1.0)
    interp = hp_interpolate(u, mesh, 1)
    cells = quad_cells(interp, grade=3)
    c = cells[0]
    nodes = interp.mesh.axes[0].nodes
    # four singular intervals, each refined toward its grading center
    assert len(c) == len(nodes) + 4 * 3
    assert np.allclose(c, -c[::-1])
    assert np.all(np.isin(nodes, c))


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
    # multiple.  ``tile`` shrinks the tiles of the all-axes lane (and of
    # every narrow run) to that many columns, so one chunk spans many.
    monkeypatch.setattr(network, "_JAC_BUDGET", budget)
    if tile is not None:
        monkeypatch.setattr(backends, "_TILE_MIN", tile)
        monkeypatch.setattr(backends, "_TILE_BYTES", 0)
    calls = []

    def spy(npts, width, nd):
        chunk = network._grad_chunk(npts, width, nd)
        calls.append((npts, width, chunk))
        return chunk

    monkeypatch.setattr(assembly, "_grad_chunk", spy)
    mesh = (TensorMesh.cube(0.5, 1, dim) if domain == "unit"
            else TensorMesh.sym_cube(0.5, 1, dim))
    rng = np.random.default_rng(3)
    N = len(build_basis(mesh.axes[0], p))
    interp = HpInterpolant(mesh, p, rng.uniform(-1.0, 1.0, (N,) * dim))
    net = build_phi_eps_c(interp, 1e-1)
    ax = mesh.axes[0]
    axes = [np.linspace(ax.lo, ax.hi, n)] * dim
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
    mesh = TensorMesh.cube(0.5, 1, 2)
    basis = build_basis(mesh.axes[0], 2)
    rng = np.random.default_rng(11)
    c = rng.uniform(-1.0, 1.0, (len(basis),) * 2)
    live = [i for i, bf in enumerate(basis) if 0 in bf.support]
    c[np.ix_(live, live)] = 0.0
    c[2, 4] = 0.0
    return HpInterpolant(mesh, 2, c)


def test_packing_drops_the_zero_tuples():
    # a tuple whose coefficient is zero feeds no head entry, so the served
    # net packs none of its stage rows and keeps every other row
    interp = _zero_cell_interp()
    net = build_phi_eps_c(interp, 1e-1)
    rt = deserialize(serialize(net))
    T = net.meta["tuples"]
    kept = np.flatnonzero(interp.vvec())
    assert 0 < len(kept) < T
    db = net.meta["depth_basis"]
    for k, (lay, (indptr, _, vals, _)) in enumerate(zip(rt.layers, rt.packed())):
        share = (len(kept), T) if db <= k < net.depth - 1 else (1, 1)
        assert (len(indptr) - 1) * share[1] == lay.rows * share[0]
        assert len(vals) * share[1] == len(lay.vals) * share[0]
    # the selector rows of the nonzero tuples, in order, read the basis
    # outputs they read before
    sel = rt.layers[db]
    per = sel.rows // T
    rows = (kept[:, None] * per + np.arange(per)).ravel()
    take = np.concatenate([np.arange(sel.indptr[r], sel.indptr[r + 1])
                           for r in rows])
    _, cols, vals, bias = rt.packed()[db]
    assert np.array_equal(cols, sel.col_idx[take])
    assert np.array_equal(vals.view(np.uint64), sel.vals[take].view(np.uint64))
    assert np.array_equal(bias.view(np.uint64), sel.bias[rows].view(np.uint64))


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
    ax = net.meta["compiled_parts"]["interp"].mesh.axes[0]
    zero = np.ix_(*[ax.find(a) == 0 for a in axes])
    assert v[zero].size and not v[zero].view(np.uint64).any()
    assert not g[zero].view(np.uint64).any()
    assert np.count_nonzero(v) > 0


def _stage(net):
    """The packed single-tuple stage the compiled field of ``net`` runs by
    lanes."""
    d = net.meta["dim"]
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


def test_reduced_lanes_run_once_per_cell(monkeypatch):
    # the budget splits the largest cells into several chunks
    monkeypatch.setattr(network, "_JAC_BUDGET", 140_000)
    f = compiled_field(_lane_net(3))
    runs, chunks = collections.Counter(), []
    orig = backends.run_forward_grad

    def run(packed, x, seed=None):
        runs[id(packed)] += 1
        return orig(packed, x, seed=seed)

    def spy(npts, width, nd):
        chunks.append((npts, network._grad_chunk(npts, width, nd)))
        return chunks[-1][1]

    monkeypatch.setattr(backends, "run_forward_grad", run)
    monkeypatch.setattr(assembly, "_grad_chunk", spy)
    f.value_axes([np.linspace(0.0, 1.0, 12)] * 3)
    # one chunk size per cell
    cells = len(chunks)
    assert cells > 1 and any(c < n for n, c in chunks)
    for s, _, _, packed in f._steps:
        if s == f._full:
            assert runs[id(packed)] >= sum(-(-n // c) for n, c in chunks)
        else:
            assert runs[id(packed)] == cells


@pytest.mark.parametrize("row", [-1, 1, 2.7, True, "0", None])
def test_compiled_field_checks_row(row):
    with pytest.raises(ValueError, match="row"):
        compiled_field(_small_net(), row=row)


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


# ----------------------------------------------------- end-to-end builders

def test_build_f_constant_is_cheap():
    u = analytic_fn(2, "constant", {"value": 3.0})
    net, rep = build_phi_eps_f(u, 2, 1e-2)
    assert rep.ell <= 1
    assert rep.certified
    assert rep.h1_error <= 1e-2
    assert net.meta["dim"] == 2


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
    assert rep.nn_size > net.meta["size_basis"]


def test_build_f_grid_check_envelope():
    u = corner_singular(2, 0.5)
    net, rep = build_phi_eps_f(u, 2, 1e-1, NetConfig(sigma=0.17))
    assert_linf_envelope(net, net.meta["compiled_parts"]["interp"], rep.plan, 15)
    assert rep.certified


def test_build_f_reports_cap():
    u = corner_singular(2, 0.5)
    with pytest.raises(RuntimeError, match="calibration failed"):
        build_phi_eps_f(u, 2, 1e-3, NetConfig(ell_max=1))


def _poly_u():
    return analytic_fn(2, "polynomial",
                       {"axis_coeffs": [[0.3, 0.4, 0.8], [-0.2, 1.0, 0.5]]})


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
    net, reps = build_vector([u, u * 2.0], 2, 1e-2)
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
    net, reps = build_vector([u, u * 2.0], 2, 1e-2)
    interp = net.meta["compiled_parts"]["interp"]
    assert net.output_dim == 2
    assert_linf_envelope(net, interp, reps[0].plan, 7)
    # a second output row past the envelope trips the check
    bad = NeuralNetwork(2, [Layer(2, 2, [], [], [], [0.0, 1e6])])
    with pytest.raises(AssertionError):
        assert_linf_envelope(bad, interp, reps[0].plan, 3)


@pytest.mark.parametrize("epsilon, ell_max, match", [
    (-1.0, 12, "got -1.0"), (0.0, 12, "got 0.0"), (2.0, 12, "got 2.0"),
    (float("nan"), 12, "got nan"), ("0.1", 12, "got '0.1'"),
    (1e-1, -1, "ell_max must be >= 0, got -1")],
    ids=["negative", "zero", "two", "nan", "str", "negative-ell-max"])
def test_vector_rejects_bad_targets_before_calibrating(monkeypatch, epsilon,
                                                       ell_max, match):
    def no_calibration(*args):
        raise AssertionError("calibration ran")

    monkeypatch.setattr(assembly, "_interpolate", no_calibration)
    with pytest.raises(ValueError, match=match):
        build_vector([_poly_u()], 2, epsilon, NetConfig(ell_max=ell_max))


def test_vector_rejects_empty():
    with pytest.raises(ValueError):
        build_vector([], 2, 1e-2)
