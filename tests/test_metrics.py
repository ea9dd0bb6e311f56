import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hprelu import metrics
from hprelu.assembly import build_phi_eps_c, compiled_field, quad_cells
from hprelu.catalog import (WeightedFunction, analytic_fn, corner_singular,
                            edge_singular)
from hprelu.mesh import graded_axis
from hprelu.metrics import ErrorReport, fit_rate, h1_error
from hprelu.projector import hp_interpolate

from helpers import loop_axis_quad, stacked_sq_errors


def _fn1(value, deriv, name):
    """A 1d catalog-style function from its value and derivative."""
    return WeightedFunction(1, value, lambda alpha, x: deriv(x), name)


_ZERO = _fn1(np.zeros_like, np.zeros_like, "zero")


def test_pinned_1d():
    # f = x^2, g = x on (0,1): l2^2 = 1/30, semi^2 = 1/3
    f = _fn1(lambda x: x ** 2, lambda x: 2 * x, "x^2")
    g = _fn1(lambda x: x, np.ones_like, "x")
    rep = h1_error(f, g, [np.array([0.0, 1.0])])
    assert rep.h1_error == pytest.approx(np.sqrt(11 / 30), rel=1e-6)
    assert rep.h1_error == pytest.approx(0.60553, abs=5e-6)
    assert rep.l2_error == pytest.approx(np.sqrt(1 / 30), rel=1e-6)
    assert rep.h1_seminorm_error == pytest.approx(np.sqrt(1 / 3), rel=1e-6)
    assert rep.certified and rep.richardson_gap < 1e-6
    assert rep.linf_error == pytest.approx(0.25, abs=1e-4)


def test_pinned_2d():
    u = analytic_fn(2, "polynomial", {"axis_coeffs": [[0.0, 1.0], [0.0, 1.0]]})
    z = analytic_fn(2, "constant", {"value": 0.0})
    rep = h1_error(u, z, [np.array([0, 0.5, 1.0]), np.array([0, 0.5, 1.0])])
    assert rep.h1_error == pytest.approx(np.sqrt(1 / 9 + 2 / 3), rel=1e-6)
    assert rep.linf_error <= 1.0


def test_identity_report_invariant():
    with pytest.raises(AssertionError):
        ErrorReport(1.0, 1.0, 1.0, 1.0, 0.0, True)


def test_interp_vs_function_decreases():
    u = corner_singular(2, 0.5)
    errs = []
    for ell in (1, 3):
        it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, ell), max(ell, 1))
        rep = h1_error(u, it, [it.axis.nodes] * 2, q=8,
                       max_doublings=2)
        errs.append(rep.h1_error)
    assert errs[1] < errs[0]
    assert errs[1] < 0.15


def test_no_refinement_uncertified():
    f = _fn1(lambda x: np.abs(x - 0.37), lambda x: np.sign(x - 0.37), "|x-0.37|")
    rep = h1_error(f, _ZERO, [np.array([0.0, 1.0])], max_doublings=0)
    assert not rep.certified
    assert np.isnan(rep.richardson_gap)


def test_jitter_determinism():
    f = _fn1(lambda x: x ** 3, lambda x: 3 * x ** 2, "x^3")
    r1 = h1_error(f, _ZERO, [np.array([0.0, 1.0])])
    r2 = h1_error(f, _ZERO, [np.array([0.0, 1.0])])
    assert r1.h1_error == r2.h1_error


@st.composite
def _quad_cases(draw):
    """Increasing cell arrays (positive gaps of very unequal widths), a
    subcell count, a rule order and a seed."""
    lo = draw(st.floats(-10.0, 10.0))
    gaps = draw(st.lists(st.floats(1e-9, 5.0), min_size=1, max_size=12))
    # every gap is far above the float spacing near lo, so none collapses
    cells = lo + np.cumsum([0.0] + gaps)
    return (cells, draw(st.integers(1, 8)), draw(st.integers(1, 12)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=200, deadline=None)
@given(_quad_cases())
def test_axis_quad_matches_the_subcell_loop(case):
    cells, n_q, q, seed = case
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = metrics._axis_quad(cells, n_q, q, rng), loop_axis_quad(cells, n_q, q, ref)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    # the same draws, so the next level's generator state is unchanged
    assert rng.random() == ref.random()


def test_fit_exp():
    n = np.arange(1, 9)
    y = 3.5 * np.exp(-0.7 * n)
    fit = fit_rate(list(zip(n, y)), "exp_in_n")
    assert fit.C == pytest.approx(3.5, rel=1e-10)
    assert fit.rate == pytest.approx(0.7, rel=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_exp_root():
    n = np.array([10, 50, 200, 1000, 5000])
    y = 2.0 * np.exp(-1.3 * n ** 0.25)
    fit = fit_rate(list(zip(n, y)), "exp_in_root", k=4)
    assert fit.rate == pytest.approx(1.3, rel=1e-10)
    assert fit.r2 > 0.999999


def test_fit_poly():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 7.0 * x ** 3
    fit = fit_rate(list(zip(x, y)), "poly_in_logeps")
    assert fit.C == pytest.approx(7.0, rel=1e-10)
    assert fit.rate == pytest.approx(3.0, rel=1e-10)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_rate([(1, 1.0), (2, 0.5)], "exp_in_n")
    with pytest.raises(ValueError):
        fit_rate([(1, 1.0), (2, -0.5), (3, 0.2)], "exp_in_n")
    with pytest.raises(ValueError):
        fit_rate([(1, 1.0), (2, 0.5), (3, 0.2)], "exp_in_root")
    with pytest.raises(ValueError):
        fit_rate([(1, 1.0), (2, 0.5), (3, 0.2)], "nope")


def test_h1_error_rejects_non_fields():
    cells = [np.array([0.0, 1.0])]
    pair = (lambda p: p[:, 0], lambda p: np.ones_like(p[:, 0:1]))
    for bad, name in ((42, "int"), (pair, "tuple")):
        with pytest.raises(TypeError, match=name):
            h1_error(bad, _ZERO, cells)
        with pytest.raises(TypeError, match=name):
            h1_error(_ZERO, bad, cells)


def _interp(d):
    u = corner_singular(2, 0.5) if d == 2 else corner_singular(3, 0.8) + edge_singular(0.6)
    return u, hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 1 if d == 3 else 2), 2)


def _catalog_case(d):
    u, it = _interp(d)
    return u, it, quad_cells(it, 3), 4, 2


def _compiled_case(d):
    _, it = _interp(d)
    return it, compiled_field(build_phi_eps_c(it, 0.2)), quad_cells(it, 3), 4, 0


def _hex(rep):
    return {k: float.hex(v) if isinstance(v, float) else v
            for k, v in dataclasses.asdict(rep).items()}


@pytest.mark.parametrize("slabs", ["default", "several"])
@pytest.mark.parametrize("case", [_catalog_case, _compiled_case], ids=["catalog", "compiled"])
@pytest.mark.parametrize("d", [2, 3])
def test_streamed_gap_is_bitwise(monkeypatch, d, case, slabs):
    # the gap filled one component at a time gives every report field of the
    # stacked difference, bit for bit
    f, g, cells, q, doublings = case(d)
    if slabs == "several":
        # about three slabs at the first level, more at the finer ones
        n = [(len(c) - 1) * q for c in cells]
        monkeypatch.setattr(metrics, "_SLAB_POINTS", math.prod(n[1:]) * (n[0] // 3))
        assert n[0] // 3 >= 2
    got = h1_error(f, g, cells, q=q, max_doublings=doublings)
    monkeypatch.setattr(metrics, "_sq_errors", stacked_sq_errors)
    assert _hex(got) == _hex(h1_error(f, g, cells, q=q, max_doublings=doublings))


class _TableField:
    """A tensor field on one grid whose value and partials are given
    tables, looked up at each point's index on its axis."""

    def __init__(self, axes, value, partials):
        self.axes, self.value, self.partials = axes, value, partials

    def _at(self, axes):
        return np.ix_(*[np.searchsorted(a, b) for a, b in zip(self.axes, axes)])

    def value_axes(self, axes):
        return self.value[self._at(axes)]

    def partial_axes(self, axes, j):
        return self.partials[j][self._at(axes)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.data())
def test_gap_squares_sum_in_order(d, data):
    # the squares of the gradient gap added in order, component by
    # component, give the bits of the stacked gap's np.sum over its last
    # axis, on 1 to 3 axes, in one slab or several: on tables of numbers
    # of twelve decades with signed zeros and 1e-300 among them
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    axes = [np.arange(n, dtype=np.float64) for n in shape]
    wts = [rng.uniform(0.0, 2.0, n) for n in shape]

    def field():
        tables = rng.standard_normal((1 + d,) + shape) * 10.0 ** rng.uniform(-6, 6, (1 + d,) + shape)
        odd = rng.random(tables.shape) < 0.2
        tables[odd] = rng.choice([0.0, -0.0, 1e-300], odd.sum())
        return _TableField(axes, tables[0], tables[1:])

    f, g = field(), field()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_SLAB_POINTS", data.draw(st.integers(1, math.prod(shape))))
        got = metrics._sq_errors(f, g, axes, wts)
        want = stacked_sq_errors(f, g, axes, wts)
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def test_one_level_holds_few_grid_arrays():
    # one 3d measurement level, catalog function against interpolant, peaks
    # under 8 arrays of the grid's size: the (..., 3) gap, the value gap and
    # what one partial of each field takes to compute.  Holding both stacked
    # gradients, their difference and its square took 10
    u, it = _interp(3)
    cells, q = quad_cells(it, 5), 6
    n = (len(cells[0]) - 1) * q
    assert n ** 3 <= metrics._SLAB_POINTS
    # a first call also fills one-time caches (quadrature rules, imports)
    h1_error(u, it, cells, q=q, max_doublings=0)
    tracemalloc.start()
    try:
        h1_error(u, it, cells, q=q, max_doublings=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (8 * n ** 3), peak / (8 * n ** 3)
