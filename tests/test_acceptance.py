"""Contract-level acceptance runs, one printed pass/fail line per criterion.

These are the slow, end-to-end checks: convergence rates, certified error
targets, size scaling, exactness sweeps.  Run with `-s` to watch the lines
appear; each criterion also asserts, so a silent run fails loudly.  Builds
shared between criteria (the d=2/d=3 end-to-end networks) are cached as
reports only, so memory stays flat across the file.
"""

import dataclasses
import itertools
import math
import time

import numpy as np

from hprelu.assembly import NetConfig, _interpolate, build_phi_eps_f, hp_error
from hprelu.catalog import analytic_fn, corner_singular, edge_singular, fichera_extend
from hprelu.emulation import plan_budget, product_net, pwpoly_net
from hprelu.metrics import fit_rate
from hprelu.network import grad_realize_batch, realize_batch
from hprelu.projector import hp_interpolate
from hprelu.verify import verify_calculus
from hprelu.mesh import graded_axis
from hprelu.legendre import polyder, polyval

from helpers import one_element, random_continuous_pwpoly

_REPORTS = {}


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def _end_to_end(dim, eps):
    """Build once per (dim, eps); keep only the report."""
    key = (dim, eps)
    if key not in _REPORTS:
        if dim == 2:
            cfg = NetConfig(sigma=0.17)
            u = corner_singular(2, 0.5)
        else:
            cfg = dataclasses.replace(NetConfig.for_dim(3), sigma=0.25)
            u = corner_singular(3, 0.8) + edge_singular(0.6)
        _net, rep = build_phi_eps_f(u, dim, eps, cfg)
        _REPORTS[key] = rep
    return _REPORTS[key]


def test_criterion_1_hp_convergence_2d():
    t0 = time.perf_counter()
    u = corner_singular(2, 0.5)
    errs, ndofs = [], []
    for ell in range(1, 9):
        interp = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, ell), ell)
        rep = hp_error(u, interp)
        errs.append(rep.h1_error)
        ndofs.append(interp.N1d ** 2)
    elapsed = time.perf_counter() - t0
    stalls = [k for k in range(7) if not errs[k + 1] < errs[k]]
    mono = len(stalls) <= 1 and all(errs[k + 1] <= 2 * errs[k] for k in stalls)
    fe = fit_rate(list(zip(range(1, 9), errs)), "exp_in_n")
    fn = fit_rate(list(zip(ndofs, errs)), "exp_in_root", k=4)
    ok = (mono and fe.rate > 0 and fe.r2 >= 0.98
          and fn.rate > 0 and fn.r2 >= 0.95 and elapsed < 120)
    _line(1, ok, f"hp d=2 H1 {errs[0]:.2e}->{errs[-1]:.2e}, "
          f"fit(ell) b={fe.rate:.3f} r2={fe.r2:.4f}, "
          f"fit(Ndof^1/4) b={fn.rate:.3f} r2={fn.r2:.4f}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_hp_convergence_3d():
    t0 = time.perf_counter()
    u = corner_singular(3, 0.8) + edge_singular(0.6)
    cfg = dataclasses.replace(NetConfig.for_dim(3), sigma=0.25)
    errs = []
    for ell in range(1, 5):
        interp = _interpolate(u, ell, ell, cfg)
        rep = hp_error(u, interp)
        errs.append(rep.h1_error)
    elapsed = time.perf_counter() - t0
    fe = fit_rate(list(zip(range(1, 5), errs)), "exp_in_n")
    mono = all(errs[k + 1] < errs[k] for k in range(3))
    ok = mono and fe.rate > 0 and fe.r2 >= 0.9 and elapsed < 600
    _line(2, ok, f"hp d=3 H1 {errs[0]:.2e}->{errs[-1]:.2e}, "
          f"b={fe.rate:.3f} r2={fe.r2:.4f}, {elapsed:.1f}s")
    assert ok


def test_criterion_3_calculus_exactness():
    checks = verify_calculus(trials=1000, seed=42)
    ok = all(c.ok for c in checks)
    worst = max(c.max_rel_err for c in checks)
    bad = sum(c.violations for c in checks)
    _line(3, ok, f"{len(checks)} rules x 1000 trials, "
          f"max rel err {worst:.2e}, bookkeeping violations {bad}")
    assert ok


def test_criterion_4_product_certification():
    rng = np.random.default_rng(4)
    eps_set = (1e-2, 1e-3, 1e-4)
    ok = True
    worst_fit = 1.0
    worst_val = worst_der = 0.0
    for d, M in itertools.product((2, 3), (1.0, 2.0)):
        sizes = []
        for eps in eps_set:
            net = product_net(d, plan_budget(d, eps, M))
            sizes.append(net.size)
            n = 201 if d == 2 else 61
            grids = np.meshgrid(*([np.linspace(-M, M, n)] * d), indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            verr = np.max(np.abs(realize_batch(net, pts)[:, 0]
                                 - np.prod(pts, axis=1)))
            spts = rng.uniform(-M, M, size=(2000, d))
            _v, jac = grad_realize_batch(net, spts)
            derr = 0.0
            for j in range(d):
                others = np.prod(np.delete(spts, j, axis=1), axis=1)
                derr = max(derr, np.max(np.abs(jac[:, 0, j] - others)))
            zpts = rng.uniform(-M, M, size=(200, d))
            for j in range(d):
                zp = zpts.copy()
                zp[:, j] = 0.0
                if np.any(realize_batch(net, zp)[:, 0] != 0.0):
                    ok = False
            ok &= verr <= eps and derr <= eps
            worst_val = max(worst_val, verr / eps)
            worst_der = max(worst_der, derr / eps)
        x = np.log(1.0 / np.array(eps_set))
        y = np.asarray(sizes, dtype=np.float64)
        pred = np.polyval(np.polyfit(x, y, 1), x)
        r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2)
        worst_fit = min(worst_fit, r2)
    ok = ok and worst_fit >= 0.95
    _line(4, ok, f"12 product nets: value err <= {worst_val:.2f} eps, "
          f"deriv err <= {worst_der:.2f} eps, zero-on-zero exact, "
          f"size-vs-log(1/eps) min r2 {worst_fit:.4f}")
    assert ok


def test_criterion_5_nodal_exactness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        v = random_continuous_pwpoly(rng, int(rng.integers(1, 5)),
                                     int(rng.integers(1, 7)))
        net = pwpoly_net(v, 1e-2)
        got = realize_batch(net, v.nodes[:, None])[:, 0]
        worst = max(worst, float(np.max(np.abs(got - v.node_values()))))
    ok = worst <= 1e-12
    _line(5, ok, f"50 piecewise polynomials, max nodal error {worst:.2e}")
    assert ok


def test_criterion_6_end_to_end():
    runs = [(2, e) for e in (1e-1, 3e-2, 1e-2)] + [(3, e) for e in (2e-1, 1e-1)]
    reps = [(d, e, _end_to_end(d, e)) for d, e in runs]
    total = sum(r.seconds for _, _, r in reps)
    ok = all(r.certified and r.h1_error <= e for _, e, r in reps)
    ok = ok and total < 900
    worst = max(r.h1_error / e for _, e, r in reps)
    _line(6, ok, f"5 builds certified, worst H1/eps {worst:.2f}, "
          f"build time {total:.0f}s")
    assert ok


def test_criterion_7_size_scaling_2d():
    eps_set = (1e-1, 3e-2, 1e-2, 3e-3)
    pairs = [(1.0 + math.log(1.0 / e), _end_to_end(2, e).nn_size)
             for e in eps_set]
    fit = fit_rate(pairs, "poly_in_logeps")
    bound = 2 * 2 + 1 + 0.5
    ok = fit.rate <= bound
    _line(7, ok, f"d=2 size exponent {fit.rate:.2f} <= {bound} "
          f"(r2 {fit.r2:.4f}, sizes {[s for _, s in pairs]})")
    assert ok


def test_criterion_8_projector():
    rng = np.random.default_rng(8)
    t = np.linspace(-1.0, 1.0, 257)
    repro = 0.0
    for p in range(1, 11):
        c = rng.uniform(-1.0, 1.0, p + 1)
        it = one_element(lambda x: polyval(c, x), lambda x: polyval(polyder(c), x), p)
        repro = max(repro, float(np.max(np.abs(it.value(t[:, None]) - polyval(c, t)))))
    endpoint = 0.0
    ends = np.array([-1.0, 1.0])
    for f, df in ((np.cos, lambda x: -np.sin(x)),
                  (np.exp, np.exp),
                  (lambda x: np.sin(2 * x + 0.3), lambda x: 2 * np.cos(2 * x + 0.3))):
        for p in (2, 5, 9):
            err = one_element(f, df, p).value(ends[:, None]) - f(ends)
            endpoint = max(endpoint, float(np.max(np.abs(err))))
    cont = 0.0
    eta = 1e-12
    ys = np.linspace(0.05, 0.95, 23)
    funcs = [corner_singular(2, float(l)) for l in rng.uniform(0.3, 0.9, 2)]
    funcs.append(analytic_fn(2, "trig", {"freq": [2.0, 3.0], "phase": [0.3, 0.0]}))
    for u in funcs:
        it = hp_interpolate(u, graded_axis(0.0, 1.0, (0.0,), 0.5, 2), 3)
        for xk in it.axis.nodes[1:-1]:
            left = it.value(np.column_stack([np.full_like(ys, xk - eta), ys]))
            right = it.value(np.column_stack([np.full_like(ys, xk + eta), ys]))
            cont = max(cont, float(np.max(np.abs(left - right))))
    ok = repro <= 1e-10 and endpoint <= 1e-12 and cont <= 1e-10
    _line(8, ok, f"reproduction {repro:.2e}, endpoints {endpoint:.2e}, "
          f"continuity {cont:.2e}")
    assert ok


def test_criterion_9_fichera_extension():
    mono = [[0.0, 1.0], [1.0], [1.0]]
    u = (analytic_fn(3, "polynomial", {"axis_coeffs": mono})
         + analytic_fn(3, "polynomial", {"axis_coeffs": mono[1:] + mono[:1]})
         + analytic_fn(3, "polynomial", {"axis_coeffs": mono[2:] + mono[:2]}))
    w = fichera_extend(u)
    rng = np.random.default_rng(9)
    neg = -rng.uniform(0.05, 1.0, size=(400, 3))
    ext = w.value(neg[:, 0], neg[:, 1], neg[:, 2])
    lin = np.max(np.abs(ext - neg.sum(axis=1)))
    face = 0.0
    for j in range(3):
        fpts = -rng.uniform(0.05, 1.0, size=(200, 3))
        fpts[:, j] = 0.0
        cols = [fpts[:, a] for a in range(3)]
        # reflected formula evaluated on the face must meet the direct value
        combo = (sum(w.value(*[np.zeros_like(c) if a == k else c
                               for a, c in enumerate(cols)]) for k in range(3))
                 - sum(w.value(*[c if a == k else np.zeros_like(c)
                                 for a, c in enumerate(cols)]) for k in range(3))
                 + w.value(*[np.zeros_like(c) for c in cols]))
        face = max(face, float(np.max(np.abs(combo - w.value(*cols)))))
    pos = rng.uniform(0.0, 1.0, size=(500, 3))
    pos[::3, 0] *= -1.0  # mixed-sign points stay outside the reflected octant
    a = u.value(pos[:, 0], pos[:, 1], pos[:, 2])
    b = w.value(pos[:, 0], pos[:, 1], pos[:, 2])
    bitwise = a.tobytes() == b.tobytes()
    ok = lin <= 1e-12 and face <= 1e-12 and bitwise
    _line(9, ok, f"x+y+z extension err {lin:.2e}, face gap {face:.2e}, "
          f"restriction bit-identical {bitwise}")
    assert ok


def test_criterion_10_coefficient_mass_shape():
    eps_set = (1e-1, 3e-2, 1e-2, 3e-3)
    pairs = [(1.0 + math.log(1.0 / e), _end_to_end(2, e).coeff_l1)
             for e in eps_set]
    fit = fit_rate(pairs, "poly_in_logeps")
    bound = 2 * 2 + 0.5
    ok = fit.rate <= bound
    _line(10, ok, f"d=2 ||c||_1 exponent {fit.rate:.2f} <= {bound} "
          f"(values {[round(c, 1) for _, c in pairs]})")
    assert ok
