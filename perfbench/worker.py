"""One benchmark workload, run in a fresh process started by run.py.

A run builds the workload's network with ``build_phi_eps_f`` (timed),
round-trips it through ``serialize``/``deserialize``, then serves the
loaded network in a closed loop from this one process: two value batches,
then a value+jacobian batch, repeated until ``--seconds`` have passed.  Every
operation is checked; the result is one JSON line on stdout, for run.py.

    python3 perfbench/worker.py --workload eval-2d --seed 1 --seconds 10 \
        --trace 0 --t-spawn <CLOCK_MONOTONIC when the process was started>

``--probe-setup`` stops after the set-up and prints its duration only.

Untraced runs report times at a reference machine speed: a SpeedMeter
(speed.py) probes the machine's speed while the workload runs, and each
build and batch is scaled by the speed measured around it.  The raw wall
times are printed next to them.  Traced runs report raw wall times.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

import hprelu
import hprelu.network as N
from hprelu.assembly import NetConfig
from hprelu.backends import (HAS_NUMBA, resolve_backend, run_forward,
                             run_forward_grad)
from hprelu.catalog import corner_singular, edge_singular
from hprelu.emulation import plan_budget, product_net
from spans import Tracer, packed_nnz
from speed import SpeedMeter, timed

HERE = Path(__file__).resolve().parent


def warm_up():
    """One tiny value and jacobian pass, which is where a JIT backend
    compiles its kernels."""
    net = product_net(2, plan_budget(2, 1e-2))
    pts = np.linspace(-0.5, 0.5, 16).reshape(8, 2)
    N.realize_batch(net, pts)
    N.grad_realize_batch(net, pts)


# Each workload builds the network it serves; build_s is the median over
# ``builds`` builds (one when tracing).  Batch sizes keep a value+jacobian
# batch under one second on the numpy path, so the window holds a dozen.
WORKLOADS = {
    # criterion 6 3D build: certification is ~99% of it and compile almost
    # absent, so a compile-only change should leave its build_s unmoved
    "build-3d": {"dim": 3, "eps": 2e-1, "batch": 25, "builds": 1},
    # serving path: the eps=1e-1 2D corner net (size 178,889, depth 85); its
    # ~4 s build still splits into calibrate, compile (~10%) and certify,
    # and is repeated because machine speed drifts over seconds
    "eval-2d": {"dim": 2, "eps": 1e-1, "batch": 250, "builds": 3},
}

# Batches of one serve round.  A value batch takes about a quarter of a
# value+jacobian batch, so two of them give the value rate a third of the
# window instead of a fifth.
SERVE_ROUND = ("value", "value", "grad")
# Back-to-back probes that measure the machine's speed for setup_s.
SETUP_SAMPLES = 20
# Points per operation compared against the scipy realization.
CHECK_POINTS = 8
# The scipy realization reproduces the library's in-order sums on every
# narrow row; only the wide coefficient row may round differently, so a
# relative 1e-12 of the largest entry leaves a factor ~1e3 over rounding.
ORACLE_RTOL = 1e-12


def problem(name):
    w = WORKLOADS[name]
    if w["dim"] == 2:
        return corner_singular(2, 0.5), 2, w["eps"], NetConfig(sigma=0.17)
    u = corner_singular(3, 0.8) + edge_singular(0.6)
    cfg = dataclasses.replace(NetConfig.for_dim(3), sigma=0.25)
    return u, 3, w["eps"], cfg


def build_fields(net, rep):
    return {
        "ell": rep.ell, "p": rep.p, "N1d": rep.N1d,
        "nn_size": rep.nn_size, "nn_depth": rep.nn_depth,
        "certified": bool(rep.certified),
        "h1_error": float.hex(rep.h1_error),
        "hp_h1_error": float.hex(rep.hp_h1_error),
        "size_matches_net": rep.nn_size == net.size,
    }


def timed_build(workload, reference, tracer, meter, ops):
    """One checked ``build_phi_eps_f`` call; appends its timing (an Op) to
    ``ops``.  Returns (passed, (net, report) or None)."""
    u, d, eps, cfg = problem(workload)
    if tracer:
        def build():
            return tracer.span("build", hprelu.build_phi_eps_f, u, d, eps, cfg)
    else:
        def build():
            return hprelu.build_phi_eps_f(u, d, eps, cfg)
    try:
        out, op = timed(meter, build)
    except Exception:
        traceback.print_exc()
        return False, None
    ops.append(op)
    fields = build_fields(*out)
    ok = (all(fields[k] == v for k, v in reference["build"].items())
          and fields["size_matches_net"] and out[1].h1_error <= eps)
    return ok, out


def same_layers(a, b):
    if a.input_dim != b.input_dim or a.depth != b.depth:
        return False
    return all(
        la.rows == lb.rows and la.cols == lb.cols
        and np.array_equal(la.row_idx, lb.row_idx)
        and np.array_equal(la.col_idx, lb.col_idx)
        and np.array_equal(la.vals, lb.vals)
        and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers))


class ScipyOracle:
    """Layer-by-layer realization with scipy CSR products.

    The bias is stored as column 0 against a constant-1 input row, so each
    row sums bias first and then its weights in column order, the order the
    library promises for narrow rows."""

    def __init__(self, net):
        self.layers = []
        for lay in net.layers:
            rows = np.concatenate([np.arange(lay.rows), lay.row_idx])
            cols = np.concatenate([np.zeros(lay.rows, dtype=np.int64),
                                   lay.col_idx + 1])
            vals = np.concatenate([lay.bias, lay.vals])
            affine = sp.csr_matrix((vals, (rows, cols)),
                                   shape=(lay.rows, lay.cols + 1))
            self.layers.append((affine, affine[:, 1:]))

    def __call__(self, pts):
        n, d = pts.shape
        y = pts.T.copy()
        jac = np.zeros((d, n, d))
        for k in range(d):
            jac[k, :, k] = 1.0
        jac = jac.reshape(d, n * d)
        last = len(self.layers) - 1
        for i, (affine, linear) in enumerate(self.layers):
            z = affine @ np.vstack([np.ones((1, n)), y])
            jz = linear @ jac
            if i < last:
                alive = z > 0.0
                z = np.where(alive, z, 0.0)
                jz = jz * np.repeat(alive, d, axis=1)
            y, jac = z, jz
        return y.T, np.moveaxis(jac.reshape(-1, n, d), 1, 0)


def _close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return bool(np.max(np.abs(got - want)) <= ORACLE_RTOL * scale)


def serve(net, oracle, interp, linf, d, batch, seconds, rng, tracer, meter):
    """Closed loop of value and value+jacobian batches for ``seconds``.

    Returns the timing (an Op) of each batch by kind and the failed
    operation count."""
    ops = {"value": [], "grad": []}
    failed = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or not ops["grad"]:
        for kind in SERVE_ROUND:
            pts = rng.uniform(0.0, 1.0, size=(batch, d))
            sub = rng.choice(batch, size=CHECK_POINTS, replace=False)
            fn = N.realize_batch if kind == "value" else N.grad_realize_batch
            if tracer:
                out, op = timed(None, lambda: tracer.span(
                    "bench.serve", fn, net, pts, phase="eval"))
            else:
                out, op = timed(meter, fn, net, pts)
            ops[kind].append(op)
            want_v, want_j = oracle(pts[sub])
            if kind == "value":
                ok = _close(out[sub], want_v) and bool(np.all(
                    np.abs(out[:, 0] - interp.value(pts)) <= linf))
            else:
                ok = _close(out[0][sub], want_v) and _close(out[1][sub], want_j)
            failed += not ok
    return ops, failed


def layer_table(net, stages, pts, repeats=3):
    """Time each layer alone through the public run_forward(_grad) with
    that layer's real input; returns rows of the per-layer table."""
    d = net.input_dim
    n = len(pts)
    y = np.ascontiguousarray(pts.T)
    jac = np.zeros((d, n, d))
    for k in range(d):
        jac[k, :, k] = 1.0
    rows = []
    last = net.depth - 1
    for i, (lay, packed) in enumerate(zip(net.layers, net.packed())):
        one = [packed]
        tv, tg = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            z = run_forward(one, y)
            tv.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            _, jz = run_forward_grad(one, y, seed=jac)
            tg.append(time.perf_counter() - t0)
        if i < last:
            alive = z > 0.0
            jz = jz * alive[:, :, None]
            z = np.maximum(z, 0.0)
        y, jac = z, jz
        nnz = packed_nnz(one)
        counts = np.bincount(np.diff(packed[0]))
        value_s = statistics.median(tv)
        grad_s = statistics.median(tg)
        rows.append({
            "layer": i, "stage": stages[i], "rows": lay.rows, "nnz": nnz,
            "nnz_per_row": {int(k): int(c) for k, c in enumerate(counts) if c},
            "value_s": value_s, "value_macs": nnz * n,
            "grad_s": grad_s, "grad_macs": nnz * n * (1 + d),
        })
    return rows


def stage_names(meta, depth):
    """basis | selector | product | coeff, from the depths the compiler
    records (the coefficient row is the last layer)."""
    db, dp = meta["depth_basis"], meta["depth_product"]
    if db + dp + 2 != depth:
        raise ValueError("network depth does not match its recorded stages")
    return (["basis"] * db + ["selector"] + ["product"] * dp + ["coeff"])


def trace_metrics(tracer, build_s, span_cost):
    incl, excl = tracer.self_times()
    c = tracer.counts
    m = {
        "projector.interpolate_s": (incl["projector.interpolate"], "s"),
        "projector.calls": (c["projector.calls"], "count"),
        "metrics.calibrate_s": (incl["metrics.calibrate"], "s"),
        "metrics.certify_s": (incl["metrics.certify"], "s"),
        "metrics.calls": (c["metrics.calls"], "count"),
        "emulation.basis_net_s": (incl["emulation.basis_net"], "s"),
        "emulation.basis_net_calls": (c["emulation.basis_net_calls"], "count"),
        "emulation.product_net_s": (incl["emulation.product_net"], "s"),
        "calculus.s": (incl["calculus"], "s"),
        "calculus.calls": (c["calculus.calls"], "count"),
        "assembly.compile_s": (incl["assembly.compile"], "s"),
        "assembly.certify_eval_s": (incl["assembly.certify_eval"], "s"),
        "assembly.certify_points": (c["assembly.certify_points"], "count"),
        "assembly.cell_evals": (c["assembly.cell_evals"], "count"),
        "network.realize_s": (incl["network.realize"], "s"),
        "network.grad_s": (incl["network.grad"], "s"),
        "network.grad_calls": (c["network.grad_calls"], "count"),
        "network.points": (c["network.points"], "count"),
        "network.serialize_s": (incl["network.serialize"], "s"),
        "network.deserialize_s": (incl["network.deserialize"], "s"),
    }
    for kind, span in (("forward", "backends.forward"), ("grad", "backends.grad")):
        secs = tracer.phase_totals(span)
        for phase in ("compile", "certify", "eval"):
            if phase == "certify" and kind == "forward":
                continue  # the compiled field only runs jacobian passes
            macs = c[f"backends.{phase}.{kind}_macs"]
            key = f"backends.{phase}.{kind}"
            m[key + "_s"] = (secs[phase], "s")
            m[key + "_macs"] = (macs, "MAC")
            m[key + "_mac_per_s"] = (macs / secs[phase] if secs[phase] else 0.0,
                                     "MAC/s")
    for layer in ("projector", "metrics", "emulation", "calculus", "assembly",
                  "network", "backends"):
        m[layer + ".self_s"] = (sum(v for k, v in excl.items()
                                    if k.split(".")[0] == layer), "s")
    phases = (incl["projector.interpolate"] + incl["metrics.calibrate"]
              + incl["assembly.compile"] + incl["metrics.certify"])
    m["trace.build_s"] = (build_s, "s")
    m["trace.phase_cover"] = (phases / build_s, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_est_s"] = (len(tracer.spans) * span_cost, "s")
    return m


def span_cost(samples=20000):
    """Seconds one traced wrapper adds to a call (measured here)."""
    t = Tracer()
    noop = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        t.call("x", noop, (), {})
    return max(0.0, (time.perf_counter() - t0 - bare) / samples)


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = root / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed):
    return {
        "commit": git_commit(HERE.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "has_numba": HAS_NUMBA,
        "backend": resolve_backend(),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")},
        "seed": seed,
    }


def print_table(table):
    print(f"{'layer':>5} {'stage':>8} {'rows':>7} {'nnz':>8} "
          f"{'value MAC/s':>12} {'grad MAC/s':>12}  nnz/row histogram")
    for r in table:
        hist = " ".join(f"{k}:{c}" for k, c in r["nnz_per_row"].items())
        print(f"{r['layer']:5d} {r['stage']:>8} {r['rows']:7d} {r['nnz']:8d} "
              f"{r['value_macs'] / r['value_s']:12.4g} "
              f"{r['grad_macs'] / r['grad_s']:12.4g}  {hist}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--probe-setup", action="store_true")
    args = ap.parse_args(argv)

    warm_up()
    setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t_spawn
    meter = None if args.trace else SpeedMeter().warm()
    setup_s = setup_raw
    if meter:
        t0 = time.perf_counter()
        meter.sample_now(SETUP_SAMPLES)
        setup_s = setup_raw * meter.speed(t0, time.perf_counter())
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    w = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    d = w["dim"]
    tracer = Tracer().install() if args.trace else None
    attempted = failed = 0
    if meter:
        meter.start()

    # -- build, serve, then the remaining builds -------------------------
    # later builds run after the serve window so the median samples the
    # machine's speed at both ends of the run
    build_ops = []
    ok, out = timed_build(args.workload, reference, tracer, meter, build_ops)
    attempted += 1
    if not ok:
        sys.exit("the first build of this workload failed its checks")
    net, rep = out

    text = N.serialize(net)
    served = N.deserialize(text)
    sha = hashlib.sha256(text.encode()).hexdigest()
    attempted += 1
    failed += not same_layers(net, served)
    build = {"workload": args.workload, **build_fields(net, rep),
             "linf_error": rep.linf_error, "sha256": sha,
             "sha256_matches_reference": sha == reference["sha256"]}

    # -- serve ------------------------------------------------------------
    rng = np.random.default_rng(args.seed)
    interp = net.meta["compiled_parts"]["interp"]
    batch_ops, serve_failed = serve(served, ScipyOracle(served), interp,
                                    rep.linf_error, d, w["batch"],
                                    args.seconds, rng, tracer, meter)
    attempted += len(batch_ops["value"]) + len(batch_ops["grad"])
    failed += serve_failed
    for _ in range(0 if tracer else w["builds"] - 1):
        attempted += 1
        failed += not timed_build(args.workload, reference, tracer, meter,
                                  build_ops)[0]
    if meter:
        meter.stop()
    build_s = statistics.median(op.ref_s() for op in build_ops)
    rates = {kind: statistics.median(w["batch"] / op.ref_s() for op in ops)
             for kind, ops in batch_ops.items()}
    raw = {
        "setup_s": setup_raw,
        "build_s": statistics.median(op.raw_s for op in build_ops),
        "eval_pts_per_s": statistics.median(
            w["batch"] / op.raw_s for op in batch_ops["value"]),
        "grad_pts_per_s": statistics.median(
            w["batch"] / op.raw_s for op in batch_ops["grad"]),
        "speed": meter.median_speed() if meter else None,
    }

    env = environment(args.seed)
    if tracer:
        tracer.restore()
        metrics = trace_metrics(tracer, build_s, span_cost())
        out_dir = HERE.parent / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(out_dir / f"trace-{stem}.jsonl")
        stages = stage_names(net.meta, served.depth)
        table = layer_table(served, stages,
                            rng.uniform(0.0, 1.0, size=(w["batch"], d)))
        (out_dir / f"layers-{stem}.json").write_text(
            json.dumps({"env": env, "layers": table}, indent=1))
        print_table(table)
        for stage in ("basis", "selector", "product", "coeff"):
            rows = [r for r in table if r["stage"] == stage]
            for kind in ("value", "grad"):
                macs = sum(r[kind + "_macs"] for r in rows)
                secs = sum(r[kind + "_s"] for r in rows)
                metrics[f"backends.stage.{stage}.{kind}_mac_per_s"] = (
                    macs / secs, "MAC/s")
    else:
        metrics = {
            "build_s": (build_s, "s"),
            "nn_size": (rep.nn_size, "count"),
            "nn_depth": (rep.nn_depth, "count"),
            "h1_over_eps": (rep.h1_error / w["eps"], "ratio"),
            "eval_pts_per_s": (rates["value"], "pts/s"),
            "grad_pts_per_s": (rates["grad"], "pts/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    print(json.dumps({
        "setup_s": setup_s, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
        "build": build, "env": env, "raw": raw}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
