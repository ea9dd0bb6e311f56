"""Batch runner: convergence studies, network builds, self-checks.

Every run is deterministic for fixed flags; CSV output is byte-identical
across repeats except for the trailing seconds column.  Plot output is a
generated gnuplot script referencing the CSV, so no plotting dependency.
"""

import argparse
import concurrent.futures
import csv
import json
import math
import os
import sys
import time

import numpy as np

from .assembly import NetConfig, _interpolate, _p_for, build_phi_eps_f, hp_error
from .backends import _pool_size
from .catalog import _KINDS, _PARAM_TYPES, _typed, from_spec
from .emulation import plan_budget, product_net
from .metrics import fit_rate
from .network import _fmt, deserialize, realize_batch, serialize, stats
from .verify import verify_calculus

COLUMNS = ("dim", "func", "params", "sigma", "ell", "p", "N1d", "coeff_l1",
           "nn_size", "nn_depth", "h1_error", "linf_error", "certified",
           "seconds")

# external spellings accepted next to the catalog keys
_FUNC_ALIASES = {"corner_r_alpha": "corner"}


# The keys a config file may hold, each with the type argparse gives its
# flag; its "params" may hold the catalog parameters, typed by
# ``catalog._PARAM_TYPES``.  Any other key is rejected.
_CONFIG_TYPES = {
    "dim": int, "ell_max": int, "func": str, "ell": str, "domain": str,
    "params": dict, "sigma": float, "cp": float, "halfwidth": float,
    "eps": float}


def _check_config(cfg, types, prefix=""):
    for key, v in cfg.items():
        if key not in types:
            raise ValueError(f"unknown config key '{prefix}{key}'; expected "
                             f"one of {', '.join(types)}")
        if not _typed(v, types[key]):
            raise ValueError(f"config key '{prefix}{key}' must be "
                             f"{_KINDS[types[key]]}, got {v!r}")


def _load_config(path):
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    _check_config(cfg, _CONFIG_TYPES)
    _check_config(cfg.get("params", {}), _PARAM_TYPES, "params.")
    return cfg


def _pick(flag, cfg, key, default):
    """Flag beats config file beats default."""
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _net_config(args, cfg):
    base = NetConfig()
    return NetConfig(
        sigma=_pick(args.sigma, cfg, "sigma", base.sigma),
        c_p=_pick(args.cp, cfg, "cp", base.c_p),
        domain=_pick(args.domain, cfg, "domain", base.domain),
        halfwidth=_pick(args.halfwidth, cfg, "halfwidth", base.halfwidth),
        ell_max=_pick(args.ell_max, cfg, "ell_max", base.ell_max))


def _resolve_func(args, cfg, dim):
    name = _pick(args.func, cfg, "func", None)
    if name is None:
        raise ValueError("no function given (--func or config)")
    params = dict(cfg.get("params", {}))
    if args.alpha is not None:
        params["lam"] = args.alpha
    for key in _PARAM_TYPES:
        v = getattr(args, key, None)  # the list-valued ones have no flag
        if v is not None:
            params[key] = v
    name = _FUNC_ALIASES.get(name, name)
    u = from_spec(name, params, dim)
    return u, name, params


def _params_text(params):
    if not params:
        return "-"
    items = []
    for k in sorted(params):
        v = params[k]
        items.append(f"{k}={_fmt(v) if isinstance(v, float) else v}")
    return ";".join(items)


def _row(dim, func, params, sigma, ell, p, n1d, cl1, size, depth,
         h1, linf, certified, seconds):
    return [str(dim), func, _params_text(params), _fmt(float(sigma)),
            str(ell), str(p), str(n1d), _fmt(float(cl1)), str(size),
            str(depth), _fmt(float(h1)), _fmt(float(linf)),
            str(int(certified)), f"{seconds:.3f}"]


def _write_csv(path, rows, footer=()):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(COLUMNS)
        w.writerows(rows)
        for line in footer:
            fh.write(line + "\n")


def _parse_ells(text):
    """Level lists: '1..8', '4', or '1,3,5'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        ells = list(range(int(lo), int(hi) + 1))
    elif "," in text:
        ells = [int(t) for t in text.split(",")]
    else:
        ells = [int(text)]
    if not ells or any(e < 0 for e in ells):
        raise ValueError(f"bad level list {text!r}")
    return ells


def _plot_script(csv_path, title):
    png = os.path.splitext(csv_path)[0] + ".png"
    return "\n".join([
        "set datafile separator \",\"",
        "set terminal pngcairo size 900,600",
        f"set output \"{png}\"",
        "set logscale y",
        "set xlabel \"ell\"",
        "set ylabel \"H1 error\"",
        "set key top right",
        f"plot \"{csv_path}\" using 5:11 with linespoints title \"{title}\"",
        "",
    ])


# ------------------------------------------------------------- subcommands

def cmd_hp_study(args):
    cfg = _load_config(args.config)
    dim = _pick(args.dim, cfg, "dim", 2)
    u, fname, params = _resolve_func(args, cfg, dim)
    ncfg = _net_config(args, cfg)
    ells = _parse_ells(_pick(args.ell, cfg, "ell", "1..6"))

    def study_row(ell):
        t0 = time.perf_counter()
        p = _p_for(ell, ncfg)
        interp = _interpolate(u, ell, p, ncfg)
        rep = hp_error(u, interp)
        return ell, p, interp, rep, time.perf_counter() - t0

    # threads, not processes: a row returns Python objects (the
    # interpolant), which a process would have to pickle back
    with concurrent.futures.ThreadPoolExecutor(_pool_size(len(ells))) as pool:
        results = list(pool.map(study_row, ells))
    results.sort(key=lambda r: r[0])

    rows = []
    fit_pts = []
    for ell, p, interp, rep, secs in results:
        rows.append(_row(dim, fname, params, ncfg.sigma, ell, p, interp.N1d,
                         interp.coeff_l1(), 0, 0, rep.h1_error,
                         rep.linf_error, rep.certified, secs))
        if rep.h1_error > 0:
            fit_pts.append((ell, interp.N1d ** dim, rep.h1_error))

    footer = []
    if len(fit_pts) >= 3:
        fe = fit_rate([(e, h) for e, _, h in fit_pts], "exp_in_n")
        fn = fit_rate([(n, h) for _, n, h in fit_pts], "exp_in_root", k=2 * dim)
        footer.append(f"# fit_ell C={fe.C:.6g} b={fe.rate:.6g} r2={fe.r2:.6g}")
        footer.append(f"# fit_ndof C={fn.C:.6g} b={fn.rate:.6g} r2={fn.r2:.6g}")
    else:
        footer.append("# fit n/a (needs >= 3 positive-error rows)")
    _write_csv(args.out, rows, footer)
    if args.plot:
        with open(args.plot, "w") as fh:
            fh.write(_plot_script(args.out, f"{fname} d={dim}"))
    for line in footer:
        print(line.lstrip("# "))
    return 0


def cmd_nn_build(args):
    cfg = _load_config(args.config)
    dim = _pick(args.dim, cfg, "dim", 2)
    u, fname, params = _resolve_func(args, cfg, dim)
    ncfg = _net_config(args, cfg)
    eps = float(_pick(args.eps, cfg, "eps", 1e-2))
    net, rep = build_phi_eps_f(u, dim, eps, ncfg)
    with open(args.out, "w") as fh:
        fh.write(serialize(net))
    if args.report:
        row = _row(dim, fname, params, rep.sigma, rep.ell, rep.p, rep.N1d,
                   rep.coeff_l1, rep.nn_size, rep.nn_depth, rep.h1_error,
                   rep.linf_error, rep.certified, rep.seconds)
        _write_csv(args.report, [row])
    print(f"built {fname} d={dim} eps={eps:g}: size={rep.nn_size} "
          f"depth={rep.nn_depth} h1={rep.h1_error:.3e} "
          f"certified={int(rep.certified)}")
    return 0


def _read_points(path, want):
    """The x1..xd fields of each non-blank row, as text and as an (n, d)
    array.  A missing header, a short row, or a coordinate that is not a
    finite number is rejected, naming the line."""
    d = len(want)
    raw, pts = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, [])[:d] != want:
            raise ValueError(f"points file line 1: expected the header "
                             f"{','.join(want)}")
        for row in filter(None, reader):
            try:
                if len(row) < d:
                    raise ValueError(f"{len(row)} values, need {d}")
                x = [float(v) for v in row[:d]]
                if not all(map(math.isfinite, x)):
                    raise ValueError("coordinates must be finite")
            except ValueError as e:
                raise ValueError(
                    f"points file line {reader.line_num}: {e}") from e
            raw.append(row[:d])
            pts.append(x)
    return raw, np.asarray(pts, dtype=np.float64).reshape(-1, d)


def cmd_nn_eval(args):
    with open(args.net) as fh:
        net = deserialize(fh.read())
    d = net.input_dim
    want = [f"x{j + 1}" for j in range(d)]
    raw, pts = _read_points(args.points, want)
    vals = realize_batch(net, pts)
    names = ["value"] if net.output_dim == 1 else [
        f"value{k + 1}" for k in range(net.output_dim)]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(want + names)
        for row, v in zip(raw, vals):
            w.writerow(row + [_fmt(c) for c in v])
    print(f"evaluated {len(pts)} points -> {args.out}")
    return 0


def cmd_nn_info(args):
    with open(args.net) as fh:
        net = deserialize(fh.read())
    st = stats(net)
    print(f"input_dim {st.input_dim}")
    print(f"output_dim {st.output_dim}")
    print(f"depth {st.depth}")
    print(f"size {st.size}")
    print(f"live_size {st.live_size}")
    print(f"live_rows {st.live_rows}")
    print(f"neurons {st.neurons}")
    print(f"max_width {max(st.widths)}")
    print(f"separable_depth {st.separable_depth}")
    return 0


def cmd_verify_calculus(args):
    checks = verify_calculus(trials=args.trials, seed=args.seed)
    ok = True
    for c in checks:
        ok &= c.ok
        print(f"{c.rule}: trials={c.trials} max_rel_err={c.max_rel_err:.3e} "
              f"violations={c.violations} {'ok' if c.ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_mul_net(args):
    net = product_net(args.d, plan_budget(args.d, args.eps, args.M))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(serialize(net))
    print(f"product net d={args.d} M={args.M:g} eps={args.eps:g}: "
          f"size={net.size} depth={net.depth} "
          f"value_err={net.meta['value_err']:.3e} "
          f"deriv_err={net.meta['deriv_err']:.3e}")
    return 0


# ------------------------------------------------------------------ parser

def _add_func_flags(p):
    p.add_argument("--func", help="catalog function name")
    p.add_argument("--alpha", type=float, help="singularity exponent "
                   "(alias for --lam)")
    for key, kind in _PARAM_TYPES.items():
        if kind in (int, float):
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)
    p.add_argument("--config", help="JSON config file (flags win)")
    p.add_argument("--dim", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--cp", type=float)
    p.add_argument("--domain", choices=("unit", "sym"))
    p.add_argument("--halfwidth", type=float)
    p.add_argument("--ell-max", dest="ell_max", type=int)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hprelu",
        description="hp interpolation and ReLU network compilation runner")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("hp-study",
                       help="per-level interpolation error study -> CSV")
    _add_func_flags(p)
    p.add_argument("--ell", help="levels, e.g. 1..8 or 2,4,6")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--plot", help="write a gnuplot script here")
    p.set_defaults(func_cmd=cmd_hp_study)

    p = sub.add_parser("nn-build",
                       help="calibrate, compile and certify one network")
    _add_func_flags(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--out", required=True, help="network JSON path")
    p.add_argument("--report", help="CSV report path")
    p.set_defaults(func_cmd=cmd_nn_build)

    p = sub.add_parser("nn-eval", help="evaluate a network on a points CSV")
    p.add_argument("--net", required=True)
    p.add_argument("--points", required=True,
                   help="CSV with columns x1..xd")
    p.add_argument("--out", required=True)
    p.set_defaults(func_cmd=cmd_nn_eval)

    p = sub.add_parser("nn-info", help="print stats of a network JSON")
    p.add_argument("--net", required=True)
    p.set_defaults(func_cmd=cmd_nn_info)

    p = sub.add_parser("verify-calculus",
                       help="randomized composition-rule self-checks")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func_cmd=cmd_verify_calculus)

    p = sub.add_parser("mul-net", help="build one certified product network")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func_cmd=cmd_mul_net)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func_cmd(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
