"""CLI subcommands: CSV schema, determinism, exit codes."""

import argparse
import concurrent.futures
import csv
import json
import os
import struct

import numpy as np
import pytest

from hprelu import assembly, cli
from hprelu.assembly import NetConfig, build_phi_eps_c, build_phi_eps_f
from hprelu.catalog import _PARAM_TYPES, corner_singular
from hprelu.cli import COLUMNS, _parse_ells, main
from hprelu.mesh import graded_axis
from hprelu.network import Layer, NeuralNetwork, _fmt, deserialize, realize_batch, serialize
from hprelu.projector import HpInterpolant
from hprelu.verify import verify_calculus

from helpers import merged_rows, separable_prefix


def _read_rows(path):
    with open(path, newline="") as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _strip_seconds(path):
    with open(path) as fh:
        out = []
        for line in fh.read().splitlines():
            if line.startswith("#") or line.startswith("dim,"):
                out.append(line)
            else:
                out.append(line.rsplit(",", 1)[0])
    return out


def _study(tmp_path, name, extra=()):
    out = tmp_path / name
    rc = main(["hp-study", "--dim", "2", "--func", "corner_r_alpha",
               "--alpha", "0.5", "--sigma", "0.5", "--ell", "1..3",
               "--out", str(out), *extra])
    assert rc == 0
    return out


def test_hp_study_schema_and_fit(tmp_path):
    out = _study(tmp_path, "study.csv")
    header, rows = _read_rows(out)
    assert header == list(COLUMNS)
    assert [r[4] for r in rows] == ["1", "2", "3"]
    errs = [float(r[10]) for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert all(r[12] == "1" for r in rows)
    text = out.read_text()
    assert "# fit_ell" in text and "# fit_ndof" in text


def test_hp_study_deterministic_bytes(tmp_path):
    a = _study(tmp_path, "a.csv")
    b = _study(tmp_path, "b.csv")
    assert _strip_seconds(a) == _strip_seconds(b)


def test_hp_study_jobs_match_serial(tmp_path, monkeypatch):
    # the rows map over one thread per usable core: one core and two give
    # the same CSV
    sizes, pool = [], concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda n: sizes.append(n) or pool(n))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    a = _study(tmp_path, "serial.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    b = _study(tmp_path, "jobs.csv")
    assert sizes == [1, 2]
    assert _strip_seconds(a) == _strip_seconds(b)


@pytest.mark.parametrize("flag,env", [
    ("0", None), ("-3", None), (None, "abc"), (None, "0"), (None, "-3"), (None, "2.5")])
def test_hp_study_has_no_jobs_option(tmp_path, monkeypatch, capsys, flag, env):
    # the worker count follows the cores: --jobs is an unknown flag, and
    # RELU_HP_JOBS is not read
    study = ["hp-study", "--dim", "2", "--func", "corner", "--ell", "1", "--out"]
    if flag is not None:
        with pytest.raises(SystemExit) as e:
            main([*study, str(tmp_path / "bad.csv"), "--jobs", flag])
        assert e.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()
        return
    assert main([*study, str(tmp_path / "plain.csv")]) == 0
    monkeypatch.setenv("RELU_HP_JOBS", env)
    assert main([*study, str(tmp_path / "env.csv")]) == 0
    assert (_strip_seconds(tmp_path / "plain.csv")
            == _strip_seconds(tmp_path / "env.csv"))


@pytest.mark.parametrize("args, params", [
    (["--dim", "3", "--func", "edge", "--lam", "0.75", "--axis", "1",
      "--ell", "1..2"], "axis=1;lam=0.75"),
    (["--dim", "2", "--func", "fichera", "--ell", "1..3"], "-")],
    ids=["edge", "fichera"])
def test_hp_study_edge_and_fichera(tmp_path, args, params):
    out = tmp_path / "s.csv"
    assert main(["hp-study", *args, "--out", str(out)]) == 0
    _, rows = _read_rows(out)
    assert [r[:3] for r in rows] == [[args[1], args[3], params]] * len(rows)
    errs = [float(r[10]) for r in rows]
    assert errs == sorted(errs, reverse=True) and len(set(errs)) == len(errs)
    assert all(r[12] == "1" for r in rows)


def test_hp_study_plot_script(tmp_path):
    out = _study(tmp_path, "s.csv", extra=("--plot", str(tmp_path / "s.gp")))
    script = (tmp_path / "s.gp").read_text()
    assert "plot" in script and out.name in script
    assert "logscale" in script


def test_hp_study_measures_like_the_builder(tmp_path):
    # one calibration measurement: the study row at the builder's level
    # carries the builder's hp error bit for bit
    _, rep = build_phi_eps_f(corner_singular(2, 0.5), 2, 1e-1,
                             NetConfig(sigma=0.17))
    out = tmp_path / "one.csv"
    assert main(["hp-study", "--dim", "2", "--func", "corner", "--sigma",
                 "0.17", "--ell", str(rep.ell), "--out", str(out)]) == 0
    _, rows = _read_rows(out)
    assert [r[4] for r in rows] == [str(rep.ell)]
    assert rows[0][10] == _fmt(rep.hp_h1_error)


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"func": "corner", "params": {"lam": 0.75}, "sigma": 0.4,
         "ell": "1..3"}))
    out = tmp_path / "c.csv"
    assert main(["hp-study", "--config", str(cfg), "--alpha", "0.6",
                 "--out", str(out)]) == 0
    _, rows = _read_rows(out)
    assert rows[0][1] == "corner"
    assert float(rows[0][2].split("=", 1)[1]) == 0.6  # flag beat the file
    assert float(rows[0][3]) == 0.4  # file beat the default


def test_param_flags_are_the_catalog_table():
    # a catalog parameter is one table entry: each scalar entry has its
    # flag, with its type, and no other flag sets a catalog parameter
    p = argparse.ArgumentParser()
    cli._add_func_flags(p)
    other = {"help", "config", "alpha", *cli._CONFIG_TYPES}
    flags = {a.dest: (a.option_strings, a.type) for a in p._actions
             if a.dest not in other}
    assert flags == {k: (["--" + k.replace("_", "-")], kind)
                     for k, kind in _PARAM_TYPES.items() if kind in (int, float)}
    args = p.parse_args(["--lam-e", "0.25", "--axis", "1", "--value", "2"])
    assert (args.lam_e, args.axis, args.value) == (0.25, 1, 2.0)


@pytest.mark.parametrize("entry,key", [
    ({"dim": 2.7}, "'dim'"), ({"sigma": "0.5"}, "'sigma'"),
    ({"params": [1, 2]}, "'params'"), ({"ell": 2}, "'ell'"),
    ({"dim": True}, "'dim'"), ({"params": {"lam": False}}, "'params.lam'"),
    ({"params": {"corner": 5}}, "'params.corner'"),
    ({"params": {"freq": [1, "2"]}}, "'params.freq'"),
    ({"params": {"axis_coeffs": [1, 2]}}, "'params.axis_coeffs'"),
    ({"lam": 0.3}, "'lam'"), ({"sigmaa": 0.4}, "'sigmaa'"),
    ({"params": {"lamm": 0.3}}, "'params.lamm'"),
    ({"params": {"lam": 0.6, "freq": [1.0, 2.0]}}, "'corner' reads no parameter 'freq'")],
    ids=["float-dim", "str-sigma", "list-params", "int-ell", "bool-dim",
         "bool-lam", "int-corner", "str-freq", "flat-axis-coeffs",
         "top-level-lam", "unknown-key", "unknown-param", "unread-param"])
def test_config_values_are_typed(tmp_path, capsys, entry, key):
    # a config value of another type than its flag's, a key no command
    # reads (a catalog parameter outside "params" included), and a catalog
    # parameter the function does not read, is rejected, naming the key,
    # instead of being coerced, ignored or failing deep in the build
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"func": "corner", "ell": "1..2", **entry}))
    out = tmp_path / "o.csv"
    assert main(["hp-study", "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_build_eval_info_roundtrip(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    rep_path = tmp_path / "rep.csv"
    rc = main(["nn-build", "--dim", "2", "--func", "constant", "--value",
               "3.0", "--eps", "1e-2", "--out", str(net_path),
               "--report", str(rep_path)])
    assert rc == 0
    header, rows = _read_rows(rep_path)
    assert header == list(COLUMNS)
    assert len(rows) == 1 and rows[0][12] == "1"
    assert float(rows[0][10]) <= 1e-2

    pts = tmp_path / "pts.csv"
    pts.write_text("x1,x2\n0.25,0.5\n0.875,0.125\n")
    out = tmp_path / "vals.csv"
    assert main(["nn-eval", "--net", str(net_path), "--points", str(pts),
                 "--out", str(out)]) == 0
    _, vrows = _read_rows(out)
    assert vrows[0][:2] == ["0.25", "0.5"]
    for r in vrows:
        assert abs(float(r[2]) - 3.0) <= 1e-2

    capsys.readouterr()
    assert main(["nn-info", "--net", str(net_path)]) == 0
    info = dict(l.split() for l in capsys.readouterr().out.splitlines())
    assert info["input_dim"] == "2"
    assert info["size"] == rows[0][8]
    assert info["depth"] == rows[0][9]


@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "-1", "epsilon must be a number in (0, 2), got -1.0"),
    ("--eps", "nan", "epsilon must be a number in (0, 2), got nan"),
    ("--ell-max", "-1", "ell_max must be >= 0, got -1")],
    ids=["negative-eps", "nan-eps", "negative-ell-max"])
def test_nn_build_rejects_bad_targets(tmp_path, capsys, flag, value, message):
    # rejected before calibration, as an input error, not a failed build
    out = tmp_path / "net.json"
    assert main(["nn-build", "--func", "corner", "--dim", "2", flag, value,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["nn-build", "hp-study"])
@pytest.mark.parametrize("args, message", [
    (["--cp", "inf"], "c_p must be a finite number > 0, got inf"),
    (["--cp", "-1"], "c_p must be a finite number > 0, got -1.0"),
    (["--alpha", "inf"], "parameter 'lam' must be a finite number, got inf"),
    (["--func", "constant", "--value", "inf"],
     "parameter 'value' must be a finite number, got inf"),
    (["--func", "constant", "--value", "nan"],
     "parameter 'value' must be a finite number, got nan"),
    (["--lam-e", "0.3"], "'corner' reads no parameter 'lam_e'"),
    (["--sigma", "0.7"], "sigma must lie in (0, 1/2], got 0.7"),
    (["--config", {"sigma": 0.7}], "sigma must lie in (0, 1/2], got 0.7"),
    (["--config", {"domain": "x"}], "domain must be 'unit' or 'sym', got 'x'")],
    ids=["inf-cp", "negative-cp", "inf-alpha", "inf-value",
         "nan-value", "unread-param", "large-sigma", "config-sigma",
         "config-domain"])
def test_bad_numbers_rejected_before_calibrating(tmp_path, capsys, monkeypatch,
                                                 cmd, args, message):
    def no_calibration(*a):
        raise AssertionError("calibration ran")

    if isinstance(args[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(args[-1]))
        args = [*args[:-1], str(cfg)]

    monkeypatch.setattr(cli, "_interpolate", no_calibration)
    monkeypatch.setattr(assembly, "_interpolate", no_calibration)
    out = tmp_path / "out"
    # a later --func overrides the first
    assert main([cmd, "--func", "corner", "--dim", "2", *args,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d, M, message", [
    ("2", "nan", "M must be a finite number >= 1, got nan"),
    ("2", "inf", "M must be a finite number >= 1, got inf"),
    ("0", "1", "product needs d >= 2 inputs, got 0")],
    ids=["nan-M", "inf-M", "zero-d"])
def test_mul_net_rejects_bad_numbers(tmp_path, capsys, d, M, message):
    out = tmp_path / "pi.json"
    assert main(["mul-net", "--d", d, "--eps", "1e-2", "--M", M,
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_nn_info_live_size(tmp_path, capsys):
    # one zero coefficient of nine: its tuple's stage rows reach no output,
    # and the rows the tuples share are held once, so a pass computes fewer
    # rows and multiplies fewer weights and biases than the net stores;
    # both counts are the oracle's
    c = np.arange(1.0, 10.0).reshape(3, 3) / 9.0
    c[1, 2] = 0.0
    net = build_phi_eps_c(HpInterpolant(graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 1, c), 1e-1)
    net_path = tmp_path / "net.json"
    net_path.write_text(serialize(net))
    capsys.readouterr()
    assert main(["nn-info", "--net", str(net_path)]) == 0
    info = dict(l.split() for l in capsys.readouterr().out.splitlines())
    rows = [r for layer in merged_rows(net) for r in layer]
    nonzero = sum(_value(b) != 0.0 for b, _ in rows) + sum(
        _value(v) != 0.0 for _, terms in rows for _, v in terms)
    assert info["size"] == "5517"
    assert (info["live_size"], info["live_rows"]) == (str(nonzero), str(len(rows)))
    # the basis stage and the selector run one jacobian plane
    assert info["separable_depth"] == str(separable_prefix(net)[0])
    assert 0 < int(info["separable_depth"]) < net.depth
    # 4,914 weights and biases are live before shared rows merge
    assert nonzero < 4914
    assert len(rows) < sum(lay.rows for lay in net.layers)


def _value(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def test_nn_info_carried_rows(tmp_path, capsys):
    # one input through four narrow layers: the second layer holds two
    # carries (bias +0.0 and -0.0) and a row of weight 2.0, the third a
    # carry of a carry, a row of bias 1e-300 and one of weight 1.0 + 1 ulp;
    # the first and the last layer hold no carry, so nn-info counts 3 of
    # the 11 live rows
    def layer(rows, cols):
        return Layer(len(rows), cols, [r for r, (_, t) in enumerate(rows) for _ in t],
                     [c for _, t in rows for c in t], [v for _, t in rows for v in t.values()],
                     [b for b, _ in rows])

    up = np.nextafter(1.0, 2.0)
    net = NeuralNetwork(1, [
        layer([(0.5, {0: 1.0}), (0.0, {0: -1.0})], 1),
        layer([(0.0, {0: 1.0}), (-0.0, {1: 1.0}), (0.0, {0: 2.0})], 2),
        layer([(0.0, {0: 1.0}), (1e-300, {1: 1.0}), (0.0, {2: up})], 3),
        layer([(0.0, {0: 1.0, 1: 1.0, 2: 1.0})] * 2 + [(1.0, {0: 1.0})], 3)])
    net_path = tmp_path / "net.json"
    net_path.write_text(serialize(net))
    capsys.readouterr()
    assert main(["nn-info", "--net", str(net_path)]) == 0
    info = dict(l.split() for l in capsys.readouterr().out.splitlines())
    assert (info["live_rows"], info["carried_rows"]) == ("11", "3")


def test_nn_eval_rejects_bad_header(tmp_path):
    net_path = tmp_path / "net.json"
    main(["mul-net", "--d", "2", "--eps", "1e-2", "--out", str(net_path)])
    pts = tmp_path / "pts.csv"
    pts.write_text("a,b\n0.1,0.2\n")
    assert main(["nn-eval", "--net", str(net_path), "--points", str(pts),
                 "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("x1,x2\n0.1,0.2\n0.3\n", 3),
    ("x1,x2\n0.1,abc\n", 2),
    ("x1,x2\n0.1,nan\n", 2),
    ("x1,x2\n0.1,0.2\n\n-inf,0.5\n", 4),
], ids=["empty", "short-row", "not-a-number", "nan", "inf-after-blank"])
def test_nn_eval_rejects_bad_points(tmp_path, capsys, text, line):
    net_path = tmp_path / "net.json"
    main(["mul-net", "--d", "2", "--eps", "1e-2", "--out", str(net_path)])
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert main(["nn-eval", "--net", str(net_path), "--points", str(pts),
                 "--out", str(out)]) == 2
    assert f"points file line {line}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_calculus_rejects_no_trials(capsys, trials):
    assert main(["verify-calculus", "--trials", trials]) == 2
    assert "ok" not in capsys.readouterr().out
    with pytest.raises(ValueError, match="trials"):
        verify_calculus(trials=int(trials))


def test_verify_calculus_passes(capsys):
    assert main(["verify-calculus", "--trials", "20", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 5 and "FAIL" not in out


def test_mul_net_writes_network(tmp_path, capsys):
    net_path = tmp_path / "pi.json"
    assert main(["mul-net", "--d", "3", "--eps", "1e-2", "--M", "2.0",
                 "--out", str(net_path)]) == 0
    assert "size=" in capsys.readouterr().out
    net = deserialize(net_path.read_text())
    assert net.input_dim == 3
    pts = np.array([[0.5, 0.5, 2.0], [0.0, 1.3, -1.1]])
    got = realize_batch(net, pts)[:, 0]
    assert abs(got[0] - 0.5) <= 1e-2
    assert got[1] == 0.0


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["hp-study", "--bogus", "--out", "x.csv"])
    assert e.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_parse_ells_formats():
    assert _parse_ells("1..4") == [1, 2, 3, 4]
    assert _parse_ells("5") == [5]
    assert _parse_ells("1,3,7") == [1, 3, 7]
    with pytest.raises(ValueError):
        _parse_ells("-2")
