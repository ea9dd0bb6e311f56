"""Randomized self-checks of the composition rules.

Drives every rule with freshly sampled sparse nets, compares the composed
realization against a dense reference evaluator, and counts size/depth
bookkeeping violations.  Shared by the `verify-calculus` subcommand and
the acceptance suite; everything is deterministic in the seed.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import concat, depth_align, full_parallel, identity_net, parallel
from .network import Layer, NeuralNetwork, realize_batch

__all__ = ["RuleCheck", "verify_calculus"]

_TOL = 1e-12


@dataclass
class RuleCheck:
    rule: str
    trials: int
    max_rel_err: float
    violations: int

    @property
    def ok(self):
        return self.max_rel_err <= _TOL and self.violations == 0


def _sample_net(rng, input_dim=None, depth=None):
    if input_dim is None:
        input_dim = int(rng.integers(1, 5))
    if depth is None:
        depth = int(rng.integers(1, 5))
    widths = [input_dim] + [int(rng.integers(1, 7)) for _ in range(depth)]
    layers = []
    for k in range(depth):
        rows, cols = widths[k + 1], widths[k]
        mask = rng.random((rows, cols)) < 0.7
        if not mask.any():
            mask[int(rng.integers(rows)), int(rng.integers(cols))] = True
        a = np.where(mask, rng.standard_normal((rows, cols)), 0.0)
        b = np.where(rng.random(rows) < 0.8, rng.standard_normal(rows), 0.0)
        layers.append(Layer.from_dense(a, b))
    return NeuralNetwork(input_dim, layers)


def _dense_eval(net, pts):
    y = np.asarray(pts, dtype=np.float64)
    for k, lay in enumerate(net.layers):
        y = y @ lay.dense().T + lay.bias
        if k < net.depth - 1:
            y = np.maximum(y, 0.0)
    return y


def _rel(got, want):
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    return float(np.max(np.abs(got - want))) / scale if got.size else 0.0


def _concat_trial(rng):
    inner = _sample_net(rng)
    outer = _sample_net(rng, input_dim=inner.output_dim)
    net = concat(outer, inner)
    bad = (net.depth != outer.depth + inner.depth) + (
        net.size > 2 * (outer.size + inner.size))
    pts = rng.standard_normal((8, inner.input_dim))
    want = _dense_eval(outer, _dense_eval(inner, pts))
    return _rel(realize_batch(net, pts), want), bad


def _parallel_trial(rng):
    d = int(rng.integers(1, 4))
    depth = int(rng.integers(1, 4))
    nets = [_sample_net(rng, input_dim=d, depth=depth)
            for _ in range(int(rng.integers(2, 5)))]
    par = parallel(nets)
    bad = par.depth != depth or par.size != sum(n.size for n in nets)
    pts = rng.standard_normal((8, d))
    want = np.concatenate([_dense_eval(n, pts) for n in nets], axis=1)
    return _rel(realize_batch(par, pts), want), bad


def _full_parallel_trial(rng):
    depth = int(rng.integers(1, 4))
    nets = [_sample_net(rng, depth=depth)
            for _ in range(int(rng.integers(2, 5)))]
    fp = full_parallel(nets)
    bad = (fp.depth != depth or fp.size != sum(n.size for n in nets)) + (
        fp.input_dim != sum(n.input_dim for n in nets))
    pts = rng.standard_normal((8, fp.input_dim))
    offs = np.cumsum([0] + [n.input_dim for n in nets])
    want = np.concatenate(
        [_dense_eval(n, pts[:, offs[k]:offs[k + 1]])
         for k, n in enumerate(nets)], axis=1)
    return _rel(realize_batch(fp, pts), want), bad


def _depth_align_trial(rng):
    nets = [_sample_net(rng) for _ in range(3)]
    target = max(n.depth for n in nets)
    err, bad = 0.0, 0
    for before, after in zip(nets, depth_align(nets)):
        pad = target - before.depth
        bad += (after.depth != target) + (
            after.size > 2 * before.size + 4 * before.output_dim * pad)
        pts = rng.standard_normal((6, before.input_dim))
        err = max(err, _rel(realize_batch(after, pts), _dense_eval(before, pts)))
    return err, bad


def _identity_trial(rng):
    dim = int(rng.integers(1, 6))
    depth = int(rng.integers(1, 6))
    net = identity_net(dim, depth)
    bad = net.depth != depth or net.size > 2 * dim * depth
    pts = rng.standard_normal((8, dim))
    return _rel(realize_batch(net, pts), pts), bad


# one trial per call: (max relative error, bookkeeping violations)
_RULES = (("concat", _concat_trial), ("parallel", _parallel_trial),
          ("full_parallel", _full_parallel_trial),
          ("depth_align", _depth_align_trial), ("identity", _identity_trial))


def verify_calculus(trials=1000, seed=0):
    """Run `trials` randomized checks per rule; returns a list of RuleCheck."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    out = []
    for rule, trial in _RULES:
        err, bad = 0.0, 0
        for _ in range(trials):
            e, b = trial(rng)
            err, bad = max(err, e), bad + b
        out.append(RuleCheck(rule, trials, err, bad))
    return out
