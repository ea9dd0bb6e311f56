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


def verify_calculus(trials=1000, seed=0):
    """Run `trials` randomized checks per rule; returns a list of RuleCheck."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    out = []

    err = 0.0
    bad = 0
    for _ in range(trials):
        inner = _sample_net(rng)
        outer = _sample_net(rng, input_dim=inner.output_dim)
        net = concat(outer, inner)
        if net.depth != outer.depth + inner.depth:
            bad += 1
        if net.size > 2 * (outer.size + inner.size):
            bad += 1
        pts = rng.standard_normal((8, inner.input_dim))
        want = _dense_eval(outer, _dense_eval(inner, pts))
        err = max(err, _rel(realize_batch(net, pts), want))
    out.append(RuleCheck("concat", trials, err, bad))

    err = 0.0
    bad = 0
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        nets = [_sample_net(rng, input_dim=d, depth=depth)
                for _ in range(int(rng.integers(2, 5)))]
        par = parallel(nets)
        if par.depth != depth or par.size != sum(n.size for n in nets):
            bad += 1
        pts = rng.standard_normal((8, d))
        want = np.concatenate([_dense_eval(n, pts) for n in nets], axis=1)
        err = max(err, _rel(realize_batch(par, pts), want))
    out.append(RuleCheck("parallel", trials, err, bad))

    err = 0.0
    bad = 0
    for _ in range(trials):
        depth = int(rng.integers(1, 4))
        nets = [_sample_net(rng, depth=depth)
                for _ in range(int(rng.integers(2, 5)))]
        fp = full_parallel(nets)
        if fp.depth != depth or fp.size != sum(n.size for n in nets):
            bad += 1
        if fp.input_dim != sum(n.input_dim for n in nets):
            bad += 1
        pts = rng.standard_normal((8, fp.input_dim))
        offs = np.cumsum([0] + [n.input_dim for n in nets])
        want = np.concatenate(
            [_dense_eval(n, pts[:, offs[k]:offs[k + 1]])
             for k, n in enumerate(nets)], axis=1)
        err = max(err, _rel(realize_batch(fp, pts), want))
    out.append(RuleCheck("full_parallel", trials, err, bad))

    err = 0.0
    bad = 0
    for _ in range(trials):
        nets = [_sample_net(rng) for _ in range(3)]
        target = max(n.depth for n in nets)
        for before, after in zip(nets, depth_align(nets)):
            pad = target - before.depth
            if after.depth != target:
                bad += 1
            if after.size > 2 * before.size + 4 * before.output_dim * pad:
                bad += 1
            pts = rng.standard_normal((6, before.input_dim))
            err = max(err, _rel(realize_batch(after, pts),
                                _dense_eval(before, pts)))
    out.append(RuleCheck("depth_align", trials, err, bad))

    err = 0.0
    bad = 0
    for _ in range(trials):
        dim = int(rng.integers(1, 6))
        depth = int(rng.integers(1, 6))
        net = identity_net(dim, depth)
        if net.depth != depth or net.size > 2 * dim * depth:
            bad += 1
        pts = rng.standard_normal((8, dim))
        err = max(err, _rel(realize_batch(net, pts), pts))
    out.append(RuleCheck("identity", trials, err, bad))

    return out
