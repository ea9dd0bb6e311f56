"""ReLU emulation of products, polynomials, and piecewise polynomials.

Everything here rests on one primitive: the sawtooth square chain, whose
m-fold composition interpolates t^2 at the dyadic points k 2^-m.  Products
come from the polarization identity applied to three parallel square
chains; the three chains are laid out channel-interleaved so that the
final combination cancels in exact floating point whenever one factor is
exactly zero (the two nonzero-chain values are then bit-identical and the
summation order hits them back to back).

Error budgets are chosen by explicit worst-case recurrences over the
construction trees (ranges, value errors, derivative errors per node) and
recorded in net.meta.

A basis function is one reference polynomial composed with the affine
element map, so a bubble branch reads its element only in its first two
layers.  The rest, its tail, is built once per distinct (polynomial bits,
sawtooth depth, product boxes) in a build and shared, as ``Layer``
objects, by every branch with that key.  It also runs once per pass: the
build's measurement (``BasisNets``) runs each bubble net's two interval
layers on its own points, then each tail once on the columns of all the
nets that share it.  Heads and tails are packed once per build, and
certification's tables reuse those packings.  Nothing is kept between
builds.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from . import backends
from .basis import PiecewisePolynomial
from .calculus import concat, depth_align, full_parallel, identity_net, parallel
from .legendre import gauss_rule, polyval
from .network import Layer, NeuralNetwork
# not called here; perfbench/spans.py wraps these names
from .network import grad_realize_batch, realize_batch  # noqa: F401

__all__ = [
    "ToleranceBudget",
    "plan_budget",
    "product_net",
    "BasisNets",
    "basis_net",
]

LEVEL_CAP = 60


@dataclass(frozen=True)
class ToleranceBudget:
    """Accuracy target and input box half-width of a product net."""

    epsilon: float
    M: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 1.0 <= self.M < math.inf:
            raise ValueError(
                f"input box half-width M must be a finite number >= 1, got {self.M!r}")


def _pair_err(m, M):
    """Worst-case (value, derivative) error of the binary product on the
    M-box at sawtooth depth m: three squares at scale 2M^2, each off by
    2^(-2m-2) in value and 2^-m in slope."""
    return 6.0 * M * M * 2.0 ** (-2 * m - 2), 2.0 * M * 2.0 ** (-m)


class _LB:
    """Row-at-a-time triplet builder for a single layer."""

    def __init__(self, in_cols):
        self.in_cols = in_cols
        self._r, self._c, self._v, self._b = [], [], [], []
        self.rows = 0

    def row(self, cols=(), vals=(), bias=0.0):
        i = self.rows
        for c, v in zip(cols, vals):
            if v != 0.0:
                self._r.append(i)
                self._c.append(int(c))
                self._v.append(float(v))
        self._b.append(float(bias))
        self.rows += 1
        return i

    def done(self):
        return Layer(self.rows, self.in_cols, self._r, self._c, self._v, self._b)


# --------------------------------------------------------------- sawtooth

def _chain_first(lb, tforms):
    """First square layer for len(tforms) chains: channels (g, g-1/2, g-1)
    with g = t, stored chain-fastest so corresponding channels of the
    chains occupy adjacent rows."""
    for shift in (0.0, -0.5, -1.0):
        for cols, vals, bias in tforms:
            lb.row(cols, vals, bias + shift)


def _chain_step(lb, s, base, nch):
    """Square iteration s >= 2: channels (g, g-1/2, g-1, carry t, teeth
    accumulator) per chain, reading the previous chain block at column
    ``base`` and appending rows at the builder's current position."""
    gv = [2.0, -4.0, 2.0]

    def gcols(j):
        return [base + nch * ch + j for ch in range(3)]

    for shift in (0.0, -0.5, -1.0):
        for j in range(nch):
            lb.row(gcols(j), gv, shift)
    for j in range(nch):
        src = base + nch * (0 if s == 2 else 3) + j
        lb.row([src], [1.0])
    inv = 0.25 ** (s - 1)
    for j in range(nch):
        if s == 2:
            lb.row(gcols(j), [g * inv for g in gv])
        else:
            lb.row(gcols(j) + [base + nch * 4 + j], [g * inv for g in gv] + [1.0])


def _chain_out(base, nch, m, scale):
    """Columns/values of scale * sum_j signs[j] * S_m(chain j), with signs
    (+) for one chain and the polarization (+,-,-) for three.

    Within each channel the chain entries are adjacent and ordered
    (chain 0, 1, 2); with signs (+,-,-) the in-order sum cancels exactly
    when chains agree bitwise or vanish.
    """
    if m == 1:
        coefs = [0.5, 1.0, -0.5]
    else:
        inv = 0.25 ** m
        coefs = [-2.0 * inv, 4.0 * inv, -2.0 * inv, 1.0, -1.0]
    signs = [1.0] + [-1.0] * (nch - 1)
    cols, vals = [], []
    for ch, cf in enumerate(coefs):
        for j in range(nch):
            cols.append(base + nch * ch + j)
            vals.append(scale * signs[j] * cf)
    return cols, vals


def _square_chains(layers, in_cols, keep, tforms, m):
    """Append the m layers of len(tforms) square chains.  The first reads
    ``in_cols`` inputs and leads with copies of the ``keep`` columns; every
    later layer copies those k leading channels through again.  Returns the
    output layer's builder and the column where the chains start."""
    k, nch = len(keep), len(tforms)
    lb = _LB(in_cols)
    for c in keep:
        lb.row([c], [1.0])
    _chain_first(lb, tforms)
    for s in range(2, m + 1):
        layers.append(lb.done())
        lb = _LB(lb.rows)
        for c in range(k):
            lb.row([c], [1.0])
        _chain_step(lb, s, k, nch)
    layers.append(lb.done())
    return _LB(lb.rows), k


def _sign_front(lb, a, b):
    """Rows (a+b)+, (a+b)-, a+, a-, b+, b- for signed inputs a and b, each
    given as [col] or as a [positive, negative] column pair."""
    sa, sb = [1.0, -1.0][:len(a)], [1.0, -1.0][:len(b)]
    for cols, vals in ((a + b, sa + sb), (a, sa), (b, sb)):
        lb.row(cols, vals)
        lb.row(cols, [-v for v in vals])


def _product_chains(layers, in_cols, keep, a, b, M, m):
    """Polarized product a*b on the M-box: a front layer (copies of
    ``keep``, then the sign rows of a and b) and the three square chains.
    Returns the output layer's builder and the (cols, vals) of a*b."""
    lb = _LB(in_cols)
    for c in keep:
        lb.row([c], [1.0])
    _sign_front(lb, a, b)
    layers.append(lb.done())
    k, alpha = len(keep), 1.0 / (2.0 * M)
    tforms = [([k + 2 * i, k + 2 * i + 1], [alpha, alpha], 0.0) for i in range(3)]
    lb, base = _square_chains(layers, lb.rows, range(k), tforms, m)
    return lb, _chain_out(base, 3, m, 2.0 * M * M)


# chain inputs (u + w, u, w) / 4 for the product of two [0, 2] channels
_NONNEG_TFORMS = [([0, 1], [0.25, 0.25], 0.0), ([0], [0.25], 0.0), ([1], [0.25], 0.0)]


# ---------------------------------------------------------- binary product

def _binary_core(m, M):
    """Standalone 2-input product net: abs front, three interleaved square
    chains, polarization output row.  Depth m+2."""
    layers = []
    lb, (cols, vals) = _product_chains(layers, 2, [], [0], [1], M, m)
    lb.row(cols, vals)
    layers.append(lb.done())
    return NeuralNetwork(2, layers)


def _tree_stats(d, m, M):
    """Worst-case (value err, deriv err) over the balanced product tree at
    uniform sawtooth depth m with leaf box M."""

    def rec(lo, hi):
        if hi - lo == 1:
            return {"R": M, "e": 0.0, "H": 1.0, "g": 0.0, "P": M, "D": 1.0}
        mid = (lo + hi + 1) // 2
        A, B = rec(lo, mid), rec(mid, hi)
        Mn = max(A["R"], B["R"], 1.0)
        dv, dd = _pair_err(m, Mn)
        e = dv + A["R"] * B["e"] + B["P"] * A["e"]
        gA = dd * A["H"] + B["R"] * A["g"] + A["D"] * B["e"]
        gB = dd * B["H"] + A["R"] * B["g"] + B["D"] * A["e"]
        return {
            "R": A["R"] * B["R"] + dv,
            "e": e,
            "H": max((B["R"] + dd) * A["H"], (A["R"] + dd) * B["H"]),
            "g": max(gA, gB),
            "P": A["P"] * B["P"],
            "D": max(B["P"] * A["D"], A["P"] * B["D"]),
        }

    st = rec(0, d)
    return st["e"], st["g"]


def _smallest_depth(errors, tau_v, tau_d, what):
    """Smallest sawtooth depth m whose ``errors(m)``, a tuple led by the
    worst-case value and derivative errors, meets (tau_v, tau_d); returns
    (m, errors(m))."""
    for m in range(1, LEVEL_CAP + 1):
        out = errors(m)
        if out[0] <= tau_v and out[1] <= tau_d:
            return m, out
    raise ValueError(
        f"budget infeasible: sawtooth depth would exceed the cap of {LEVEL_CAP} "
        f"({what})")


def _levels_for_product(d, epsilon, M):
    if d < 2:
        raise ValueError(f"product needs d >= 2 inputs, got {d}")
    return _smallest_depth(lambda m: _tree_stats(d, m, M), epsilon, epsilon,
                           f"d={d}, M={M:g}, epsilon={epsilon:g}")


def plan_budget(d, epsilon, M=1.0):
    """Budget of a d-ary product on [-M, M]^d, checked to be reachable
    below the sawtooth depth cap."""
    budget = ToleranceBudget(epsilon=epsilon, M=M)
    _levels_for_product(d, epsilon, M)
    return budget


def product_net(d, budget):
    """d-input product with certified value/derivative error <= epsilon on
    the M-box and exact output 0 whenever any input is exactly 0, built at
    the smallest sawtooth depth that certifies it."""
    eps, M = budget.epsilon, float(budget.M)
    m, (value_err, deriv_err) = _levels_for_product(d, eps, M)

    def build(lo, hi):
        if hi - lo == 1:
            return identity_net(1, 1), M
        mid = (lo + hi + 1) // 2
        a, ra = build(lo, mid)
        b, rb = build(mid, hi)
        a, b = depth_align([a, b])
        mn = max(ra, rb, 1.0)
        net = concat(_binary_core(m, mn), full_parallel([a, b]))
        return net, ra * rb + _pair_err(m, mn)[0]

    net = _binary_core(m, M) if d == 2 else build(0, d)[0]
    net.meta.update(levels=m, value_err=value_err, deriv_err=deriv_err)
    return net


# ------------------------------------------------------------- polynomials

def _horner_plan(coeffs, B, m):
    """Worst-case value/derivative errors of the Horner recursion on
    [-B, B] at sawtooth depth m.  Stage k computes c_k + x * h_{k+1}
    through a binary product with box max(B, range(h_{k+1}), 1).

    Returns (value_err, deriv_err, range, boxes in execution order).
    """
    p = len(coeffs) - 1
    R = abs(coeffs[p - 1]) + abs(coeffs[p]) * B
    e = g = 0.0
    H = abs(coeffs[p])
    boxes = []
    for k in range(p - 2, -1, -1):
        Mk = max(B, R, 1.0)
        dv, dd = _pair_err(m, Mk)
        boxes.append(Mk)
        e_new = dv + B * e
        g_new = (dd + e) + dd * H + B * g
        H_new = (R + dd) + (B + dd) * H
        R_new = abs(coeffs[k]) + B * R + dv
        e, g, H, R = e_new, g_new, H_new, R_new
    return e, g, R, boxes


# ----------------------------------------------------- piecewise polynomial

def _nudged_slope(width):
    """Smallest float s >= 1/width with fl(s * width) >= 1, so the hat arm
    reaches exactly zero at the neighboring node."""
    s = 1.0 / width
    while s * width < 1.0:
        s = math.nextafter(s, math.inf)
    return s


def _hat_branch(nodes, j):
    """Nodal hat carrier: exactly 1.0 at nodes[j], exactly 0.0 at every
    other partition node and beyond the neighbors."""
    x = nodes
    n = len(x)
    hl = x[j] - x[j - 1] if j > 0 else x[j + 1] - x[j]
    hr = x[j + 1] - x[j] if j < n - 1 else x[j] - x[j - 1]
    sl, sr = _nudged_slope(hl), _nudged_slope(hr)
    lb = _LB(1)
    lb.row([0], [-1.0], x[j])
    lb.row([0], [1.0], -x[j])
    l1 = lb.done()
    lb = _LB(2)
    lb.row([0, 1], [-sl, -sr], 1.0)
    l2 = lb.done()
    lb = _LB(1)
    lb.row([0], [1.0])
    return NeuralNetwork(1, [l1, l2, lb.done()])


def _bubble_poly(piece_coeffs):
    """Split a reference-frame piece q(t) into endpoint-linear part plus
    (1 - t^2) s(t); returns s (ascending) or None when the piece is linear."""
    q = np.asarray(piece_coeffs, dtype=np.float64)
    vl, vr = polyval(q, -1.0), polyval(q, 1.0)
    lin = np.zeros(max(len(q), 2))
    lin[0] = 0.5 * (vr + vl)
    lin[1] = 0.5 * (vr - vl)
    rem = np.zeros(max(len(q), 2))
    rem[:len(q)] = q
    rem -= lin
    if not np.any(rem):
        return None
    s, _ = P.polydiv(rem, [1.0, 0.0, -1.0])
    s = np.trim_zeros(np.atleast_1d(s), "b")
    if len(s) == 0 or not np.any(s):
        return None
    return s


def _branch_errors(s, h, m):
    """Worst-case (value err, physical deriv err, outer product box, Horner
    boxes) of one bubble branch u*w*s(t) at sawtooth depth m; u, w are the
    [0,2] clamps, t = u - 1."""
    s = np.asarray(s, dtype=np.float64)
    q = len(s) - 1
    S0 = float(np.sum(np.abs(s)))
    S1 = float(sum(k * abs(s[k]) for k in range(1, q + 1)))
    if q >= 2:
        eh, gh_t, Rs, boxes = _horner_plan(s, 1.0, m)
    else:
        eh, gh_t, Rs, boxes = 0.0, 0.0, S0, []
    du = 2.0 / h
    dv_i, dd_i = _pair_err(m, 2.0)
    e_p = dv_i
    g_p = dd_i * (du + du)
    h_p = (2.0 + dd_i) * du * 2.0
    r_p = 4.0 + dv_i
    d_p = 8.0 / h
    mo = max(r_p, Rs + eh, 1.0)
    dv_o, dd_o = _pair_err(m, mo)
    hs = (2.0 / h) * (S1 + gh_t)
    gs = (2.0 / h) * gh_t
    ds = (2.0 / h) * S1
    e_out = dv_o + r_p * eh + (S0 + eh) * e_p
    g_out = (dd_o * h_p + (Rs + eh) * g_p + d_p * eh
             + dd_o * hs + r_p * gs + ds * e_p)
    return e_out, g_out, mo, boxes


def _bubble_branch(xl, xr, s, tau_v, tau_d, tails):
    """Branch net realizing (1-t^2) s(t) inside (xl, xr) and exactly 0 at
    and beyond the endpoints (the clamps vanish there and zero-on-zero
    kills the products).

    Only the two interval layers read the element.  The tail, every layer
    after them, follows from (s, m, mo, boxes) alone, so it is built once
    per distinct key into ``tails`` and the branches of one build that
    share a key share its ``Layer`` objects.  The key holds s's bits, not
    its floats: -0.0 == 0.0, but a -0.0 bias serializes apart."""
    h = xr - xl
    s = np.asarray(s, dtype=np.float64)
    q = len(s) - 1
    m, (_, _, mo, boxes) = _smallest_depth(
        lambda m: _branch_errors(s, h, m), tau_v, tau_d,
        f"pwpoly branch on [{xl:g}, {xr:g}]")
    su = 2.0 / h
    lb = _LB(1)
    lb.row([0], [1.0], -xl)
    lb.row([0], [1.0], -xr)
    lb.row([0], [-1.0], xr)
    lb.row([0], [-1.0], xl)
    first = lb.done()
    # layout after the second layer: [u, w, t+, t-, h+, h-] (t only kept
    # while Horner stages still need it, h only for a nonconstant s)
    lb = _LB(4)
    lb.row([0, 1], [su, -su])
    lb.row([2, 3], [su, -su])
    if q >= 2:
        lb.row([0, 1], [su, -su], -1.0)
        lb.row([0, 1], [-su, su], 1.0)
    if q >= 1:
        cq, cq1 = float(s[q]), float(s[q - 1])
        lb.row([0, 1], [cq * su, -cq * su], cq1 - cq)
        lb.row([0, 1], [-cq * su, cq * su], cq - cq1)
    key = (s.tobytes(), m, mo, tuple(boxes))
    if key not in tails:
        tails[key] = _bubble_tail(s, m, mo, boxes)
    return NeuralNetwork(1, [first, lb.done()] + tails[key])


def _bubble_tail(s, m, mo, boxes):
    """The layers of a bubble branch after its interval layers: u*w*s(0)
    for a constant s, else the Horner stages of s and the inner and outer
    products."""
    layers = []
    q = len(s) - 1
    if q == 0:
        lb, base = _square_chains(layers, 2, [], _NONNEG_TFORMS, m)
        lb.row(*_chain_out(base, 3, m, float(s[0]) * 8.0))
        layers.append(lb.done())
        return layers
    for k, box in zip(range(q - 2, -1, -1), boxes):
        _pw_horner_stage(layers, float(s[k]), box, m, drop_t=k == 0)
    # layout now [u, w, h+, h-]
    _inner_outer_tail(layers, m, mo)
    return layers


def _pw_horner_stage(layers, c_k, Mk, m, drop_t):
    """Horner stage inside a bubble branch: channels [u, w, t+, t-, h+, h-]
    to the same layout (t pair dropped after the last stage)."""
    lb, (cols, vals) = _product_chains(layers, 6, range(4), [2, 3], [4, 5], Mk, m)
    for c in range(2 if drop_t else 4):
        lb.row([c], [1.0])
    lb.row(cols, vals, float(c_k))
    lb.row(cols, [-v for v in vals], -float(c_k))
    layers.append(lb.done())


def _inner_outer_tail(layers, m, mo):
    """From channels [u, w, h+, h-]: inner product P = u*w, then outer
    signed product P * s with the final polarization row as layer output."""
    lb, base = _square_chains(layers, 4, [2, 3], _NONNEG_TFORMS, m)
    cols, vals = _chain_out(base, 3, m, 8.0)
    lb.row(cols, vals)
    lb.row(cols, [-v for v in vals])
    lb.row([0], [1.0])
    lb.row([1], [1.0])
    layers.append(lb.done())
    # layout [P+, P-, s+, s-]: signed outer product
    lb, (cols, vals) = _product_chains(layers, 4, [], [0, 1], [2, 3], mo, m)
    lb.row(cols, vals)
    layers.append(lb.done())


# Fractional grid offset (2 - golden ratio) so sample points never land on
# the net's kinks; the derivative contract is almost-everywhere and the
# relu'(0) = 0 convention reports a one-sided slope exactly at a kink.
_GRID_SHIFT = 0.3819660112501051


def _pw_points(v):
    """The measurement points of each piece of ``v`` as (points, n,
    weights): first the n points of the sups, a shifted 128-point grid
    plus two points next to the ends (the derivative off the nodes), then
    the points of the H1 distance, a 4-point Gauss rule on 24 panels, whose
    weights come last."""
    gt, gw = gauss_rule(4)
    pieces = []
    for i in range(v.n_pieces):
        a, b = v.nodes[i], v.nodes[i + 1]
        t = a + (b - a) * (np.arange(128) + _GRID_SHIFT) / 128
        t = np.concatenate((t, [a + 1e-6 * (b - a), b - 1e-6 * (b - a)]))
        edges = np.linspace(a, b, 25)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = np.concatenate((t, (mid[:, None] + half[:, None] * gt).ravel()))
        pieces.append((x, len(t), (half[:, None] * gw).ravel()))
    return pieces


def _pw_gaps(v, pieces, vals, der):
    """Net-vs-record gaps (sup of the value gap, sup of the derivative
    gap, H1 distance) from the net's values and derivatives at the points
    of ``_pw_points``, all pieces end to end, summed piece by piece."""
    sup = dsup = acc = 0.0
    lo = 0
    for x, n, wts in pieces:
        hi = lo + len(x)
        dv, dg = vals[lo:hi] - v(x), der[lo:hi] - v.deriv(x)
        lo = hi
        sup = max(sup, float(np.max(np.abs(dv[:n]))))
        dsup = max(dsup, float(np.max(np.abs(dg[:n]))))
        acc += float(np.dot(wts, dv[n:] * dv[n:]) + np.dot(wts, dg[n:] * dg[n:]))
    return sup, dsup, math.sqrt(acc)


class BasisNets:
    """The piecewise-polynomial nets of one build and their one measurement.

    ``tails`` holds the bubble tails built so far (``_bubble_branch``).  A
    net whose one branch is a bubble runs as its head, the two interval
    layers, then the layers its tail's key fixes: the shared tail and the
    two that ``concat`` builds from its last layer and the unit sum row.
    Its group, the tail's first ``Layer``, is recorded as it is built, and
    each group keeps one net of those layers.  ``run`` runs each head, or
    any other net whole, on its net's points in one kernel pass, applies
    the ReLU after a head by ``backends.relu``, then each
    group's tail once, seeded with the heads' jacobians, on the columns of
    all its nets side by side.  No basis-net row has over
    ``backends._EXACT_ROW_NNZ`` entries, so every row sums in stored order
    and each net's values and derivatives are those of its own whole pass,
    bit for bit.  Each head and tail is packed once, on its first run.

    ``add`` builds a net and ``measure`` certifies all of them in one
    ``run``.  The compiled net keeps the object for its certification
    tables; nothing else outlives the build.
    """

    def __init__(self):
        self.tails = {}
        self.nets = []
        # per net: (its head or the whole net, its group or None)
        self._runs = []
        self._groups = {}
        # per net: (record, gap limit, H1 limit)
        self._limits = []

    def add(self, v, epsilon, target):
        """A continuous piecewise polynomial ``v`` as a ReLU net: exact at
        the nodes (hat carriers), within epsilon times its scale in sup and
        derivative elsewhere, exactly 0 outside the node span on the side
        of any vanishing endpoint value.  ``measure`` records its measured
        gaps and raises on an H1 gap over ``target``."""
        if not isinstance(v, PiecewisePolynomial):
            raise TypeError("expected a PiecewisePolynomial record")
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        vmax, dmax = v.sup_bounds()
        scale = max(1.0, vmax, dmax)
        gap = v.continuity_gap()
        if gap > 1e-10 * scale:
            raise ValueError(f"discontinuous at a node: jump {gap:.3e} exceeds 1e-10 * scale")
        # the worst-case branch bounds keep the sup and derivative gaps within
        # epsilon * scale / 2, so the measurement only certifies
        tau = 0.5 * epsilon * scale
        branches, weights = [], []
        for j, val in enumerate(v.node_values()):
            if val != 0.0:
                branches.append(_hat_branch(v.nodes, j))
                weights.append(float(val))
        bubbles = 0
        for i in range(v.n_pieces):
            s = _bubble_poly(v.ref_coeffs[i])
            if s is None:
                continue
            branches.append(_bubble_branch(v.nodes[i], v.nodes[i + 1], s, tau, tau,
                                           self.tails))
            weights.append(1.0)
            bubbles += 1
        lb = _LB(max(1, len(branches)))
        lb.row(range(len(branches)), weights)
        net = NeuralNetwork(lb.in_cols, [lb.done()])
        # the weighted sum of the branches; with none, the zero net
        if branches:
            net = concat(net, parallel(depth_align(branches)))
        run = net, None
        if bubbles == len(branches) == 1:
            group = branches[0].layers[2]
            if group not in self._groups:
                self._groups[group] = NeuralNetwork(net.layers[2].cols, net.layers[2:])
            run = NeuralNetwork(1, net.layers[:2]), group
        self.nets.append(net)
        self._runs.append(run)
        self._limits.append((v, epsilon * scale, target))
        return net

    def run(self, xs):
        """(values, derivatives) of each net at its 1-D points ``xs[i]``."""
        out, cols = [], {}
        for i, ((first, group), x) in enumerate(zip(self._runs, xs)):
            y, jac = backends.run_forward_grad(first.packed(), x[None, :])
            if group is None:
                out.append((y[0], jac[0, :, 0]))
                continue
            # the head's ReLU, which a whole pass applies after its layers
            backends.relu(y, jac)
            cols.setdefault(group, []).append((i, y, jac))
            out.append(None)
        for group, heads in cols.items():
            y, jac = backends.run_forward_grad(
                self._groups[group].packed(),
                np.concatenate([y for _, y, _ in heads], axis=1),
                seed=np.concatenate([jac for _, _, jac in heads], axis=1))
            lo = 0
            for i, head, _ in heads:
                hi = lo + head.shape[1]
                out[i] = y[0, lo:hi], jac[0, lo:hi, 0]
                lo = hi
        return out

    def measure(self):
        """Measure every net, record its sup, derivative sup and H1 gaps in
        ``net.meta``, and raise on the first, in build order, that misses
        its gap limit or its H1 target."""
        points = [_pw_points(v) for v, _, _ in self._limits]
        xs = [np.concatenate([x for x, _, _ in pieces]) for pieces in points]
        for net, (v, limit, target), pieces, (vals, der) in zip(
                self.nets, self._limits, points, self.run(xs)):
            sup, dsup, h1 = _pw_gaps(v, pieces, vals, der)
            if max(sup, dsup) > limit:
                raise AssertionError(
                    f"piecewise build missed its certified budget: {max(sup, dsup):.3e} "
                    f"> {limit:.3e}")
            net.meta.update(measured_sup=sup, measured_dsup=dsup, h1_err=h1)
            if net.meta["h1_err"] > target:
                raise AssertionError(
                    f"basis net H1 error {h1:.3e} exceeds target {target:.3e}")


def basis_net(v, epsilon1, nets):
    """Network for one hp basis function with H1 error below
    epsilon1 * |v|_H1 and exact nodal values, added to ``nets``, whose
    ``measure`` certifies it."""
    if not 0.0 < epsilon1 <= 1.0:
        raise ValueError("epsilon1 must lie in (0, 1]")
    support = getattr(v, "support", None)
    if support is not None and len(support) > 2:
        raise ValueError("basis function support spans more than two intervals")
    semi = getattr(v, "h1_seminorm", 0.0) or 1.0
    target = epsilon1 * semi
    span = v.nodes[-1] - v.nodes[0]
    vmax, dmax = v.sup_bounds()
    scale = max(1.0, vmax, dmax)
    # the worst-case branch bounds keep the sup and derivative gaps within
    # eps_pw * scale / 2 on a support of length span: an H1 gap of target / 4
    eps_pw = target / (2.0 * scale * math.sqrt(2.0 * span))
    return nets.add(v, min(eps_pw, 0.5), target)
