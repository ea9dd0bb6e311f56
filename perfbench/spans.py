"""Span tracing of hprelu from the outside.

``Tracer.install()`` replaces public hprelu functions with timing wrappers
at the name their caller looks them up (``hprelu.assembly.h1_error``,
``hprelu.backends.run_forward_grad``, ...).  No source module is edited.
Spans (name, start, end, parent) are kept in memory and written out when
the run ends; counters (calls, points, multiply-adds) are kept at the same
boundaries.  ``restore()`` puts every original back.
"""

import json
import time
from collections import defaultdict

import hprelu.assembly
import hprelu.backends
import hprelu.emulation
import hprelu.metrics
import hprelu.network
from hprelu.projector import HpInterpolant

_CALCULUS = ("concat", "parallel", "full_parallel", "depth_align", "identity_net")


def packed_nnz(packed):
    """Stored weights of a packed layer list (one multiply-add per point)."""
    return sum(len(vals) for _, _, vals, _ in packed)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.counts = defaultdict(float)
        self._stack = []
        # phase spans (calibrate, compile, certify, eval): a backends call
        # is attributed to the innermost one around it
        self._phase = [None]
        self._saved = []

    # -- recording ---------------------------------------------------

    def call(self, name, fn, args, kwargs, phase=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        if phase is not None:
            self._phase.append(phase)
        rec = [name, time.perf_counter(), 0.0, parent, self._phase[-1]]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if phase is not None:
                self._phase.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def phase(self):
        return self._phase[-1]

    def span(self, name, fn, *args, phase=None, **kwargs):
        """Run ``fn`` under a span recorded by the benchmark itself."""
        return self.call(name, fn, args, kwargs, phase=phase)

    # -- installation --------------------------------------------------

    def _patch(self, module, attr, make):
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def _simple(self, name, count=None, phase=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                if count is not None:
                    count(self, *args, **kwargs)
                return self.call(name, orig, args, kwargs, phase=phase)
            return wrapper
        return make

    def install(self):
        A, E, M, N, B = (hprelu.assembly, hprelu.emulation, hprelu.metrics,
                         hprelu.network, hprelu.backends)
        for attr in ("hp_interpolate", "multipatch_interpolate"):
            self._patch(A, attr, self._simple(
                "projector.interpolate", _count("projector.calls"),
                phase="calibrate"))
        self._patch(A, "h1_error", self._h1_error)
        self._patch(A, "build_phi_eps_c", self._simple(
            "assembly.compile", phase="compile"))
        self._patch(A, "compiled_field", self._compiled_field)
        self._patch(A, "basis_net", self._simple(
            "emulation.basis_net", _count("emulation.basis_net_calls")))
        self._patch(A, "product_net", self._simple("emulation.product_net"))
        for mod in (A, E):
            for attr in _CALCULUS:
                if hasattr(mod, attr):
                    self._patch(mod, attr, self._simple(
                        "calculus", _count("calculus.calls")))
        for mod in (A, E, M, N):
            self._patch(mod, "realize_batch", self._simple(
                "network.realize", _count_points))
            self._patch(mod, "grad_realize_batch", self._simple(
                "network.grad", _count_grad_points))
        for attr in ("serialize", "deserialize"):
            self._patch(N, attr, self._simple("network." + attr))
        self._patch(B, "run_forward", self._simple(
            "backends.forward", _count_macs("forward")))
        self._patch(B, "run_forward_grad", self._simple(
            "backends.grad", _count_macs("grad")))
        return self

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _h1_error(self, orig):
        def wrapper(f, g, *args, **kwargs):
            # the certify call measures interpolant vs compiled network;
            # calibration measures a catalog function vs a candidate
            kind = "certify" if isinstance(f, HpInterpolant) else "calibrate"
            self.counts["metrics.calls"] += 1
            return self.call("metrics." + kind, orig, (f, g) + args, kwargs,
                             phase=kind)
        return wrapper

    def _compiled_field(self, orig):
        def wrapper(*args, **kwargs):
            field = orig(*args, **kwargs)
            for attr in ("value_axes", "gradient_axes"):
                method = getattr(field, attr)
                setattr(field, attr, self._field_eval(method, attr))
            return field
        return wrapper

    def _field_eval(self, method, attr):
        def wrapper(axes):
            if attr == "value_axes":
                npts = 1
                for a in axes:
                    npts *= len(a)
                self.counts["assembly.certify_points"] += npts
            return self.call("assembly.certify_eval", method, (axes,), {})
        return wrapper

    # -- results -------------------------------------------------------

    def self_times(self):
        """Per span name: (total inclusive seconds, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = defaultdict(float)
        excl = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            incl[name] += t1 - t0
            excl[name] += t1 - t0 - child[k]
        return incl, excl

    def phase_totals(self, name):
        """Seconds in spans called ``name`` per enclosing phase."""
        out = defaultdict(float)
        for sname, t0, t1, _, phase in self.spans:
            if sname == name:
                out[phase] += t1 - t0
        return out

    def write(self, path):
        """One JSON object per span: name, start, end, parent index."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for k, (name, t0, t1, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name,
                                     "start": t0 - base, "end": t1 - base,
                                     "parent": parent, "phase": phase}))
                fh.write("\n")


def _count(key):
    def count(tracer, *args, **kwargs):
        tracer.counts[key] += 1
    return count


def _count_points(tracer, net, pts, *args, **kwargs):
    tracer.counts["network.points"] += len(pts)


def _count_grad_points(tracer, net, pts, *args, **kwargs):
    tracer.counts["network.grad_calls"] += 1
    _count_points(tracer, net, pts)
    if tracer.parent_name() == "assembly.certify_eval":
        tracer.counts["assembly.cell_evals"] += 1


def _count_macs(kind):
    def count(tracer, packed, x, backend=None, seed=None):
        npts = x.shape[1]
        if kind == "grad":
            nd = x.shape[0] if seed is None else seed.shape[2]
            npts *= 1 + nd
        key = f"backends.{tracer.phase()}.{kind}_macs"
        tracer.counts[key] += packed_nnz(packed) * npts
    return count
