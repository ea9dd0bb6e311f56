"""No shipped code or stored value that only tests reach.

``ast`` scans of the package:

- every module-level function or class, and every method of such a class
  (re-exported ones too) but the dunder ones Python calls, must be
  referenced somewhere in ``src/hprelu`` outside its own definition.  An
  import or an ``__all__`` entry is not a reference; the package's
  re-exports, the console entry point and ``BENCHMARK_ONLY`` are called
  from outside;
- every property, and every attribute a method stores on ``self``, must be
  read in ``src/hprelu`` or ``perfbench`` (a property's own body aside);
- every key the package writes into a network's ``meta`` must be read
  there as ``meta[key]`` or ``meta.get(key)``;
- every parameter with a default (a dataclass field with one included)
  must be passed at some call in ``src/hprelu`` or ``perfbench``.
"""

import ast
import collections
import pathlib

import numpy as np

import hprelu
from hprelu import build_phi_eps_c, grad_realize_batch
from hprelu.catalog import corner_singular
from hprelu.mesh import graded_axis
from hprelu.projector import hp_interpolate

SRC = pathlib.Path(hprelu.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# called only by the benchmark: resolve_backend for its environment record
# and NetConfig.for_dim, which returns the plain defaults, for its 3d
# workload's config (perfbench/worker.py), _CompiledField.gradient_axes,
# which perfbench/spans.py wraps by name on every compiled field, and
# HpInterpolant.value, which perfbench/worker.py's serve check compares the
# served values against (the bare-name check would count
# WeightedFunction.value's callers for it).  A method's key is its
# module-qualified class and its name
BENCHMARK_ONLY = {("backends", "resolve_backend"), ("assembly.NetConfig", "for_dim"),
                  ("assembly._CompiledField", "gradient_axes"),
                  ("projector.HpInterpolant", "value")}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_has_a_caller():
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    exempt = {("cli", "main")} | BENCHMARK_ONLY | {
        (node.module, alias.name) for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = collections.Counter(n for tree in trees.values() for n in _names(tree))
    defs = [(mod, node) for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    methods = [(f"{mod}.{cls.name}", node) for mod, cls in defs
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    unused = [f"{mod}.{node.name}" for mod, node in defs + methods
              if (mod, node.name) not in exempt
              and uses[node.name] == sum(n == node.name for n in _names(node))]
    assert unused == []


# what the package and the benchmark read: ``x.name``, and
# ``getattr(x, "name")`` / ``hasattr(x, "name")``
READERS = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))

# result records: their fields are what callers get back
RECORDS = {"BuildReport", "ErrorReport", "FitResult", "NetworkStats", "RuleCheck"}

# net.meta keys kept with no package reader, and why
META_KEPT = {
    "levels": "the README documents it: the product net's sawtooth depth",
    "measured_dsup": "a piecewise net's measured derivative error, for the error ledger",
}


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def _stored(trees):
    """(qualified name, attribute, property body or None) per class member
    that holds a value: each property, and each ``self.x`` a method sets."""
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in RECORDS:
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if any(isinstance(dec, ast.Name) and dec.id == "property"
                       for dec in fn.decorator_list):
                    yield f"{mod}.{cls.name}.{fn.name}", fn.name, fn
                    continue
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"):
                        yield f"{mod}.{cls.name}.{node.attr}", node.attr, None


def test_every_attribute_has_a_reader():
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    reads = collections.Counter(
        n for f in READERS for n in _reads(ast.parse(f.read_text())))
    unread = sorted({qual for qual, attr, body in _stored(trees)
                     if reads[attr] == (sum(n == attr for n in _reads(body)) if body else 0)})
    assert unread == []


def _is_meta(node):
    return ((isinstance(node, ast.Name) and node.id == "meta")
            or (isinstance(node, ast.Attribute) and node.attr == "meta"))


def _meta_writes(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update" and _is_meta(node.func.value)):
            yield from (kw.arg for kw in node.keywords)
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and _is_meta(node.value) and isinstance(node.slice, ast.Constant)):
            yield node.slice.value


def _meta_reads(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and _is_meta(node.value) and isinstance(node.slice, ast.Constant)):
            yield node.slice.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and _is_meta(node.func.value)
              and node.args and isinstance(node.args[0], ast.Constant)):
            yield node.args[0].value


def test_every_meta_key_has_a_reader():
    written = {k for f in SRC.glob("*.py") for k in _meta_writes(ast.parse(f.read_text()))}
    read = {k for f in READERS for k in _meta_reads(ast.parse(f.read_text()))}
    assert sorted(written - read - set(META_KEPT)) == []
    assert set(META_KEPT) <= written


# parameters whose default no call overrides, and why
DEFAULT_KEPT = {("cli.main", "argv"): "the console entry point calls main() bare"}


def _defaults(body, qual, cls=None):
    """(qualified name, callee name, parameter, index among a call's
    positional arguments or None) per parameter with a default, in
    functions, methods (``__init__`` called by its class's name) and
    dataclass fields.  A lambda's defaults bind loop variables and are
    never passed, so lambdas are skipped."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            name = cls if node.name == "__init__" else node.name
            a = node.args
            pos = a.posonlyargs + a.args
            # a method's call does not pass its first parameter
            skip = int(cls is not None)
            for i in range(len(pos) - len(a.defaults), len(pos)):
                yield f"{qual}.{node.name}", name, pos[i].arg, i - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{qual}.{node.name}", name, arg.arg, None
            yield from _defaults(node.body, f"{qual}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            fields = [st for st in node.body if isinstance(st, ast.AnnAssign)]
            for i, st in enumerate(fields):
                if st.value is not None:
                    yield f"{qual}.{node.name}", node.name, st.target.id, i
            yield from _defaults(node.body, f"{qual}.{node.name}", node.name)


def _passes(call, param, index):
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_passed_somewhere():
    calls = collections.defaultdict(list)
    for f in READERS:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                fn = node.func
                calls[fn.id if isinstance(fn, ast.Name) else fn.attr].append(node)
    found = sorted(
        (qual, param)
        for f in sorted(SRC.glob("*.py"))
        for qual, name, param, index in _defaults(ast.parse(f.read_text()).body, f.stem)
        if not any(_passes(c, param, index) for c in calls[name]))
    assert [k for k in found if k not in DEFAULT_KEPT] == []
    assert set(DEFAULT_KEPT) <= set(found)


def test_the_benchmark_harness_runs_on_the_package(monkeypatch):
    # the benchmark reads package names that nothing in the package may
    # call (the tracer patches each traced name by getattr, the ``noqa``
    # imports among them): load it, patch and restore every traced name,
    # and run its set-up, its problems, its per-layer table and its oracle
    # on a small compiled net
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import worker

    served = hprelu.network.grad_realize_batch
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.restore()
    assert hprelu.network.grad_realize_batch is served
    worker.warm_up()
    for name in worker.WORKLOADS:
        u, d, eps, cfg = worker.problem(name)
        assert u.dim == d and 0.0 < eps < 2.0
    interp = hp_interpolate(corner_singular(2, 0.6), graded_axis(0.0, 1.0, (0.0,), 0.5, 1), 2)
    net = build_phi_eps_c(interp, 1e-1)
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (16, 2))
    table = worker.layer_table(net, worker.stage_names(net.meta, net.depth), pts, repeats=1)
    assert [row["layer"] for row in table] == list(range(net.depth))
    vals, jac = worker.ScipyOracle(net)(pts)
    want = grad_realize_batch(net, pts)
    assert worker._close(vals, want[0]) and worker._close(jac, want[1])
