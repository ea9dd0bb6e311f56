"""No shipped code that only tests reach.

An ``ast`` scan of the package: every module-level function or class must
be referenced somewhere in ``src/hprelu`` outside its own definition.  An
import or an ``__all__`` entry is not a reference; the package's
re-exports and the console entry point are called from outside.
"""

import ast
import collections
import pathlib

import hprelu

SRC = pathlib.Path(hprelu.__file__).parent

# read only by the benchmark's environment record (perfbench/worker.py)
BENCHMARK_ONLY = {("backends", "resolve_backend")}


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
    unused = [f"{mod}.{node.name}" for mod, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and (mod, node.name) not in exempt
              and uses[node.name] == sum(n == node.name for n in _names(node))]
    assert unused == []
