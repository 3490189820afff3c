"""Every function and class defined in the library is used somewhere.

The source trees (src/, tests/ and benchmark/) are parsed with ``ast``,
not imported.  A definition under src/graphalg counts as used when its
name appears outside its own body: as a name, an attribute, an imported
name, or a string that is an identifier (the benchmark's tracer names
what it wraps by such strings).  Dunder methods are exempt.

Matching by name cannot tell two definitions with one name apart, nor a
definition from a builtin or a builtin type's method of its name.  Such
definitions are listed in ``COLLISIONS`` so that a reviewer checks them
by hand."""

import ast
import builtins
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmark")

# Builtins and the methods of the builtin types the library handles.
BUILTIN_NAMES = frozenset(dir(builtins)).union(
    *(dir(t) for t in (dict, float, frozenset, int, list, set, str, tuple))
)

# Every library definition, as "<module> <qualified name>", whose name
# is defined more than once in src/graphalg or is in BUILTIN_NAMES.
# test_every_definition_is_referenced counts a reference to any of them
# for all of them, so each entry says where it is used.
COLLISIONS = {
    # a transform's matrix reads its apply; the plan's apply runs each
    # transform's, and total_matrix and u0_matrix_A read it
    "continuation.py BoundaryTransform.apply",
    "continuation.py ContinuationPlan.apply",
    # matrix-vector product: tests and the benchmark's tracer
    "exact_algebra.py ExactMatrix.apply",
    # to_integer, _require_integer and integer_u0_matrix check it
    "exact_algebra.py ExactMatrix.is_integer",
    # VertexFunction's map: __call__, _value_map and the benchmark read it
    "network.py VertexFunction._vmap",
    "network.py VertexFunction.vmap",
    # a morphism's vertex map: validate_morphism, compose and the rest
    "partial_graph.py DGraphMorphism._vmap",
    "partial_graph.py DGraphMorphism.vmap",
    # build_parser's helper that registers a subcommand
    "cli.py build_parser.add",
}


def references(node):
    """Count the names that ``node`` refers to, by identifier."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
        elif (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and sub.value.isidentifier()
        ):
            names[sub.value] += 1
    return names


def parse_trees():
    return {
        path: ast.parse(path.read_text(), str(path))
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
    }


def definitions(module, prefix=""):
    """Yield ``(qualified name, node)`` for every function and class."""
    for node in ast.iter_child_nodes(module):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield prefix + node.name, node
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def test_every_definition_is_referenced():
    parsed = parse_trees()
    total = Counter()
    for module in parsed.values():
        total += references(module)
    library = ROOT / "src" / "graphalg"
    unused = []
    for path, module in parsed.items():
        if library not in path.parents:
            continue
        for node in ast.walk(module):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - references(node)[name] == 0:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def test_name_collisions_are_listed():
    library = ROOT / "src" / "graphalg"
    found = [
        (path.name, qualname, node.name)
        for path, module in parse_trees().items()
        if library in path.parents
        for qualname, node in definitions(module)
        if not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    count = Counter(name for _, _, name in found)
    collisions = {
        f"{file} {qualname}"
        for file, qualname, name in found
        if count[name] > 1 or name in BUILTIN_NAMES
    }
    assert collisions == COLLISIONS
