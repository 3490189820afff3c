"""Every function and class defined in the library is used somewhere.

The source trees (src/, tests/ and benchmark/) are parsed with ``ast``,
not imported.  A definition under src/graphalg counts as used when its
name appears outside its own body: as a name, an attribute, an imported
name, or a string that is an identifier (the benchmark's tracer names
what it wraps by such strings).  A bare name counts only where no
enclosing function binds it (as a parameter, an assignment, loop,
comprehension, with or except target, or a nested definition), so a
local variable does not keep a library function of its name alive.  A
definition nested in a function counts as used when its enclosing
function loads its name outside its body.  Dunder methods are exempt.

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_nodes(scope):
    """The nodes of a function's own scope: its body and signature,
    entering no function, lambda or class defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def bound_names(scope):
    """The names that a function binds in its own scope."""
    args = scope.args
    names = {
        a.arg
        for a in args.posonlyargs + args.args + args.kwonlyargs
        + [args.vararg, args.kwarg]
        if a is not None
    }
    for node in own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def references(node):
    """Count the names that ``node`` refers to, by identifier; a bare
    name counts only where no enclosing function within ``node`` binds
    it."""
    names = Counter()
    stack = [(node, frozenset())]
    while stack:
        sub, bound = stack.pop()
        if isinstance(sub, FUNCTIONS):
            bound = bound | bound_names(sub)
        stack.extend((child, bound) for child in ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Name):
            if sub.id not in bound:
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
        if isinstance(node, DEFINITIONS):
            yield prefix + node.name, node
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def loads(node, name):
    """How many bare names in ``node`` read ``name``."""
    return sum(
        isinstance(sub, ast.Name)
        and sub.id == name
        and isinstance(sub.ctx, ast.Load)
        for sub in ast.walk(node)
    )


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
        enclosing = {
            node: scope
            for scope in ast.walk(module)
            if isinstance(scope, FUNCTIONS)
            for node in own_nodes(scope)
            if isinstance(node, DEFINITIONS)
        }
        for node in ast.walk(module):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if node in enclosing:
                used = loads(enclosing[node], name) > loads(node, name)
            else:
                used = total[name] > references(node)[name]
            if not used:
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
