"""Every function and class defined in the library is used somewhere.

The source trees (src/, tests/ and benchmark/) are parsed with ``ast``,
not imported.  A definition under src/graphalg counts as used when its
name appears outside its own body: as a name, an attribute, an imported
name, or a string that is an identifier (the benchmark's tracer names
what it wraps by such strings).  Dunder methods are exempt."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmark")


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
