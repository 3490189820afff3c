"""The benchmark's tracer (``benchmark/tracing.py``) wraps graphalg's
functions and methods by name.  Every name it patches must still
resolve, so that deleting or renaming a traced name fails here and not
only in a traced benchmark run.  The tracer file is only read."""

import importlib.util
from pathlib import Path

import graphalg
import graphalg.cli  # noqa: F401  (the tracer reaches graphalg.cli)

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for module, attr, _ in load_tracing().FUNCTIONS:
        assert callable(getattr(getattr(graphalg, module), attr, None)), (
            f"graphalg.{module}.{attr} is traced but missing"
        )


def test_patched_attributes_exist():
    # the classes and attributes that Tracer.install patches in place
    patched = [
        (graphalg.exact_algebra.ExactMatrix, "__mul__"),
        (graphalg.exact_algebra.ExactMatrix, "apply"),
        (graphalg.exact_algebra.ModuleDecomposition, "from_cyclic_orders"),
        (graphalg.continuation.ContinuationPlan, "total_matrix"),
        (graphalg.partial_graph.PartialGraph, "__init__"),
        (graphalg.partial_graph.PartialGraph, "star"),
    ]
    for owner, attr in patched:
        assert callable(getattr(owner, attr, None)), (
            f"{owner.__name__}.{attr} is patched by the tracer but missing"
        )
