"""Source-level contracts of the package."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import lpsnav

SRC = Path(lpsnav.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_no_assert_statements_in_src():
    """Every check in the package raises, so it survives python -O, which
    strips `assert` statements."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_trace_targets_resolve():
    """The benchmark's tracer wraps functions by name: every TARGETS entry
    must exist in its lpsnav module, and every GENERATORS entry must be a
    generator function, which the tracer times per next()."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _hook in tracing.TARGETS
        if not callable(getattr(importlib.import_module("lpsnav." + mod), fn, None))
    ]
    assert missing == []
    assert tracing.GENERATORS
    for name in sorted(tracing.GENERATORS):
        mod, fn = name.split(".")
        assert inspect.isgeneratorfunction(
            getattr(importlib.import_module("lpsnav." + mod), fn, None)
        ), name
