"""Source-level contracts of the package."""

import ast
from pathlib import Path

import lpsnav

SRC = Path(lpsnav.__file__).parent


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
