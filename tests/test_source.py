"""Source-level rules for the runtime package."""

from __future__ import annotations

import ast
from pathlib import Path

import lplab

SRC = Path(lplab.__file__).parent


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # assert disappears under python -O, so no runtime invariant may rest on
    # it; a failed invariant raises an LplabError with its reason, not a bare
    # AssertionError
    sources = sorted(SRC.glob("*.py"))
    assert "harness.py" in {p.name for p in sources}
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
