"""Source-level rules for the runtime package."""

from __future__ import annotations

import ast
from pathlib import Path

import lplab

SRC = Path(lplab.__file__).parent


def test_no_assert_statements():
    # assert disappears under python -O, so no runtime invariant may rest on it
    sources = sorted(SRC.glob("*.py"))
    assert "harness.py" in {p.name for p in sources}
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
