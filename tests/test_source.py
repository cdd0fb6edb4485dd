"""Source-level rules the library keeps."""
from __future__ import annotations

import ast
from pathlib import Path

import altcycles


def test_no_assert_in_library():
    """`python -O` strips `assert`, so validation must raise explicitly."""
    sources = sorted(Path(altcycles.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
