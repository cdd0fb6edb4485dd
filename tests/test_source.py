"""Source-level rules the library keeps."""
from __future__ import annotations

import ast
from pathlib import Path

import altcycles


def library_nodes():
    sources = sorted(Path(altcycles.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_assert_in_library():
    """`python -O` strips `assert`, so validation must raise explicitly."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_adjacency_storage_stays_in_graph_module():
    """Other modules read the neighbor masks through `masks`, so the storage
    format is known to `graph.py` alone."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in library_nodes()
        if name != "graph.py" and isinstance(node, ast.Attribute) and node.attr == "_adj"
    ]
    assert found == []
