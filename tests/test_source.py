"""Source-level rules the library keeps."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import altcycles
from conftest import bench_module


def library_sources():
    """(file name, source lines, parsed module) per library module."""
    sources = sorted(Path(altcycles.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        yield path.name, text.splitlines(), ast.parse(text)


def library_nodes():
    for name, _lines, tree in library_sources():
        for node in ast.walk(tree):
            yield name, node


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


def test_range_errors_are_raised_in_graph_only():
    """Vertex ranges are checked by `ColoredMultigraph.check_vertices`, so no
    other module spells the check again."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in library_nodes()
        if name != "graph.py"
        and isinstance(node, ast.Raise)
        and any(
            getattr(sub, "id", getattr(sub, "attr", None)) == "OutOfRangeError"
            for sub in ast.walk(node)
        )
    ]
    assert found == []


def test_ranges_are_checked_at_the_public_doors_only():
    """A vertex range is checked once, by the public call that receives the
    vertex: only `ColoredMultigraph` methods and names in `altcycles.__all__`
    call `check_vertices`. The internal steps read the masks, so no module
    but `graph.py` probes an edge through `has_edge_color`."""
    found = []
    for name, _lines, tree in library_sources():
        for top in tree.body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                if not isinstance(func, ast.FunctionDef):
                    continue
                door = func.name if func is top else f"{top.name}.{func.name}"
                called = {getattr(node.func, "attr", None) for node in ast.walk(func)
                          if isinstance(node, ast.Call)}
                if "check_vertices" in called and not (
                    door in altcycles.__all__ or door.startswith("ColoredMultigraph.")
                ):
                    found.append(f"{name}:{door} checks a range")
                if "has_edge_color" in called and name != "graph.py":
                    found.append(f"{name}:{door} calls has_edge_color")
    assert found == []


def test_no_unused_imports():
    """Every imported name is read in its module, re-exported through the
    package's `__all__`, or marked `# noqa: F401` beside its reason."""
    found = []
    for name, lines, tree in library_sources():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if name == "__init__.py":
            used |= set(altcycles.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{name}:{node.lineno}:{bound}")
    assert found == []


def test_benchmark_hooks_resolve():
    """The benchmark's tracer wraps these module attributes and skips a
    missing one, so a rename would silently drop its layer's metrics."""
    missing = [
        f"{module}.{attr}"
        for module, attr, _layer in bench_module("spans").HOOKS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_generator_runs_no_exhaustive_search():
    """`gen_counterexample` checks its graph by the block lemmas, so
    `generate.py` imports neither the oracles nor the alternating-path search."""
    banned = {"oracles", "is_color_connected", "exists_alternating_path"}
    found = []
    for name, node in library_nodes():
        if name == "generate.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            imported = {part for n in names for part in n.split(".")}
            found += [f"{node.lineno}:{b}" for b in sorted(banned & imported)]
    assert found == []


def test_merge_layer_checks_closure_once_per_solve():
    """The merge layer's input is 2-M-closed: `solve_hamiltonian` checks it
    once, and no construction rescans the graph."""
    (tree,) = [tree for name, _lines, tree in library_sources() if name == "merge.py"]
    callers = [
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "two_m_violations"
    ]
    assert callers == ["solve_hamiltonian"]
