"""Every name the package exports is reached from outside the tests."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meaninglab"

# Exports that only the tests call, kept because each is a formula of the
# paper that the tests use as an oracle or check against its own claim.
PAPER_FORMULAS = {
    "gilbert_bounds": "the G(n, p) connectivity lower bounds that acceptance tests 05 and 06 check",
    "edge_probability": "the per-class edge probability that acceptance test 02's edge-count bands are built from",
}


def exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return [alias.asname or alias.name for node in imports for alias in node.names]


def reached(paths, *, bare_names: bool) -> set[str]:
    """Names imported by name from the package in ``paths``, and with ``bare_names`` every name read.

    An attribute access does not count: ``trial.neighborhood_size`` reads a
    field, not the function of that name.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if bare_names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("meaninglab")):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller():
    # A caller is a module of the package other than ``__init__``, or the benchmark.
    called = reached([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"], bare_names=True)
    called |= reached((ROOT / "bench").glob("*.py"), bare_names=False)
    uncalled = [name for name in exports() if name not in called and name not in PAPER_FORMULAS]
    assert uncalled == []
    # A kept formula that gains a caller leaves the list.
    assert set(PAPER_FORMULAS) & called == set()
    assert set(PAPER_FORMULAS) <= set(exports())


def definitions() -> list[tuple[str, str, str]]:
    """``(where, name, kind)`` of every module-level function and non-dunder method in the package.

    ``kind`` is ``"function"``, ``"property"`` for a ``property`` or
    ``cached_property``, or ``"method"`` for any other method.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found.append((path.stem, node.name, "function"))
            elif isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{path.stem}.{node.name}", item.name, "property" if is_property(item) else "method")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return found


def is_property(item: ast.FunctionDef) -> bool:
    return any(ast.unparse(d).rpartition(".")[2] in ("property", "cached_property") for d in item.decorator_list)


def names_read(paths) -> tuple[set[str], set[str], set[str]]:
    """Every name loaded, every attribute accessed, and every attribute called as ``x.name(...)`` in ``paths``."""
    loaded, attributes, called = set(), set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return loaded, attributes, called


def test_every_function_is_read_outside_the_tests():
    # Code that only the tests reach belongs in the tests (``oracles.py``).
    # A property is read only as an attribute, and any other method only
    # by a call ``x.name(...)``: a local variable or a field that shares
    # its name reads nothing.
    loaded, attributes, called = names_read([*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")])
    read = {"function": loaded | attributes, "property": attributes, "method": called}
    unread = [
        f"{where}.{name}"
        for where, name, kind in definitions()
        if name not in read[kind] and name not in PAPER_FORMULAS
    ]
    assert unread == []


# The traversal kernel's 64-bit lane layout, its diagonals and pass budget,
# and the ring tables packed in it.
LAYOUT = {
    "_BITS", "_WORD", "_source_bits", "_bit_levels", "_passes", "_Diagonals", "_PASS_BYTES", "_CALL_WORDS",
    "_kept_diagonals", "_RING_BYTES", "_anchor_rings", "_kth_member",
}


def test_only_graph_reads_the_bit_layout():
    # Other modules ask ``graph`` for distances, balls and ranked pairs; the
    # lanes behind them stay in ``graph``. An import, a bare name or an
    # attribute access counts as a read.
    readers = {}
    for path in PACKAGE.glob("*.py"):
        if path.name != "graph.py":
            found = LAYOUT & (reached([path], bare_names=True) | names_read([path])[1])
            if found:
                readers[path.name] = sorted(found)
    assert readers == {}
