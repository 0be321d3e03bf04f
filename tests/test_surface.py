"""The package's module surface: no public name that nothing reads.

A module-level name without a leading underscore stays only when the
package exports it (weylsymbols.__all__), when library code outside its
own definition reads it (as a name, an attribute or an import), when the
acceptance gate imports it, or when the benchmark traces it (LAYERS in
perfbench/workloads.py).  Anything else is a wrapper or a constant only
tests read, which moves into the test that reads it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import weylsymbols

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(weylsymbols.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined(stmt: ast.stmt) -> set[str]:
    """The module-level names a top-level statement defines (imports
    excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _read(nodes) -> set[str]:
    """Every name the statements read: loaded names, attributes and the
    names a from-import binds."""
    out: set[str] = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def _layers() -> set[str]:
    """The "<module>.<function>" names the benchmark's traced run wraps."""
    for stmt in _tree(ROOT / "perfbench" / "workloads.py").body:
        if "LAYERS" in _defined(stmt):
            return set(ast.literal_eval(stmt.value))
    raise AssertionError("perfbench/workloads.py defines no LAYERS")


def _unread(module: str, trees: dict[str, ast.Module], gate: set[str],
            layers: set[str]) -> list[str]:
    """The public names of the module that no rule keeps."""
    exported = set(weylsymbols.__all__)
    others = set().union(*(_read(tree.body) for name, tree in trees.items()
                           if name != module))
    body = trees[module].body
    out = []
    for stmt in body:
        for name in sorted(_defined(stmt)):
            if name.startswith("_") or name in exported or name in others:
                continue
            if name in gate or f"{module}.{name}" in layers:
                continue
            if name not in _read(s for s in body if s is not stmt):
                out.append(name)
    return out


@pytest.fixture(scope="module")
def surface():
    trees = {p.stem: _tree(p) for p in PACKAGE.glob("*.py")}
    gate = _read(node for node in _tree(ROOT / "tests" / "test_acceptance.py").body
                 if isinstance(node, ast.ImportFrom))
    return trees, gate, _layers()


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_reader(surface, module):
    trees, gate, layers = surface
    assert _unread(module, trees, gate, layers) == []


def test_a_name_only_its_own_definition_reads_is_unread(surface):
    _, gate, layers = surface
    trees = {"lonely": ast.parse(
        "def kept(n):\n    return helper(n)\n\n"
        "def helper(n):\n    return n\n\n"
        "def spare(n):\n    return spare(n - 1) if n else kept(0)\n")}
    assert _unread("lonely", trees, gate, layers) == ["spare"]
