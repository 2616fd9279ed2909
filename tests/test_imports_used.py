"""Every name a module under src/spanforge or tests imports is used in that
module.

An ast scan, standard library only: a module-level or local import binds
names, and each bound name must be read somewhere in the module, string
annotations included, or be exported through __all__ (the package __init__
computes its __all__, so it re-exports every import).  `from __future__`
imports are directives, not names.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spanforge"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted(TESTS.glob("*.py"))


def annotations(tree: ast.Module):
    """Every annotation expression, string annotations parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            found = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = [node.returns]
        else:
            continue
        for ann in found:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield ast.parse(ann.value, mode="eval")
            elif ann is not None:
                yield ann


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each imported name that the module never reads.  A
    module whose __all__ is computed re-exports every name it imports."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                return []
            exported |= {e.value for e in node.value.elts
                         if isinstance(e, ast.Constant)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    # a dotted read a.b.c starts with a Name, so reading the Names suffices
    read = exported | {n.id for root in [tree, *annotations(tree)]
                       for n in ast.walk(root)
                       if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_package_has_modules():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name
                         if p.parent == SRC else f"tests/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_an_unused_import():
    source = ("from os import path, sep\nimport sys\nimport json\n"
              "x: 'json.JSONDecoder' = None\nprint(sep)\n")
    assert unused_imports(ast.parse(source)) == [(1, "path"), (2, "sys")]
    assert unused_imports(ast.parse("import sys\n__all__ = ['sys']\n")) == []
