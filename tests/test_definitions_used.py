"""Every function, class and method under src/spanforge is referenced.

An ast scan, standard library only: a module-level function or class, or a
method of a module-level class, must be named somewhere in src/, tests/ or
perfbench/ other than by its own definition.  A reference is a Name, an
Attribute, an imported name, or a string constant that is a dotted name (as
monkeypatch.setattr and the benchmark's tracer name their targets).  Dunder
methods are called by the language, so they are not scanned.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = [p for d in ("src", "tests", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def definitions(tree: ast.Module):
    """(line, name) for each module-level function or class and each method
    of a module-level class, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((m.lineno, m.name) for m in node.body
                        if isinstance(m, defs[:2])
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def unreferenced(sources: dict[str, str], scanned: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each definition in a module of scanned that
    no file of sources references."""
    used = set().union(*(references(ast.parse(text)) for text in sources.values()))
    return [(name, line, d) for name in scanned
            for line, d in definitions(ast.parse(sources[name])) if d not in used]


def test_every_definition_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SCANNED}
    in_src = [name for name in sources if name.startswith("src")]
    assert len(in_src) >= 12
    assert unreferenced(sources, in_src) == []


def test_the_scan_finds_an_unreferenced_definition():
    module = ("def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
              "class Box:\n    def __init__(self):\n        pass\n\n"
              "    def opened(self):\n        pass\n\n    def shut(self):\n        pass\n")
    caller = ("from module import used\nimport json\nbox = Box()\nbox.opened()\n"
              "setattr(json, 'x.shut', 1)\nprint('dead code')\n")
    assert unreferenced({"module": module, "caller": caller}, ["module"]) \
        == [("module", 5, "dead")]
