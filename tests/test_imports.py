"""Every module of ``src/lcasched`` uses each name it imports, and imports
the package's modules at module level only.

A name counts as used when the module's code reads it (a bare name, or the
base of an attribute chain) or lists it in ``__all__``, which is how the
package re-exports. ``from __future__`` imports and star imports bind no
name to check. An import of a package module inside a function is how two
modules that import each other hide their cycle, so none is allowed; a
deferred standard-library import is.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lcasched").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nimport numbers\nfrom os import *\n"
    source += "__all__ = ['path']\nfrom os import path, sep\nprint(math.pi)\n"
    assert unused_imports(source) == ["line 3: numbers", "line 6: sep"]


def package_imports_in_functions(source: str) -> list[str]:
    functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    imports = {node for function in functions for node in ast.walk(function) if isinstance(node, (ast.Import, ast.ImportFrom))}
    found = []
    for node in sorted(imports, key=lambda node: node.lineno):
        if isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            modules = [alias.name for alias in node.names]
        found += [f"line {node.lineno}: {m}" for m in modules if m.startswith(".") or m.split(".")[0] == "lcasched"]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_modules_are_imported_at_module_level(path):
    assert package_imports_in_functions(path.read_text(encoding="utf-8")) == []


def test_an_import_inside_a_function_is_found():
    source = "from . import lca\nimport os\n\ndef f():\n    from .problem import Job\n    import lcasched.bench\n"
    source += "    from concurrent.futures import ProcessPoolExecutor\n\nclass C:\n    def g(self):\n"
    source += "        from lcasched import lca\n        import json\n        def h():\n            from .. import x\n"
    expected = ["line 5: .problem", "line 6: lcasched.bench", "line 11: lcasched", "line 14: .."]
    assert package_imports_in_functions(source) == expected
