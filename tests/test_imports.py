"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import fermatecc

MODULES = sorted(p for p in Path(fermatecc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import binds in source that no other expression reads.

    A "# noqa" comment exempts nothing: a name kept only for another
    module to look up is still unused here.  __init__ re-exports its
    imports, so it is not checked.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = f"line {node.lineno}: {name}"
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                bound[name] = f"line {node.lineno}: {name}"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(where for name, where in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found_despite_noqa():
    source = "from os import path, sep  # noqa: F401\nimport os.path\nprint(sep)\n"
    assert unused_imports(source) == ["line 1: path", "line 2: os"]
