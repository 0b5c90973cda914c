"""Every name a module of the package imports is used in that module, and
importing the CLI builds no typing.ForwardRef."""

import ast
import os
import subprocess
import sys
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


def _fresh_interpreter(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermatecc.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def test_import_builds_no_forward_reference():
    # a record field annotated with a string becomes a typing.ForwardRef,
    # which compiles the string when the class is created: code generated
    # at every import
    code = (
        "import typing\n"
        "made = []\n"
        "init = typing.ForwardRef.__init__\n"
        "typing.ForwardRef.__init__ = lambda self, arg, *a, **k: made.append(arg) or init(self, arg, *a, **k)\n"
        "import fermatecc.cli\n"
        "print(made)\n"
    )
    assert _fresh_interpreter(code).strip() == "[]"


def test_pruned_kernel_loads_no_module():
    # numpy loads some submodules on first use (np.unique loads numpy.ma,
    # about 40 ms cold), which every fresh compute on a large graph would
    # pay.  This graph runs both of eps3_pruned's level gathers
    code = (
        "import sys\n"
        "import fermatecc as fe\n"
        "g = fe.random_connected(40, seed=1, extra_edges=4)\n"
        "d = fe.all_pairs_distances(g)\n"
        "before = set(sys.modules)\n"
        "fe.eps3_pruned(g, d)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    assert _fresh_interpreter(code).strip() == "[]"
