"""Module-layout rules of the package.

Checked on its source with ``ast``: every import sits at module level, and
no module reaches into another xlwpt module for a ``_private`` name, by
import or by attribute. Checked in a fresh interpreter: importing the
package starts no thread. Checked on the package: ``__all__`` lists each
exported name once, and ``from xlwpt import *`` binds exactly those names.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import xlwpt

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "xlwpt"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def xlwpt_module(node):
    """The xlwpt module an ``ImportFrom`` names, or None for another package."""
    if node.level:
        return node.module or ""
    if node.module == "xlwpt" or (node.module or "").startswith("xlwpt."):
        return node.module
    return None


def test_modules_found():
    assert {"pa.py", "power.py", "baselines.py"} <= {p.name for p in MODULES}


def test_import_starts_no_thread():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import xlwpt, threading; print(threading.active_count())"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=60, check=True)
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [
        "%s:%d" % (func.name, node.lineno)
        for func in ast.walk(parse(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_from_another_module(path):
    tree = parse(path)
    imported = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and xlwpt_module(node) is not None]
    private = ["%s from %s" % (alias.name, xlwpt_module(node) or ".")
               for node in imported for alias in node.names
               if alias.name.startswith("_")]
    # ``from . import pa`` binds a module; its private attributes are off limits too
    modules = {alias.asname or alias.name for node in imported if not node.module
               for alias in node.names}
    private += ["%s.%s" % (node.value.id, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert private == []


def test_star_import_binds_the_export_list_once():
    # a name in __all__ that the package does not bind fails the star import
    namespace = {}
    exec("from xlwpt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(xlwpt.__all__)
    assert len(xlwpt.__all__) == len(set(xlwpt.__all__))
