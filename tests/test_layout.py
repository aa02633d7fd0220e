"""Module-layout rules of the package.

Checked on its source with ``ast``: every import sits at module level, no
module reaches into another xlwpt module for a ``_private`` name, by
import or by attribute, no module uses a private NumPy name, and every
public top-level function or class is exported or used by the package or
its demos, so no test-only API sits in the package. Checked in a fresh
interpreter: importing the package starts no thread. Checked on the
package: ``__all__`` lists each exported name once, and
``from xlwpt import *`` binds exactly those names.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import xlwpt

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xlwpt"
MODULES = sorted(SRC.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def private_numpy_names(tree):
    """Every private NumPy name ``tree`` imports or reads through a NumPy name.

    ``numpy._core``, ``numpy.linalg._umath_linalg`` and ``np._x`` are
    private; dunder names such as ``np.__version__`` are not.
    """
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import numpy.x as y`` binds y to numpy.x, ``import numpy.x`` binds numpy
            imports = [(alias.name, alias.asname or "numpy") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imports = [("%s.%s" % (node.module, alias.name), alias.asname or alias.name)
                       for alias in node.names]
        else:
            continue
        for name, bound in imports:
            if name.split(".")[0] == "numpy":
                if any(map(private, name.split("."))):
                    found.append(name)
                aliases.add(bound)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.append(ast.unparse(node))
    return found


def test_private_numpy_names_are_found():
    tree = ast.parse("import numpy as np\nimport numpy._core\n"
                     "from numpy.linalg import _umath_linalg, solve\n"
                     "from numpy import linalg\n"
                     "np._core.multiarray\nlinalg._linalg.solve\n"
                     "np.add.reduce\nnp.__version__\nother._private\n")
    assert sorted(private_numpy_names(tree)) == [
        "linalg._linalg", "np._core", "numpy._core", "numpy.linalg._umath_linalg"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_numpy_name(path):
    # the lane core cuts NumPy's call overhead on its public API only
    assert private_numpy_names(parse(path)) == []


def referenced_names(node):
    """Every name ``node`` reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_public_definition_is_exported_or_used():
    # a definition's own body does not count as a use of it
    defined, used = [], set(xlwpt.__all__)
    for path in MODULES:
        for node in parse(path).body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                defined.append((path.name, name))
            used |= referenced_names(node) - {name}
    for path in DEMOS:
        used |= referenced_names(parse(path))
    assert [d for d in defined if d[1] not in used] == []


def test_star_import_binds_the_export_list_once():
    # a name in __all__ that the package does not bind fails the star import
    namespace = {}
    exec("from xlwpt import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(xlwpt.__all__)
    assert len(xlwpt.__all__) == len(set(xlwpt.__all__))
