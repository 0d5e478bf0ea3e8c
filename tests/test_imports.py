"""Every name a library module imports is used in it, and every private
helper it defines is used somewhere in the library."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdalang"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from x import a, b\nimport c.d\nprint(a)\n"
    assert unused_imports(source) == [(1, "b"), (2, "c")]


def orphans(sources):
    """Private module-level functions and classes, as (module, name), that
    no module of ``sources`` (module name to text) refers to."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(d for d in defined if d[1] not in used)


def test_no_orphaned_private_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert orphans(sources) == []


def test_an_orphaned_helper_is_found():
    sources = {"m": "def _a(): pass\ndef _b(): pass\nclass _C: pass\n"
                    "def f(): return _a()\n",
               "n": "from m import _b\nimport m\nm._C\n"}
    assert orphans(sources) == [("m", "_b")]
