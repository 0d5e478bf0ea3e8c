"""Every name a library module imports is used in it, every private
helper it defines is used somewhere in the library, every slot of a
library class is read somewhere in the library, and every private
keyword-only parameter is passed by some call in the library."""
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


def module_names(tree):
    """The names a module binds at its top level: functions, classes and
    the targets of plain and annotated assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def orphans(sources):
    """Private module-level functions, classes and assigned names, as
    (module, name), that no module of ``sources`` (module name to text)
    reads."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, name) for name in module_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def test_an_orphaned_assigned_name_is_found():
    sources = {"m": "_A = 1\n_B: int = 2\n_C = _D = 3\n_E = None\n"
                    "__all__ = []\nX = _A\n"
                    "def f():\n    global _E\n    _E = 4\n",
               "n": "import m\nm._D\n"}
    assert orphans(sources) == [("m", "_B"), ("m", "_C"), ("m", "_E")]


def test_the_private_assigned_names_are_checked():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    names = {name for source in sources.values()
             for name in module_names(ast.parse(source))}
    assert {"_KINDS", "_Group", "_FaceEntry", "_LABEL_CHARS", "_INPUT_ERRORS",
            "_parser", "_SINK"} <= names


def unread_slots(sources):
    """Slots of the classes of ``sources`` (module name to text), as
    (module, class, slot), that no module reads as an attribute."""
    slots, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                slots += [(module, node.name, name) for stmt in node.body
                          if isinstance(stmt, ast.Assign)
                          and [t.id for t in stmt.targets
                               if isinstance(t, ast.Name)] == ["__slots__"]
                          for name in ast.literal_eval(stmt.value)]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return sorted(s for s in slots if s[2] not in read)


def test_every_slot_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unread_slots(sources) == []


def test_an_unread_slot_is_found():
    sources = {"m": "class A:\n    __slots__ = ('a', '_b', '_c')\n"
                    "    def __init__(self):\n"
                    "        self.a = self._b = self._c = None\n"
                    "        print(self.a)\n",
               "n": "def f(x):\n    return x._c\n"}
    assert unread_slots(sources) == [("m", "A", "_b")]


def unpassed_private_keywords(sources):
    """Private keyword-only parameters of the functions of ``sources``
    (module name to text), as (module, function, parameter), that no
    call in ``sources`` passes by name."""
    params, passed = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params += [(module, node.name, arg.arg)
                           for arg in node.args.kwonlyargs
                           if arg.arg.startswith("_")]
            elif isinstance(node, ast.Call):
                passed.update(k.arg for k in node.keywords)
    return sorted(p for p in params if p[2] not in passed)


def test_every_private_keyword_is_passed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unpassed_private_keywords(sources) == []
    keywords = {arg.arg for source in sources.values()
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef)
                for arg in node.args.kwonlyargs if arg.arg.startswith("_")}
    assert keywords == {"_composed", "_groups"}


def test_an_unpassed_private_keyword_is_found():
    sources = {"m": "def f(a, *, _b=None, _c=None, d=None):\n    pass\n"
                    "class A:\n    def g(self, *args, _e=1):\n        pass\n"
                    "def h(*, _f):\n    pass\n",
               "n": "import m\nm.f(1, _c=2, d=3)\nm.A().g(_b=4, **{})\n"
                    "m.h(**{'_f': 5})\n"}
    # a keyword counts by its name alone, and ** passes no name
    assert unpassed_private_keywords(sources) == [("m", "g", "_e"),
                                                  ("m", "h", "_f")]
