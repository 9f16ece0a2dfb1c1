"""The package namespace: every exported name loads its submodule on
first use and is the object of that submodule; no module imports a name
it does not use, nor a module from outside the standard library."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import triderive

SRC = Path(triderive.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_to_their_home_objects():
    assert len(set(triderive.__all__)) == len(triderive.__all__)
    for name in triderive.__all__:
        home = importlib.import_module(f"triderive.{triderive._HOME_OF[name]}")
        assert getattr(triderive, name) is getattr(home, name), name


def test_resolved_names_are_not_cached():
    # The benchmark's tracer rebinds names in the home modules and puts
    # them back; a copy kept in the package would keep the wrapper.
    assert triderive.bracket is triderive.lie.bracket
    assert "bracket" not in vars(triderive)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from triderive import *", namespace)
    for name in triderive.__all__:
        assert namespace[name] is getattr(triderive, name), name


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError,
                       match="module 'triderive' has no attribute 'nope'"):
        triderive.nope


def unused_imports(source: str) -> list[str]:
    """The names that import statements bind in a module and nothing else
    in it reads, with their line numbers."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in read]


def test_unused_imports_are_found():
    source = "import os, re\nfrom typing import Any, Sequence\nre.compile\nx: Any\n"
    assert unused_imports(source) == ["os (line 1)", "Sequence (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """The modules that import statements name outside the standard
    library and the package itself, with their line numbers.  Relative
    imports name the package."""
    allowed = sys.stdlib_module_names | {"triderive"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in allowed]
    return found


def test_foreign_imports_are_found():
    source = ("import os, numpy\nfrom numpy.linalg import solve\n"
              "from . import poly\nfrom .lie import bracket\n"
              "import triderive.poly\nfrom xml.dom import minidom\n")
    assert foreign_imports(source) == ["numpy (line 1)",
                                       "numpy.linalg (line 2)"]
    injected = "import numpy\n" + (SRC / "poly.py").read_text()
    assert foreign_imports(injected) == ["numpy (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def setattr_bypasses(source: str) -> list[int]:
    """The lines that call ``object.__setattr__``: the package's values
    set their attributes plainly."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__setattr__"
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "object")


def test_setattr_bypasses_are_found():
    source = ("class A:\n    def __init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "        self.y = 2\n        super().__setattr__('z', 3)\n"
              "object.__setattr__(A(), 'w', 4)\n")
    assert setattr_bypasses(source) == [3, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_setattr_bypass(path):
    assert setattr_bypasses(path.read_text()) == []


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """The private functions, classes and methods that the given modules
    define and none of them names anywhere (as a name, an attribute or
    an imported name), with their module and line numbers.  Dunders are
    exempt."""
    defined = []
    named = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((module, node.name, node.lineno))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [f"{module}: {name} (line {line})"
            for module, name, line in defined if name not in named]


def test_unreferenced_private_defs_are_found():
    sources = {
        "a": "def _used(): pass\ndef _unused(): pass\nclass _C:\n"
             "    def _hook(self): pass\n    def __eq__(self, o): pass\n"
             "    def _called(self): self._hook2()\n",
        "b": "from a import _used as u\nclass D:\n    def _hook2(self): pass\n"
             "    def m(self, c): c._called()\n",
    }
    assert unreferenced_private_defs(sources) == [
        "a: _unused (line 2)", "a: _C (line 3)", "a: _hook (line 4)"]


def test_every_private_definition_is_used():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def unused_exports(exports: list[str], sources: dict[str, str],
                   readme: str) -> list[str]:
    """The exported names that no module but ``__init__.py`` names outside
    the definition of that name, and that no code span or fenced block
    of the README shows."""
    used = set()
    for module, source in sources.items():
        if module == "__init__.py":
            continue
        for stmt in ast.parse(source).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    for code in re.findall(r"```.*?```|`[^`\n]+`", readme, re.DOTALL):
        used.update(re.findall(r"\w+", code))
    return [name for name in exports if name not in used]


def test_unused_exports_are_found():
    sources = {
        "__init__.py": "_HOMES = {'m': ('used', 'shown', 'recursive', 'lone')}",
        "m.py": "def used(): pass\ndef shown(): pass\n"
                "def recursive(k): return recursive(k - 1)\ndef lone(): pass\n"
                "class C:\n    def m(self): return used()\n",
    }
    readme = "Prose names lone and recursive.\n\n```python\nshown()\n```\n"
    assert unused_exports(["used", "shown", "recursive", "lone"], sources,
                          readme) == ["recursive", "lone"]
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    package["poly.py"] += "\ndef unused_export():\n    return unused_export\n"
    assert unused_exports([*triderive.__all__, "unused_export"], package,
                          README.read_text()) == ["unused_export"]


def test_every_export_is_used():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_exports(triderive.__all__, sources,
                          README.read_text()) == []
