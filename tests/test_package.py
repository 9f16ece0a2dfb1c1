"""The package namespace: every exported name loads its submodule on
first use and is the object of that submodule; no module imports a name
it does not use."""

import ast
import importlib
from pathlib import Path

import pytest

import triderive

SRC = Path(triderive.__file__).parent


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
