"""The package namespace: every exported name loads its submodule on
first use and is the object of that submodule."""

import importlib

import pytest

import triderive


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
