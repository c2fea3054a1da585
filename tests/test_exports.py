"""Every name a module exports in ``__all__`` exists, so a deletion cannot
leave a stale export behind; and the stream's geometry stays below the
encoder."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import blossomrec

NAMES = ["blossomrec"] + [f"blossomrec.{info.name}"
                          for info in pkgutil.iter_modules(blossomrec.__path__)]
MODULES = [name for name in NAMES if hasattr(importlib.import_module(name), "__all__")]


def test_every_module_is_listed():
    assert {"blossomrec.stis", "blossomrec.analysis", "blossomrec.verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["blossomrec.data", "blossomrec.ltis", "blossomrec.stis"])
def test_geometry_sits_below_the_encoder(name):
    """``data`` owns the packed stream's geometry and both index builders
    read it, so none of them may import ``fusion`` or ``model``."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= set((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for alias in node.names for part in alias.name.split(".")}
    assert not names & {"fusion", "model"}, names
