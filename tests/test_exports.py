"""Every name a module exports in ``__all__`` exists, so a deletion cannot
leave a stale export behind."""

import importlib
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
