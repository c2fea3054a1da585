"""Every name a module exports in ``__all__`` exists, so a deletion cannot
leave a stale export behind; every tensor op exported is one the library
runs; and the stream's geometry stays below the encoder."""

import ast
import importlib
import inspect
import pkgutil
import sys

import pytest

import blossomrec
from blossomrec import tensor
from blossomrec.config import RunConfig
from blossomrec.data import leave_one_out_split, make_synthetic
from blossomrec.model import Model, train
from blossomrec.verify import gathered_equivalence_error

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


def test_every_tensor_op_runs_outside_tests():
    """Each function ``tensor`` exports is called by the library itself,
    traced with ``sys.setprofile``: one epoch of training (a single Adam
    step of a 2-layer model with dropout, then ``evaluate`` and with it
    ``last_hidden``) on tiny data at desk width, and ``verify``'s
    gathered-against-dense attention check. An op only tests call is not
    exported."""
    wanted = {obj.__code__: name for name, obj in vars(tensor).items()
              if name in tensor.__all__ and inspect.isfunction(obj)}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in wanted:
            called.add(wanted[frame.f_code])

    run = RunConfig(block_size=32, stride=16, sel_block_size=16, top_k=2, win=8, heads=4,
                    kv_groups=2, d_model=32, d_head=8, layers=2, max_len=100, batch_size=16,
                    dropout=0.1, epochs=1, negatives=20)
    dataset = leave_one_out_split(make_synthetic(8, 40, 2, 30, 0.1, seed=0))
    sys.setprofile(profile)
    try:
        model = Model(dataset.num_items, run.attention(), run.layers, seed=0,
                      max_len=run.max_len, dropout=run.dropout)
        train(model, dataset, run)
        gathered_equivalence_error(range(1), (3, 17))
    finally:
        sys.setprofile(None)
    assert sorted(set(wanted.values()) - called) == []


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
