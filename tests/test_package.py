import importlib

import pytest

import evpricing

MODULES = ["competition", "distributions", "errors", "evtfit", "guarantees", "kernel", "policy"]


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_each_public_name(name):
    # a module's __all__, or every public name of one without it (errors)
    module = importlib.import_module(f"evpricing.{name}")
    names = getattr(module, "__all__", [s for s in vars(module) if not s.startswith("_")])
    assert names
    for symbol in names:
        assert getattr(evpricing, symbol, None) is getattr(module, symbol), symbol
