"""Every public name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import ultradiffusion

MODULES = ["ultradiffusion"] + [
    f"ultradiffusion.{info.name}" for info in pkgutil.iter_modules(ultradiffusion.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []

