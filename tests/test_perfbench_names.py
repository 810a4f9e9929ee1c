"""The benchmark's traced mode wraps mcsim functions by name; every name it
lists must still resolve, or the traced run fails at getattr."""

import importlib

import pytest
from conftest import traced


@pytest.mark.parametrize("layer, name", sorted(set(traced())))
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"mcsim.{layer}")
    if name == "build":
        # stands for every build_* function of the layer
        assert any(n.startswith("build_") for n in vars(module))
    else:
        assert callable(getattr(module, name))
