"""The benchmark's traced mode wraps mcsim functions by name; every name it
lists must still resolve, or the traced run fails at getattr."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listed():
    tracer = _tracer()
    for table in (tracer.REPORTED, tracer.ATTRIBUTED):
        for layer, names in table.items():
            for name in names:
                yield layer, name


@pytest.mark.parametrize("layer, name", sorted(set(_listed())))
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"mcsim.{layer}")
    if name == "build":
        # stands for every build_* function of the layer
        assert any(n.startswith("build_") for n in vars(module))
    else:
        assert callable(getattr(module, name))
