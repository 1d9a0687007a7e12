"""Every layer boundary the benchmark wraps still exists under its name.

``perfbench/layers.py`` lists the ``repro`` functions and methods the
traced benchmark run wraps, and ``perfbench/spans.Instrumented`` resolves
each one: a method as ``attr in vars(cls)``, a function as a module
attribute.  A renamed or moved hook fails here, instead of crashing the
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize("module_name,qualname,layer", _targets())
def test_perfbench_target_resolves(module_name, qualname, layer):
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, class_name)), f"{module_name}.{qualname}"
    else:
        assert callable(getattr(module, qualname)), f"{module_name}.{qualname}"
