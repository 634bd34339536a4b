"""The benchmark tracer's layer names must keep resolving in the program.

``perfbench/tracer.py`` finds each traced layer by function name among the
loaded ``councilnet`` modules and needs exactly one object per name.  A layer
that is removed, renamed or defined twice would otherwise fail only a traced
benchmark run.  ``phase1.node_states`` is why ``node_states`` stays in the
library although the simulator never calls it: ``BENCHMARK.json`` names the
layer's metrics, and dropping it belongs with a change to the benchmark.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import councilnet

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_names_one_program_object():
    for info in pkgutil.iter_modules(councilnet.__path__):
        importlib.import_module(f"councilnet.{info.name}")
    tracer = load_tracer()
    assert "phase1.node_states" in tracer.LAYERS
    for layer, name in tracer.LAYERS.items():
        obj = tracer.program_attr(name)
        assert callable(obj), layer
        assert obj.__module__.split(".")[0] == "councilnet", layer
