"""The benchmark's tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_the_package():
    tracer = load_tracer()
    assert set(tracer.LAYERS) <= set(tracer.MODULES)
    missing = []
    for modname, funcs in tracer.LAYERS.items():
        module = importlib.import_module(f"spiralmaps.{modname}")
        for attr in funcs:
            owner, _, name = attr.rpartition(".")
            if owner:  # a method, looked up in its class's own namespace
                found = name in vars(getattr(module, owner, object))
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{modname}.{attr}")
    assert not missing, missing
