"""The bench tracer resolves every function in bench/layers.json by name."""

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.json"


def test_every_traced_function_exists():
    layers = json.loads(LAYERS.read_text())["layers"]
    missing = [
        f"{layer['module']}.{attr}"
        for layer in layers.values()
        for attr in layer["functions"]
        if not callable(getattr(importlib.import_module(layer["module"]), attr, None))
    ]
    assert not missing, f"bench/layers.json names missing functions: {missing}"
