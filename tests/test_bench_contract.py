"""The bench tracer resolves every function in bench/layers.json by name,
and one in-process pass of each bench workload matches bench/reference.json."""

import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.json"


def test_every_traced_function_exists():
    layers = json.loads(LAYERS.read_text())["layers"]
    missing = [
        f"{layer['module']}.{attr}"
        for layer in layers.values()
        for attr in layer["functions"]
        if not callable(getattr(importlib.import_module(layer["module"]), attr, None))
    ]
    assert not missing, f"bench/layers.json names missing functions: {missing}"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py imported in-process; its thread pins and path edits are
    undone when the module's tests end."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(BENCH), *sys.path]):
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run


@pytest.mark.parametrize("workload", ["sweep", "verify", "arcs"])
def test_one_pass_matches_reference(bench_run, workload):
    # (3,2,3,3), (3,3,2,3) and (3,3,3,2) at tau = 1.7i hold band-edge pairs
    # 8e-4 apart that a small move of Q's nodes turns into a complex pair;
    # such a move shows here before a bench run
    ops = bench_run.inputs.make_ops(workload, 3)
    done = bench_run.run_pass(workload, ops, bench_run.inputs.build_specs(ops))
    ref = json.loads((BENCH / "reference.json").read_text())["workloads"][workload]
    assert bench_run.count_failures(workload, ops, done["answers"], ref) == 0
